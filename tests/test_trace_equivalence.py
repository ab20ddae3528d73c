"""Reference snapshots against an eager capture of the engine state.

``run_scenario`` keeps references to the immutable logs and messages
after each command and serializes them only when asked.
``EagerCapture`` is an independent reference: it serializes the whole
engine state right after each command, with comment sets from the
oracle's own replay.  The trace is compared with it only after the run
has finished, so the comparison also shows that later commands never
alter an earlier snapshot.
"""

import hashlib

from logtrust import (
    Simulation,
    event_to_dict,
    generate_scenario,
    parse_command,
    parse_scenario,
    run_scenario,
)
from logtrust import simulator
from logtrust.cli import _dumps
from logtrust.simulator import apply_command
from oracle import oracle_comments

# SHA-256 over the JSON text (``cli._dumps``) of the traces of generated
# scenarios 0-199, in seed order.
TRACES_SHA256 = "03b3f74282720dcf2e8b466f27ba9582fdfab1d521fdd33ea12f9a9ac6309b3f"


class EagerCapture:
    """Serializes the engine state right after a command.

    Each log is serialized when first seen and the result is reused while
    the capture keeps the log alive, so a log changed in place after its
    first capture would no longer match the trace.
    """

    def __init__(self):
        self._logs = {}

    def events(self, log):
        if id(log) not in self._logs:
            self._logs[id(log)] = (log, [event_to_dict(e) for e in log])
        return self._logs[id(log)][1]

    def states(self, sim):
        return tuple(
            {
                "peer": peer,
                "doc": doc_id,
                "edit": self.events(state.edit_log),
                "comm": self.events(state.comm_log),
                "comments": oracle_comments(self.events(state.edit_log)),
            }
            for peer in sim.peers()
            for doc_id in sim.documents()
            if sim.holds(peer, doc_id)
            for state in [sim.peer_state(peer, doc_id)]
        )

    def queues(self, sim, peers):
        """Every non-empty channel among ``peers``, which must name every recipient."""
        out = []
        for sender in peers:
            for recipient in peers:
                for doc_id in sim.documents():
                    messages = sim.pending(sender, recipient, doc_id)
                    if not messages:
                        continue
                    out.append(
                        {
                            "from": sender,
                            "to": recipient,
                            "doc": doc_id,
                            "messages": [
                                {"edit": self.events(m.edit_log), "comm": self.events(m.comm_log)}
                                for m in messages
                            ],
                        }
                    )
        return tuple(out)


def test_reference_snapshots_match_eager_capture():
    for seed in range(200):
        data = generate_scenario(seed, max_peers=8, max_commands=80)
        _, commands = parse_scenario(data)
        sim = Simulation()
        capture = EagerCapture()
        names = sorted({c[k] for c in commands for k in ("from", "to") if k in c})
        eager = []
        for command in commands:
            apply_command(sim, command)
            eager.append((capture.states(sim), capture.queues(sim, names)))

        trace = run_scenario(data)
        serialized = trace.to_dict()["snapshots"]
        assert len(trace.snapshots) == len(serialized) == len(eager)
        for k, (states, queues) in enumerate(eager):
            where = f"seed {seed}, after command {k}"
            assert trace.snapshots[k].states == states, where
            assert trace.snapshots[k].queues == queues, where
            assert serialized[k]["states"] == list(states), where
            assert serialized[k]["queues"] == list(queues), where


def test_generated_traces_are_byte_identical():
    # Pins the JSON of 200 generated scenarios: any change to the engine,
    # the trace or the writer that moves one byte of output fails here.
    digest = hashlib.sha256()
    for seed in range(200):
        trace = run_scenario(generate_scenario(seed, max_peers=8, max_commands=80))
        digest.update(_dumps(*trace.to_dict_and_shared()).encode())
    assert digest.hexdigest() == TRACES_SHA256


def test_snapshots_echo_the_parsed_commands(paper_scenario, monkeypatch):
    # A parsed command is its own echo: parsing it again gives it back,
    # fields in the same order, and each snapshot keeps the very dict.
    parsed = []

    def spy(data):
        name, commands = parse_scenario(data)
        parsed.append(commands)
        return name, commands

    monkeypatch.setattr(simulator, "parse_scenario", spy)
    scenarios = [paper_scenario]
    scenarios += [generate_scenario(seed, max_peers=8, max_commands=80) for seed in range(200)]
    for data in scenarios:
        trace = run_scenario(data)
        commands = parsed.pop()
        assert len(trace.snapshots) == len(commands) == len(data["commands"])
        for raw, command, snapshot in zip(data["commands"], commands, trace.snapshots):
            assert snapshot.command is command
            assert command is not raw
            for again in (parse_command(command), parse_command(raw)):
                assert again == command
                assert list(again) == list(command)
