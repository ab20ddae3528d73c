"""Traces against an eager capture of the engine state.

``run_scenario`` keeps, per command, only the held copy and channel the
command changed; a snapshot's ``held`` and ``pending`` are read from
the changes up to it, and ``json_pieces`` walks them forward.
``eager_trace_dict`` is an independent reference: it steps a live
``Simulation`` through its public, fully checked methods and captures
the whole engine state right after each command, read through public
engine calls, with comment sets from the oracle's own replay.  The trace is compared with it only after the run
has finished, so the comparison also shows that later commands never
alter an earlier snapshot.
"""

import hashlib
import json
import tracemalloc

import pytest

from logtrust import (
    DEFAULT_TRUST_MODEL,
    AuditMode,
    ObligationAtom,
    Simulation,
    Verb,
    generate_scenario,
    parse_command,
    parse_scenario,
    report_to_dict,
    run_scenario,
)
from logtrust import simulator
from oracle import oracle_comments, oracle_event_dict
from test_large_logs import PREFIX, interleaved

# SHA-256 over the JSON text (``ScenarioTrace.json_pieces``, which ``run
# --format json`` writes) of the traces of generated scenarios 0-199, in
# seed order.
TRACES_SHA256 = "03b3f74282720dcf2e8b466f27ba9582fdfab1d521fdd33ea12f9a9ac6309b3f"


class EagerCapture:
    """Serializes held copies and channels.

    Each log, and the comment set of each edit log, is serialized when
    first seen and the result is reused while the capture keeps the log
    alive, so a log changed in place after its first capture would no
    longer match the trace.  Logs with equal events share one list, so
    that comparing them is cheap.
    """

    def __init__(self):
        self._logs = {}
        self._lists = {}
        self._comments = {}

    def events(self, log):
        if id(log) not in self._logs:
            events = tuple(log)
            if events not in self._lists:
                self._lists[events] = [oracle_event_dict(e) for e in events]
            self._logs[id(log)] = (log, self._lists[events])
        return self._logs[id(log)][1]

    def comments(self, log):
        if id(log) not in self._comments:
            self._comments[id(log)] = oracle_comments(self.events(log))
        return self._comments[id(log)]

    def engine(self, sim, peers):
        """The states and queues of every held copy and every non-empty
        channel among ``peers``, which must name every recipient."""
        docs = sim.documents()
        held = [sim.peer_state(p, d) for p in sim.peers() for d in docs if sim.holds(p, d)]
        pending = [
            ((sender, recipient, doc_id), sim.pending(sender, recipient, doc_id))
            for sender in peers
            for recipient in peers
            for doc_id in docs
            if sim.pending(sender, recipient, doc_id)
        ]
        return self.states(held), self.queues(pending)

    def states(self, held):
        return [
            {
                "peer": state.peer,
                "doc": state.doc_id,
                "edit": self.events(state.edit_log),
                "comm": self.events(state.comm_log),
                "comments": self.comments(state.edit_log),
            }
            for state in held
        ]

    def queues(self, pending):
        return [
            {
                "from": sender,
                "to": recipient,
                "doc": doc_id,
                "messages": [
                    {"edit": self.events(m.edit_log), "comm": self.events(m.comm_log)}
                    for m in messages
                ],
            }
            for (sender, recipient, doc_id), messages in pending
        ]


def step_public(sim, command):
    """Run one ``parse_command`` dict through the public ``Simulation``
    methods, with the verbs and obligation atoms built here, and return
    the clock the command drew (0 for an audit) and the audit report."""
    c = command
    op, ignore = c["op"], c.get("ignore_obligations", False)
    if op == "create":
        return sim.create_doc(c["peer"], c["doc_id"]), None
    if op == "edit":
        return sim.edit(c["peer"], c["doc_id"], Verb(c["verb"]), ignore), None
    if op == "batch":
        return sim.batch(c["peer"], c["doc_id"], [Verb(v) for v in c["verbs"]], ignore), None
    if op == "share":
        atoms = [ObligationAtom(Verb(a["verb"]), a["allow"]) for a in c["obligations"]]
        return sim.share(c["from"], c["doc_id"], c["to"], atoms), None
    if op == "deliver":
        return sim.deliver(c["to"], c["from"], c["doc_id"]), None
    return 0, sim.audit(c["peer"], c["doc_id"])


def eager_trace_dict(
    data, *, mode=AuditMode.PROSE, trust_model=DEFAULT_TRUST_MODEL, capture=None
):
    """The trace of scenario ``data`` as data, from a live ``Simulation``
    stepped by ``step_public``: after each command, the command and its
    clock, the whole engine state as ``capture`` (by default a new
    ``EagerCapture``) reads it, and ``report_to_dict`` of an audit's
    report.  The trace writer writes ``json.dumps`` of it, ``indent=2``."""
    name, commands = parse_scenario(data)
    sim = Simulation(mode=mode, trust_model=trust_model)
    capture = capture or EagerCapture()
    peers = sorted({c[k] for c in commands for k in ("from", "to") if k in c})
    snapshots = []
    for index, command in enumerate(commands):
        clock, report = step_public(sim, command)
        states, queues = capture.engine(sim, peers)
        snapshots.append({
            "index": index,
            "command": command,
            "clock": clock,
            "states": states,
            "queues": queues,
            "report": None if report is None else report_to_dict(report),
        })
    return {
        "name": name,
        "mode": mode.value,
        "trust_model": trust_model.describe(),
        "snapshots": snapshots,
    }


def assert_same_text(text, expected, where):
    """``text == expected``; a difference is reported by its first line,
    not by a diff of two long texts."""
    if text != expected:
        got, want = text.split("\n"), expected.split("\n")
        differ = (i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        n = next(differ, min(len(got), len(want)))
        pytest.fail(f"{where}: line {n + 1} is {got[n:n + 1]}, not {want[n:n + 1]}")


# The orders in which snapshots are read: each order reads a fresh trace,
# and each read takes its state from the commands up to its snapshot.
READ_ORDERS = {
    "front to back": lambda n: range(n),
    "back to front": lambda n: reversed(range(n)),
    "last alone": lambda n: [n - 1],
}


def written_snapshots(trace):
    """The snapshots ``trace.json_pieces()`` writes, each parsed on its own:
    a snapshot's pieces run from the one that opens it with ``[`` or ``,``
    up to the next snapshot's or the closing ``]``."""
    pieces = trace.json_pieces()
    next(pieces)  # the name, mode and trust model
    parts = []
    for piece in pieces:
        if piece.startswith(("[\n    {", ",\n    {", "\n  ]")) and parts:
            yield json.loads("".join(parts)[1:])
            parts = []
        parts.append(piece)


def check_snapshots(data, where, every=1):
    """Every ``every``-th snapshot of ``data``'s trace as the writer writes
    it, parsed, and every snapshot's ``held`` and ``pending`` read in each
    of ``READ_ORDERS``, equal the eager capture."""
    capture = EagerCapture()
    eager = eager_trace_dict(data, capture=capture)
    trace = run_scenario(data)
    chosen = simulator.ScenarioTrace(
        trace.name, trace.mode, trace.trust_model, trace.snapshots[::every]
    )
    written = zip(written_snapshots(chosen), eager["snapshots"][::every], strict=True)
    for k, (got, expected) in enumerate(written):
        assert got == expected, (where, k * every)
    for order, read in READ_ORDERS.items():
        trace = run_scenario(data)
        assert len(trace.snapshots) == len(eager["snapshots"]), where
        for k in read(len(trace.snapshots)):
            snapshot, expected = trace.snapshots[k], eager["snapshots"][k]
            got = (capture.states(snapshot.held), capture.queues(snapshot.pending))
            assert got == (expected["states"], expected["queues"]), (where, order, k)


def test_reference_snapshots_match_eager_capture():
    for seed in range(200):
        check_snapshots(generate_scenario(seed, max_peers=8, max_commands=80), f"seed {seed}")


def sixteen_documents(limit=None):
    data = interleaved(16)
    return {**data, "commands": data["commands"][:limit]}


def test_reference_snapshots_of_sixteen_documents_match_eager_capture():
    check_snapshots(sixteen_documents(PREFIX), "docs16 prefix", every=10)


@pytest.mark.large
def test_reference_snapshots_of_a_large_scenario_match_eager_capture():
    check_snapshots(sixteen_documents(), "docs16", every=100)


def history_items(history):
    """What ``history`` holds, each item by identity."""
    return [
        (name, [id(item) for item in getattr(history, name)])
        for name in simulator._History.__slots__
    ]


def test_snapshots_store_about_what_their_commands_change():
    """A run stores, per command, the held copy and the channel the command
    changed, or None, and nothing else: storing the whole state after every
    command would grow as commands times state size, about 70 per command
    here.  Reading ``held`` and ``pending``, in any order, builds from
    those changes and stores nothing."""
    trace = run_scenario(sixteen_documents(PREFIX))
    history = trace.snapshots[0]._history
    assert simulator._History.__slots__ == ("copies", "channels")
    n = len(trace.snapshots)
    assert len(history.copies) == len(history.channels) == n
    assert all(s._history is history and s.index == k for k, s in enumerate(trace.snapshots))
    for k, snapshot in enumerate(trace.snapshots):
        op = snapshot.command["op"]
        assert (history.copies[k] is None) == (op == "audit"), k
        assert (history.channels[k] is None) == (op not in ("share", "deliver")), k
    stored = history_items(history)
    for order, read in READ_ORDERS.items():
        for k in read(n):
            trace.snapshots[k].held, trace.snapshots[k].pending
        assert history_items(history) == stored, order


def test_every_recorded_copy_grows_a_log():
    """Each command that records a held copy adds to one of its logs, so the
    writer re-renders every recorded copy without checking for an unchanged
    one: create, edit and batch add an edit, a share appends the sender's
    share event, and a deliver brings the share event of its own channel,
    which the outbound filter sends no other peer."""
    for seed in range(100):
        trace = run_scenario(generate_scenario(seed, max_peers=6, max_commands=80))
        last = {}
        for k, copy in enumerate(trace.snapshots[0]._history.copies):
            if copy is None:
                continue
            before = last.get(copy[:2])
            if before is not None:
                grown = [len(new) > len(old) for new, old in zip(copy[2:4], before[2:4])]
                assert any(grown), (seed, k)
            last[copy[:2]] = copy


def test_generated_traces_are_byte_identical():
    # Pins the JSON of 200 generated scenarios: any change to the engine,
    # the trace or the writer that moves one byte of output fails here.
    digest = hashlib.sha256()
    for seed in range(200):
        trace = run_scenario(generate_scenario(seed, max_peers=8, max_commands=80))
        for piece in trace.json_pieces():
            digest.update(piece.encode())
    assert digest.hexdigest() == TRACES_SHA256
    # A generated scenario has at least three commands and two peers, and
    # asking for fewer says so.
    assert len(generate_scenario(0, max_commands=3)["commands"]) == 3
    with pytest.raises(ValueError, match="need room for at least three commands"):
        generate_scenario(0, max_commands=2)
    with pytest.raises(ValueError, match="^need at least two peers$"):
        generate_scenario(0, max_peers=1)


def test_writing_a_trace_leaves_its_states_and_logs_as_they_were():
    # The writer walks the run's changes itself: it changes none of them,
    # and keeps no sorted entries or comment set on a log.
    trace = run_scenario(sixteen_documents(PREFIX))
    history = trace.snapshots[0]._history
    stored = history_items(history)
    logs = [log for copy in history.copies if copy for log in copy[2:4]]
    cached = [(log._entries, log._comments) for log in logs]
    for _ in trace.json_pieces():
        pass
    assert history_items(history) == stored
    assert all(
        log._entries is entries and log._comments is comments
        for log, (entries, comments) in zip(logs, cached)
    )


def test_any_choice_of_snapshots_writes_json_dumps():
    # The walk restarts when an index goes back or the run changes.
    data, other_data = (generate_scenario(seed, max_peers=8, max_commands=80) for seed in (3, 4))
    trace, other = run_scenario(data), run_scenario(other_data)
    eager = eager_trace_dict(data)
    expected = {
        snapshot: snapshot_data
        for run, scenario in ((trace, eager), (other, eager_trace_dict(other_data)))
        for snapshot, snapshot_data in zip(run.snapshots, scenario["snapshots"], strict=True)
    }
    s, o = trace.snapshots, other.snapshots
    assert len(s) > 40
    choices = (s[20:40], s[::-1], s[::7], s[5:6] * 2, s[:10] + o[:10] + s[5:15], s[:10] + o[12:20], ())
    for k, snapshots in enumerate(choices):
        chosen = simulator.ScenarioTrace(trace.name, trace.mode, trace.trust_model, snapshots)
        want = {**eager, "snapshots": [expected[snapshot] for snapshot in snapshots]}
        assert_same_text("".join(chosen.json_pieces()), json.dumps(want, indent=2), f"choice {k}")


def test_writer_memory_follows_the_largest_snapshot_at_one_document():
    # On one document every copy's logs grow with the commands, so the
    # output grows as their square.  The writer keeps the texts of the
    # current state and one text per event, so its peak follows the
    # largest snapshot it writes, not the output nor the logs' versions.
    scenario = generate_scenario(0, max_peers=8, max_commands=1200)
    assert len(scenario["commands"]) == 865
    for size in (432, 865):
        trace = run_scenario({**scenario, "commands": scenario["commands"][:size]})
        largest = snapshot = 0
        tracemalloc.start()
        try:
            for piece in trace.json_pieces():
                if piece.startswith(("[\n    {", ",\n    {")):
                    largest, snapshot = max(largest, snapshot), 0
                snapshot += len(piece)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * max(largest, snapshot), (size, peak, largest)


def backlog(shares):
    """P1 creates ``d``, then shares it with P2 ``shares`` times; nothing is delivered."""
    read = [{"verb": "read", "allow": True}]
    share = {"op": "share", "from": "P1", "to": "P2", "doc_id": "d", "obligations": read}
    create = {"op": "create", "peer": "P1", "doc_id": "d"}
    return {"name": f"backlog-{shares}", "commands": [create] + [share] * shares}


def test_a_run_stores_each_message_of_a_backlog_once():
    # A share adds one message to its channel, and a run keeps one list of
    # them per channel: its memory grows with the backlog (4x for 4x the
    # shares), not with its square (16x), as a copy per share would.
    peaks = {}
    for shares in (1000, 4000):
        tracemalloc.start()
        try:
            trace = run_scenario(backlog(shares))
            peaks[shares] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] < 6 * peaks[1000], peaks
    ((key, messages),) = trace.snapshots[-1].pending
    assert key == ("P1", "P2", "d")
    # in send order: the k-th message carries k shares and their k grants
    assert [len(m.comm_log) for m in messages] == list(range(2, 8001, 2))


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
