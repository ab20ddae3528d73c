"""``Simulation`` on large held logs, against ``tests/oracle.py``'s reference
engine, and the work its log ops and audits do as the logs grow.

A log is a prefix of an append-only lineage, and a share or deliver reads
only what is new on its channel (``events._outbound``, ``events._received``).
These tests are the safety net for that storage.  The reference engine
keeps plain sorted lists and re-sorts and rescans them on every op, so
Tier-1 runs each scenario's first ``PREFIX`` commands.  The whole
scenarios (seeds 3 and 2 at ``max_commands=2000``, and sixteen interleaved
documents of about 5.5k commands) are marked ``large``: they run with
``pytest --large -m large`` (``tests/conftest.py``).
"""

import math

import pytest

from logtrust import Simulation, generate_scenario, log_to_dict
from logtrust import events as events_module
from logtrust import simulator as simulator_module
from logtrust.audit import CopyAudit
from logtrust.simulator import apply_command, parse_scenario
from oracle import oracle_engine

PREFIX = 600
CHECK_EVERY = 100


def interleaved(documents, max_commands=8000):
    """``documents`` generated scenarios of 8 peers, document ``k`` from seed
    ``k`` renamed ``d{k}``, interleaved one command at a time.  The peers
    are the same, so their clocks are shared across documents."""
    runs = []
    for k in range(documents):
        scenario = generate_scenario(k, max_peers=8, max_commands=max_commands // documents)
        runs.append([{**c, "doc_id": f"d{k}"} for c in scenario["commands"]])
    commands = []
    for step in range(max(map(len, runs))):
        commands += [run[step] for run in runs if step < len(run)]
    return {"name": f"interleaved-{documents}", "commands": commands}


SCENARIOS = {
    "seed3": lambda: generate_scenario(3, max_peers=8, max_commands=2000),
    "seed2": lambda: generate_scenario(2, max_peers=8, max_commands=2000),
    "docs16": lambda: interleaved(16),
}


def compare(sim, reference, peers):
    """Every clock, held copy and pending message equals the reference's."""
    clocks = reference["clocks"]
    assert {p: sim.clock(p) for p in clocks} == clocks
    docs = sim.documents()
    held = {(p, d) for p in sim.peers() for d in docs if sim.holds(p, d)}
    assert held == set(reference["held"])
    for (peer, doc), want in reference["held"].items():
        state = sim.peer_state(peer, doc)
        assert log_to_dict(state.edit_log, doc)["events"] == want["edit"], (peer, doc)
        assert log_to_dict(state.comm_log, doc)["events"] == want["comm"], (peer, doc)
        assert state.creator == want["creator"]
    channels = {(s, r, d) for s in peers for r in peers for d in docs if sim.pending(s, r, d)}
    assert channels == set(reference["queues"])
    for (sender, recipient, doc), want in reference["queues"].items():
        got = [
            {
                "edit": log_to_dict(m.edit_log, doc)["events"],
                "comm": log_to_dict(m.comm_log, doc)["events"],
                "creator": m.creator,
            }
            for m in sim.pending(sender, recipient, doc)
        ]
        assert got == want, (sender, recipient, doc)


def check_against_reference(monkeypatch, scenario, limit=None):
    """Run ``scenario``'s commands (its first ``limit``) on the engine and on
    the reference engine, comparing them every ``CHECK_EVERY`` commands and
    at the end.

    No command may fork a log: each held copy and each channel appends
    only to a lineage of its own, so the engine never copies a log's list.
    """
    _, commands = parse_scenario(scenario)
    commands = commands[:limit]
    peers = sorted({c[k] for c in commands for k in ("peer", "from", "to") if k in c})
    forked = []
    fork = events_module._fork
    monkeypatch.setattr(events_module, "_fork", lambda log: forked.append(log) or fork(log))
    sim, reference = Simulation(), {}
    for i, command in enumerate(commands, 1):
        clock, _ = apply_command(sim, command)
        assert clock == oracle_engine(reference, command)
        assert not forked, (i, command)
        if i % CHECK_EVERY == 0 or i == len(commands):
            compare(sim, reference, peers)
    return commands, sim


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_prefix_matches_the_reference_engine(monkeypatch, name):
    commands, sim = check_against_reference(monkeypatch, SCENARIOS[name](), PREFIX)
    assert len(commands) == PREFIX
    assert any(c["op"] == "deliver" for c in commands)


@pytest.mark.large
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_large_scenario_matches_the_reference_engine(monkeypatch, name):
    commands, sim = check_against_reference(monkeypatch, SCENARIOS[name]())
    assert len(commands) > 1000
    largest = max(
        len(sim.peer_state(p, d).edit_log) + len(sim.peer_state(p, d).comm_log)
        for p in sim.peers()
        for d in sim.documents()
        if sim.holds(p, d)
    )
    assert largest > (1000 if name != "docs16" else 300)


def count_reads_from_the_start(monkeypatch, scenario, limit=None):
    """Run ``scenario``'s commands (its first ``limit``), checking that a
    deliver reads a message's two logs from their first event only for
    the channel's first message; every later message extends the same
    lineages, so a deliver reads only past the last one.  Returns the
    number of deliveries."""
    starts = []
    received = events_module._received

    def counted(local, message_log, receiver, clock, start):
        starts.append(start)
        return received(local, message_log, receiver, clock, start)

    monkeypatch.setattr(simulator_module, "_received", counted)
    _, commands = parse_scenario(scenario)
    sim, delivered, deliveries = Simulation(), set(), 0
    for i, command in enumerate(commands[:limit]):
        starts.clear()
        apply_command(sim, command)
        if command["op"] == "deliver":
            channel = (command["from"], command["to"], command["doc_id"])
            first = channel not in delivered
            delivered.add(channel)
            deliveries += 1
            assert starts.count(0) == (2 if first else 0), (i, command, starts)
    return deliveries


def test_only_a_first_message_is_read_from_the_start(monkeypatch):
    for seed in range(60):
        scenario = generate_scenario(seed, max_peers=8, max_commands=400)
        assert count_reads_from_the_start(monkeypatch, scenario) > 0, seed
    assert count_reads_from_the_start(monkeypatch, SCENARIOS["docs16"](), PREFIX) > 0


@pytest.mark.large
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_only_a_first_message_is_read_from_the_start_in_a_large_scenario(monkeypatch, name):
    assert count_reads_from_the_start(monkeypatch, SCENARIOS[name]()) > 100


class _CountedList(list):
    """A lineage's list that counts the events its slices hand out."""

    read = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        if isinstance(index, slice):
            _CountedList.read += len(got)
        return got


def test_log_work_grows_about_linearly_with_commands(monkeypatch):
    """Receives, outbound filters and forks read events only through slices
    of a lineage's list.  Counted over the first 500 and 2,000 commands of
    one scenario, that work must grow with a log-log slope of at most 1.3,
    so the work per command stays nearly flat; re-reading whole logs grows
    it with a slope of about 2."""

    class CountedLineage(events_module._Lineage):
        def __init__(self, events, *order):
            super().__init__(_CountedList(events), *order)

    monkeypatch.setattr(events_module, "_Lineage", CountedLineage)
    _, commands = parse_scenario(generate_scenario(3, max_peers=8, max_commands=2100))
    work = {}
    for rung in (500, 2000):
        _CountedList.read = 0
        sim = Simulation()
        for command in commands[:rung]:
            apply_command(sim, command)
        work[rung] = _CountedList.read
    assert work[500] > 0
    slope = math.log(work[2000] / work[500]) / math.log(2000 / 500)
    assert slope <= 1.3, (work, slope)


class _CountedName(str):
    """A peer name that counts its hashes while ``counting`` is set."""

    hashes = 0
    counting = False

    def __hash__(self):
        _CountedName.hashes += _CountedName.counting
        return str.__hash__(self)


def test_audit_work_grows_about_linearly_with_commands(monkeypatch):
    """Every keyed lookup an audit makes by a peer or by an action (a verdict,
    a held action, a peer seen) hashes a peer name.  Counted while
    ``CopyAudit.read`` folds and ``CopyAudit.report`` assembles, over the
    first 2,000 and 8,000 commands of one scenario, those hashes must grow
    with a log-log slope of at most 1.3; looking up every violation again in
    each report that follows a change grows them with a slope of about 1.7."""

    def counted(method):
        def run(self, *args):
            _CountedName.counting = True
            try:
                return method(self, *args)
            finally:
                _CountedName.counting = False

        return run

    for name in ("read", "report"):
        monkeypatch.setattr(CopyAudit, name, counted(getattr(CopyAudit, name)))
    _, commands = parse_scenario(generate_scenario(3, max_peers=8, max_commands=8700))
    assert len(commands) >= 8000
    names = {}
    for command in commands:
        for field in ("peer", "from", "to"):
            if field in command:
                command[field] = names.setdefault(command[field], _CountedName(command[field]))
    work = {}
    for rung in (2000, 8000):
        _CountedName.hashes = 0
        sim = Simulation()
        for command in commands[:rung]:
            apply_command(sim, command)
        work[rung] = _CountedName.hashes
    assert work[2000] > 0
    slope = math.log(work[8000] / work[2000]) / math.log(8000 / 2000)
    assert slope <= 1.3, (work, slope)
