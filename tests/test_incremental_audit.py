"""``Simulation.audit`` against ``tests/oracle.py`` and a fresh assessment.

Each held copy's audit reads the copy's logs past the events it has
folded, so the engine folds in only the rows added since that copy's
last audit.  Every audit must equal ``oracle_report`` of the
copy's serialized logs, order and trust included, and the same audit
built over the full logs at once (``local_trust_assessment``), which
checks that the fold order does not matter.  The generated runs reach
logs of a thousand rows and more, far past the byte-identity corpus, with
three peers (seed 3) and with eight (seed 2), in both audit modes and
under both trust models.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from logtrust import (
    AuditMode,
    Document,
    FixedStepTrust,
    Log,
    LogRole,
    MultiplicativeTrust,
    Obligation,
    ObligationAtom,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Simulation,
    Verb,
    generate_scenario,
    local_trust_assessment,
    receive_log,
    sort_key,
)
from logtrust import simulator
from logtrust.audit import CopyAudit
from logtrust.simulator import apply_command, parse_scenario
from oracle import oracle_event_dict, oracle_report, violation_tuple

# Each trust model with its ``oracle_trust`` arguments
MULTIPLICATIVE = (MultiplicativeTrust(), ("multiplicative", 0.5))
FIXED = (FixedStepTrust(), ("fixed", 0.2))


def check_audit(report, state, mode, model):
    """``report``, the audit of ``state``, against the fresh audit and the oracle."""
    document = Document(state.doc_id, state.creator)
    fresh = local_trust_assessment(
        state.edit_log, state.comm_log, document, state.peer, model[0], mode=mode
    )
    assert report == fresh
    edit = [oracle_event_dict(e) for e in state.edit_log]
    comm = [oracle_event_dict(e) for e in state.comm_log]
    want = oracle_report(edit, comm, state.creator, state.peer, mode.value, *model[1])
    assert ([violation_tuple(v) for v in report.violations], report.trust) == want


@pytest.mark.parametrize("seed, peers", [(3, 3), (2, 8)])
@pytest.mark.parametrize("mode", list(AuditMode))
@pytest.mark.parametrize("model", [MULTIPLICATIVE, FIXED], ids=["mult", "fixed"])
def test_every_audit_equals_a_fresh_assessment(seed, peers, mode, model):
    _, commands = parse_scenario(generate_scenario(seed, max_peers=8, max_commands=2000))
    assert len(commands) > 1000
    sim = Simulation(mode=mode, trust_model=model[0])
    last = None
    for command in commands:
        _, report = apply_command(sim, command)
        if report is None:
            continue
        state = sim.peer_state(command["peer"], command["doc_id"])
        check_audit(report, state, mode, model)
        last = state, report
    assert len(sim.peers()) == peers
    state, report = last
    assert len(state.edit_log) + len(state.comm_log) > 1000
    assert report.violations


def test_audits_follow_a_reassigned_mode_and_trust_model():
    _, commands = parse_scenario(generate_scenario(3, max_peers=8, max_commands=300))
    sim = Simulation()
    for command in commands:
        apply_command(sim, command)
    held = [(peer, "d") for peer in sim.peers()]
    trust_seen = set()
    for mode, model in [
        (AuditMode.PROSE, MULTIPLICATIVE),
        (AuditMode.LITERAL, MULTIPLICATIVE),
        (AuditMode.LITERAL, FIXED),
        (AuditMode.PROSE, (FixedStepTrust(0.5), ("fixed", 0.5))),
        (AuditMode.PROSE, MULTIPLICATIVE),
    ]:
        sim.mode, sim.trust_model = mode, model[0]
        for peer, doc in held:
            report = sim.audit(peer, doc)
            check_audit(report, sim.peer_state(peer, doc), mode, model)
            trust_seen.add(tuple(report.trust.values()))
    assert len(trust_seen) > len(held)  # the switches changed some verdicts or trust values


@functools.cache
def held_copies():
    """Every held copy at the end of a generated run of 300 commands."""
    _, commands = parse_scenario(generate_scenario(3, max_peers=8, max_commands=300))
    sim = Simulation()
    for command in commands:
        apply_command(sim, command)
    return [sim.peer_state(peer, "d") for peer in sim.peers()]


def fed(assessor, creator, mode, *folds):
    """A ``CopyAudit`` that has folded each of ``folds`` in turn."""
    audit = CopyAudit(assessor, creator, mode)
    for events in folds:
        audit._fold(events)
    return audit


@given(st.data(), st.sampled_from(AuditMode))
def test_a_copy_audit_does_not_depend_on_how_its_events_arrive(data, mode):
    """Every report of a copy fed its events in folds equals the report of a
    fresh copy fed the same events at once, and the last one the oracle's.
    The last ``alone`` events come one fold each, so that a fold whose one
    change is a deleted or replaced verdict shows."""
    state = data.draw(st.sampled_from(held_copies()))
    events = data.draw(st.permutations((*state.edit_log.entries, *state.comm_log.entries)))
    cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
    alone = data.draw(st.integers(0, 40))
    ends = sorted({*cuts, *range(len(events) - alone, len(events) + 1)})
    audit = fed(state.peer, state.creator, mode, events[: ends[0]])
    for start, stop in zip(ends, ends[1:]):
        fresh = fed(state.peer, state.creator, mode, events[:start])
        assert audit.report(state.doc_id) == fresh.report(state.doc_id), start
        audit._fold(events[start:stop])
    check_audit(audit.report(state.doc_id), state, mode, MULTIPLICATIVE)


def obligation(clock, verb, grantor, share_clock, allow=False):
    return Obligation(clock, verb, allow, grantor, "P2", OriginKey(grantor, "P2", share_clock))


def shares(to, *clocks):
    return [PerformedShare(clock, "P2", to) for clock in clocks]


@pytest.mark.parametrize("mode", list(AuditMode))
def test_hand_made_folds_take_each_path_of_the_fold(mode):
    """Four folds of P2's comments and shares to P3 and P4 under forbids.
    The first lands P2's violations of two verbs and two recipients,
    interleaved in clock order, as one sorted run, and records the shares
    to P3 in clock order though they were queued against it.  The second adds one
    after P2's last key, and the third two before it, whose clocks also
    come before their record's last.  The fourth brings a late forbid,
    which replaces the verdicts after it, and a late permit, which in
    prose deletes the verdict it now governs.  Every report equals a fresh
    audit of the events so far and the oracle's."""
    folds = [
        [
            PerformedEdit(1, Verb.CREATE, "P1"),
            obligation(1, Verb.COMMENT, "P1", 1),
            obligation(1, Verb.SHARE, "P1", 1),
            obligation(8, Verb.COMMENT, "P3", 2, allow=True),
            *[PerformedEdit(clock, Verb.COMMENT, "P2") for clock in (3, 6, 9)],
            *shares("P4", 2, 20),
            *shares("P3", 13, 6, 4),  # queued against clock order
        ],
        shares("P3", 21),
        shares("P4", 3, 4),
        [obligation(10, Verb.SHARE, "P3", 3), obligation(5, Verb.SHARE, "P4", 4, allow=True)],
    ]
    audit = fed("P1", "P1", mode)
    seen = []
    for events in folds:
        audit._fold(events)
        seen += events
        report = audit.report("d")
        assert report == fed("P1", "P1", mode, seen).report("d")
        ordered = sorted(seen, key=sort_key)  # log order
        edit = [oracle_event_dict(e) for e in ordered if isinstance(e, PerformedEdit)]
        comm = [oracle_event_dict(e) for e in ordered if not isinstance(e, PerformedEdit)]
        want = oracle_report(edit, comm, "P1", "P1", mode.value, *MULTIPLICATIVE[1])
        assert ([violation_tuple(v) for v in report.violations], report.trust) == want
        if events is folds[0]:
            first = [(v.action_clock, v.verb) for v in report.violations[:5]]
            share, comment = Verb.SHARE, Verb.COMMENT
            assert first == [(2, share), (3, comment), (4, share), (6, comment), (6, share)]
    grantors = [v.grantor for v in report.violations if v.verb is Verb.SHARE]
    cleared = mode is AuditMode.PROSE  # the permit at 5 clears the share at 6 in prose only
    assert grantors == ["P1"] * (4 if cleared else 5) + ["P3"] * 3


def audited(sim, peer):
    """``peer``'s audit of ``d``, checked against a fresh one and the oracle."""
    report = sim.audit(peer, "d")
    check_audit(report, sim.peer_state(peer, "d"), AuditMode.PROSE, MULTIPLICATIVE)
    return report


def test_an_audit_reads_its_held_copy_not_its_lineage():
    """A merge outside the engine into a held log appends to the log's
    lineage past it.  The audit reads the held log alone, also when its edit
    log grew, and the counts it keeps still fit the fork that the engine's
    next op on the grown log makes."""
    sim = Simulation(trust_model=MULTIPLICATIVE[0])
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", [ObligationAtom(Verb.SHARE, False), ObligationAtom(Verb.READ, True)])
    sim.deliver("P2", "P1", "d")
    sim.edit("P2", "d", Verb.READ)
    first = audited(sim, "P2")
    held = sim.peer_state("P2", "d").comm_log
    origin = OriginKey("P3", "P4", 1)
    outside = [PerformedShare(1, "P3", "P4"), Obligation(1, Verb.COMMENT, False, "P3", "P4", origin)]
    grown = receive_log(held, Log.from_events(LogRole.COMM, outside), "P2", 5)
    assert grown._lineage is held._lineage and len(held._lineage.events) > len(held)
    assert audited(sim, "P2") == first
    sim.edit("P2", "d", Verb.READ)  # the held comm log stays behind its lineage's end
    assert sim.peer_state("P2", "d").comm_log is held
    audited(sim, "P2")
    sim.share("P2", "d", "P3", [ObligationAtom(Verb.READ, True)])
    assert sim.peer_state("P2", "d").comm_log._lineage is not held._lineage  # a fork
    report = audited(sim, "P2")
    assert [(v.offender, v.verb) for v in report.violations] == [("P2", Verb.SHARE)]


def test_a_failed_deliver_leaves_the_audit_as_it_was(monkeypatch):
    """A deliver that fails in its comm-log receive, after its edit-log
    receive appended to the held edit log's lineage, changes no audit."""
    sim = Simulation(trust_model=MULTIPLICATIVE[0])
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", [ObligationAtom(Verb.COMMENT, False)])
    sim.edit("P1", "d", Verb.COMMENT)
    sim.share("P1", "d", "P2", [ObligationAtom(Verb.READ, False)])
    sim.deliver("P2", "P1", "d")
    sim.edit("P2", "d", Verb.COMMENT)
    before = audited(sim, "P2")
    assert before.violations
    held = sim.peer_state("P2", "d")
    received = simulator._received

    def failing(local, log, receiver, clock, start):
        if log.role is LogRole.COMM:
            raise ValueError("receive failed")
        return received(local, log, receiver, clock, start)

    monkeypatch.setattr(simulator, "_received", failing)
    with pytest.raises(ValueError, match="receive failed"):
        sim.deliver("P2", "P1", "d")
    assert sim.peer_state("P2", "d") is held
    assert len(held.edit_log._lineage.events) > len(held.edit_log)
    assert sim.audit("P2", "d") == before
    monkeypatch.undo()
    sim.deliver("P2", "P1", "d")
    audited(sim, "P2")
