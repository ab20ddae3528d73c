"""The records the engine builds through the private builders equal checked ones.

``Simulation`` and ``CopyAudit`` build events and violations from values
they made or checked themselves, without the public constructors' checks,
and a command appends its events to its logs without a role, order or
duplicate check.  These tests rebuild every such record through its
constructor, and every grown log from its events through
``Log.from_events``, which sorts and checks them from scratch.

``pytest tests/test_engine_records.py --hypothesis-profile=events`` runs
ten times as many scenarios.
"""

from hypothesis import given, strategies as st

from logtrust import (
    AuditMode,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Simulation,
    Violation,
    empty_log,
    generate_scenario,
    parse_scenario,
    run_scenario,
)
from logtrust.events import _arrived
from logtrust.simulator import apply_command
from test_events import slot_values


def constructed(event):
    """``event`` built again through its public constructors."""
    if isinstance(event, PerformedEdit):
        return PerformedEdit(event.clock, event.verb, event.by)
    if isinstance(event, PerformedShare):
        return PerformedShare(event.clock, event.by, event.to)
    o = event.origin
    origin = OriginKey(o.grantor, o.grantee, o.share_clock)
    return Obligation(event.clock, event.verb, event.allow, event.by, event.to, origin)


def assert_checked(sim, reports):
    """Every event ``sim`` holds or has in flight, and every violation in
    ``reports``, equals its constructor's copy, slots and keys included."""
    logs = [log for state in sim._held.values() for log in state[2:4]]
    messages = [m for key in sim._channels for m in sim.pending(*key)]
    logs += [log for m in messages for log in (m.edit_log, m.comm_log)]
    for log in logs:
        for event in log.entries:
            assert slot_values(event) == slot_values(constructed(event))
    for report in reports:
        for v in report.violations:
            checked = Violation(v.offender, v.verb, v.action_clock, v.forbid)
            assert slot_values(v) == slot_values(checked)


@given(st.integers(0, 2**32), st.integers(2, 6), st.integers(3, 80), st.sampled_from(AuditMode))
def test_engine_records_equal_checked_ones(seed, peers, commands, mode):
    _, parsed = parse_scenario(generate_scenario(seed, max_peers=peers, max_commands=commands))
    sim = Simulation(mode=mode)
    reports = []
    for command in parsed:
        before = dict(sim._held)
        _, report = apply_command(sim, command)
        if report is not None:
            reports.append(report)
        for key, state in sim._held.items():
            held = before[key][2:4] if key in before else map(empty_log, LogRole)
            for old, new in zip(held, state[2:4]):
                added = list(_arrived(new))[len(old) :]
                assert new == Log.from_events(new.role, (*old.entries, *added))
    # every held copy's audit, in both modes, decides each action once more
    for peer, doc_id in sorted(sim._held):
        reports.append(sim.audit(peer, doc_id))
        sim.mode = AuditMode.LITERAL if sim.mode is AuditMode.PROSE else AuditMode.PROSE
        reports.append(sim.audit(peer, doc_id))
    assert_checked(sim, reports)


def test_no_record_constructor_runs_in_an_engine_op(paper_scenario, monkeypatch):
    calls = []
    for cls in (OriginKey, PerformedEdit, PerformedShare, Obligation, Violation):
        init = cls.__init__

        def counted(self, *args, init=init):
            calls.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    trace = run_scenario(paper_scenario)
    assert len(trace.reports[0].violations) == 1
    assert calls == []
    v = trace.reports[0].violations[0]
    Violation(v.offender, v.verb, v.action_clock, v.forbid)  # the sentinel counts
    assert calls == ["Violation"]
