"""``Simulation.audit`` against a fresh assessment of the full logs.

The engine folds into each held copy's audit only the rows added since
that copy's last audit.  The generated runs reach logs of a thousand rows
and more, far past the byte-identity corpus, with three peers (seed 3)
and with eight (seed 2), in both audit modes and under both trust models.
"""

import pytest

from logtrust import (
    AuditMode,
    Document,
    FixedStepTrust,
    MultiplicativeTrust,
    Simulation,
    event_to_dict,
    generate_scenario,
    local_trust_assessment,
)
from logtrust.simulator import apply_command, parse_scenario
from oracle import oracle_violations, violation_tuple


@pytest.mark.parametrize("seed, peers", [(3, 3), (2, 8)])
@pytest.mark.parametrize("mode", list(AuditMode))
@pytest.mark.parametrize("model", [MultiplicativeTrust(), FixedStepTrust()], ids=["mult", "fixed"])
def test_every_audit_equals_a_fresh_assessment(seed, peers, mode, model):
    _, commands = parse_scenario(generate_scenario(seed, max_peers=8, max_commands=2000))
    assert len(commands) > 1000
    sim = Simulation(mode=mode, trust_model=model)
    last = None
    for command in commands:
        _, report = apply_command(sim, command)
        if report is None:
            continue
        state = sim.peer_state(command["peer"], command["doc_id"])
        document = Document(state.doc_id, state.creator)
        fresh = local_trust_assessment(
            state.edit_log, state.comm_log, document, state.peer, model, mode=mode
        )
        assert report == fresh
        last = state, report
    assert len(sim.peers()) == peers
    state, report = last
    assert len(state.edit_log) + len(state.comm_log) > 1000
    edit = [event_to_dict(e) for e in state.edit_log]
    comm = [event_to_dict(e) for e in state.comm_log]
    want = oracle_violations(edit, comm, state.creator, mode.value)
    assert {violation_tuple(v) for v in report.violations} == want
    assert len(report.violations) == len(want) > 0


def test_audits_follow_a_reassigned_mode_and_trust_model():
    _, commands = parse_scenario(generate_scenario(3, max_peers=8, max_commands=300))
    sim = Simulation()
    for command in commands:
        apply_command(sim, command)
    held = [(peer, "d") for peer in sim.peers()]
    trust_seen = set()
    for mode, model in [
        (AuditMode.PROSE, MultiplicativeTrust()),
        (AuditMode.LITERAL, MultiplicativeTrust()),
        (AuditMode.LITERAL, FixedStepTrust()),
        (AuditMode.PROSE, FixedStepTrust(0.5)),
        (AuditMode.PROSE, MultiplicativeTrust()),
    ]:
        sim.mode, sim.trust_model = mode, model
        for peer, doc in held:
            state = sim.peer_state(peer, doc)
            fresh = local_trust_assessment(
                state.edit_log, state.comm_log, Document(doc, state.creator), peer, model, mode=mode
            )
            report = sim.audit(peer, doc)
            assert report == fresh
            trust_seen.add(tuple(report.trust.values()))
    assert len(trust_seen) > len(held)  # the switches changed some verdicts or trust values
