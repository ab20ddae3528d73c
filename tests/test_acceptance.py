"""Acceptance suite.

One test per criterion, each ending in a single printed PASS line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import json
import random
import time

from logtrust import (
    AuditMode,
    Log,
    LogRole,
    MultiplicativeTrust,
    FixedStepTrust,
    Obligation,
    OriginKey,
    PerformedEdit,
    Verb,
    Violation,
    apply_violations,
    detect_violations,
    generate_scenario,
    merge_logs,
    report_to_dict,
    run_scenario,
)
from conftest import final_states, logs_from_state
from oracle import oracle_status, oracle_violations, violation_tuple


def _creator_of(state):
    for event in state["edit"]:
        if event["verb"] == "create":
            return event["by"]
    raise AssertionError(f"holder {state['peer']} has no create event")


def _engine_violations(state, mode):
    edit, comm = logs_from_state(state)
    found = detect_violations(edit, comm, mode=mode)
    return {violation_tuple(v) for v in found}


def _oracle_violations(state, mode):
    return oracle_violations(state["edit"], state["comm"], _creator_of(state), mode)


def test_criterion_1_golden_trace(paper_scenario, paper_golden):
    started = time.monotonic()
    trace = run_scenario(paper_scenario)
    elapsed = time.monotonic() - started

    written = trace.to_dict()["snapshots"]
    for checkpoint in paper_golden["checkpoints"]:
        snapshot = written[checkpoint["after"]]
        for expected in checkpoint.get("states", ()):
            matches = [
                s
                for s in snapshot["states"]
                if s["peer"] == expected["peer"] and s["doc"] == expected["doc"]
            ]
            assert matches, (
                f"after command {checkpoint['after']}:"
                f" no state for {expected['peer']}/{expected['doc']}"
            )
            actual = matches[0]
            for part in ("edit", "comm", "comments"):
                assert actual[part] == expected[part], (
                    f"after command {checkpoint['after']}:"
                    f" {expected['peer']} {part} log deviates"
                )
        for expected_queue in checkpoint.get("queues", ()):
            matches = [
                q
                for q in snapshot["queues"]
                if (q["from"], q["to"], q["doc"])
                == (expected_queue["from"], expected_queue["to"], expected_queue["doc"])
            ]
            assert matches, (
                f"after command {checkpoint['after']}: no pending messages"
                f" {expected_queue['from']} -> {expected_queue['to']}"
            )
            assert matches[0]["messages"] == expected_queue["messages"], (
                f"after command {checkpoint['after']}: message payload"
                f" {expected_queue['from']} -> {expected_queue['to']} deviates"
            )

    assert report_to_dict(trace.snapshots[-1].report) == paper_golden["final_report"]
    assert elapsed < 1.0, f"golden trace took {elapsed:.3f}s"
    print(
        f"\nACCEPTANCE CRITERION 1: PASS - golden trace reproduced"
        f" entry-for-entry in {elapsed:.3f}s"
    )


def test_criterion_2_single_violation_detected(paper_scenario):
    trace = run_scenario(paper_scenario)
    assert len(trace.reports) == 1
    report = trace.reports[0]
    assert report.assessor == "P3"
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.offender == "P2"
    assert violation.verb is Verb.COMMENT
    assert violation.action_clock == 2
    assert violation.forbid_clock == 1
    assert violation.grantor == "P1"
    print(
        "\nACCEPTANCE CRITERION 2: PASS - audit finds exactly the forbidden"
        " comment (P2, comment, clock 2, forbid at 1 granted by P1)"
    )


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    scenarios = 0
    comparisons = 0
    for seed in range(500):
        scenario = generate_scenario(seed, max_peers=4, max_commands=12)
        trace = run_scenario(scenario)
        scenarios += 1
        for state in final_states(trace):
            for mode, mode_name in ((AuditMode.PROSE, "prose"), (AuditMode.LITERAL, "literal")):
                engine = _engine_violations(state, mode)
                oracle = _oracle_violations(state, mode_name)
                assert engine == oracle, (
                    f"seed {seed}, holder {state['peer']}, mode {mode_name}:"
                    f" engine {sorted(engine)} vs oracle {sorted(oracle)}"
                )
                comparisons += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE CRITERION 3: PASS - engine matches brute-force oracle"
        f" on {scenarios} scenarios ({comparisons} audits) in {elapsed:.1f}s"
    )


def _random_obligation_case(rng, future_only=False):
    """Synthetic logs: one offender P2, verb comment, one action."""
    action_clock = rng.randint(2, 12)
    count = rng.randint(1, 4)
    clocks = rng.sample(range(1, 15), count)
    if future_only:
        clocks = [c + action_clock for c in clocks]
    obligations = []
    for i, clock in enumerate(sorted(clocks)):
        obligations.append(
            Obligation(
                clock,
                Verb.COMMENT,
                rng.random() < 0.5,
                "P1",
                "P2",
                OriginKey("P1", "P2", 100 + i),
            )
        )
    edit = Log.from_events(
        LogRole.EDIT,
        [
            PerformedEdit(1, Verb.CREATE, "P1"),
            PerformedEdit(action_clock, Verb.COMMENT, "P2"),
        ],
    )
    comm = Log.from_events(LogRole.COMM, obligations)
    return edit, comm, action_clock


def test_criterion_4_invariant_suite():
    cases = {}

    # creator exemption: no audit ever blames the document creator
    checked = 0
    for seed in range(1000, 1200):
        trace = run_scenario(generate_scenario(seed))
        for state in final_states(trace):
            creator = _creator_of(state)
            for mode in (AuditMode.PROSE, AuditMode.LITERAL):
                offenders = {t[0] for t in _engine_violations(state, mode)}
                assert creator not in offenders, f"seed {seed}: creator blamed"
        checked += 1
    cases["creator exemption"] = checked

    # unspecified verbs stay permitted: an action with no obligation
    # addressed to its actor and verb is never flagged
    checked = 0
    for seed in range(2000, 2200):
        trace = run_scenario(generate_scenario(seed))
        for state in final_states(trace):
            creator = _creator_of(state)
            obligations = [e for e in state["comm"] if e["kind"] == "obligation"]
            actions = [
                (e["by"], e["verb"], e["clock"])
                for e in state["edit"]
                if e["by"] != creator
            ] + [
                (e["by"], "share", e["clock"])
                for e in state["comm"]
                if e["kind"] == "share" and e["by"] != creator
            ]
            for mode in (AuditMode.PROSE, AuditMode.LITERAL):
                flagged = {t[:3] for t in _engine_violations(state, mode)}
                for by, verb, clock in actions:
                    governed = any(
                        o["to"] == by and o["verb"] == verb and o["clock"] < clock
                        for o in obligations
                    )
                    if not governed:
                        assert (by, verb, clock) not in flagged, (
                            f"seed {seed}: unspecified {verb} by {by} flagged"
                        )
        checked += 1
    cases["unspecified verbs permitted"] = checked

    # the latest obligation before the action governs it
    for seed in range(3000, 3200):
        rng = random.Random(seed)
        edit, comm, action_clock = _random_obligation_case(rng)
        comm_events = [
            {"kind": "obligation", "to": o.to, "verb": o.verb.value,
             "clock": o.clock, "allow": o.allow}
            for o in comm
        ]
        decision, _ = oracle_status(comm_events, "P2", "comment", action_clock)
        flagged = detect_violations(edit, comm, mode=AuditMode.PROSE)
        assert (len(flagged) == 1) == (decision == "forbidden"), (
            f"seed {seed}: governing decision {decision} but flagged={flagged}"
        )
    cases["latest obligation governs"] = 200

    # obligations timestamped at or after an action never affect it
    for seed in range(4000, 4200):
        rng = random.Random(seed)
        edit, comm, _ = _random_obligation_case(rng, future_only=True)
        for mode in (AuditMode.PROSE, AuditMode.LITERAL):
            assert detect_violations(edit, comm, mode=mode) == (), (
                f"seed {seed}: future obligation affected a past action"
            )
    cases["future obligations inert"] = 200

    # merging logs is idempotent and order-insensitive
    for seed in range(5000, 5200):
        rng = random.Random(seed)
        pool = []
        identities = set()
        while len(pool) < 20:
            by = rng.choice(("P1", "P2", "P3"))
            to = rng.choice([p for p in ("P1", "P2", "P3") if p != by])
            event = Obligation(
                rng.randint(1, 9),
                rng.choice((Verb.READ, Verb.COMMENT, Verb.SHARE)),
                rng.random() < 0.5,
                by,
                to,
                OriginKey(by, to, rng.randint(1, 30)),
            )
            from logtrust import dedup_key

            if dedup_key(event) not in identities:
                identities.add(dedup_key(event))
                pool.append(event)
        a = Log.from_events(LogRole.COMM, rng.sample(pool, rng.randint(0, 20)))
        b = Log.from_events(LogRole.COMM, rng.sample(pool, rng.randint(0, 20)))
        assert merge_logs(a, a) == a
        assert merge_logs(a, b) == merge_logs(b, a)
        assert merge_logs(merge_logs(a, b), b) == merge_logs(a, b)
    cases["merge idempotent and order-insensitive"] = 200

    # identical scenarios yield identical traces
    for seed in range(6000, 6200):
        scenario = generate_scenario(seed)
        assert run_scenario(scenario).to_dict() == run_scenario(scenario).to_dict(), (
            f"seed {seed}: trace not deterministic"
        )
    cases["scenario determinism"] = 200

    summary = ", ".join(f"{name} ({n} cases)" for name, n in cases.items())
    print(f"\nACCEPTANCE CRITERION 4: PASS - {summary}")


def test_criterion_5_trust_monotonicity_and_exact_halving(paper_scenario):
    def fake_violations(offender, count):
        forbid = Obligation(1, Verb.COMMENT, False, "G", offender, OriginKey("G", offender, 1))
        return [Violation(offender, Verb.COMMENT, 2 + i, forbid) for i in range(count)]

    # exactness: one violation under the default model lands on 0.5 exactly
    assert apply_violations(
        {"P2": 1.0}, fake_violations("P2", 1), MultiplicativeTrust()
    ) == {"P2": 0.5}
    trace = run_scenario(paper_scenario)
    assert trace.reports[0].trust["P2"] == 0.5

    rng = random.Random(99)
    for model in (MultiplicativeTrust(), MultiplicativeTrust(0.3), FixedStepTrust(), FixedStepTrust(0.45)):
        for _ in range(200):
            low = rng.randint(0, 6)
            high = low + rng.randint(0, 6)
            t_low = apply_violations({"P": 1.0}, fake_violations("P", low), model)["P"]
            t_high = apply_violations({"P": 1.0}, fake_violations("P", high), model)["P"]
            assert 0.0 <= t_high <= t_low <= 1.0, (
                f"{model.describe()}: {high} violations -> {t_high}"
                f" vs {low} -> {t_low}"
            )
    print(
        "\nACCEPTANCE CRITERION 5: PASS - trust never rises with extra"
        " violations and a single default decrement is exactly 0.5"
    )


def without_overrides(scenario):
    """``scenario`` with every grant to a (grantee, verb) pair given the
    polarity of the pair's first grant, so no peer's log can hold a permit
    on top of an earlier forbid (or vice versa), whatever the delivery order."""
    polarity = {}
    for command in scenario["commands"]:
        if command["op"] == "share":
            for obligation in command["obligations"]:
                pair = command["to"], obligation["verb"]
                obligation["allow"] = polarity.setdefault(pair, obligation["allow"])
    return scenario


def test_criterion_6_modes_agree_without_overrides_and_diverge_on_one():
    # scenarios generated without permit/forbid overrides: identical output
    agreements = 0
    for seed in range(7000, 7200):
        scenario = without_overrides(generate_scenario(seed))
        trace = run_scenario(scenario)
        for state in final_states(trace):
            prose = _engine_violations(state, AuditMode.PROSE)
            literal = _engine_violations(state, AuditMode.LITERAL)
            assert prose == literal, (
                f"seed {seed}, holder {state['peer']}:"
                f" prose {sorted(prose)} vs literal {sorted(literal)}"
            )
            agreements += 1

    # constructed override: a forbid, then a permit, then the action
    override = {
        "commands": [
            {"op": "create", "peer": "P1", "doc_id": "d"},
            {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
             "obligations": [{"verb": "comment", "allow": False}]},
            {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
            {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
             "obligations": [{"verb": "comment", "allow": True}]},
            {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
            {"op": "edit", "peer": "P2", "doc_id": "d", "verb": "comment"},
        ]
    }
    trace = run_scenario(override)
    state = next(
        s for s in final_states(trace) if s["peer"] == "P2"
    )
    prose = _engine_violations(state, AuditMode.PROSE)
    literal = _engine_violations(state, AuditMode.LITERAL)
    assert prose == set(), f"prose should forgive the overridden forbid: {prose}"
    assert {t[:3] for t in literal} == {("P2", "comment", 3)}, (
        f"literal should flag the overridden forbid: {literal}"
    )
    print(
        f"\nACCEPTANCE CRITERION 6: PASS - modes agree on {agreements}"
        " override-free audits and diverge on the constructed override"
    )
