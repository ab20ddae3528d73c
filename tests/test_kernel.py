import random

import pytest

from logtrust import (
    AuditMode,
    Decision,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    detect_violations,
    effective_status,
    event_to_dict,
    kernel,
)
from oracle import oracle_status, oracle_violations, violation_tuple

PEERS = ("P1", "P2", "P3", "P4", "P5")
ACTION_VERBS = (Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT)
OBLIGATION_VERBS = ACTION_VERBS + (Verb.SHARE,)


def scan(obl, act, literal):
    return kernel.scan_governing(
        obl["to"], obl["verb"], obl["allow"], obl["clock"],
        act["by"], act["verb"], act["clock"], literal,
    )


def test_prose_scan_contract():
    # obligations: to, verb, allow, clock
    obl = {
        "to": [0, 0, 0, 0],
        "verb": [2, 2, 2, 2],
        "allow": [1, 0, 1, 0],
        "clock": [1, 3, 3, 2],
    }
    act = {"by": [0, 0, 0], "verb": [2, 2, 2], "clock": [4, 2, 1]}
    got = scan(obl, act, literal=False)
    # clock 4: latest candidates at 3 hold a deny (index 1, first in order)
    # clock 2: only the permit at 1 governs; clock 1: no candidate
    assert got == [1, -1, -1]


def test_prose_scan_deny_wins_tie_regardless_of_order():
    obl = {"to": [0, 0], "verb": [1, 1], "allow": [1, 0], "clock": [2, 2]}
    act = {"by": [0], "verb": [1], "clock": [3]}
    assert scan(obl, act, literal=False) == [1]
    obl_flipped = {"to": [0, 0], "verb": [1, 1], "allow": [0, 1], "clock": [2, 2]}
    assert scan(obl_flipped, act, literal=False) == [0]


def test_literal_scan_contract():
    obl = {
        "to": [0, 0, 0],
        "verb": [2, 2, 2],
        "allow": [0, 1, 0],
        "clock": [1, 2, 2],
    }
    act = {"by": [0, 0], "verb": [2, 2], "clock": [3, 1]}
    # any prior forbid condemns; the last one in log order is reported
    assert scan(obl, act, literal=True) == [2, -1]


def test_literal_scan_reports_last_forbid_in_row_order_not_clock_order():
    obl = {"to": [0, 0], "verb": [0, 0], "allow": [0, 0], "clock": [5, 1]}
    act = {"by": [0], "verb": [0], "clock": [9]}
    assert scan(obl, act, literal=True) == [1]
    assert scan(obl, act, literal=False) == [0]


def random_logs(rng, n_shares, shift=0):
    """A random edit/comm log pair created by P1, every clock offset by ``shift``.

    Each share carries a random set of obligations from its sharer to the
    recipient, stamped with a random receipt clock; actions are spread
    over the same clock range so obligations land on both sides of them.
    """
    span = 4 * n_shares
    comm = []
    for share_clock in rng.sample(range(1, span + 1), n_shares):
        grantor, grantee = rng.sample(PEERS, 2)
        comm.append(PerformedShare(shift + share_clock, grantor, grantee))
        origin = OriginKey(grantor, grantee, shift + share_clock)
        clock = shift + rng.randint(1, span)
        for verb in rng.sample(OBLIGATION_VERBS, rng.randint(1, 3)):
            comm.append(Obligation(clock, verb, rng.random() < 0.5, grantor, grantee, origin))
    edit = [PerformedEdit(shift + 1, Verb.CREATE, "P1")]
    for clock in rng.sample(range(2, span + 2), n_shares):
        edit.append(PerformedEdit(shift + clock, rng.choice(ACTION_VERBS), rng.choice(PEERS)))
    return Log.from_events(LogRole.EDIT, edit), Log.from_events(LogRole.COMM, comm)


def oracle_by_group(edit_events, comm_events, mode):
    """``oracle_violations`` run once per (peer, verb), which it filters on anyway."""
    groups = {}
    for event in edit_events:
        groups.setdefault((event["by"], event["verb"]), ([], []))[0].append(event)
    for event in comm_events:
        peer = event["to"] if event["kind"] == "obligation" else event["by"]
        groups.setdefault((peer, event["verb"]), ([], []))[1].append(event)
    found = set()
    for edits, comms in groups.values():
        found |= oracle_violations(edits, comms, "P1", mode)
    return found


@pytest.mark.parametrize(
    "n_cases, n_shares, shift",
    [(200, 8, 0), (200, 8, 2**31), (1, 3000, 0), (1, 3000, 2**31)],
)
def test_detect_violations_matches_oracle(n_cases, n_shares, shift):
    rng = random.Random(n_shares + shift)
    for _ in range(n_cases):
        edit, comm = random_logs(rng, n_shares, shift)
        if n_shares == 3000:
            assert len(edit) + len(comm) >= 10**4
        edit_events = [event_to_dict(e) for e in edit]
        comm_events = [event_to_dict(e) for e in comm]
        for mode in AuditMode:
            got = {violation_tuple(v) for v in detect_violations(edit, comm, mode=mode)}
            assert got == oracle_by_group(edit_events, comm_events, mode.value)


def test_effective_status_matches_oracle():
    rng = random.Random(5)
    for shift in (0, 2**31):
        for _ in range(100):
            _, comm = random_logs(rng, 6, shift)
            comm_events = [event_to_dict(e) for e in comm]
            for peer in PEERS:
                for verb in OBLIGATION_VERBS:
                    at_clock = shift + rng.randint(1, 26)
                    status = effective_status(comm, peer, verb, at_clock)
                    expected = oracle_status(comm_events, peer, verb.value, at_clock)
                    assert (status.decision.value, status.clock) == expected
                    if status.decision is not Decision.UNSPECIFIED:
                        assert any(
                            isinstance(e, Obligation)
                            and (e.to, e.verb, e.clock) == (peer, verb, status.clock)
                            and e.origin == status.source
                            and (e.allow == (status.decision is Decision.PERMITTED))
                            for e in comm
                        )
