import random
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from logtrust import (
    AuditMode,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    detect_violations,
)
from logtrust.kernel import GoverningIndex
from oracle import oracle_event_dict, oracle_status, oracle_violations, violation_tuple

PEERS = ("P1", "P2", "P3", "P4", "P5")
ACTION_VERBS = (Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT)
OBLIGATION_VERBS = ACTION_VERBS + (Verb.SHARE,)


def comm_log(*specs):
    """A comm log of obligations to P1, one ``(clock, verb, allow, grantor)`` each.

    Each obligation gets its own share clock, so all are distinct; a share
    event from P9 is mixed in to show the index reads obligations only.
    """
    events = [PerformedShare(1, "P9", "P1")]
    for share_clock, (clock, verb, allow, grantor) in enumerate(specs, start=1):
        origin = OriginKey(grantor, "P1", share_clock)
        events.append(Obligation(clock, verb, allow, grantor, "P1", origin))
    return Log.from_events(LogRole.COMM, events)


def obligations(log):
    return [e for e in log if isinstance(e, Obligation)]


def edit_log(*actions):
    """An edit log created by P0 holding ``(clock, verb, by)`` actions."""
    events = [PerformedEdit(1, Verb.CREATE, "P0")]
    events += [PerformedEdit(clock, verb, by) for clock, verb, by in actions]
    return Log.from_events(LogRole.EDIT, events)


def status(got):
    """An index answer as ``oracle_status`` states it: (decision, clock or None)."""
    if got is None:
        return ("unspecified", None)
    return ("permitted" if got.allow else "forbidden", got.clock)


def governing(log, actions, literal=False):
    """Per ``(by, verb, clock)`` action, what an index fed ``log``'s entries answers."""
    index = GoverningIndex(literal)
    index.add(log.entries)
    return [index.query(by, verb, clock) for by, verb, clock in actions]


def test_prose_scan_contract():
    log = comm_log(
        (1, Verb.COMMENT, True, "P2"),
        (3, Verb.COMMENT, False, "P4"),
        (3, Verb.COMMENT, True, "P2"),
        (3, Verb.COMMENT, False, "P3"),
        (2, Verb.COMMENT, False, "P2"),
    )
    permit_1, deny_2, permit_3, deny_3, _ = obligations(log)
    # at clock 3 the permit comes first in log order, then P3's and P4's denies
    assert (permit_3.clock, permit_3.allow, deny_3.clock, deny_3.by) == (3, True, 3, "P3")
    actions = [
        ("P1", Verb.COMMENT, 4),  # the first deny at the latest clock, 3
        ("P1", Verb.COMMENT, 3),  # the deny at 2 is latest
        ("P1", Verb.COMMENT, 2),  # only the permit at 1
        ("P1", Verb.COMMENT, 1),  # no candidate
        ("P1", Verb.READ, 4),  # no obligation for the verb
        ("P2", Verb.COMMENT, 4),  # none for the peer
    ]
    assert governing(log, actions) == [deny_3, deny_2, permit_1, None, None, None]

    edits = edit_log((4, Verb.COMMENT, "P1"), (2, Verb.COMMENT, "P1"))
    (violation,) = detect_violations(edits, log)
    assert (violation.action_clock, violation.forbid_clock, violation.grantor) == (4, 3, "P3")
    assert violation.origin == deny_3.origin


def test_prose_scan_deny_wins_tie_regardless_of_order():
    action = [("P1", Verb.COMMENT, 3)]
    for deny_grantor in ("P2", "P4"):  # sorts before, then after, the permit's P3
        log = comm_log((2, Verb.COMMENT, True, "P3"), (2, Verb.COMMENT, False, deny_grantor))
        deny = next(o for o in obligations(log) if not o.allow)
        assert (obligations(log)[0] is deny) == (deny_grantor == "P2")
        assert governing(log, action) == [deny]
        (violation,) = detect_violations(edit_log((3, Verb.COMMENT, "P1")), log)
        assert violation.grantor == deny_grantor


def test_literal_scan_contract():
    log = comm_log(
        (1, Verb.DELETE_COMMENT, False, "P2"),
        (2, Verb.DELETE_COMMENT, True, "P2"),
        (2, Verb.DELETE_COMMENT, False, "P3"),
    )
    deny_1, _, deny_2 = obligations(log)
    actions = [("P1", Verb.DELETE_COMMENT, 3), ("P1", Verb.DELETE_COMMENT, 1)]
    # any prior forbid condemns; the last one in log order is reported
    actions.append(("P1", Verb.DELETE_COMMENT, 2))
    assert governing(log, actions, literal=True) == [deny_2, None, deny_1]


def test_literal_scan_reports_latest_earlier_forbid():
    log = comm_log(
        (5, Verb.READ, False, "P3"),
        (1, Verb.READ, False, "P2"),
        (7, Verb.READ, True, "P2"),
    )
    deny_1, deny_5, permit_7 = obligations(log)
    actions = [("P1", Verb.READ, 9), ("P1", Verb.READ, 3)]
    assert governing(log, actions, literal=True) == [deny_5, deny_1]
    assert governing(log, actions) == [permit_7, deny_1]

    edits = edit_log((9, Verb.READ, "P1"), (3, Verb.READ, "P1"))
    literal = detect_violations(edits, log, mode=AuditMode.LITERAL)
    assert [(v.action_clock, v.forbid_clock, v.grantor) for v in literal] == [
        (3, 1, "P2"),
        (9, 5, "P3"),
    ]
    (prose,) = detect_violations(edits, log)
    assert (prose.action_clock, prose.forbid_clock) == (3, 1)


def test_prose_scan_returns_governing_permit():
    log = comm_log(
        (1, Verb.SHARE, False, "P2"),
        (4, Verb.SHARE, True, "P3"),
        (4, Verb.SHARE, True, "P2"),
    )
    deny_1, permit_p2, _ = obligations(log)
    assert governing(log, [("P1", Verb.SHARE, 5)]) == [permit_p2]
    assert governing(log, [("P1", Verb.SHARE, 5)], literal=True) == [deny_1]


# The effective status of an action: the obligation that a prose-mode
# index over the communication log says governs it.


def test_effective_status_latest_governs():
    log = comm_log((1, Verb.COMMENT, False, "P2"), (3, Verb.COMMENT, True, "P2"))
    deny_1, permit_3 = obligations(log)
    assert governing(log, [("P1", Verb.COMMENT, 5), ("P1", Verb.COMMENT, 2)]) == [permit_3, deny_1]


def test_effective_status_strictly_before():
    log = comm_log((3, Verb.COMMENT, False, "P2"))
    (deny,) = obligations(log)
    # an obligation taking effect at the action's own clock does not govern it
    assert governing(log, [("P1", Verb.COMMENT, 3), ("P1", Verb.COMMENT, 4)]) == [None, deny]


def test_effective_status_deny_wins_clock_tie():
    # one grantor's permit and forbid at one clock
    log = comm_log((2, Verb.COMMENT, True, "P2"), (2, Verb.COMMENT, False, "P2"))
    (deny,) = [o for o in obligations(log) if not o.allow]
    (got,) = governing(log, [("P1", Verb.COMMENT, 3)])
    assert got is deny
    assert (got.allow, got.clock) == (False, 2)


def test_effective_status_filters_peer_and_verb():
    # obligations to P1 on comment and read, and a share from P9
    log = comm_log((1, Verb.COMMENT, False, "P2"), (1, Verb.READ, False, "P3"))
    actions = [("P2", Verb.COMMENT, 9), ("P1", Verb.SHARE, 9), ("P9", Verb.SHARE, 9)]
    assert governing(log, actions) == [None, None, None]


def test_index_tie_rules_follow_log_order_not_arrival_order():
    log = comm_log(
        (2, Verb.READ, True, "P2"),
        (2, Verb.READ, False, "P3"),
        (2, Verb.READ, False, "P4"),
        (2, Verb.READ, True, "P5"),
    )
    permit_p2, deny_p3, deny_p4, permit_p5 = obligations(log)
    for literal, want in ((False, deny_p3), (True, deny_p4)):
        index = GoverningIndex(literal)
        assert index.add([permit_p5, deny_p4]) == {("P1", Verb.READ): 2}
        assert index.add([permit_p2]) == {}  # a permit never beats a deny
        assert index.add([deny_p3]) == ({} if literal else {("P1", Verb.READ): 2})
        assert index.query("P1", Verb.READ, 3) is want
        assert index.query("P1", Verb.READ, 2) is None
        assert governing(log, [("P1", Verb.READ, 3)], literal) == [want]


GRANTEES = ("P1", "P2")
GRANTED = (Verb.READ, Verb.SHARE)


@st.composite
def obligation_batches(draw):
    """Obligations to two grantees over a few clocks, so that permits and
    denies from different grantors share clocks, split into batches of a
    random permutation."""
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(1, 6),
                st.sampled_from(GRANTEES),
                st.sampled_from(GRANTED),
                st.booleans(),
                st.sampled_from(("P3", "P4", "P5")),
            ),
            min_size=1,
            max_size=24,
        )
    )
    events = [
        Obligation(clock, verb, allow, grantor, to, OriginKey(grantor, to, share_clock))
        for share_clock, (clock, to, verb, allow, grantor) in enumerate(specs, start=1)
    ]
    arrival = draw(st.permutations(events))
    cuts = sorted(draw(st.lists(st.integers(0, len(arrival)), max_size=4)))
    return events, [arrival[a:b] for a, b in zip([0, *cuts], [*cuts, len(arrival)])]


@given(obligation_batches())
def test_index_answers_do_not_depend_on_arrival_order(case):
    """Every answer of an index fed in random order and batches equals that
    of an index fed the sorted log in one ``add``, and the oracle's, and an
    answer changes only after the lowest clock ``add`` reports for its
    group.  Each group's ``answers``, read at every clock, are ``query``'s."""
    events, batches = case
    log = Log.from_events(LogRole.COMM, events)
    comm = [oracle_event_dict(e) for e in log]
    actions = [(to, verb, clock) for to in GRANTEES for verb in GRANTED for clock in range(1, 9)]
    for literal in (False, True):
        index = GoverningIndex(literal)
        arrived = []
        answers = [None] * len(actions)
        for batch in batches:
            changed = index.add(batch)
            arrived += batch
            before, answers = answers, [index.query(*action) for action in actions]
            so_far = Log.from_events(LogRole.COMM, arrived)
            assert answers == governing(so_far, actions, literal)
            for by in (*GRANTEES, "P9"):
                for verb in GRANTED:
                    clocks, found = index.answers(by, verb)
                    assert list(clocks) == sorted(set(clocks)) and len(found) == len(clocks) + 1
                    read = [found[bisect_left(clocks, clock)] for clock in range(10)]
                    assert read == [index.query(by, verb, clock) for clock in range(10)]
            for (by, verb, clock), old, new in zip(actions, before, answers):
                if old is not new:
                    assert clock > changed[by, verb]
        assert answers == governing(log, actions, literal)
        mode = "literal" if literal else "prose"
        for (by, verb, clock), got in zip(actions, answers):
            if verb is Verb.SHARE:
                edits, comms = [], comm + [oracle_event_dict(PerformedShare(clock, by, "P9"))]
            else:
                edits, comms = [oracle_event_dict(PerformedEdit(clock, verb, by))], comm
            want = oracle_violations(edits, comms, "P0", mode)
            if got is None or got.allow:
                assert want == set()
            else:
                assert want == {(by, verb.value, clock, got.clock, got.by, got.origin.share_clock)}
            if literal:
                assert got is None or not got.allow
            else:
                assert oracle_status(comm, by, verb.value, clock) == status(got)


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
        edit_events = [oracle_event_dict(e) for e in edit]
        comm_events = [oracle_event_dict(e) for e in comm]
        for mode in AuditMode:
            got = {violation_tuple(v) for v in detect_violations(edit, comm, mode=mode)}
            assert got == oracle_by_group(edit_events, comm_events, mode.value)


def test_effective_status_matches_oracle():
    """A prose index's answer for every peer and verb of random logs is the
    oracle's, and is an obligation of the log to that peer for that verb."""
    rng = random.Random(5)
    for shift in (0, 2**31):
        for _ in range(100):
            _, comm = random_logs(rng, 6, shift)
            comm_events = [oracle_event_dict(e) for e in comm]
            actions = [
                (peer, verb, shift + rng.randint(1, 26)) for peer in PEERS for verb in OBLIGATION_VERBS
            ]
            for (peer, verb, at_clock), got in zip(actions, governing(comm, actions)):
                assert status(got) == oracle_status(comm_events, peer, verb.value, at_clock)
                if got is not None:
                    assert got in comm.entries
                    assert (got.to, got.verb) == (peer, verb)
