import itertools

import pytest
from hypothesis import given, strategies as st

from logtrust import (
    InternallyConflictingSetError,
    Log,
    LogRole,
    Obligation,
    ObligationAtom,
    Ordering,
    OriginKey,
    PerformedShare,
    Verb,
    compare_atoms,
    compare_sets,
    detect_conflicts,
    validate_set,
)
from logtrust.kernel import GoverningIndex

A = ObligationAtom

ALL_ATOMS = [A(verb, allow) for verb in Verb for allow in (True, False)]


def test_atom_ordering_same_verb_permit_beats_deny():
    for verb in Verb:
        assert compare_atoms(A(verb, True), A(verb, False)) is Ordering.STRONGER
        assert compare_atoms(A(verb, False), A(verb, True)) is Ordering.WEAKER
        assert compare_atoms(A(verb, True), A(verb, True)) is Ordering.EQUAL


def test_atom_ordering_permit_ladder():
    ladder = [Verb.READ, Verb.DELETE_COMMENT, Verb.COMMENT, Verb.SHARE]
    for low, high in itertools.combinations(ladder, 2):
        assert compare_atoms(A(high, True), A(low, True)) is Ordering.STRONGER
        assert compare_atoms(A(low, True), A(high, True)) is Ordering.WEAKER


def test_atom_ordering_ladder_permit_beats_any_ladder_deny():
    ladder = [Verb.READ, Verb.DELETE_COMMENT, Verb.COMMENT, Verb.SHARE]
    for permit_verb, deny_verb in itertools.product(ladder, ladder):
        if permit_verb is deny_verb:
            continue
        assert compare_atoms(A(permit_verb, True), A(deny_verb, False)) is Ordering.STRONGER


def test_atom_ordering_denies_incomparable():
    ladder = [Verb.READ, Verb.DELETE_COMMENT, Verb.COMMENT, Verb.SHARE]
    for a, b in itertools.combinations(ladder, 2):
        assert compare_atoms(A(a, False), A(b, False)) is Ordering.INCOMPARABLE


def test_atom_ordering_create_off_ladder():
    for verb in (Verb.READ, Verb.DELETE_COMMENT, Verb.COMMENT, Verb.SHARE):
        for create_allow, other_allow in itertools.product((True, False), repeat=2):
            assert (
                compare_atoms(A(Verb.CREATE, create_allow), A(verb, other_allow))
                is Ordering.INCOMPARABLE
            )


def test_atom_ordering_antisymmetric():
    for a, b in itertools.product(ALL_ATOMS, repeat=2):
        assert compare_atoms(a, b) is compare_atoms(b, a).flipped()


def test_validate_set_rejects_internal_conflicts():
    atoms = [A(Verb.READ, True), A(Verb.READ, False), A(Verb.SHARE, True)]
    with pytest.raises(InternallyConflictingSetError):
        validate_set(atoms)
    assert validate_set([A(Verb.READ, True)]) == frozenset({A(Verb.READ, True)})


def test_detect_conflicts_between_sets():
    found = detect_conflicts([A(Verb.SHARE, True)], [A(Verb.SHARE, False)])
    assert found == [(Verb.SHARE, A(Verb.SHARE, True), A(Verb.SHARE, False))]
    assert detect_conflicts([A(Verb.READ, True)], [A(Verb.COMMENT, True)]) == []
    assert detect_conflicts([], [A(Verb.READ, False)]) == []


def test_detect_conflicts_matches_pairwise_scan():
    import random

    rng = random.Random(7)
    verbs = list(Verb)
    for _ in range(300):
        a = {A(v, rng.random() < 0.5) for v in rng.sample(verbs, rng.randint(0, 5))}
        b = {A(v, rng.random() < 0.5) for v in rng.sample(verbs, rng.randint(0, 5))}
        expected = {
            (x.verb, x, y)
            for x in a
            for y in b
            if x.verb is y.verb and x.allow != y.allow
        }
        found = detect_conflicts(a, b)
        assert set(found) == expected
        assert len(found) == len(expected)
        swapped = [(verb, y, x) for verb, x, y in detect_conflicts(b, a)]
        assert set(swapped) == expected


def test_compare_sets_examples():
    # A grant of {comment+, share+} exceeds {comment-, share+}: equal on
    # share, strictly more permissive on comment.
    assert (
        compare_sets(
            [A(Verb.COMMENT, True), A(Verb.SHARE, True)],
            [A(Verb.COMMENT, False), A(Verb.SHARE, True)],
        )
        is Ordering.STRONGER
    )
    assert compare_sets([A(Verb.SHARE, True)], [A(Verb.SHARE, False)]) is Ordering.STRONGER
    assert compare_sets([A(Verb.READ, True)], [A(Verb.READ, True)]) is Ordering.EQUAL


def test_compare_sets_one_strict_win_each_way_is_incomparable():
    assert (
        compare_sets(
            [A(Verb.COMMENT, True), A(Verb.SHARE, False)],
            [A(Verb.COMMENT, False), A(Verb.SHARE, True)],
        )
        is Ordering.INCOMPARABLE
    )


def test_compare_sets_only_shared_verbs_count():
    # extra verbs on one side neither strengthen nor weaken the grant
    bigger = [A(Verb.SHARE, True), A(Verb.READ, True)]
    smaller = [A(Verb.SHARE, True)]
    assert compare_sets(bigger, smaller) is Ordering.INCOMPARABLE
    # disjoint verb sets share nothing to compare on
    assert (
        compare_sets([A(Verb.READ, False)], [A(Verb.COMMENT, False)])
        is Ordering.INCOMPARABLE
    )


def test_compare_sets_rejects_conflicting_input():
    with pytest.raises(InternallyConflictingSetError):
        compare_sets([A(Verb.READ, True), A(Verb.READ, False)], [])


def _conflict_free(atoms):
    allowed = {a.verb for a in atoms if a.allow}
    denied = {a.verb for a in atoms if not a.allow}
    return not (allowed & denied)


conflict_free_sets = st.sets(
    st.sampled_from(ALL_ATOMS), max_size=len(ALL_ATOMS)
).filter(_conflict_free)


@given(conflict_free_sets, conflict_free_sets)
def test_compare_sets_antisymmetric(a, b):
    assert compare_sets(a, b) is compare_sets(b, a).flipped()


@given(conflict_free_sets)
def test_compare_sets_reflexive(a):
    assert compare_sets(a, a) is Ordering.EQUAL


verb_domains = st.sets(st.sampled_from(list(Verb)), min_size=1, max_size=len(Verb))


@given(verb_domains, st.data())
def test_compare_sets_transitive_on_shared_domain(domain, data):
    # transitivity is only meaningful when the sets grade the same verbs
    def assignment(label):
        return {
            A(verb, data.draw(st.booleans(), label=f"{label}:{verb.value}"))
            for verb in domain
        }

    a, b, c = assignment("a"), assignment("b"), assignment("c")
    geq = (Ordering.STRONGER, Ordering.EQUAL)
    if compare_sets(a, b) in geq and compare_sets(b, c) in geq:
        assert compare_sets(a, c) in geq


# The effective status of an action: the obligation that a prose-mode
# ``GoverningIndex`` over the communication log says governs it.


def obl(clock, verb, allow, to="P2", share_clock=None):
    share_clock = clock if share_clock is None else share_clock
    return Obligation(clock, verb, allow, "P1", to, OriginKey("P1", to, share_clock))


def comm(*events):
    return Log.from_events(LogRole.COMM, events)


def governing(log, peer, verb, at_clock):
    index = GoverningIndex()
    index.add(log.entries)
    return index.query(peer, verb, at_clock)


def test_effective_status_latest_governs():
    log = comm(obl(1, Verb.COMMENT, False), obl(3, Verb.COMMENT, True))
    deny_1, permit_3 = log.entries
    assert governing(log, "P2", Verb.COMMENT, 5) is permit_3
    assert governing(log, "P2", Verb.COMMENT, 2) is deny_1


def test_effective_status_strictly_before():
    log = comm(obl(3, Verb.COMMENT, False))
    (deny,) = log.entries
    # an obligation taking effect at the action's own clock does not govern it
    assert governing(log, "P2", Verb.COMMENT, 3) is None
    assert governing(log, "P2", Verb.COMMENT, 4) is deny


def test_effective_status_deny_wins_clock_tie():
    deny = obl(2, Verb.COMMENT, False, share_clock=8)
    log = comm(obl(2, Verb.COMMENT, True, share_clock=7), deny)
    got = governing(log, "P2", Verb.COMMENT, 3)
    assert got is deny
    assert (got.allow, got.clock) == (False, 2)


def test_effective_status_filters_peer_and_verb():
    log = comm(
        obl(1, Verb.COMMENT, False, to="P3"),
        obl(1, Verb.READ, False),
        PerformedShare(2, "P1", "P2"),
    )
    assert governing(log, "P2", Verb.COMMENT, 9) is None
