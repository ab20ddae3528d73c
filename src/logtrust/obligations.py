"""Obligation atoms and their strength ordering.

An obligation atom is a verb with a polarity: ``comment+`` grants the
ability to comment, ``comment-`` (``allow=False``) forbids it.  Atoms are
partially ordered by how much ability they confer, and sets of atoms are
compared pointwise.  The ordering is what lets a peer reason about
whether one grant is more permissive than another.  Which obligation
governs a logged action is not decided here but by
``kernel.GoverningIndex``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInputError, InternallyConflictingSetError
from .events import Verb


@dataclass(frozen=True, slots=True)
class ObligationAtom:
    """A verb plus polarity, detached from any particular grant."""

    verb: Verb
    allow: bool

    def __str__(self) -> str:
        sign = "+" if self.allow else "-"
        return f"{self.verb.value}{sign}"


class Ordering(enum.Enum):
    STRONGER = "stronger"
    WEAKER = "weaker"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Ordering":
        if self is Ordering.STRONGER:
            return Ordering.WEAKER
        if self is Ordering.WEAKER:
            return Ordering.STRONGER
        return self


# Permits on these verbs form a strength ladder: being allowed to share
# implies more power over the document than being allowed to comment, and
# so on down to read.  Create sits outside the ladder; creating a document
# is not an ability over an existing one.
_LADDER_POWER = {
    Verb.READ: 1,
    Verb.DELETE_COMMENT: 2,
    Verb.COMMENT: 3,
    Verb.SHARE: 4,
}


def compare_atoms(a: ObligationAtom, b: ObligationAtom) -> Ordering:
    """Partial order on atoms.

    Same verb: permit beats deny.  Across ladder verbs: permits compare by
    ladder power, and any ladder permit beats any ladder deny.  Denies of
    different verbs are incomparable, as is anything across the
    create/ladder boundary.
    """
    if a == b:
        return Ordering.EQUAL
    if a.verb is b.verb:
        return Ordering.STRONGER if a.allow else Ordering.WEAKER
    a_ladder = a.verb in _LADDER_POWER
    b_ladder = b.verb in _LADDER_POWER
    if not (a_ladder and b_ladder):
        return Ordering.INCOMPARABLE
    if a.allow and b.allow:
        if _LADDER_POWER[a.verb] > _LADDER_POWER[b.verb]:
            return Ordering.STRONGER
        return Ordering.WEAKER
    if a.allow and not b.allow:
        return Ordering.STRONGER
    if not a.allow and b.allow:
        return Ordering.WEAKER
    return Ordering.INCOMPARABLE


def detect_conflicts(
    a: Iterable[ObligationAtom], b: Iterable[ObligationAtom]
) -> list[tuple[Verb, ObligationAtom, ObligationAtom]]:
    """Verbs that the two sets pull in opposite directions.

    Returns one (verb, atom from a, atom from b) triple per verb the sets
    disagree on, in verb declaration order.  An empty list means the sets
    are conflict-free.
    """
    by_verb_a = {atom.verb: atom for atom in a}
    by_verb_b = {atom.verb: atom for atom in b}
    conflicts = []
    for verb in Verb:
        atom_a = by_verb_a.get(verb)
        atom_b = by_verb_b.get(verb)
        if atom_a is None or atom_b is None:
            continue
        if atom_a.allow != atom_b.allow:
            conflicts.append((verb, atom_a, atom_b))
    return conflicts


def validate_set(atoms: Iterable[ObligationAtom]) -> frozenset[ObligationAtom]:
    """Normalize to a frozenset, rejecting internally conflicting sets."""
    atom_set = frozenset(atoms)
    allowed = {a.verb for a in atom_set if a.allow}
    denied = {a.verb for a in atom_set if not a.allow}
    conflicting = allowed & denied
    if conflicting:
        verbs = ", ".join(sorted(v.value for v in conflicting))
        raise InternallyConflictingSetError(
            f"set grants and forbids the same verb(s): {verbs}"
        )
    return atom_set


def compare_sets(
    a: Iterable[ObligationAtom], b: Iterable[ObligationAtom]
) -> Ordering:
    """Verbwise ordering on obligation sets.

    Only verbs mentioned by both sets are compared; one set is stronger
    when it is at least as permissive on every shared verb and strictly
    more permissive on at least one.  Identical sets are equal, anything
    else is incomparable.
    """
    set_a = validate_set(a)
    set_b = validate_set(b)
    if set_a == set_b:
        return Ordering.EQUAL
    by_verb_a = {atom.verb: atom for atom in set_a}
    by_verb_b = {atom.verb: atom for atom in set_b}
    stronger = 0
    weaker = 0
    for verb in by_verb_a.keys() & by_verb_b.keys():
        ordering = compare_atoms(by_verb_a[verb], by_verb_b[verb])
        if ordering is Ordering.STRONGER:
            stronger += 1
        elif ordering is Ordering.WEAKER:
            weaker += 1
    if stronger and not weaker:
        return Ordering.STRONGER
    if weaker and not stronger:
        return Ordering.WEAKER
    return Ordering.INCOMPARABLE


def resolve(atoms: Sequence[ObligationAtom]) -> ObligationAtom:
    """Combine several atoms for one verb into the binding one.

    The restrictive reading wins: one deny among the atoms forbids the
    verb regardless of how many permits accompany it.
    """
    if not atoms:
        raise EmptyInputError("cannot resolve an empty collection of atoms")
    verbs = {a.verb for a in atoms}
    if len(verbs) > 1:
        names = ", ".join(sorted(v.value for v in verbs))
        raise ValueError(f"atoms must share one verb, got: {names}")
    for atom in atoms:
        if not atom.allow:
            return atom
    return atoms[0]
