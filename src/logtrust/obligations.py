"""Obligation atoms: the verbs a share grants or forbids.

An obligation atom is a verb with a polarity: ``comment+`` grants the
ability to comment, ``comment-`` (``allow=False``) forbids it.  A share
carries a set of atoms, which must not both grant and forbid one verb.
Which obligation governs a logged action is not decided here but by
``kernel.GoverningIndex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InternallyConflictingSetError
from .events import Verb


@dataclass(frozen=True, slots=True)
class ObligationAtom:
    """A verb plus polarity, detached from any particular grant."""

    verb: Verb
    allow: bool

    def __str__(self) -> str:
        sign = "+" if self.allow else "-"
        return f"{self.verb.value}{sign}"


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
