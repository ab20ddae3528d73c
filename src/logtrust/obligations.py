"""Obligation atoms: the verbs a share grants or forbids.

An obligation atom is a verb with a polarity: ``comment+`` grants the
ability to comment, ``comment-`` (``allow=False``) forbids it.  A share
carries a set of atoms, which must not both grant and forbid one verb.
Which obligation governs a logged action is not decided here but by
``kernel.GoverningIndex``.
"""

from __future__ import annotations

from .errors import InternallyConflictingSetError
from .events import Verb, _Record, _fill


class ObligationAtom(_Record):
    """A verb plus polarity, detached from any particular grant."""

    __slots__ = ("verb", "allow")
    verb: Verb
    allow: bool

    def __init__(self, verb: Verb, allow: bool):
        _fill(self, verb, allow)


def _check_pairs(pairs: list[tuple[Verb, bool]]) -> None:
    """Reject ``(verb, allow)`` pairs that grant and forbid one verb
    (InternallyConflictingSetError), then pairs that repeat (ValueError)."""
    distinct = set(pairs)
    conflicting = {v for v, allow in distinct if allow} & {v for v, allow in distinct if not allow}
    if conflicting:
        verbs = ", ".join(sorted(v.value for v in conflicting))
        raise InternallyConflictingSetError(f"set grants and forbids the same verb(s): {verbs}")
    if len(distinct) != len(pairs):
        raise ValueError("duplicate obligation atoms")
