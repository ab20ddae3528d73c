"""The audit scan: which obligation governs each performed action.

``GoverningIndex`` groups a communication log's obligations by
(grantee, verb) and keeps, per group, the ascending clocks and the
obligation that decides an action after each of them; the prose and
literal rules live only there.  Obligations may be added in any order
and in any number of batches: one that arrives in clock order is an
append, one that arrives late is a bisection, and ``add`` reports the
lowest clock it changed per group, so a caller that keeps answers can
re-ask only the actions after it.  An action is answered with one binary
search over its group, so an index built over a log of n entries answers
m actions in O((n + m) log n).  The index is the only way the library
decides an action: ``audit.CopyAudit`` keeps one per audited copy, and a
caller that wants one answer builds one, passes a communication log's
entries to ``add`` and makes one ``query``.  That returns the governing
``Obligation`` itself (its ``allow``, ``origin`` and ``clock``), or None
when no obligation governs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from .events import Event, Obligation, Verb


class GoverningIndex:
    """The governing obligation per (grantee, verb) and clock.

    Prose mode: an action's candidates are the obligations to its actor
    for its verb with clocks strictly before its own.  The latest
    candidate clock governs, and among the candidates at that clock the
    first deny in log order wins, else the first permit.  Literal mode:
    any candidate forbid condemns, permits are ignored, and the last such
    forbid in log order is returned.
    """

    __slots__ = ("literal", "_groups")

    def __init__(self, literal: bool = False):
        self.literal = literal
        # Per group: ascending distinct clocks, and found[i] = the answer
        # for an action preceded by exactly the first i clocks (found[0] =
        # None, no candidate).  Literal mode keeps forbids only.
        self._groups: dict[tuple[str, Verb], tuple[list[int], list[Optional[Obligation]]]] = {}

    def add(self, events: Iterable[Event]) -> dict[tuple[str, Verb], int]:
        """Fold in the obligations among ``events``, in any order.

        Returns, per (grantee, verb) group whose answers changed, the
        lowest clock it changed: only actions after that clock can be
        decided differently now.
        """
        literal = self.literal
        groups = self._groups
        changed: dict[tuple[str, Verb], int] = {}
        for o in events:
            if not isinstance(o, Obligation) or (literal and o.allow):
                continue
            key = (o.to, o.verb)
            clock = o.clock
            entry = groups.get(key)
            if entry is None:
                groups[key] = ([clock], [None, o])
            elif clock > entry[0][-1]:
                entry[0].append(clock)
                entry[1].append(o)
            else:
                clocks, found = entry
                i = bisect_left(clocks, clock)
                if clocks[i] != clock:
                    clocks.insert(i, clock)
                    found.insert(i + 1, o)
                elif _precedes(o, found[i + 1], literal):
                    found[i + 1] = o
                else:
                    continue
            if changed.get(key, clock) >= clock:
                changed[key] = clock
        return changed

    def query(self, by: str, verb: Verb, clock: int) -> Optional[Obligation]:
        """The obligation that decides ``by`` performing ``verb`` at ``clock``, or None."""
        entry = self._groups.get((by, verb))
        return None if entry is None else entry[1][bisect_left(entry[0], clock)]


def _precedes(new: Obligation, held: Obligation, literal: bool) -> bool:
    """Whether ``new`` decides instead of ``held``, an obligation of its group and clock.

    Within one group and clock, log order is grantor, polarity, then
    share clock.  Prose mode keeps the first deny, else the first permit;
    literal mode keeps the last forbid.
    """
    if literal:
        return (new.by, new.origin.share_clock) > (held.by, held.origin.share_clock)
    return (new.allow, new.by, new.origin.share_clock) < (
        held.allow,
        held.by,
        held.origin.share_clock,
    )

