"""The audit scan: which obligation governs each performed action.

The scan reads a communication log directly.  Its obligations are grouped
by (grantee, verb) in one pass; a ``Log`` holds its entries in canonical
order, which is clock-first, so every group is built in clock order.  An
action is answered with one binary search over its group: the scan runs
in O((n + m) log n) for n log entries and m actions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from .events import Log, Obligation, Verb


def scan_governing(
    comm_log: Log,
    actions: Iterable[tuple[str, Verb, int]],
    literal: bool = False,
) -> list[Optional[Obligation]]:
    """Per ``(by, verb, clock)`` action, the obligation that decides it.

    Only obligations to the actor for the verb with clocks strictly before
    the action's clock are candidates; None means there is none.  Prose
    mode: the latest candidate clock governs, and among the candidates at
    that clock the first deny in log order wins, else the first permit.
    Literal mode: any candidate forbid condemns, permits are ignored, and
    the last such forbid in log order is returned.
    """
    # Per group: ascending clocks, and found[i] = the answer for an action
    # preceded by exactly the first i clocks (found[0] = None, no candidate).
    index: dict[tuple[str, Verb], tuple[list[int], list[Optional[Obligation]]]] = {}
    for o in comm_log.entries:
        if not isinstance(o, Obligation):
            continue
        entry = index.get((o.to, o.verb))
        if entry is None:
            entry = index[o.to, o.verb] = ([], [None])
        clocks, found = entry
        if literal:
            clocks.append(o.clock)
            found.append(found[-1] if o.allow else o)
        elif not clocks or clocks[-1] != o.clock:
            clocks.append(o.clock)
            found.append(o)
        elif not o.allow and found[-1].allow:
            found[-1] = o

    result = []
    for by, verb, clock in actions:
        entry = index.get((by, verb))
        result.append(None if entry is None else entry[1][bisect_left(entry[0], clock)])
    return result
