"""The audit scan: which obligation governs each performed action.

Inputs are parallel integer sequences (peers and verbs pre-encoded as
small ints), one row per obligation and one per performed action.  Rows
are grouped by (grantee, verb) and each group is sorted by clock, so an
action is answered with one binary search over its group: the scan runs
in O((n + m) log n) for n obligations and m actions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


def scan_governing(
    obl_to: Sequence[int],
    obl_verb: Sequence[int],
    obl_allow: Sequence[int],
    obl_clock: Sequence[int],
    act_by: Sequence[int],
    act_verb: Sequence[int],
    act_clock: Sequence[int],
    literal: bool = False,
) -> list[int]:
    """Per action, the index of the forbid that condemns it, or -1.

    Only obligations for the actor and verb with clocks strictly before
    the action's clock are candidates.  Prose mode: the latest candidate
    clock governs, and among the candidates at that clock the first deny
    in row order wins over any permit.  Literal mode: any candidate forbid
    condemns, permits are ignored, and the last such forbid in row order
    is reported.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for k, key in enumerate(zip(obl_to, obl_verb)):
        groups.setdefault(key, []).append(k)

    # Per group: ascending clocks, and found[i] = the answer for an action
    # preceded by exactly the first i clocks (found[0] = -1, no candidate).
    index: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for key, rows in groups.items():
        rows.sort(key=obl_clock.__getitem__)  # stable: row order within a clock
        clocks: list[int] = []
        found = [-1]
        for k in rows:
            clock, deny = obl_clock[k], not obl_allow[k]
            if literal:
                clocks.append(clock)
                found.append(max(k, found[-1]) if deny else found[-1])
            elif not clocks or clocks[-1] != clock:
                clocks.append(clock)
                found.append(k if deny else -1)
            elif deny and found[-1] < 0:
                found[-1] = k
        index[key] = (clocks, found)

    result = []
    for key, clock in zip(zip(act_by, act_verb), act_clock):
        entry = index.get(key)
        result.append(-1 if entry is None else entry[1][bisect_left(entry[0], clock)])
    return result
