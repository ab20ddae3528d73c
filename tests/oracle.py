"""Brute-force reference implementations for differential testing.

Everything here works on serialized event dicts and deliberately shares
no code with the library's scan path: candidate filtering is re-derived
from the rules with plain list comprehensions, so a bug in the library
kernel cannot hide in the oracle.
"""

from __future__ import annotations


def oracle_violations(edit_events, comm_events, creator, mode="prose"):
    """All violations in a pair of serialized logs, as comparison tuples.

    Returns a set of (offender, verb, action_clock, forbid_clock,
    grantor, origin_share_clock).
    """
    obligations = [e for e in comm_events if e["kind"] == "obligation"]
    actions = []
    for e in edit_events:
        if e["by"] != creator:
            actions.append((e["by"], e["verb"], e["clock"]))
    for e in comm_events:
        if e["kind"] == "share" and e["by"] != creator:
            actions.append((e["by"], "share", e["clock"]))

    found = set()
    for by, verb, clock in actions:
        candidates = [
            o
            for o in obligations
            if o["to"] == by and o["verb"] == verb and o["clock"] < clock
        ]
        if mode == "prose":
            if not candidates:
                continue
            top_clock = max(o["clock"] for o in candidates)
            top = [o for o in candidates if o["clock"] == top_clock]
            denies = [o for o in top if not o["allow"]]
            if not denies:
                continue
            source = denies[0]
        elif mode == "literal":
            forbids = [o for o in candidates if not o["allow"]]
            if not forbids:
                continue
            source = forbids[-1]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        found.add(
            (
                by,
                verb,
                clock,
                source["clock"],
                source["by"],
                source["origin"]["share_clock"],
            )
        )
    return found


def oracle_status(comm_events, peer, verb, at_clock):
    """Governing decision for (peer, verb) before at_clock, prose rule.

    Returns ("permitted" | "forbidden" | "unspecified", clock or None).
    """
    candidates = [
        e
        for e in comm_events
        if e["kind"] == "obligation"
        and e["to"] == peer
        and e["verb"] == verb
        and e["clock"] < at_clock
    ]
    if not candidates:
        return ("unspecified", None)
    top_clock = max(e["clock"] for e in candidates)
    top = [e for e in candidates if e["clock"] == top_clock]
    if any(not e["allow"] for e in top):
        return ("forbidden", top_clock)
    return ("permitted", top_clock)


def oracle_comments(edit_events):
    """The comment set a serialized edit log replays to, as sorted pairs.

    Walks the events in log order: a comment adds (author, "author:clock"),
    and a delete removes the author's live comment with the highest clock,
    if any.  Returns sorted [author, comment_id] lists, the trace format.
    """
    live = []
    for e in edit_events:
        if e["verb"] == "comment":
            live.append((e["by"], e["clock"]))
        elif e["verb"] == "delete_comment":
            own = [c for c in live if c[0] == e["by"]]
            if own:
                live.remove(max(own, key=lambda c: c[1]))
    return sorted([author, f"{author}:{clock}"] for author, clock in live)


def oracle_trust(violation_offenders, peers, model, arg):
    """Fold violations into trust values, one decrement per instance."""
    trust = {peer: 1.0 for peer in peers}
    for offender in violation_offenders:
        if model == "multiplicative":
            trust[offender] = trust[offender] * arg
        elif model == "fixed":
            trust[offender] = max(0.0, trust[offender] - arg)
        else:
            raise ValueError(f"unknown model {model!r}")
    return trust


def violation_tuple(violation):
    """Library Violation object -> oracle comparison tuple."""
    return (
        violation.offender,
        violation.verb.value,
        violation.action_clock,
        violation.forbid_clock,
        violation.grantor,
        violation.origin.share_clock,
    )
