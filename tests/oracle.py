"""Brute-force reference implementations for differential testing.

Everything here works on serialized event dicts and deliberately shares
no code with the library: candidate filtering is re-derived from the
rules with plain list comprehensions, and ``oracle_engine`` keeps each
held log as a plain list that it re-sorts after every op, and finds
duplicates by comparing events' JSON text, so a bug in the library kernel
or log model cannot hide in the oracle.  ``oracle_event_dict`` turns a
library event into such a dict from its attributes alone, so that the
library's own serializer can be checked against it.
"""

from __future__ import annotations

import json


def _oracle_found(edit_events, comm_events, creator, mode):
    """Each violation as (comparison tuple, recipient), an edit's recipient ""."""
    # The obligations to each (peer, verb), in log order
    obligations = {}
    for e in comm_events:
        if e["kind"] == "obligation":
            obligations.setdefault((e["to"], e["verb"]), []).append(e)
    actions = []
    for e in edit_events:
        if e["by"] != creator:
            actions.append((e["by"], e["verb"], e["clock"], ""))
    for e in comm_events:
        if e["kind"] == "share" and e["by"] != creator:
            actions.append((e["by"], "share", e["clock"], e["to"]))

    found = []
    for by, verb, clock, to in actions:
        candidates = [o for o in obligations.get((by, verb), []) if o["clock"] < clock]
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
        violation = (
            by,
            verb,
            clock,
            source["clock"],
            source["by"],
            source["origin"]["share_clock"],
        )
        found.append((violation, to))
    return found


def oracle_violations(edit_events, comm_events, creator, mode="prose"):
    """All violations in a pair of serialized logs, as comparison tuples.

    Returns a set of (offender, verb, action_clock, forbid_clock,
    grantor, origin_share_clock).
    """
    return {violation for violation, _ in _oracle_found(edit_events, comm_events, creator, mode)}


def oracle_report(edit_events, comm_events, creator, assessor, mode, model, arg):
    """An audit of a pair of serialized logs: its violations and trust table.

    Returns the ``oracle_violations`` tuples in report order (offender,
    action clock, verb in declaration order, then a share's recipient)
    and ``oracle_trust`` over every peer the logs name, plus the assessor
    unless it is empty.
    """
    found = _oracle_found(edit_events, comm_events, creator, mode)
    found.sort(key=lambda f: (f[0][0], f[0][2], _VERB_ORDER.index(f[0][1]), f[1]))
    violations = [violation for violation, _ in found]
    peers = {e["by"] for e in edit_events + comm_events} | {e["to"] for e in comm_events}
    if assessor:
        peers.add(assessor)
    offenders = [violation[0] for violation in violations]
    return violations, oracle_trust(offenders, sorted(peers), model, arg)


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


# The canonical order, re-derived from the rules: clock, then actor, then
# obligations before shares before edits, then the verb in declaration
# order, polarity, grantee and origin share clock.
_KIND_ORDER = ("obligation", "share", "edit")
_VERB_ORDER = ("create", "read", "comment", "delete_comment", "share")


def oracle_event_dict(event):
    """The serialized form of a library event, read off its attributes, with
    the fields in the log file format's order."""
    if hasattr(event, "origin"):
        origin = event.origin
        return {
            "clock": event.clock,
            "kind": "obligation",
            "verb": event.verb.value,
            "allow": event.allow,
            "by": event.by,
            "to": event.to,
            "origin": {
                "grantor": origin.grantor,
                "grantee": origin.grantee,
                "share_clock": origin.share_clock,
            },
        }
    if hasattr(event, "to"):
        return {"clock": event.clock, "kind": "share", "verb": "share", "by": event.by, "to": event.to}
    return {"clock": event.clock, "kind": "edit", "verb": event.verb.value, "by": event.by}


def _canonical(e):
    return (
        e["clock"],
        e["by"],
        _KIND_ORDER.index(e["kind"]),
        _VERB_ORDER.index(e["verb"]),
        int(e.get("allow", False)),
        e.get("to", ""),
        e["origin"]["share_clock"] if e["kind"] == "obligation" else 0,
    )


def _identity(e):
    """An event's identity as text: its JSON, an obligation's with clock 0.

    Two events are one when their identities are equal: equal events, or
    obligations equal apart from their clock.
    """
    if e["kind"] == "obligation":
        e = {**e, "clock": 0}
    return json.dumps(e, sort_keys=True)


def _same_event(a, b):
    return _identity(a) == _identity(b)


_ROLE_KINDS = {"edit": ("edit",), "comm": ("share", "obligation")}


def oracle_log_fault(role, events):
    """The first event at which a serialized log of ``role`` breaks the log
    invariant, as (index, "role" | "order" | "duplicate"), or None.

    Every event must be of a kind ``role`` holds, sort no earlier than its
    predecessor and have an identity no earlier event has.  An event that
    breaks two of these gets the first fault named, except that an
    obligation's repeat is a duplicate even out of order: its identity
    leaves out its clock.
    """
    seen = set()
    for i, e in enumerate(events):
        if e["kind"] not in _ROLE_KINDS[role]:
            return i, "role"
        identity = _identity(e)
        repeat = identity in seen
        if repeat and e["kind"] == "obligation":
            return i, "duplicate"
        if i and _canonical(e) < _canonical(events[i - 1]):
            return i, "order"
        if repeat:
            return i, "duplicate"
        seen.add(identity)
    return None


def oracle_receive(local, incoming, receiver, clock):
    """``local`` plus every incoming event it lacks (looked up in a set of
    ``local``'s identities), the obligations among those addressed to
    ``receiver`` re-stamped with ``clock``, re-sorted."""
    held = {_identity(x) for x in local}
    merged = list(local)
    for e in incoming:
        if _identity(e) not in held:
            if e["kind"] == "obligation" and e["to"] == receiver:
                e = {**e, "clock": clock}
            merged.append(e)
    return sorted(merged, key=_canonical)


def oracle_engine(state, command):
    """Apply one scenario command, as ``parse_command`` returns it, to ``state``.

    ``state`` starts as ``{}`` and becomes ``{"clocks": {peer: clock},
    "held": {(peer, doc): {"edit": [...], "comm": [...], "creator": peer}},
    "queues": {(from, to, doc): [{"edit": [...], "comm": [...], "creator":
    peer}, ...]}}``, with serialized events in every list; a channel is
    dropped once empty.  Every op re-sorts the whole list it changes.
    Returns the clock the command drew (0 for an audit).  Raises
    ValueError for a share without obligations that does not send the
    document back to a peer it came from; other bad commands are not
    modelled.
    """
    clocks = state.setdefault("clocks", {})
    held = state.setdefault("held", {})
    queues = state.setdefault("queues", {})
    op = command["op"]
    if op == "audit":
        return 0
    peer = command["to"] if op == "deliver" else command.get("peer", command.get("from"))
    doc = command["doc_id"]
    clock = clocks.get(peer, 0) + 1
    if op == "share":
        recipient, copy = command["to"], held[peer, doc]
        sent_back = any(
            e["kind"] == "share" and e["by"] == recipient and e["to"] == peer
            for e in copy["comm"]
        )
        if not command["obligations"] and not sent_back:
            raise ValueError(f"share from {peer} to {recipient} must carry obligations")
        added = [{"clock": clock, "kind": "share", "verb": "share", "by": peer, "to": recipient}]
        for atom in command["obligations"]:
            added.append(
                {
                    "clock": clock,
                    "kind": "obligation",
                    "verb": atom["verb"],
                    "allow": atom["allow"],
                    "by": peer,
                    "to": recipient,
                    "origin": {"grantor": peer, "grantee": recipient, "share_clock": clock},
                }
            )
        copy["comm"] = sorted(copy["comm"] + added, key=_canonical)
        outbound = [e for e in copy["comm"] if e["by"] != peer or e["to"] == recipient]
        message = {"edit": list(copy["edit"]), "comm": outbound, "creator": copy["creator"]}
        queues.setdefault((peer, recipient, doc), []).append(message)
    elif op == "deliver":
        channel = (command["from"], peer, doc)
        message = queues[channel].pop(0)
        if not queues[channel]:
            del queues[channel]
        copy = held.setdefault(
            (peer, doc), {"edit": [], "comm": [], "creator": message["creator"]}
        )
        copy["edit"] = oracle_receive(copy["edit"], message["edit"], None, clock)
        copy["comm"] = oracle_receive(copy["comm"], message["comm"], peer, clock)
    else:
        if op == "create":
            verbs = ["create"]
        elif op == "edit":
            verbs = [command["verb"]]
        else:
            verbs = command["verbs"]
        if "create" in verbs:
            held[peer, doc] = {"edit": [], "comm": [], "creator": peer}
        copy = held[peer, doc]
        edits = [{"clock": clock, "kind": "edit", "verb": v, "by": peer} for v in verbs]
        copy["edit"] = sorted(copy["edit"] + edits, key=_canonical)
    clocks[peer] = clock
    return clock
