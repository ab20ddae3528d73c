"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its ``random.Random``: the same
seed gives byte-identical inputs.  Scenarios and session scripts come
from ``logtrust.generate_scenario``, which only makes inputs and is never
timed.  Exported log pairs for the audit workload are synthesized
directly in the exported-log format, because driving the engine to 8k
events would take far longer than the audit being measured.
"""

from __future__ import annotations

import random
from typing import Any

from logtrust import generate_scenario

PEERS = 8
CLOCK_SHIFT = 2**31

# Canonical verb order of the log format (``Verb`` declaration order).
VERB_ORDER = ("create", "read", "comment", "delete_comment", "share")
EDIT_VERBS = ("read", "comment", "delete_comment")
OBLIGATION_VERBS = ("read", "comment", "delete_comment", "share")


def ladder(low: int, high: int, steps: int) -> list[int]:
    """``steps`` sizes from ``low`` to ``high`` in equal ratios."""
    return [round(low * (high / low) ** (i / (steps - 1))) for i in range(steps)]


def scenario(rng: random.Random, length: int, peers: int = PEERS) -> dict[str, Any]:
    """A generated scenario with exactly ``peers`` peers and ``length`` commands.

    ``generate_scenario`` picks the next op without looking at how many
    commands it will emit in total, so the first ``length`` commands of
    a longer scenario are a valid generated scenario themselves.  Seeds
    are drawn until the generator picks ``peers`` peers.
    """
    while True:
        seed = rng.randrange(2**31)
        # The peer count is the generator's first draw, so a three-command
        # scenario from the same seed shows it cheaply.
        if len(generate_scenario(seed, max_peers=peers, max_commands=3)["peers"]) != peers:
            continue
        data = generate_scenario(seed, max_peers=peers, max_commands=2 * length)
        if len(data["peers"]) == peers:
            data["commands"] = data["commands"][:length]
            return data


def _edit(clock: int, verb: str, by: str) -> dict[str, Any]:
    return {"clock": clock, "kind": "edit", "verb": verb, "by": by}


def log_pair(
    rng: random.Random, n_events: int, *, clean: bool = False
) -> tuple[dict[str, Any], dict[str, Any]]:
    """An (edit, comm) pair of exported logs for document ``d``, in canonical order.

    Each clock value carries one group of events: an edit batch by one
    peer, a share, or the obligations of a share re-stamped with the
    grantee's receipt clock.  Groups are emitted in canonical order, so
    the files pass ``log_from_dict``.  Each grant to a (grantee, verb)
    flips the polarity of the one before, which makes forbid-then-permit
    histories where the prose and literal modes disagree, and keeps the
    share of actions that are violations steady from pair to pair.  ``clean`` grants
    permits only, so the pair has no violation.
    """
    names = [f"P{i}" for i in range(1, PEERS + 1)]
    creator = names[0]
    holders = [creator]
    edit = [_edit(1, "create", creator)]
    comm: list[dict[str, Any]] = []
    latest: dict[tuple[str, str], bool] = {}
    clock = 1
    while len(edit) + len(comm) < n_events:
        clock += 1
        if len(holders) == 1 or rng.random() < 0.25:
            sender = rng.choice(holders)
            to = rng.choice([p for p in names if p != sender])
            comm.append(
                {"clock": clock, "kind": "share", "verb": "share", "by": sender, "to": to}
            )
            share_clock = clock
            clock += 1
            verbs = sorted(rng.sample(OBLIGATION_VERBS, rng.randint(1, 3)), key=VERB_ORDER.index)
            for verb in verbs:
                before = latest.get((to, verb))
                if clean:
                    allow = True
                elif before is None:
                    allow = rng.random() < 0.6
                else:
                    allow = not before
                latest[(to, verb)] = allow
                comm.append(
                    {
                        "clock": clock,
                        "kind": "obligation",
                        "verb": verb,
                        "allow": allow,
                        "by": sender,
                        "to": to,
                        "origin": {"grantor": sender, "grantee": to, "share_clock": share_clock},
                    }
                )
            if to not in holders:
                holders.append(to)
        else:
            peer = rng.choice(holders)
            verbs = sorted(rng.sample(EDIT_VERBS, rng.randint(1, 2)), key=VERB_ORDER.index)
            edit.extend(_edit(clock, verb, peer) for verb in verbs)
    return (
        {"doc_id": "d", "role": "edit", "events": edit},
        {"doc_id": "d", "role": "comm", "events": comm},
    )


def shift_clocks(payload: dict[str, Any], shift: int = CLOCK_SHIFT) -> dict[str, Any]:
    """The same log with every clock and ``share_clock`` moved up by ``shift``."""
    events = []
    for event in payload["events"]:
        moved = dict(event, clock=event["clock"] + shift)
        if "origin" in event:
            moved["origin"] = dict(
                event["origin"], share_clock=event["origin"]["share_clock"] + shift
            )
        events.append(moved)
    return dict(payload, events=events)
