"""Seeded random scenario generation.

Produces small, always-valid scenarios for differential testing and for
``logtrust run --seed``.  Generation mirrors just enough engine state
(who holds the document, what is in flight) to never emit an illegal
command, and is fully determined by the seed.
"""

from __future__ import annotations

import random
from typing import Any

from .events import EDIT_VERBS, OBLIGATION_VERBS, Verb

# In declaration order: the sets' iteration order differs between processes.
_EDIT_VERBS = tuple(verb.value for verb in Verb if verb in EDIT_VERBS)
_OBLIGATION_VERBS = tuple(verb.value for verb in Verb if verb in OBLIGATION_VERBS)


def generate_scenario(
    seed: int,
    *,
    max_peers: int = 4,
    max_commands: int = 12,
) -> dict[str, Any]:
    """Generate one scenario as a plain JSON-ready dict."""
    if max_peers < 2:
        raise ValueError("need at least two peers")
    if max_commands < 3:
        raise ValueError("need room for at least three commands")
    rng = random.Random(seed)
    n_peers = rng.randint(2, max_peers)
    peers = [f"P{i}" for i in range(1, n_peers + 1)]
    doc = "d"
    creator = rng.choice(peers)

    commands: list[dict[str, Any]] = []
    if rng.random() < 0.5:
        commands.append({"op": "create", "peer": creator, "doc_id": doc})
    else:
        extras = rng.sample(_EDIT_VERBS, rng.randint(0, 2))
        commands.append(
            {"op": "batch", "peer": creator, "doc_id": doc, "verbs": ["create", *extras]}
        )

    holders = {creator}
    queues: dict[tuple[str, str], int] = {}
    received_from: set[tuple[str, str]] = set()

    n_commands = rng.randint(max(3, max_commands // 2), max_commands)
    while len(commands) < n_commands:
        ops = ["edit", "edit", "edit", "share", "share", "audit"]
        if len(holders) < len(peers) or len(holders) > 1:
            ops.append("share")
        if any(count > 0 for count in queues.values()):
            ops.extend(["deliver", "deliver", "deliver"])
        ops.append("batch")
        op = rng.choice(ops)

        if op == "edit":
            peer = rng.choice(sorted(holders))
            verb = rng.choice(_EDIT_VERBS)
            command = {"op": "edit", "peer": peer, "doc_id": doc, "verb": verb}
            if rng.random() < 0.15:
                command["ignore_obligations"] = True
            commands.append(command)
        elif op == "batch":
            peer = rng.choice(sorted(holders))
            verbs = rng.sample(_EDIT_VERBS, rng.randint(1, 3))
            commands.append({"op": "batch", "peer": peer, "doc_id": doc, "verbs": verbs})
        elif op == "share":
            sender = rng.choice(sorted(holders))
            others = [p for p in peers if p != sender]
            recipient = rng.choice(others)
            send_back = (sender, recipient) in received_from and rng.random() < 0.2
            obligations: list[dict[str, Any]] = []
            if not send_back:
                for verb in rng.sample(_OBLIGATION_VERBS, rng.randint(1, 3)):
                    obligations.append({"verb": verb, "allow": rng.random() < 0.6})
            commands.append(
                {
                    "op": "share",
                    "from": sender,
                    "to": recipient,
                    "doc_id": doc,
                    "obligations": obligations,
                }
            )
            queues[(sender, recipient)] = queues.get((sender, recipient), 0) + 1
        elif op == "deliver":
            pending = sorted(key for key, count in queues.items() if count > 0)
            sender, recipient = rng.choice(pending)
            queues[(sender, recipient)] -= 1
            holders.add(recipient)
            received_from.add((recipient, sender))
            commands.append(
                {"op": "deliver", "from": sender, "to": recipient, "doc_id": doc}
            )
        else:
            peer = rng.choice(sorted(holders))
            commands.append({"op": "audit", "peer": peer, "doc_id": doc})

    return {"name": f"generated-{seed}", "peers": peers, "commands": commands}
