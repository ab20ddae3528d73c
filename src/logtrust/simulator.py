"""Deterministic multi-peer simulation engine and scenario runner.

Peers exchange a document over point-to-point messages.  Editing never
blocks on obligations (compliance is checked after the fact, by audits),
so a peer is free to act against what it was granted; the logs make sure
such behavior is discoverable later.

Scenarios are plain JSON: a list of commands executed in order.  The
engine is fully deterministic, so one scenario always yields one trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Optional

from .audit import (
    AuditMode,
    AuditReport,
    CopyAudit,
    report_to_dict,
)
from .errors import (
    DocumentNotHeldError,
    InternallyConflictingSetError,
    LogTrustError,
    MissingObligationError,
    NoPendingMessageError,
    ScenarioError,
    SelfShareError,
)
from .events import (
    Document,
    EDIT_VERBS,
    Log,
    LogRole,
    OBLIGATION_VERBS,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    _VERB_RANK,
    _VERB_BY_VALUE,
    _Channel,
    _arrived,
    _detached,
    _insert_events,
    _outbound,
    _received,
    empty_log,
    event_to_dict,
    replay_comments,
)
from .obligations import ObligationAtom, validate_set
from .trust import DEFAULT_TRUST_MODEL, TrustModel


def _checked_id(value: Any, what: str) -> str:
    """``value`` if it is a usable peer or document id."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string")
    return value


def _listed(values: Any, what: str) -> list:
    """``values`` as a list, if it is iterable."""
    try:
        iterator = iter(values)
    except TypeError:
        raise ValueError(f"{what} must be iterable, not {type(values).__name__}") from None
    return list(iterator)


_BATCH_VERBS = EDIT_VERBS | {Verb.CREATE}


def _batch_verbs(verbs: Iterable[Verb]) -> list[Verb]:
    """``verbs`` in canonical verb order, if they make a batch.

    A batch is at least one verb, all distinct, each ``create`` or an
    edit verb.  Canonical order is the order the edit log replays them in.
    """
    verbs = _listed(verbs, "batch verbs")
    if not verbs:
        raise ValueError("batch requires at least one verb")
    for verb in verbs:
        if not isinstance(verb, Verb):
            raise ValueError(f"{verb!r} is not a Verb")
    if len(set(verbs)) != len(verbs):
        raise ValueError("batch verbs must be distinct")
    for verb in verbs:
        if verb not in _BATCH_VERBS:
            raise ValueError(f"{verb.value} is not an edit verb")
    return sorted(verbs, key=_VERB_RANK.__getitem__)


def _share_atoms(atoms: Iterable[ObligationAtom]) -> list[ObligationAtom]:
    """``atoms`` in canonical order, if one share may carry them.

    Each must be an ``ObligationAtom`` whose verb is in
    ``OBLIGATION_VERBS`` and whose ``allow`` is a bool, and none may
    repeat or conflict with another (InternallyConflictingSetError).
    """
    atoms = _listed(atoms, "share atoms")
    for atom in atoms:
        if not isinstance(atom, ObligationAtom) or not isinstance(atom.verb, Verb):
            raise ValueError(f"{atom!r} is not an obligation atom")
        if not isinstance(atom.allow, bool):
            raise ValueError("obligation allow must be a boolean")
    atom_set = validate_set(atoms)
    if len(atom_set) != len(atoms):
        raise ValueError("duplicate obligation atoms")
    for atom in atoms:
        if atom.verb not in OBLIGATION_VERBS:
            raise ValueError(f"{atom.verb.value} cannot appear in an obligation")
    return sorted(atoms, key=lambda a: (_VERB_RANK[a.verb], a.allow))


@dataclass(frozen=True)
class Message:
    """One in-flight share: the document's creator plus the sender's logs.

    The channel that carries it names the sender, recipient and document.
    The communication log is already filtered to the sender/recipient
    correspondence (see ``events._outbound``).
    """

    creator: str
    edit_log: Log
    comm_log: Log


class PeerDocState(NamedTuple):
    """Everything one peer holds for one document.

    Records are immutable: a command that changes a held copy replaces
    its record once the command has succeeded.
    """

    peer: str
    doc_id: str
    edit_log: Log
    comm_log: Log
    creator: str

    @property
    def document(self) -> Document:
        """The document with the comment set its edit log replays to."""
        return Document(self.doc_id, self.creator, replay_comments(self.edit_log))


class Simulation:
    """Deterministic engine: per-peer clocks, held copies, and FIFO channels.

    Each peer has one Lamport counter, shared across all documents it
    touches, so every event it generates gets a globally fresh value.
    Message channels are keyed by (sender, recipient, document) and
    delivered explicitly, so a scenario controls interleaving exactly.
    A channel is an immutable tuple of messages, replaced by each share
    and deliver and removed once empty.  A held copy that has been
    audited keeps its ``CopyAudit``, which queues the events each
    command adds to the copy once the command has succeeded.

    Each channel also keeps a record of what it has carried
    (``events._Channel``), so that an op reads only what is new on it: a
    share filters only the sender's communication events added since the
    channel's last share, and a deliver reads only the events of the
    message past those of the channel's last delivered message, which the
    recipient holds, since a copy only grows.
    """

    def __init__(
        self,
        mode: AuditMode = AuditMode.PROSE,
        trust_model: TrustModel = DEFAULT_TRUST_MODEL,
    ):
        self.mode = mode
        self.trust_model = trust_model
        self._clocks: dict[str, int] = {}
        self._held: dict[tuple[str, str], PeerDocState] = {}
        self._documents: set[str] = set()  # every doc id in ``_held``
        self._queues: dict[tuple[str, str, str], tuple[Message, ...]] = {}
        self._audits: dict[tuple[str, str], CopyAudit] = {}
        self._channels: dict[tuple[str, str, str], _Channel] = {}

    # -- state access -------------------------------------------------

    def clock(self, peer: str) -> int:
        """The last clock value ``peer`` drew; 0 before its first command."""
        return self._clocks.get(peer, 0)

    def holds(self, peer: str, doc_id: str) -> bool:
        return (peer, doc_id) in self._held

    def peer_state(self, peer: str, doc_id: str) -> PeerDocState:
        state = self._held.get((peer, doc_id))
        if state is None:
            raise DocumentNotHeldError(f"{peer} does not hold {doc_id!r}")
        return state

    def pending(self, sender: str, recipient: str, doc_id: str) -> tuple[Message, ...]:
        return self._queues.get((sender, recipient, doc_id), ())

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted({peer for peer, _ in self._held}))

    def documents(self) -> tuple[str, ...]:
        return tuple(sorted(self._documents))

    def _hold(self, state: PeerDocState, *added: Iterable) -> None:
        """Hold ``state``, and queue each ``added`` run of events for its audit."""
        key = (state.peer, state.doc_id)
        self._held[key] = state
        self._documents.add(state.doc_id)
        audit = self._audits.get(key)
        if audit is not None:
            for events in added:
                audit.pending += events

    # -- commands -----------------------------------------------------

    def create_doc(self, peer: str, doc_id: str) -> int:
        """Create a document; the creating peer becomes its creator."""
        return self.batch(peer, doc_id, [Verb.CREATE])

    def edit(
        self,
        peer: str,
        doc_id: str,
        verb: Verb,
        ignore_obligations: bool = False,
    ) -> int:
        """Perform one local edit action at a fresh clock value.

        ``ignore_obligations`` is a scenario annotation only: edits are
        never blocked either way, the flag just marks deliberate
        disregard for readability of scenario files.
        """
        return self.batch(peer, doc_id, [verb], ignore_obligations)

    def batch(
        self,
        peer: str,
        doc_id: str,
        verbs: Iterable[Verb],
        ignore_obligations: bool = False,
    ) -> int:
        """Perform several distinct actions under a single clock value.

        A batch starting with ``create`` creates the document and applies
        the remaining verbs immediately, all at clock 1.  Verbs execute
        in canonical verb order, the order the edit log replays them in.
        """
        del ignore_obligations  # annotation only, never enforced
        ordered = _batch_verbs(verbs)
        _checked_id(peer, "peer")
        _checked_id(doc_id, "doc_id")
        if Verb.CREATE in ordered:
            if doc_id in self._documents:
                raise LogTrustError(f"document {doc_id!r} already exists")
            state = PeerDocState(
                peer, doc_id, empty_log(LogRole.EDIT), empty_log(LogRole.COMM), peer
            )
        else:
            state = self.peer_state(peer, doc_id)
        clock = self.clock(peer) + 1
        events = [PerformedEdit(clock, verb, peer) for verb in ordered]
        edit_log = _insert_events(state.edit_log, events)
        self._clocks[peer] = clock
        self._hold(PeerDocState(peer, doc_id, edit_log, state.comm_log, state.creator), events)
        return clock

    def share(
        self,
        sender: str,
        doc_id: str,
        recipient: str,
        atoms: Iterable[ObligationAtom],
    ) -> int:
        """Share the document with obligations attached.

        The share event and its obligations all carry the sender's fresh
        clock value; the obligations' origin keys record that value
        permanently.  The outgoing message carries the sender's edit log
        and the part of its communication log that does not consist of
        the sender's own grants and shares to third parties.

        Obligations are mandatory except when sending a document back to
        a peer it was previously received from.
        """
        state = self.peer_state(sender, doc_id)
        _checked_id(recipient, "recipient")
        if recipient == sender:
            raise SelfShareError(f"{sender} cannot share {doc_id!r} with itself")
        atoms = _share_atoms(atoms)
        channel = (sender, recipient, doc_id)
        link = self._channels.get(channel)
        if link is None:
            link = self._channels[channel] = _Channel()
        if not atoms and not link.sent_back:
            # a copy only grows, so a sender that may share back always may
            if not any(
                isinstance(e, PerformedShare) and e.by == recipient and e.to == sender
                for e in _arrived(state.comm_log)
            ):
                raise MissingObligationError(
                    f"share from {sender} to {recipient} must carry obligations"
                )
            link.sent_back = True
        clock = self.clock(sender) + 1
        origin = OriginKey(sender, recipient, clock)
        new_events: list = [PerformedShare(clock, sender, recipient)]
        for atom in atoms:
            new_events.append(
                Obligation(clock, atom.verb, atom.allow, sender, recipient, origin)
            )
        comm_log = _insert_events(state.comm_log, new_events)
        outbound = _outbound(comm_log, sender, recipient, link)
        message = Message(state.creator, state.edit_log, outbound)
        self._clocks[sender] = clock
        self._hold(PeerDocState(sender, doc_id, state.edit_log, comm_log, state.creator), new_events)
        self._queues[channel] = self._queues.get(channel, ()) + (message,)
        return clock

    def deliver(self, recipient: str, sender: str, doc_id: str) -> int:
        """Receive the oldest pending message on one channel.

        Receiving draws one fresh clock value; every obligation in the
        message that is new to the recipient and addressed to it is
        re-stamped with it.  The logs are merged into the recipient's
        copy, whose own events win duplicates; a recipient that did not
        hold the document receives into empty logs.
        """
        channel = (sender, recipient, doc_id)
        queue = self._queues.get(channel)
        if queue is None:
            raise NoPendingMessageError(
                f"no pending message from {sender} to {recipient} for {doc_id!r}"
            )
        message = queue[0]
        clock = self.clock(recipient) + 1
        state = self._held.get((recipient, doc_id))
        if state is None:
            state = PeerDocState(
                recipient,
                doc_id,
                empty_log(LogRole.EDIT),
                empty_log(LogRole.COMM),
                message.creator,
            )
        link = self._channels[channel]
        edit_from, comm_from = link.unread(message.edit_log, message.comm_log)
        edit_log, new_edits = _received(state.edit_log, message.edit_log, None, 0, edit_from)
        comm_log, new_comm = _received(
            state.comm_log, message.comm_log, recipient, clock, comm_from
        )
        # A copy received into empty logs gets lineages of its own, or it
        # and the sender would extend one list (``events._extendable``).
        if edit_log is message.edit_log:
            edit_log = _detached(edit_log)
        if comm_log is message.comm_log:
            comm_log = _detached(comm_log)
        link.delivered(message.edit_log, message.comm_log)
        if len(queue) > 1:
            self._queues[channel] = queue[1:]
        else:
            del self._queues[channel]
        self._clocks[recipient] = clock
        self._hold(PeerDocState(recipient, doc_id, edit_log, comm_log, state.creator), new_edits, new_comm)
        return clock

    def audit(self, peer: str, doc_id: str) -> AuditReport:
        """Run a local trust assessment over everything the peer holds.

        The copy's ``CopyAudit`` is built over the full logs, as
        ``local_trust_assessment`` builds one, on the first audit and
        after ``mode`` changes; later audits fold in only the events added
        since the last one, so the cost follows those events, not the logs'
        length.  Trust under the current ``trust_model`` starts at the
        maximum for all peers, and one decrement is applied per violation
        instance found.
        """
        state = self.peer_state(peer, doc_id)
        audit = self._audits.get((peer, doc_id))
        if audit is None or audit.mode is not self.mode:
            document = Document(doc_id, state.creator)
            audit = CopyAudit.of_logs(state.edit_log, state.comm_log, document, peer, self.mode)
            self._audits[peer, doc_id] = audit
        return audit.report(doc_id, self.trust_model)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

# Each op's fields, in the order the trace echoes them.
_FIELDS = {
    "create": ("peer", "doc_id"),
    "edit": ("peer", "doc_id", "verb"),
    "batch": ("peer", "doc_id", "verbs"),
    "share": ("from", "to", "doc_id", "obligations"),
    "deliver": ("from", "to", "doc_id"),
    "audit": ("peer", "doc_id"),
}


def _verb(value: Any, allowed: frozenset[Verb], what: str) -> Verb:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string")
    verb = _VERB_BY_VALUE.get(value)
    if verb is None:
        raise ValueError(f"unknown verb {value!r}")
    if verb not in allowed:
        raise ValueError(f"{verb.value} is not allowed as {what}")
    return verb


def parse_command(data: Any) -> dict[str, Any]:
    """Check one scenario command and return it as the trace echoes it.

    The result is a new dict of JSON values: ``op``, then the op's fields
    in ``_FIELDS`` order, then ``"ignore_obligations": true`` when that
    flag is set.  Raises ValueError on any problem.
    """
    if not isinstance(data, dict):
        raise ValueError("command must be an object")
    op = data.get("op")
    fields = _FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise ValueError(f"unknown op {op!r}; expected one of {', '.join(_FIELDS)}")
    keys = data.keys() - {"op"}
    missing = set(fields) - keys
    if missing:
        raise ValueError(f"{op} requires fields {sorted(missing)}")
    extra = keys - set(fields)
    if op in ("edit", "batch"):
        extra.discard("ignore_obligations")
    if extra:
        raise ValueError(f"{op} does not accept fields {sorted(extra)}")
    command: dict[str, Any] = {"op": op}
    if op == "batch":
        raw = data["verbs"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("verbs must be a non-empty array")
        _batch_verbs(
            [_verb(raw[0], _BATCH_VERBS, "a batch verb")]
            + [_verb(v, EDIT_VERBS, "a batch verb after the first") for v in raw[1:]]
        )
    elif op == "share":
        raw = data["obligations"]
        if not isinstance(raw, list):
            raise ValueError("obligations must be an array")
        atoms = []
        for item in raw:
            if not isinstance(item, dict) or item.keys() != {"verb", "allow"}:
                raise ValueError("each obligation must be {verb, allow}")
            verb = _verb(item["verb"], OBLIGATION_VERBS, "an obligation verb")
            atoms.append(ObligationAtom(verb, item["allow"]))
        try:
            _share_atoms(atoms)
        except InternallyConflictingSetError as exc:
            raise ValueError(str(exc)) from None
    for name in fields:
        if name == "doc_id" and op == "share" and command["from"] == command["to"]:
            raise ValueError("cannot share with oneself")
        value = data[name]
        if name == "verb":
            _verb(value, EDIT_VERBS, "an edit verb")
        elif name == "verbs":
            value = list(value)
        elif name == "obligations":
            value = [{"verb": a["verb"], "allow": a["allow"]} for a in value]
        else:
            _checked_id(value, name)
        command[name] = value
    ignore = data.get("ignore_obligations", False)
    if not isinstance(ignore, bool):
        raise ValueError("ignore_obligations must be a boolean")
    if ignore:
        command["ignore_obligations"] = True
    return command


def parse_scenario(data: Any) -> tuple[str, tuple[dict[str, Any], ...]]:
    """Parse a scenario document into its name and ``parse_command`` dicts.

    Raises ScenarioError with the offending command index on any
    structural problem; nothing is executed here.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be an object")
    allowed = {"name", "peers", "commands"}
    extra = data.keys() - allowed
    if extra:
        raise ScenarioError(f"unexpected top-level fields {sorted(extra)}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError("name must be a string")
    raw_commands = data.get("commands")
    if not isinstance(raw_commands, list):
        raise ScenarioError("commands must be an array")
    declared = data.get("peers")
    if declared is not None and (
        not isinstance(declared, list)
        or not all(isinstance(p, str) and p for p in declared)
    ):
        raise ScenarioError("peers must be an array of non-empty strings")
    commands = []
    for i, raw in enumerate(raw_commands):
        try:
            command = parse_command(raw)
        except ValueError as exc:
            raise ScenarioError(str(exc), index=i) from None
        if declared is not None:
            used = {command[k] for k in ("peer", "from", "to") if k in command}
            unknown = used - set(declared)
            if unknown:
                raise ScenarioError(
                    f"undeclared peer(s) {sorted(unknown)}", index=i
                )
        commands.append(command)
    return name, tuple(commands)


Channel = tuple[tuple[str, str, str], tuple[Message, ...]]  # ((from, to, doc), messages)


def _event_dicts(log: Log, memo: dict[Any, Any], shared: set[int]) -> list[dict]:
    """``event_to_dict`` of every entry, as one list per log per memo.

    Each event is serialized once per memo too.  The memo is keyed by
    object id, which is safe while the logs and events outlive it.  The
    id of every list or dict handed out again is added to ``shared``.
    """
    out = memo.get(id(log))
    if out is None:
        out = memo[id(log)] = []
        for event in log.entries:
            data = memo.get(id(event))
            if data is None:
                data = memo[id(event)] = event_to_dict(event)
            else:
                shared.add(id(data))
            out.append(data)
    else:
        shared.add(id(out))
    return out


def _state_dicts(
    held: tuple[PeerDocState, ...], memo: dict[Any, Any], shared: set[int]
) -> list[dict]:
    """One dict per held copy.

    A copy whose peer, doc and logs are the same objects as in an earlier
    call with the same memo gets that call's dict, and its id is added to
    ``shared``.
    """
    out = []
    for peer, doc_id, edit_log, comm_log, _creator in held:
        key = (peer, doc_id, id(edit_log), id(comm_log))
        state = memo.get(key)
        if state is not None:
            shared.add(id(state))
        else:
            state = memo[key] = {
                "peer": peer,
                "doc": doc_id,
                "edit": _event_dicts(edit_log, memo, shared),
                "comm": _event_dicts(comm_log, memo, shared),
                "comments": sorted([author, cid] for author, cid in replay_comments(edit_log)),
            }
        out.append(state)
    return out


def _queue_dicts(
    pending: tuple[Channel, ...], memo: dict[Any, Any], shared: set[int]
) -> list[dict]:
    return [
        {
            "from": sender,
            "to": recipient,
            "doc": doc_id,
            "messages": [
                {
                    "edit": _event_dicts(m.edit_log, memo, shared),
                    "comm": _event_dicts(m.comm_log, memo, shared),
                }
                for m in messages
            ],
        }
        for (sender, recipient, doc_id), messages in pending
    ]


@dataclass(frozen=True)
class CommandSnapshot:
    """Full engine state right after one command.

    ``command`` is the command as ``parse_command`` returned it.  Held
    copies, logs and channels are immutable, so the snapshot keeps
    references to them: ``held`` has the engine's ``PeerDocState`` record
    of each held copy, ``pending`` the engine's ``((from, to, doc),
    messages)`` item of each non-empty channel, both sorted.  ``states``
    and ``queues`` serialize them on each access.  ``report`` is the
    audit report of an audit command.
    """

    index: int
    command: dict[str, Any]
    clock: int
    held: tuple[PeerDocState, ...]
    pending: tuple[Channel, ...]
    report: Optional[AuditReport] = None

    @property
    def states(self) -> tuple[dict[str, Any], ...]:
        return tuple(_state_dicts(self.held, {}, set()))

    @property
    def queues(self) -> tuple[dict[str, Any], ...]:
        return tuple(_queue_dicts(self.pending, {}, set()))


@dataclass(frozen=True)
class ScenarioTrace:
    """Everything a scenario run produced, in execution order."""

    name: str
    mode: AuditMode
    trust_model: str
    snapshots: tuple[CommandSnapshot, ...]

    @property
    def reports(self) -> tuple[AuditReport, ...]:
        """The audit reports, in execution order."""
        return tuple(s.report for s in self.snapshots if s.report is not None)

    def to_dict(self) -> dict[str, Any]:
        """The trace as JSON-ready data."""
        return self.to_dict_and_shared()[0]

    def to_dict_and_shared(self) -> tuple[dict[str, Any], set[int]]:
        """The trace as JSON-ready data, and the ids of its shared containers.

        Each event, log and held copy is serialized once per call: every
        place an event appears holds the same dict, every place a log
        appears the same list, and a held copy unchanged from an earlier
        snapshot the same state dict.  The set holds the id of each of
        those dicts and lists that the data reaches more than once.
        """
        memo: dict[Any, Any] = {}
        shared: set[int] = set()
        data = {
            "name": self.name,
            "mode": self.mode.value,
            "trust_model": self.trust_model,
            "snapshots": [
                {
                    "index": s.index,
                    "command": s.command,
                    "clock": s.clock,
                    "states": _state_dicts(s.held, memo, shared),
                    "queues": _queue_dicts(s.pending, memo, shared),
                    "report": None if s.report is None else report_to_dict(s.report),
                }
                for s in self.snapshots
            ],
        }
        return data, shared


def apply_command(
    sim: Simulation, command: dict[str, Any]
) -> tuple[int, Optional[AuditReport]]:
    """Run one command, as ``parse_command`` returns it, on ``sim``.

    Returns the clock value the command drew (0 for an audit) and the
    audit report (None for every other command).
    """
    c = command
    op = c["op"]
    if op == "create":
        return sim.create_doc(c["peer"], c["doc_id"]), None
    ignore = c.get("ignore_obligations", False)
    if op == "edit":
        return sim.edit(c["peer"], c["doc_id"], _VERB_BY_VALUE[c["verb"]], ignore), None
    if op == "batch":
        verbs = [_VERB_BY_VALUE[v] for v in c["verbs"]]
        return sim.batch(c["peer"], c["doc_id"], verbs, ignore), None
    if op == "share":
        atoms = [ObligationAtom(_VERB_BY_VALUE[a["verb"]], a["allow"]) for a in c["obligations"]]
        return sim.share(c["from"], c["doc_id"], c["to"], atoms), None
    if op == "deliver":
        return sim.deliver(c["to"], c["from"], c["doc_id"]), None
    return 0, sim.audit(c["peer"], c["doc_id"])


def run_scenario(
    data: Any,
    *,
    mode: AuditMode = AuditMode.PROSE,
    trust_model: TrustModel = DEFAULT_TRUST_MODEL,
) -> ScenarioTrace:
    """Validate and execute a scenario, returning its full trace.

    All commands are checked structurally (``parse_scenario``) before the
    first one runs, so a malformed step never leaves a half-executed
    simulation behind.  Execution errors carry the index of the failing
    command.
    """
    name, commands = parse_scenario(data)
    sim = Simulation(mode=mode, trust_model=trust_model)
    snapshots: list[CommandSnapshot] = []
    for i, command in enumerate(commands):
        try:
            clock, report = apply_command(sim, command)
        except (LogTrustError, ValueError) as exc:
            raise ScenarioError(str(exc), index=i) from exc
        snapshots.append(
            CommandSnapshot(
                index=i,
                command=command,
                clock=clock,
                held=tuple(sorted(sim._held.values())),
                pending=tuple(sorted(sim._queues.items())),
                report=report,
            )
        )
    return ScenarioTrace(
        name=name,
        mode=mode,
        trust_model=trust_model.describe(),
        snapshots=tuple(snapshots),
    )
