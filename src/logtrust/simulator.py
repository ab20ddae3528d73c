"""Deterministic multi-peer simulation engine and scenario runner.

Peers exchange a document over point-to-point messages.  Editing never
blocks on obligations (compliance is checked after the fact, by audits),
so a peer is free to act against what it was granted; the logs make sure
such behavior is discoverable later.

Scenarios are plain JSON: a list of commands executed in order.  The
engine is fully deterministic, so one scenario always yields one trace.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from .audit import (
    AuditMode,
    AuditReport,
    CopyAudit,
    _report_pieces,
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
    Event,
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
    _Lineage,
    _PADS,
    _Record,
    _appended,
    _arrived,
    _event_json,
    _extendable,
    _fill,
    _json_list,
    _new,
    _obligation,
    _ordered,
    _origin_key,
    _performed_edit,
    _performed_share,
    _received,
    _replayed,
    _setters,
    empty_log,
    replay_comments,
)
from .obligations import ObligationAtom, _check_pairs
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


_CREATE = Verb.CREATE  # bound once: an enum member lookup costs 4x a global's
_BATCH_VERBS = EDIT_VERBS | {_CREATE}


def _batch_verbs(verbs: Iterable[Verb], allowed: frozenset = _BATCH_VERBS) -> list[Verb]:
    """``verbs`` in canonical verb order, if they make a batch.

    A batch is at least one verb, all distinct, each ``create`` or an
    edit verb (each in ``allowed``: an edit passes ``EDIT_VERBS``).
    Canonical order is the order the edit log replays them in.
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
        if verb not in allowed:
            raise ValueError(f"{verb.value} is not an edit verb")
    return sorted(verbs, key=_VERB_RANK.__getitem__)


_PAIR_RANK = {(v, a): (rank, a) for v, rank in _VERB_RANK.items() for a in (False, True)}


def _share_atoms(atoms: Iterable[ObligationAtom]) -> list[tuple[Verb, bool]]:
    """``atoms`` as ``(verb, allow)`` pairs in canonical order, if one share may carry them.

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
    pairs = [(atom.verb, atom.allow) for atom in atoms]
    _check_pairs(pairs)
    for verb, _ in pairs:
        if verb not in OBLIGATION_VERBS:
            raise ValueError(f"{verb.value} cannot appear in an obligation")
    return sorted(pairs, key=_PAIR_RANK.__getitem__)


class Message(_Record):
    """One in-flight share: the document's creator plus the sender's logs.

    The channel that carries it names the sender, recipient and document.
    The communication log is already filtered to the sender/recipient
    correspondence (see ``_outbound``).
    """

    __slots__ = ("creator", "edit_log", "comm_log")
    creator: str
    edit_log: Log
    comm_log: Log

    def __init__(self, creator: str, edit_log: Log, comm_log: Log):
        _SET_CREATOR(self, creator)
        _SET_EDIT_LOG(self, edit_log)
        _SET_COMM_LOG(self, comm_log)


_SET_CREATOR, _SET_EDIT_LOG, _SET_COMM_LOG = _setters(Message)


class _Channel:
    """One channel, from a sender to a recipient for one document: every
    message it carried, oldest first, of which the first ``delivered`` have
    been delivered, and the length ``read`` of the sender's communication
    log that its last share filtered (``_outbound``) into a lineage of the
    channel's own.  A deliver reads its message's logs past the lengths of
    the last delivered message's, whose events the recipient holds, since a
    copy only grows.  These marks need no record of the lineages they
    count: each share reads a later version of the sender's log than the
    last, and each message carries later versions of the sender's edit log
    and the channel's log.  A later version holds an earlier one's events
    first, in the same order, whether it extends that lineage or a fork of
    it (``events._fork``).  ``sent_back`` records that the sender holds a
    share from the recipient, so it may share back without obligations.
    """

    __slots__ = ("messages", "delivered", "read", "sent_back")

    def __init__(self):
        self.messages: list[Message] = []
        self.delivered = 0
        self.read = 0
        self.sent_back = False


def _outbound(comm_log: Log, sender: str, recipient: str, channel: _Channel) -> Log:
    """What a share from ``sender`` to ``recipient`` carries of ``comm_log``.

    The recipient gets the full correspondence history relevant to it,
    but not the sender's grants and shares to other peers.  The result
    extends the log of the channel's last message, or starts a lineage of
    the channel's own on its first share.  ``comm_log`` must extend the
    prefix ``channel`` has read: only the events added since are filtered,
    and ``channel`` then records how far it has read.
    """
    n = comm_log._n
    kept = [
        e for e in comm_log._lineage.events[channel.read : n] if e.by != sender or e.to == recipient
    ]
    channel.read = n
    if not channel.messages:
        return _appended(LogRole.COMM, _Lineage([]), kept)
    out = channel.messages[-1].comm_log
    return _appended(LogRole.COMM, _extendable(out), kept) if kept else out


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
    delivered explicitly, so a scenario controls interleaving exactly.  A
    held copy that has been audited keeps its ``CopyAudit``, which reads the
    copy's logs past what it has folded at the next audit.

    A channel is one record (``_Channel``): every message it carried, of
    which ``pending`` reads the undelivered ones as a new tuple, and marks
    so that a share filters only the sender's communication events added
    since the channel's last share and a deliver reads only its message's
    events past those the recipient holds.  Each held log and each
    channel's outbound log appends only to a lineage of its own
    (``events._Lineage``), so every message of a channel after its first
    extends the last one's lineages: no op copies a log's list, and a kept
    message costs one ``Message`` and two small ``Log`` objects.

    An op builds each record once, from values it made or checked, through the
    records' builders, and appends a command's events as they are: they carry
    the actor's fresh clock, so the copy holds none of them yet.
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
        self._audits: dict[tuple[str, str], CopyAudit] = {}
        self._channels: dict[tuple[str, str, str], _Channel] = {}

    # -- state access -------------------------------------------------

    def clock(self, peer: str) -> int:
        """The last clock value ``peer`` drew; 0 before its first command."""
        return self._clocks.get(peer, 0)

    def holds(self, peer: str, doc_id: str) -> bool:
        try:
            self.peer_state(peer, doc_id)  # checks the ids on a miss
        except DocumentNotHeldError:
            return False
        return True

    def peer_state(self, peer: str, doc_id: str) -> PeerDocState:
        try:
            return self._held[peer, doc_id]
        except (KeyError, TypeError):  # a held copy's ids are valid: only a miss checks them
            _checked_id(peer, "peer")
            _checked_id(doc_id, "doc_id")
            raise DocumentNotHeldError(f"{peer} does not hold {doc_id!r}") from None

    def pending(self, sender: str, recipient: str, doc_id: str) -> tuple[Message, ...]:
        try:
            link = self._channels[sender, recipient, doc_id]
        except (KeyError, TypeError):  # a channel's ids are valid: a miss checks
            _checked_id(sender, "sender")
            _checked_id(recipient, "recipient")
            _checked_id(doc_id, "doc_id")
            return ()
        return tuple(link.messages[link.delivered :])

    def peers(self) -> tuple[str, ...]:
        return tuple(sorted({peer for peer, _ in self._held}))

    def documents(self) -> tuple[str, ...]:
        return tuple(sorted(self._documents))

    def _hold(self, peer: str, doc_id: str, edit_log: Log, comm_log: Log, creator: str) -> None:
        """Hold the copy these fields make (``tuple.__new__`` builds it, not the
        NamedTuple's Python ``__new__``).  A held copy is replaced only by logs
        derived from its own, so it only grows, as its ``CopyAudit`` needs."""
        key = (peer, doc_id)
        self._held[key] = tuple.__new__(PeerDocState, (peer, doc_id, edit_log, comm_log, creator))
        self._documents.add(doc_id)

    # -- commands -----------------------------------------------------

    def create_doc(self, peer: str, doc_id: str) -> int:
        """Create a document; the creating peer becomes its creator."""
        return self.batch(peer, doc_id, [_CREATE])

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
        return self._batch(peer, doc_id, _batch_verbs([verb], EDIT_VERBS))

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
        if _CREATE in ordered:
            _checked_id(peer, "peer")
            _checked_id(doc_id, "doc_id")
        return self._batch(peer, doc_id, ordered)

    def _batch(self, peer: str, doc_id: str, ordered: list[Verb]) -> int:
        """``batch`` past its argument checks: a canonical batch, valid ids with ``create``."""
        if _CREATE in ordered:
            if doc_id in self._documents:
                raise LogTrustError(f"document {doc_id!r} already exists")
            state = PeerDocState(
                peer, doc_id, empty_log(LogRole.EDIT), empty_log(LogRole.COMM), peer
            )
        else:
            state = self.peer_state(peer, doc_id)
        clock = self.clock(peer) + 1
        events = [_performed_edit(_new(PerformedEdit), clock, verb, peer) for verb in ordered]
        edit_log = _appended(LogRole.EDIT, _extendable(state.edit_log), events)
        self._clocks[peer] = clock
        self._hold(peer, doc_id, edit_log, state.comm_log, state.creator)
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
        return self._share(state, recipient, _share_atoms(atoms))

    def _share(self, state: PeerDocState, recipient: str, pairs: list[tuple[Verb, bool]]) -> int:
        """``share`` from the held copy ``state``, past its argument checks."""
        sender, doc_id = state.peer, state.doc_id
        channel = (sender, recipient, doc_id)
        link = self._channels.get(channel) or _Channel()  # stored once the share succeeds
        if not pairs and not link.sent_back:
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
        origin = _origin_key(_new(OriginKey), sender, recipient, clock)
        new_events: list = [_performed_share(_new(PerformedShare), clock, sender, recipient)]
        for verb, allow in pairs:
            new_events.append(_obligation(_new(Obligation), clock, verb, allow, origin))
        comm_log = _appended(LogRole.COMM, _extendable(state.comm_log), new_events)
        outbound = _outbound(comm_log, sender, recipient, link)
        message = Message(state.creator, state.edit_log, outbound)
        self._clocks[sender] = clock
        self._hold(sender, doc_id, state.edit_log, comm_log, state.creator)
        link.messages.append(message)
        self._channels[channel] = link
        return clock

    def deliver(self, recipient: str, sender: str, doc_id: str) -> int:
        """Receive the oldest pending message on one channel.

        Receiving draws one fresh clock value; every obligation in the
        message that is new to the recipient and addressed to it is
        re-stamped with it.  The logs are merged into the recipient's
        copy, whose own events win duplicates; a recipient that did not
        hold the document receives into empty logs.  The channel counts the
        message delivered once the receive has succeeded.
        """
        try:
            link = self._channels[sender, recipient, doc_id]
            message = link.messages[link.delivered]
        except (KeyError, TypeError, IndexError):  # a channel's ids are valid: a miss checks
            _checked_id(recipient, "recipient")
            _checked_id(sender, "sender")
            _checked_id(doc_id, "doc_id")
            raise NoPendingMessageError(
                f"no pending message from {sender} to {recipient} for {doc_id!r}"
            ) from None
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
        # the recipient holds the events of the last delivered message, if any
        last = link.messages[link.delivered - 1] if link.delivered else None
        edit_n, comm_n = (len(last.edit_log), len(last.comm_log)) if last else (0, 0)
        edit_log = _received(state.edit_log, message.edit_log, None, 0, edit_n)
        comm_log = _received(state.comm_log, message.comm_log, recipient, clock, comm_n)
        link.delivered += 1
        self._clocks[recipient] = clock
        self._hold(recipient, doc_id, edit_log, comm_log, state.creator)
        return clock

    def audit(self, peer: str, doc_id: str) -> AuditReport:
        """Run a local trust assessment over everything the peer holds.

        The copy's ``CopyAudit`` is built on the first audit and after
        ``mode`` changes, and each audit folds in the events its logs hold
        past those it has folded: all of them on a new one, as
        ``local_trust_assessment``, the one builder of an audit over two
        full logs, does, and later only those added since the last audit,
        so the cost follows those events, not the logs' length.  Trust
        under the current ``trust_model`` starts at the maximum for all
        peers, and one decrement is applied per violation instance found.
        """
        state = self.peer_state(peer, doc_id)
        audit = self._audits.get((peer, doc_id))
        if audit is None or audit.mode is not self.mode:
            audit = self._audits[peer, doc_id] = CopyAudit(peer, state.creator, self.mode)
        audit.read(state.edit_log, state.comm_log)
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
# The key sets each op accepts: ``op`` and its fields, and for an edit or a
# batch also with ``ignore_obligations``.
_KEYS = {
    op: (frozenset({"op", *fields}),)
    + ((frozenset({"op", "ignore_obligations", *fields}),) if op in ("edit", "batch") else ())
    for op, fields in _FIELDS.items()
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
    if data.keys() not in _KEYS[op]:
        keys = data.keys() - {"op"}
        missing = set(fields) - keys
        if missing:
            raise ValueError(f"{op} requires fields {sorted(missing)}")
        extra = keys - _KEYS[op][-1]  # the widest key set the op accepts
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
        pairs = []
        for item in raw:
            if not isinstance(item, dict) or item.keys() != {"verb", "allow"}:
                raise ValueError("each obligation must be {verb, allow}")
            verb = _verb(item["verb"], OBLIGATION_VERBS, "an obligation verb")
            pairs.append((verb, item["allow"]))
        for _, allow in pairs:
            if not isinstance(allow, bool):
                raise ValueError("obligation allow must be a boolean")
        try:
            _check_pairs(pairs)
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
    known = None if declared is None else set(declared)
    commands = []
    for i, raw in enumerate(raw_commands):
        try:
            command = parse_command(raw)
        except ValueError as exc:
            raise ScenarioError(str(exc), index=i) from None
        if known is not None:
            unknown = {command[k] for k in ("peer", "from", "to") if k in command} - known
            if unknown:
                raise ScenarioError(
                    f"undeclared peer(s) {sorted(unknown)}", index=i
                )
        commands.append(command)
    return name, tuple(commands)


class _History:
    """The engine state after each command of one run, kept as changes.

    ``copies[k]`` is the held copy that command ``k`` changed, or None, and
    ``channels[k]`` the channel it changed, or None, as ``((from, to, doc),
    messages, delivered, sent)``: the engine's own list of every message
    the channel carried (``_Channel``), and how many of them were delivered
    and sent by then.
    """

    __slots__ = ("copies", "channels")

    def __init__(self) -> None:
        self.copies: list[Optional[PeerDocState]] = []
        self.channels: list[Optional[tuple]] = []


class CommandSnapshot(_Record):
    """Full engine state right after one command.

    ``command`` is the command as ``parse_command`` returned it, and
    ``report`` the audit report of an audit command.  ``held`` has the
    engine's ``PeerDocState`` record of each held copy and ``pending``
    the ``((from, to, doc), messages)`` item of each non-empty channel,
    both in key order.  The run stores only what each command changed
    (``_History``), so a read of ``held`` or ``pending`` takes the latest
    copy or channel of each key among the commands up to this one: it
    costs those commands and changes nothing that it reads.  A snapshot
    equals only itself.
    """

    __slots__ = __match_args__ = ("index", "command", "clock", "report", "_history")
    __eq__, __hash__ = object.__eq__, object.__hash__
    index: int
    command: dict[str, Any]
    clock: int
    report: Optional[AuditReport]
    _history: _History

    def __init__(
        self, index: int, command: dict[str, Any], clock: int, report: Optional[AuditReport],
        _history: _History,
    ):
        _SET_INDEX(self, index)
        _SET_COMMAND(self, command)
        _SET_CLOCK(self, clock)
        _SET_REPORT(self, report)
        _SET_HISTORY(self, _history)

    @property
    def held(self) -> tuple[PeerDocState, ...]:
        copies = self._history.copies[: self.index + 1]
        latest = {copy[:2]: copy for copy in copies if copy is not None}
        return tuple(sorted(latest.values()))

    @property
    def pending(self) -> tuple[tuple[tuple[str, str, str], tuple[Message, ...]], ...]:
        channels = self._history.channels[: self.index + 1]
        latest = {channel[0]: channel for channel in channels if channel is not None}
        return tuple(
            (key, tuple(messages[delivered:sent]))
            for key, messages, delivered, sent in sorted(latest.values()) if delivered < sent
        )


_SET_INDEX, _SET_COMMAND, _SET_CLOCK, _SET_REPORT, _SET_HISTORY = _setters(CommandSnapshot)


class ScenarioTrace(_Record):
    """Everything a scenario run produced, in execution order."""

    __slots__ = ("name", "mode", "trust_model", "snapshots")
    name: str
    mode: AuditMode
    trust_model: str
    snapshots: tuple[CommandSnapshot, ...]

    def __init__(
        self, name: str, mode: AuditMode, trust_model: str, snapshots: tuple[CommandSnapshot, ...]
    ):
        _fill(self, name, mode, trust_model, snapshots)

    @property
    def reports(self) -> tuple[AuditReport, ...]:
        """The audit reports, in execution order."""
        return tuple(s.report for s in self.snapshots if s.report is not None)

    def to_dict(self) -> dict[str, Any]:
        """The trace as JSON-ready data: ``json_pieces`` parsed, so it is
        meant for small traces."""
        return json.loads("".join(self.json_pieces()))

    def json_pieces(self) -> Iterator[str]:
        """The trace as JSON text, as ``json.dumps(..., indent=2)`` writes it,
        in pieces written from the engine's objects one snapshot at a time: no
        dict tree, no whole text.  The text is ``{name, mode, trust_model,
        snapshots}``; a snapshot is ``{index, command, clock, states, queues,
        report}``, with a state ``{peer, doc, edit, comm, comments}`` per held
        copy and a queue ``{from, to, doc, messages}`` per non-empty channel,
        a message ``{edit, comm}``, each log an ``event_to_dict`` list and the
        report ``report_to_dict``'s.

        One walk applies the run's changes forward from the empty state and
        keeps the texts of the current state only, in key order: per held
        copy ``[(peer, doc), edit_log, edit, comments, comm_log, comm, text]``
        and per non-empty channel ``[(from, to, doc), message texts, head]``;
        a channel is written as its head, its message texts and its tail.
        A command re-renders the copy it changed, reusing the text of each
        log that is the same object as before; a share renders its message
        once and a deliver drops the oldest text.  The walk restarts when a
        snapshot's index goes back or its run differs.  Event texts are kept
        by id; the trace keeps the events alive."""
        enc, (p3, p4, p5, p6, p7) = encode_basestring_ascii, _PADS[3:8]
        events: dict[int, str] = {}
        copies: list[list] = []
        channels: list[list] = []

        def log_json(entries: tuple[Event, ...]) -> str:  # at depth 5
            items = []
            for event in entries:
                text = events.get(id(event))
                if text is None:
                    text = events[id(event)] = _event_json(event, 6)
                items.append(text)
            return _json_list(items, 5)

        def held(copy: PeerDocState) -> None:
            peer, doc_id, edit_log, comm_log, _creator = copy
            i = bisect_left(copies, [(peer, doc_id)])  # a key sorts before its row
            if i == len(copies) or copies[i][0] != (peer, doc_id):
                copies.insert(i, [(peer, doc_id), None, "", "", None, "", ""])
            row = copies[i]
            if row[1] is not edit_log:
                entries = _ordered(edit_log)
                pairs = sorted(_replayed(entries))
                comments = [f"[{p7}{enc(author)},{p7}{enc(cid)}{p6}]" for author, cid in pairs]
                row[1:4] = edit_log, log_json(entries), _json_list(comments, 5)
            if row[4] is not comm_log:
                row[4:6] = comm_log, log_json(_ordered(comm_log))
            row[6] = (
                f'{{{p5}"peer": {enc(peer)},{p5}"doc": {enc(doc_id)},{p5}"edit": {row[2]},'
                f'{p5}"comm": {row[5]},{p5}"comments": {row[3]}{p4}}}'
            )

        def message(sender: str, doc_id: str, m: Message) -> str:  # at depth 6
            # Its logs sit at depth 7: their depth-5 texts, two levels deeper.
            # The walk meets it at its share, right after patching the sender's
            # copy, whose edit log the message carries.
            edit = copies[bisect_left(copies, [(sender, doc_id)])][2]
            comm = log_json(_ordered(m.comm_log))
            edit, comm = edit.replace("\n", _PADS[2]), comm.replace("\n", _PADS[2])
            return f'{{{p7}"edit": {edit},{p7}"comm": {comm}{p6}}}'

        def channel(key: tuple[str, str, str], messages: list, delivered: int, sent: int) -> None:
            i = bisect_left(channels, [key])
            if i == len(channels) or channels[i][0] != key:
                head = (
                    f'{p4}{{{p5}"from": {enc(key[0])},{p5}"to": {enc(key[1])},'
                    f'{p5}"doc": {enc(key[2])},{p5}"messages": '
                )
                channels.insert(i, [key, deque(), head])
            texts = channels[i][1]
            if delivered + len(texts) < sent:  # a share
                texts.append(message(key[0], key[2], messages[sent - 1]))
            else:  # a deliver
                texts.popleft()
                if not texts:
                    del channels[i]

        yield (
            f'{{\n  "name": {enc(self.name)},\n  "mode": {enc(self.mode.value)},'
            f'\n  "trust_model": {enc(self.trust_model)},\n  "snapshots": '
        )
        # The message list of a channel, after its head: pads and a tail.
        first, after, tail = "[" + p6, "," + p6, f"{p5}]{p4}}}"
        opening, history, done = "[", None, -1
        for s in self.snapshots:
            if s._history is not history or s.index < done:
                history, done = s._history, -1
                copies.clear()
                channels.clear()
            for k in range(done + 1, s.index + 1):
                if history.copies[k] is not None:
                    held(history.copies[k])
                if history.channels[k] is not None:
                    channel(*history.channels[k])
            done = s.index
            yield (
                f'{opening}\n    {{\n      "index": {s.index!r},'
                f'\n      "command": {_command_json(s.command)},'
                f'\n      "clock": {s.clock!r},\n      "states": '
            )
            yield from _list_pieces(row[-1] for row in copies)
            sep = ',\n      "queues": ['
            for _, texts, head in channels:  # a channel row has messages
                yield sep + head
                pad = first
                for text in texts:
                    yield pad
                    yield text
                    pad = after
                yield tail
                sep = ","
            closing = p3 + "]" if channels else sep + "]"
            if s.report is None:
                yield f'{closing},\n      "report": null\n    }}'
            else:
                yield f'{closing},\n      "report": '
                yield from _report_pieces(s.report, 3)
                yield "\n    }"
            opening = ","
        yield "\n  ]\n}" if self.snapshots else "[]\n}"


def _list_pieces(texts: Iterable[str]) -> Iterator[str]:
    """The rendered ``texts`` as the pieces of a JSON list at depth 3."""
    opening = "["
    for text in texts:
        yield opening + _PADS[4]
        yield text
        opening = ","
    yield "[]" if opening == "[" else _PADS[3] + "]"


def _command_json(value: Any, depth: int = 3) -> str:
    """A command as ``parse_command`` returns it, as JSON at ``depth``: its
    values are strings, booleans, and lists of strings or of ``{verb, allow}``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        items = [f'"{name}": {_command_json(item, depth + 1)}' for name, item in value.items()]
        return _json_list(items, depth, "{}")
    return _json_list([_command_json(item, depth + 1) for item in value], depth)


def apply_command(
    sim: Simulation, command: dict[str, Any]
) -> tuple[int, Optional[AuditReport]]:
    """Run one command, which must be one ``parse_command`` returned, on ``sim``.

    It calls the op bodies past the argument checks of the public methods,
    which ``parse_command`` made.  Returns the clock value the command drew
    (0 for an audit) and the audit report (None for every other command).
    """
    c = command
    op = c["op"]
    if op == "create":
        return sim._batch(c["peer"], c["doc_id"], [_CREATE]), None
    if op == "edit":
        return sim._batch(c["peer"], c["doc_id"], [_VERB_BY_VALUE[c["verb"]]]), None
    if op == "batch":
        verbs = sorted(map(_VERB_BY_VALUE.__getitem__, c["verbs"]), key=_VERB_RANK.__getitem__)
        return sim._batch(c["peer"], c["doc_id"], verbs), None
    if op == "share":
        pairs = [(_VERB_BY_VALUE[a["verb"]], a["allow"]) for a in c["obligations"]]
        state = sim.peer_state(c["from"], c["doc_id"])
        return sim._share(state, c["to"], sorted(pairs, key=_PAIR_RANK.__getitem__)), None
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
    history = _History()
    for i, command in enumerate(commands):
        try:
            clock, report = apply_command(sim, command)
        except (LogTrustError, ValueError) as exc:
            raise ScenarioError(str(exc), index=i) from exc
        copy = channel = None
        op = command["op"]
        if op == "share" or op == "deliver":
            key = (command["from"], command["to"], command["doc_id"])
            link = sim._channels[key]
            channel = (key, link.messages, link.delivered, len(link.messages))
            copy = sim._held[key[0] if op == "share" else key[1], key[2]]
        elif op != "audit":
            copy = sim._held[command["peer"], command["doc_id"]]
        history.copies.append(copy)
        history.channels.append(channel)
        snapshots.append(CommandSnapshot(i, command, clock, report, history))
    return ScenarioTrace(
        name=name,
        mode=mode,
        trust_model=trust_model.describe(),
        snapshots=tuple(snapshots),
    )
