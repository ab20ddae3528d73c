"""Events, logical clocks, and per-document logs.

Every peer keeps, per document, an edit log of local actions and a
communication log of share actions and obligations.  Entries are ordered
by per-peer Lamport counters.  Obligations travel with shares and are
re-stamped with the receiver's local clock on receipt, which is what
makes "was this action performed before or after the obligation arrived"
answerable by comparing plain clock values.

An obligation keeps a stable identity across that re-stamping: the
``OriginKey`` records who granted it, to whom, and the grantor-side clock
of the share event that carried it.  Log merging deduplicates on these
identities, so copies of the same history received along different paths
collapse to a single entry each.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Union

from .errors import (
    DuplicateEventError,
    MixedRolesError,
    OrderViolationError,
    UnorderedLogError,
)


class Verb(enum.Enum):
    """Actions that can be performed on, or granted for, a document."""

    CREATE = "create"
    READ = "read"
    COMMENT = "comment"
    DELETE_COMMENT = "delete_comment"
    SHARE = "share"

    # Members are singletons, so identity hashing is enough, and it runs in
    # C rather than through Enum.__hash__ for every (peer, verb) dict key.
    # Like Enum's name hash it differs between processes, so no output
    # order may depend on it.
    __hash__ = object.__hash__


# Rank used for deterministic ordering; follows declaration order.
_VERB_RANK = {verb: rank for rank, verb in enumerate(Verb)}
_VERB_BY_VALUE = {verb.value: verb for verb in Verb}
_SHARE_RANK = _VERB_RANK[Verb.SHARE]

#: Verbs a peer may perform as plain edits (create is reserved for the
#: document creator's first action).
EDIT_VERBS = frozenset({Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT})

#: Verbs that can appear in obligations attached to a share.
OBLIGATION_VERBS = frozenset({Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT, Verb.SHARE})


class LogRole(enum.Enum):
    EDIT = "edit"
    COMM = "comm"


_ORIGIN_SHAPE = "origin must carry grantor, grantee, share_clock"


@dataclass(frozen=True, slots=True, init=False)
class OriginKey:
    """Stable identity of an obligation across receipt-time re-stamping.

    ``share_clock`` is the grantor-side clock of the share event the
    obligation was granted in, so two copies of one obligation compare
    equal no matter how their own clocks were rewritten downstream.
    """

    grantor: str
    grantee: str
    share_clock: int

    def __init__(self, grantor: str, grantee: str, share_clock: int):
        if not isinstance(grantor, str) or not isinstance(grantee, str) or type(share_clock) is not int:
            raise ValueError(_ORIGIN_SHAPE)
        if grantor == grantee:
            raise ValueError("grantor and grantee must differ")
        if share_clock < 1:
            raise ValueError("share_clock must be >= 1")
        if not grantor or not grantee:
            raise ValueError("grantor and grantee must be non-empty strings")
        _ORIGIN_GRANTOR(self, grantor)
        _ORIGIN_GRANTEE(self, grantee)
        _ORIGIN_SHARE_CLOCK(self, share_clock)


@dataclass(frozen=True, slots=True, init=False)
class PerformedEdit:
    """A local action a peer actually performed (edit logs only)."""

    clock: int
    verb: Verb
    by: str
    # The event's sort key and identity (``sort_key``, ``dedup_key``).
    _key: tuple = field(init=False, repr=False, compare=False)
    _id: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, clock: int, verb: Verb, by: str):
        if type(clock) is not int or clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(verb, Verb):
            raise ValueError("verb must be a Verb")
        if not isinstance(by, str) or not by:
            raise ValueError("by must be a non-empty string")
        if verb is Verb.SHARE:
            raise ValueError("share actions belong in the communication log")
        _EDIT_CLOCK(self, clock)
        _EDIT_VERB(self, verb)
        _EDIT_BY(self, by)
        key = (clock, by, 2, _VERB_RANK[verb], 0, "", 0)
        _EDIT_KEY(self, key)
        _EDIT_ID(self, key)


@dataclass(frozen=True, slots=True, init=False)
class PerformedShare:
    """A share action a peer actually performed (communication logs only)."""

    clock: int
    by: str
    to: str
    _key: tuple = field(init=False, repr=False, compare=False)
    _id: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, clock: int, by: str, to: str):
        if type(clock) is not int or clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(by, str) or not by:
            raise ValueError("by must be a non-empty string")
        if not isinstance(to, str) or not to:
            raise ValueError("to must be a non-empty string")
        if by == to:
            raise ValueError("cannot share with oneself")
        _SHARE_CLOCK(self, clock)
        _SHARE_BY(self, by)
        _SHARE_TO(self, to)
        key = (clock, by, 1, _SHARE_RANK, 0, to, 0)
        _SHARE_KEY(self, key)
        _SHARE_ID(self, key)


@dataclass(frozen=True, slots=True, init=False)
class Obligation:
    """A usage-policy event granted within a share.

    ``allow=False`` encodes the forbidding form of the verb ("may not
    comment").  ``by`` is the grantor and ``to`` the grantee; both always
    match ``origin``.
    """

    clock: int
    verb: Verb
    allow: bool
    by: str
    to: str
    origin: OriginKey
    _key: tuple = field(init=False, repr=False, compare=False)
    _id: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, clock: int, verb: Verb, allow: bool, by: str, to: str, origin: OriginKey):
        if type(clock) is not int or clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(verb, Verb):
            raise ValueError("verb must be a Verb")
        if not isinstance(by, str) or not by:
            raise ValueError("by must be a non-empty string")
        if not isinstance(to, str) or not to:
            raise ValueError("to must be a non-empty string")
        if not isinstance(allow, bool):
            raise ValueError("allow must be a boolean")
        if by == to:
            raise ValueError("grantor and grantee must differ")
        if not isinstance(origin, OriginKey):
            raise ValueError("origin must be an OriginKey")
        if origin.grantor != by or origin.grantee != to:
            raise ValueError("origin does not match grantor/grantee")
        if verb not in OBLIGATION_VERBS:
            raise ValueError(f"obligations cannot govern {verb.value}")
        _OBLIGATION_CLOCK(self, clock)
        _OBLIGATION_VERB(self, verb)
        _OBLIGATION_ALLOW(self, allow)
        _OBLIGATION_BY(self, by)
        _OBLIGATION_TO(self, to)
        _OBLIGATION_ORIGIN(self, origin)
        key = (clock, by, 0, _VERB_RANK[verb], int(allow), to, origin.share_clock)
        _OBLIGATION_KEY(self, key)
        _OBLIGATION_ID(self, key[1:])


# Each record's ``__init__`` is its one validator, run alike for code and
# for the log-file parser (``_event``); once every check has passed, it
# sets the slots through these setters, an event's keys included.
def _setters(cls) -> tuple:
    """The slot setters of a frozen dataclass's fields, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_ORIGIN_GRANTOR, _ORIGIN_GRANTEE, _ORIGIN_SHARE_CLOCK = _setters(OriginKey)
_EDIT_CLOCK, _EDIT_VERB, _EDIT_BY, _EDIT_KEY, _EDIT_ID = _setters(PerformedEdit)
_SHARE_CLOCK, _SHARE_BY, _SHARE_TO, _SHARE_KEY, _SHARE_ID = _setters(PerformedShare)
(_OBLIGATION_CLOCK, _OBLIGATION_VERB, _OBLIGATION_ALLOW, _OBLIGATION_BY,
 _OBLIGATION_TO, _OBLIGATION_ORIGIN, _OBLIGATION_KEY, _OBLIGATION_ID) = _setters(Obligation)


Event = Union[PerformedEdit, PerformedShare, Obligation]
_EVENT_TYPES = (PerformedEdit, PerformedShare, Obligation)
_KEY = attrgetter("_key")
_ID = attrgetter("_id")


def sort_key(event: Event):
    """Canonical total order: clock, then actor, then variant, then payload.

    Obligations sort before performed shares, which sort before edits, at
    equal (clock, actor).  The trailing payload fields only break ties
    between distinct events sharing all leading components.
    """
    if not isinstance(event, _EVENT_TYPES):
        raise TypeError(f"{type(event).__name__} is not a log event")
    return event._key


def dedup_key(event: Event):
    """Identity used for log deduplication.

    A performed event's sort key already identifies it, so that key is its
    identity.  An obligation is identified by its origin plus verb and
    polarity, because its own clock differs between logs after
    receipt-time re-stamping: its identity is its sort key without the
    clock (the grantor and grantee are the origin's, and the share clock
    is the last component).
    """
    if not isinstance(event, _EVENT_TYPES):
        raise TypeError(f"{type(event).__name__} is not a log event")
    return event._id


def _check(role: LogRole, entries: Iterable[Event]) -> None:
    """Check the log invariant over ``entries``.

    Raises MixedRolesError for an entry that does not belong in a ``role``
    log, UnorderedLogError for one that sorts before its predecessor, and
    DuplicateEventError for a repeated identity, naming the first such
    entry as ``events[i]``.  A performed event's identity is its sort key,
    so in sorted entries its duplicates are neighbours; only obligations,
    whose identity leaves out their clock, need a set of the identities
    seen.
    """
    edit = role is LogRole.EDIT
    seen = set()
    previous = ()
    for i, event in enumerate(entries):
        key = sort_key(event)
        variant = key[2]  # 0 for obligations, 1 for performed shares, 2 for edits
        if (variant == 2) is not edit:
            raise MixedRolesError(
                f"events[{i}]: {type(event).__name__} does not belong in a {role.value} log"
            )
        if variant == 0:
            if event._id in seen:
                raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
            seen.add(event._id)
        elif key == previous:
            raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
        if key < previous:
            raise UnorderedLogError(f"events[{i}] is out of order")
        previous = key


@dataclass(frozen=True)
class Log:
    """An ordered, deduplicated sequence of events with a fixed role.

    Edit logs hold only performed edits; communication logs hold performed
    shares and obligations.  Entries must be in canonical order
    (``sort_key``) with distinct identities (``dedup_key``); the
    constructor checks both.  Instances are immutable; mutating operations
    return new logs, which share their parents' event objects.  Such an op
    costs the events it adds plus a C-level copy of the rest (see
    ``_spliced``).  The set of identities its duplicate check reads is a
    private cache, shared down a lineage and valid while its size matches
    the log's (``_keys_of``), so it changes no result.  Only this module
    reads a log's private fields.
    """

    role: LogRole
    entries: tuple[Event, ...] = ()
    # The comment set an edit log replays to (``replay_comments``), built
    # on first request.
    _comments: Optional[frozenset[tuple[str, str]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # A superset of every entry's dedup_key, or None (see ``_keys_of``).
    _keys: Optional[set] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self.role, self.entries)

    @classmethod
    def from_events(cls, role: LogRole, events: Iterable[Event]) -> "Log":
        """Build a log from events in any order, rejecting duplicates."""
        return cls(role, tuple(sorted(events, key=sort_key)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _unchecked(role: LogRole, entries: tuple[Event, ...], keys: Optional[set] = None) -> Log:
    """A log over entries that are already sorted, distinct and of ``role``.

    Skips the constructor's checks: every caller derives ``entries`` from
    valid logs and keys only the events it adds.  ``keys``, when given,
    must be the entries' identities.
    """
    log = object.__new__(Log)
    object.__setattr__(log, "role", role)
    object.__setattr__(log, "entries", entries)
    object.__setattr__(log, "_keys", keys)
    return log


def _keys_of(log: Log) -> set:
    """``log``'s identities: its set, which starts equal to them and only
    grows, while its size matches the log's; else a new set."""
    keys = log._keys
    if keys is not None and len(keys) == len(log.entries):
        return keys
    return set(map(_ID, log.entries))


def _spliced(log: Log, new: list[Event], keys: set) -> Log:
    """``log`` plus ``new`` events, whose identities ``keys`` lacks.

    ``keys`` is ``_keys_of(log)``.  Callers come here once every check
    has passed: the set grows by the new identities, and the result
    shares it with ``log``.  Bisection finds the span of ``log``'s entries
    that the new events fall into, often none.  Only that span is sorted
    with them; the entries around it are copied at C level.
    """
    keys.update(map(_ID, new))
    new.sort(key=_KEY)
    entries = log.entries
    lo = hi = 0
    if new:
        lo = bisect_left(entries, new[0]._key, key=_KEY)
        hi = bisect_left(entries, new[-1]._key, lo, key=_KEY)
    out = list(entries)
    out[lo:hi] = sorted((*entries[lo:hi], *new), key=_KEY)
    return _unchecked(log.role, tuple(out), keys)


def empty_log(role: LogRole) -> Log:
    return Log(role, ())


def append_event(log: Log, event: Event) -> Log:
    """Append a peer's own freshly generated event.

    The event lands at its total-order position.  Raises
    DuplicateEventError if its identity is already present, and then
    OrderViolationError if the acting peer already has an event in this
    log with an equal or later clock (own clocks must strictly increase
    when events are appended one at a time; the simulator stamps
    same-tick groups through a dedicated path instead).  A rejected
    append leaves ``log``'s entries as they were.
    """
    appended = _insert_events(log, [event])
    latest_own = max(
        (e.clock for e in log.entries if e.by == event.by), default=0
    )
    if event.clock <= latest_own:
        raise OrderViolationError(
            f"{event.by} appended clock {event.clock} after own clock {latest_own}"
        )
    return appended


def _insert_events(log: Log, events: Iterable[Event]) -> Log:
    """Insert events at their sorted positions without order checks.

    Still rejects duplicate identities, and a rejected insert leaves
    ``log`` as it was, its key set included.  Used by the simulator for
    groups of events stamped with one clock tick (a share plus its
    obligations, or a batch of edits).
    """
    keys = _keys_of(log)
    edit = log.role is LogRole.EDIT
    new = []
    added = set()
    for event in events:
        identity = dedup_key(event)
        if isinstance(event, PerformedEdit) is not edit:
            raise MixedRolesError(
                f"{type(event).__name__} does not belong in a {log.role.value} log"
            )
        if identity in keys or identity in added:
            raise DuplicateEventError(f"duplicate event {event!r}")
        added.add(identity)
        new.append(event)
    return _spliced(log, new, keys)


def merge_logs(local: Log, received: Log) -> Log:
    """Deduplicated union of two logs of the same role.

    When both logs carry an event with the same identity, the local copy
    wins.  That matters for obligations: the grantor's log keeps the
    grantor-side clock while every other copy in circulation carries the
    grantee's receipt clock, and a peer must not have its settled copy
    rewritten by a late-arriving duplicate.  Returns ``local`` itself when
    ``received`` adds nothing, and ``received`` itself when ``local`` is
    empty.

    Merging is idempotent, and for logs whose shared identities carry
    identical events (the only case arising from normal exchange) it is
    also order-insensitive.
    """
    return receive_log(local, received, None, 0)


def receive_log(local: Log, received: Log, receiver: Optional[str], clock: int) -> Log:
    """``merge_logs``, re-stamping the obligations new to ``receiver``.

    Of the events whose identity ``local`` does not hold yet, every
    obligation addressed to ``receiver`` gets ``clock``, one value per
    receipt drawn from the receiver's counter; other obligations and all
    performed events keep their clocks.  Origin keys are never touched,
    so identities survive.  Returns ``local`` itself when ``received``
    adds nothing, and ``received`` itself when ``local`` is empty and
    nothing needs re-stamping.  Besides one pass over ``received``, it
    costs the events it adds plus a C-level copy of ``local``'s; a new
    result shares and grows ``local``'s set of identities, a private
    cache (``_spliced``).
    """
    return _received(local, received, receiver, clock)[0]


def _received(
    local: Log, received: Log, receiver: Optional[str], clock: int
) -> tuple[Log, list[Event]]:
    """``receive_log``'s result, and the events it added to ``local``, in log order."""
    if local.role is not received.role:
        raise MixedRolesError(
            f"cannot merge a {received.role.value} log into a {local.role.value} log"
        )
    keys = _keys_of(local)
    new = [event for event in received.entries if event._id not in keys]
    if not new:
        return local, new
    restamped = False
    for i, event in enumerate(new):
        if isinstance(event, Obligation) and event.to == receiver:
            new[i] = Obligation(clock, event.verb, event.allow, event.by, event.to, event.origin)
            restamped = True
    if not local.entries and not restamped:
        return received, new
    return _spliced(local, new, keys), new


def _outbound(comm_log: Log, sender: str, recipient: str) -> Log:
    """What a share from ``sender`` to ``recipient`` carries of ``comm_log``.

    The recipient gets the full correspondence history relevant to it,
    but not the sender's grants and shares to other peers.  Returns
    ``comm_log`` itself when it keeps every event.
    """
    entries = comm_log.entries
    kept = tuple([e for e in entries if e.by != sender or e.to == recipient])
    return comm_log if len(kept) == len(entries) else _unchecked(LogRole.COMM, kept)


@dataclass(frozen=True)
class Document:
    """A shared document: identity, creator, and its set of comments.

    Content is modeled as the comment set alone; comments are identified
    by ``(author, comment_id)`` where the id embeds the author-side clock
    of the comment action.
    """

    doc_id: str
    creator: str
    comments: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not isinstance(self.creator, str) or not self.creator:
            raise ValueError("creator must be non-empty")


def make_comment_id(author: str, clock: int) -> str:
    return f"{author}:{clock}"


def replay_comments(edit_log: Log) -> frozenset[tuple[str, str]]:
    """Derive the comment set from an edit log.

    Replays the log in canonical order: a comment event adds
    ``(author, "author:clock")``, a delete event removes the author's own
    most recent comment if they have one.  Merged logs and live editing
    agree because both go through this replay.  The result is cached on
    the log, so each log is replayed at most once.

    An author's comments arrive in clock order, so each author's live
    comments form a stack whose top is the most recent one.
    """
    if edit_log._comments is not None:
        return edit_log._comments
    comment, delete = Verb.COMMENT, Verb.DELETE_COMMENT  # enum lookups are slow
    live: dict[str, list[str]] = {}
    for event in edit_log.entries:
        if event.verb is comment:
            live.setdefault(event.by, []).append(make_comment_id(event.by, event.clock))
        elif event.verb is delete:
            own = live.get(event.by)
            if own:
                own.pop()
    comments = frozenset((author, cid) for author, ids in live.items() for cid in ids)
    object.__setattr__(edit_log, "_comments", comments)
    return comments


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def event_to_dict(event: Event) -> dict:
    """Serialize one event.  Field order is part of the wire format."""
    if isinstance(event, PerformedEdit):
        return {
            "clock": event.clock,
            "kind": "edit",
            "verb": event.verb.value,
            "by": event.by,
        }
    if isinstance(event, PerformedShare):
        return {
            "clock": event.clock,
            "kind": "share",
            "verb": Verb.SHARE.value,
            "by": event.by,
            "to": event.to,
        }
    return {
        "clock": event.clock,
        "kind": "obligation",
        "verb": event.verb.value,
        "allow": event.allow,
        "by": event.by,
        "to": event.to,
        "origin": {
            "grantor": event.origin.grantor,
            "grantee": event.origin.grantee,
            "share_clock": event.origin.share_clock,
        },
    }


# Per event kind: its field names, the order ``_event`` reads them in.
_FIELDS_BY_KIND = {
    "edit": ("kind", "clock", "verb", "by"),
    "share": ("kind", "clock", "verb", "by", "to"),
    "obligation": ("kind", "clock", "verb", "by", "to", "allow", "origin"),
}
_VALUES_BY_KIND = {kind: itemgetter(*names) for kind, names in _FIELDS_BY_KIND.items()}


def _event(data) -> Event:
    """Parse one serialized event; a ValueError names its first problem.

    Checks only the JSON shape and leaves every value to the events'
    constructors.  A message is put together only once a test has failed.
    """
    if not isinstance(data, dict):
        raise ValueError("expected an object")
    kind = data.get("kind")
    values_of = _VALUES_BY_KIND.get(kind) if isinstance(kind, str) else None
    if values_of is None:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        if len(data) != len(_FIELDS_BY_KIND[kind]):
            raise KeyError
        values = values_of(data)
    except KeyError:
        expected = set(_FIELDS_BY_KIND[kind])
        missing = expected - data.keys()
        if missing:
            raise ValueError(f"missing fields {sorted(missing)}") from None
        raise ValueError(f"unexpected fields {sorted(data.keys() - expected)}") from None
    try:
        verb = _VERB_BY_VALUE[values[2]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown verb {values[2]!r}") from None
    if kind == "edit":
        return PerformedEdit(values[1], verb, values[3])
    if kind == "share":
        if verb is not Verb.SHARE:
            raise ValueError("share events must carry verb 'share'")
        return PerformedShare(values[1], values[3], values[4])
    origin = values[6]
    try:
        if not isinstance(origin, dict) or len(origin) != 3:
            raise KeyError
        origin = OriginKey(origin["grantor"], origin["grantee"], origin["share_clock"])
    except KeyError:
        raise ValueError(_ORIGIN_SHAPE) from None
    return Obligation(values[1], verb, values[5], values[3], values[4], origin)


def event_from_dict(data: dict, where: str = "event") -> Event:
    """Parse one serialized event, validating shape and field values."""
    try:
        return _event(data)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def log_to_dict(log: Log, doc_id: str) -> dict:
    """Serialize a log with its document envelope."""
    return {
        "doc_id": doc_id,
        "role": log.role.value,
        "events": [event_to_dict(e) for e in log.entries],
    }


def log_from_dict(data: dict, where: str = "log") -> tuple[str, Log]:
    """Parse a serialized log file payload into ``(doc_id, Log)``.

    Events must already be in canonical order and free of duplicate
    identities; files are validated, not repaired.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object")
    expected = {"doc_id", "role", "events"}
    if data.keys() != expected:
        raise ValueError(f"{where}: expected exactly the fields {sorted(expected)}")
    doc_id = data["doc_id"]
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError(f"{where}: doc_id must be a non-empty string")
    try:
        role = LogRole(data["role"])
    except ValueError:
        raise ValueError(f"{where}: role must be 'edit' or 'comm'") from None
    raw_events = data["events"]
    if not isinstance(raw_events, list):
        raise ValueError(f"{where}: events must be an array")
    events = []
    try:
        for raw in raw_events:
            events.append(_event(raw))
    except ValueError as exc:
        raise ValueError(f"{where}: events[{len(events)}]: {exc}") from None
    try:
        log = Log(role, tuple(events))
    except (DuplicateEventError, MixedRolesError, UnorderedLogError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    return doc_id, log
