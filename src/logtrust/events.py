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
from operator import itemgetter
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

#: Verbs a peer may perform as plain edits (create is reserved for the
#: document creator's first action).
EDIT_VERBS = frozenset({Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT})

#: Verbs that can appear in obligations attached to a share.
OBLIGATION_VERBS = frozenset({Verb.READ, Verb.COMMENT, Verb.DELETE_COMMENT, Verb.SHARE})


class LogRole(enum.Enum):
    EDIT = "edit"
    COMM = "comm"


@dataclass(frozen=True, slots=True)
class OriginKey:
    """Stable identity of an obligation across receipt-time re-stamping.

    ``share_clock`` is the grantor-side clock of the share event the
    obligation was granted in, so two copies of one obligation compare
    equal no matter how their own clocks were rewritten downstream.
    """

    grantor: str
    grantee: str
    share_clock: int

    def __post_init__(self):
        if not isinstance(self.grantor, str) or not self.grantor or not isinstance(self.grantee, str) or not self.grantee:
            raise ValueError("grantor and grantee must be non-empty strings")
        if self.grantor == self.grantee:
            raise ValueError("grantor and grantee must differ")
        if type(self.share_clock) is not int or self.share_clock < 1:
            raise ValueError("share_clock must be a positive integer")


@dataclass(frozen=True, slots=True)
class PerformedEdit:
    """A local action a peer actually performed (edit logs only)."""

    clock: int
    verb: Verb
    by: str

    def __post_init__(self):
        if type(self.clock) is not int or self.clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(self.verb, Verb):
            raise ValueError("verb must be a Verb")
        if not isinstance(self.by, str) or not self.by:
            raise ValueError("by must be a non-empty string")
        if self.verb is Verb.SHARE:
            raise ValueError("share actions belong in the communication log")


@dataclass(frozen=True, slots=True)
class PerformedShare:
    """A share action a peer actually performed (communication logs only)."""

    clock: int
    by: str
    to: str

    def __post_init__(self):
        if type(self.clock) is not int or self.clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(self.by, str) or not self.by or not isinstance(self.to, str) or not self.to:
            raise ValueError("by and to must be non-empty strings")
        if self.by == self.to:
            raise ValueError("cannot share with oneself")


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self):
        if type(self.clock) is not int or self.clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(self.verb, Verb):
            raise ValueError("verb must be a Verb")
        if not isinstance(self.allow, bool):
            raise ValueError("allow must be a boolean")
        if not isinstance(self.by, str) or not self.by or not isinstance(self.to, str) or not self.to:
            raise ValueError("by and to must be non-empty strings")
        if self.by == self.to:
            raise ValueError("grantor and grantee must differ")
        if not isinstance(self.origin, OriginKey):
            raise ValueError("origin must be an OriginKey")
        if self.origin.grantor != self.by or self.origin.grantee != self.to:
            raise ValueError("origin does not match grantor/grantee")
        if self.verb not in OBLIGATION_VERBS:
            raise ValueError(f"obligations cannot govern {self.verb.value}")


Event = Union[PerformedEdit, PerformedShare, Obligation]


def _row(event: Event) -> tuple[tuple, tuple, Event]:
    """``(sort_key(event), dedup_key(event), event)``: the row a ``Log`` keeps per entry."""
    if isinstance(event, PerformedEdit):
        key = (event.clock, event.by, 2, _VERB_RANK[event.verb], 0, "", 0)
        return key, key, event
    if isinstance(event, Obligation):
        key = (
            event.clock,
            event.by,
            0,
            _VERB_RANK[event.verb],
            int(event.allow),
            event.to,
            event.origin.share_clock,
        )
        return key, key[1:], event
    if isinstance(event, PerformedShare):
        key = (event.clock, event.by, 1, 0, 0, event.to, 0)
        return key, key, event
    raise TypeError(f"{type(event).__name__} is not a log event")


def sort_key(event: Event):
    """Canonical total order: clock, then actor, then variant, then payload.

    Obligations sort before performed shares, which sort before edits, at
    equal (clock, actor).  The trailing payload fields only break ties
    between distinct events sharing all leading components.
    """
    return _row(event)[0]


def dedup_key(event: Event):
    """Identity used for log deduplication.

    A performed event's sort key already identifies it, so that key is its
    identity.  An obligation is identified by its origin plus verb and
    polarity, because its own clock differs between logs after
    receipt-time re-stamping: its identity is its sort key without the
    clock (the grantor and grantee are the origin's, and the share clock
    is the last component).
    """
    return _row(event)[1]


def _checked_rows(role: LogRole, entries: Iterable[Event]) -> tuple[tuple, ...]:
    """One (sort_key, dedup_key, event) row per entry, checking the log invariant.

    Raises MixedRolesError for an entry that does not belong in a ``role``
    log, UnorderedLogError for one that sorts before its predecessor, and
    DuplicateEventError for a repeated identity, naming the first such
    entry as ``events[i]``.  A performed event's identity is its sort key,
    so in sorted entries its duplicates are neighbours; only obligations,
    whose identity leaves out their clock, need a set of the identities
    seen.
    """
    edit = role is LogRole.EDIT
    rows = []
    seen = set()
    previous = ()
    for i, event in enumerate(entries):
        row = _row(event)
        key = row[0]
        variant = key[2]  # 0 for obligations, 1 for performed shares, 2 for edits
        if (variant == 2) is not edit:
            raise MixedRolesError(
                f"events[{i}]: {type(event).__name__} does not belong in a {role.value} log"
            )
        if variant == 0:
            if row[1] in seen:
                raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
            seen.add(row[1])
        elif key == previous:
            raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
        if key < previous:
            raise UnorderedLogError(f"events[{i}] is out of order")
        previous = key
        rows.append(row)
    return tuple(rows)


@dataclass(frozen=True)
class Log:
    """An ordered, deduplicated sequence of events with a fixed role.

    Edit logs hold only performed edits; communication logs hold performed
    shares and obligations.  Entries must be in canonical order
    (``sort_key``) with distinct identities (``dedup_key``); the
    constructor checks both.  Instances are immutable; mutating operations
    return new logs.  Such an op costs the rows it adds plus a C-level
    copy of the rest (see ``_spliced``).  The set of identities its
    duplicate check reads is a private cache, shared down a lineage and
    valid while its size matches the log's (``_keys_of``), so it changes
    no result.  Only this module reads a log's private fields.
    """

    role: LogRole
    entries: tuple[Event, ...] = ()
    # One (sort_key, dedup_key, event) row per entry: the keys the
    # constructor's check computes, kept for the log operations.
    _rows: tuple[tuple, ...] = field(init=False, repr=False, compare=False)
    # The comment set an edit log replays to (``replay_comments``), built
    # on first request.
    _comments: Optional[frozenset[tuple[str, str]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # A superset of every row's dedup_key, or None (see ``_keys_of``).
    _keys: Optional[set] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", _checked_rows(self.role, self.entries))

    @classmethod
    def from_events(cls, role: LogRole, events: Iterable[Event]) -> "Log":
        """Build a log from events in any order, rejecting duplicates."""
        return cls(role, tuple(sorted(events, key=sort_key)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


_SORT_KEY = itemgetter(0)
_DEDUP_KEY = itemgetter(1)
_EVENT = itemgetter(2)


def _from_rows(
    role: LogRole,
    rows: tuple[tuple, ...],
    entries: Optional[tuple[Event, ...]] = None,
    keys: Optional[set] = None,
) -> Log:
    """A log over rows that are already sorted, distinct and of ``role``.

    Skips the constructor's checks: every caller derives ``rows`` from
    valid logs and keys only the events it adds.  ``entries`` and
    ``keys``, when given, must be the rows' events and identities.
    """
    log = object.__new__(Log)
    object.__setattr__(log, "role", role)
    object.__setattr__(log, "entries", tuple(map(_EVENT, rows)) if entries is None else entries)
    object.__setattr__(log, "_rows", rows)
    object.__setattr__(log, "_keys", keys)
    return log


def _keys_of(log: Log) -> set:
    """``log``'s identities: its set, which starts equal to them and only
    grows, while its size matches the log's; else a new set."""
    keys = log._keys
    if keys is not None and len(keys) == len(log._rows):
        return keys
    return set(map(_DEDUP_KEY, log._rows))


def _spliced(log: Log, new: list[tuple], keys: set) -> Log:
    """``log`` plus ``new`` rows, whose identities ``keys`` lacks.

    ``keys`` is ``_keys_of(log)``.  Callers come here once every check
    has passed: the set grows by the new identities, and the result
    shares it with ``log``.  Bisection finds the span of ``log``'s rows
    that the new rows fall into, often none.  Only that span is sorted
    with them; the rows and entries around it are copied at C level.
    """
    keys.update(map(_DEDUP_KEY, new))
    new.sort(key=_SORT_KEY)
    rows = log._rows
    lo = hi = 0
    if new:
        lo = bisect_left(rows, new[0][0], key=_SORT_KEY)
        hi = bisect_left(rows, new[-1][0], lo, key=_SORT_KEY)
    middle = sorted((*rows[lo:hi], *new), key=_SORT_KEY)
    out_rows = list(rows)
    out_rows[lo:hi] = middle
    out_entries = list(log.entries)
    out_entries[lo:hi] = map(_EVENT, middle)
    return _from_rows(log.role, tuple(out_rows), tuple(out_entries), keys)


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
        row = _row(event)
        identity = row[1]
        if isinstance(event, PerformedEdit) is not edit:
            raise MixedRolesError(
                f"{type(event).__name__} does not belong in a {log.role.value} log"
            )
        if identity in keys or identity in added:
            raise DuplicateEventError(f"duplicate event {event!r}")
        added.add(identity)
        new.append(row)
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
    costs the rows it adds plus a C-level copy of ``local``'s; a new
    result shares and grows ``local``'s set of identities, a private
    cache (``_spliced``).
    """
    return _received(local, received, receiver, clock)[0]


def _received(
    local: Log, received: Log, receiver: Optional[str], clock: int
) -> tuple[Log, Iterable[Event]]:
    """``receive_log``'s result, and the events it added to ``local``, in log order."""
    if local.role is not received.role:
        raise MixedRolesError(
            f"cannot merge a {received.role.value} log into a {local.role.value} log"
        )
    keys = _keys_of(local)
    new = [row for row in received._rows if row[1] not in keys]
    if not new:
        return local, ()
    restamped = False
    for i, (_, _, event) in enumerate(new):
        if isinstance(event, Obligation) and event.to == receiver:
            new[i] = _row(Obligation(clock, event.verb, event.allow, event.by, event.to, event.origin))
            restamped = True
    if not local.entries and not restamped:
        return received, map(_EVENT, new)
    return _spliced(local, new, keys), map(_EVENT, new)


def _outbound(comm_log: Log, sender: str, recipient: str) -> Log:
    """What a share from ``sender`` to ``recipient`` carries of ``comm_log``.

    The recipient gets the full correspondence history relevant to it,
    but not the sender's grants and shares to other peers.  Returns
    ``comm_log`` itself when it keeps every row.
    """
    rows = comm_log._rows
    # A comm log row's sort key holds the actor at [1] and the recipient at [5].
    kept = tuple([row for row in rows if row[0][1] != sender or row[0][5] == recipient])
    return comm_log if len(kept) == len(rows) else _from_rows(LogRole.COMM, kept)


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
_ORIGIN_VALUES = itemgetter("grantor", "grantee", "share_clock")

def _setters(cls) -> tuple:
    """The slot setters of a frozen dataclass's fields, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


# ``_event`` checks every value the events' ``__post_init__`` would, so it
# builds them through their slot setters without checking a second time.
_new = object.__new__
_EDIT_CLOCK, _EDIT_VERB, _EDIT_BY = _setters(PerformedEdit)
_SHARE_CLOCK, _SHARE_BY, _SHARE_TO = _setters(PerformedShare)
_ORIGIN_GRANTOR, _ORIGIN_GRANTEE, _ORIGIN_SHARE_CLOCK = _setters(OriginKey)
(
    _OBLIGATION_CLOCK,
    _OBLIGATION_VERB,
    _OBLIGATION_ALLOW,
    _OBLIGATION_BY,
    _OBLIGATION_TO,
    _OBLIGATION_ORIGIN,
) = _setters(Obligation)


def _new_edit(clock, verb, by):
    event = _new(PerformedEdit)
    _EDIT_CLOCK(event, clock)
    _EDIT_VERB(event, verb)
    _EDIT_BY(event, by)
    return event


def _new_share(clock, by, to):
    event = _new(PerformedShare)
    _SHARE_CLOCK(event, clock)
    _SHARE_BY(event, by)
    _SHARE_TO(event, to)
    return event


def _new_obligation(clock, verb, allow, by, to, grantor, grantee, share_clock):
    origin = _new(OriginKey)
    _ORIGIN_GRANTOR(origin, grantor)
    _ORIGIN_GRANTEE(origin, grantee)
    _ORIGIN_SHARE_CLOCK(origin, share_clock)
    event = _new(Obligation)
    _OBLIGATION_CLOCK(event, clock)
    _OBLIGATION_VERB(event, verb)
    _OBLIGATION_ALLOW(event, allow)
    _OBLIGATION_BY(event, by)
    _OBLIGATION_TO(event, to)
    _OBLIGATION_ORIGIN(event, origin)
    return event


def _event(data) -> Event:
    """Parse one serialized event; a ValueError names its first problem.

    Each fact costs one cheap test, and a message is put together only
    once a test has failed.
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
    clock = values[1]
    if type(clock) is not int or clock < 1:
        raise ValueError("clock must be a positive integer")
    try:
        verb = _VERB_BY_VALUE[values[2]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown verb {values[2]!r}") from None
    by = values[3]
    if not isinstance(by, str) or not by:
        raise ValueError("by must be a non-empty string")
    if kind == "edit":
        if verb is Verb.SHARE:
            raise ValueError("share actions belong in the communication log")
        return _new_edit(clock, verb, by)
    to = values[4]
    if not isinstance(to, str) or not to:
        raise ValueError("to must be a non-empty string")
    if kind == "share":
        if verb is not Verb.SHARE:
            raise ValueError("share events must carry verb 'share'")
        if by == to:
            raise ValueError("cannot share with oneself")
        return _new_share(clock, by, to)
    allow = values[5]
    if not isinstance(allow, bool):
        raise ValueError("allow must be a boolean")
    origin = values[6]
    try:
        if not isinstance(origin, dict) or len(origin) != 3:
            raise KeyError
        grantor, grantee, share_clock = _ORIGIN_VALUES(origin)
        if not isinstance(grantor, str) or not isinstance(grantee, str) or type(share_clock) is not int:
            raise KeyError
    except KeyError:
        raise ValueError("origin must carry grantor, grantee, share_clock") from None
    if grantor == grantee:
        raise ValueError("grantor and grantee must differ")
    if share_clock < 1:
        raise ValueError("share_clock must be >= 1")
    if by == to:
        raise ValueError("grantor and grantee must differ")
    if grantor != by or grantee != to:
        raise ValueError("origin does not match grantor/grantee")
    if verb not in OBLIGATION_VERBS:
        raise ValueError(f"obligations cannot govern {verb.value}")
    return _new_obligation(clock, verb, allow, by, to, grantor, grantee, share_clock)


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
