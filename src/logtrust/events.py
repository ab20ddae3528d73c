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
import json
from bisect import bisect_left
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Optional, Union

from .errors import DuplicateEventError, MixedRolesError, UnorderedLogError


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
_SHARE = Verb.SHARE  # bound once: an enum member lookup costs 4x a global's
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


def _setters(cls) -> tuple:
    """The slot setters of a record class's fields, in ``__slots__`` order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class _Record:
    """An immutable record whose fields are its ``__slots__``.

    Equality, hashing and ``repr`` read the public fields, those without a
    leading underscore, in a frozen dataclass's format; a record of another
    class is never equal.  Assigning or deleting an attribute raises
    AttributeError: only a record's constructor or builder sets its fields,
    through ``_setters`` or ``_fill``.  ``__match_args__`` names the
    constructor's arguments: the public fields, unless a class names its
    own.  Copying and pickling rebuild a record from them by its
    constructor, with its checks.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._fields, cls._values = fields, attrgetter(*fields)
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def _fill(record: _Record, *values) -> None:
    """Set ``record``'s fields to ``values``, in ``__slots__`` order."""
    for name, value in zip(record.__slots__, values):
        object.__setattr__(record, name, value)


class OriginKey(_Record):
    """Stable identity of an obligation across receipt-time re-stamping.

    ``share_clock`` is the grantor-side clock of the share event the
    obligation was granted in, so two copies of one obligation compare
    equal no matter how their own clocks were rewritten downstream.
    """

    __slots__ = ("grantor", "grantee", "share_clock")
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
        _origin_key(self, grantor, grantee, share_clock)


class PerformedEdit(_Record):
    """A local action a peer actually performed (edit logs only)."""

    __slots__ = ("clock", "verb", "by", "_key", "_id")
    clock: int
    verb: Verb
    by: str
    # The event's sort key and identity (``sort_key``, ``dedup_key``).
    _key: tuple
    _id: tuple

    def __init__(self, clock: int, verb: Verb, by: str):
        if type(clock) is not int or clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(verb, Verb):
            raise ValueError("verb must be a Verb")
        if not isinstance(by, str) or not by:
            raise ValueError("by must be a non-empty string")
        if verb is _SHARE:
            raise ValueError("share actions belong in the communication log")
        _performed_edit(self, clock, verb, by)


class PerformedShare(_Record):
    """A share action a peer actually performed (communication logs only)."""

    __slots__ = ("clock", "by", "to", "_key", "_id")
    clock: int
    by: str
    to: str
    _key: tuple
    _id: tuple

    def __init__(self, clock: int, by: str, to: str):
        if type(clock) is not int or clock < 1:
            raise ValueError("clock must be a positive integer")
        if not isinstance(by, str) or not by:
            raise ValueError("by must be a non-empty string")
        if not isinstance(to, str) or not to:
            raise ValueError("to must be a non-empty string")
        if by == to:
            raise ValueError("cannot share with oneself")
        _performed_share(self, clock, by, to)


class Obligation(_Record):
    """A usage-policy event granted within a share.

    ``allow=False`` encodes the forbidding form of the verb ("may not
    comment").  ``by`` is the grantor and ``to`` the grantee; both always
    match ``origin``.
    """

    __slots__ = ("clock", "verb", "allow", "by", "to", "origin", "_key", "_id")
    clock: int
    verb: Verb
    allow: bool
    by: str
    to: str
    origin: OriginKey
    _key: tuple
    _id: tuple

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
        _obligation(self, clock, verb, allow, origin)


_ORIGIN_GRANTOR, _ORIGIN_GRANTEE, _ORIGIN_SHARE_CLOCK = _setters(OriginKey)
_EDIT_CLOCK, _EDIT_VERB, _EDIT_BY, _EDIT_KEY, _EDIT_ID = _setters(PerformedEdit)
_SHARE_CLOCK, _SHARE_BY, _SHARE_TO, _SHARE_KEY, _SHARE_ID = _setters(PerformedShare)
(_OBLIGATION_CLOCK, _OBLIGATION_VERB, _OBLIGATION_ALLOW, _OBLIGATION_BY,
 _OBLIGATION_TO, _OBLIGATION_ORIGIN, _OBLIGATION_KEY, _OBLIGATION_ID) = _setters(Obligation)


# A record kind's slots, keys included, are set only by its builder, which
# fills and returns ``record``: its constructor's, once the checks pass, or
# ``_new(cls)`` with values the engine or the log parser (``_event``) checked.
def _origin_key(record: OriginKey, grantor: str, grantee: str, share_clock: int) -> OriginKey:
    _ORIGIN_GRANTOR(record, grantor)
    _ORIGIN_GRANTEE(record, grantee)
    _ORIGIN_SHARE_CLOCK(record, share_clock)
    return record


def _performed_edit(record: PerformedEdit, clock: int, verb: Verb, by: str) -> PerformedEdit:
    _EDIT_CLOCK(record, clock)
    _EDIT_VERB(record, verb)
    _EDIT_BY(record, by)
    key = (clock, by, 2, _VERB_RANK[verb], 0, "", 0)
    _EDIT_KEY(record, key)
    _EDIT_ID(record, key)
    return record


def _performed_share(record: PerformedShare, clock: int, by: str, to: str) -> PerformedShare:
    _SHARE_CLOCK(record, clock)
    _SHARE_BY(record, by)
    _SHARE_TO(record, to)
    key = (clock, by, 1, _SHARE_RANK, 0, to, 0)
    _SHARE_KEY(record, key)
    _SHARE_ID(record, key)
    return record


def _obligation(
    record: Obligation, clock: int, verb: Verb, allow: bool, origin: OriginKey
) -> Obligation:
    by, to = origin.grantor, origin.grantee
    _OBLIGATION_CLOCK(record, clock)
    _OBLIGATION_VERB(record, verb)
    _OBLIGATION_ALLOW(record, allow)
    _OBLIGATION_BY(record, by)
    _OBLIGATION_TO(record, to)
    _OBLIGATION_ORIGIN(record, origin)
    key = (clock, by, 0, _VERB_RANK[verb], 1 if allow else 0, to, origin.share_clock)
    _OBLIGATION_KEY(record, key)
    _OBLIGATION_ID(record, key[1:])
    return record


Event = Union[PerformedEdit, PerformedShare, Obligation]
_EVENT_TYPES = (PerformedEdit, PerformedShare, Obligation)
_new = object.__new__
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
    seen.  Only a value whose class is not one of the role's is role-checked.
    """
    edit = role is LogRole.EDIT
    performed, obligation = (PerformedEdit, None) if edit else (PerformedShare, Obligation)
    seen = set()
    previous = ()
    for i, event in enumerate(entries):
        cls = event.__class__
        if cls is not performed and cls is not obligation:
            key = event._key if isinstance(event, _EVENT_TYPES) else sort_key(event)  # raises TypeError
            variant = key[2]  # 0 for obligations, 1 for performed shares, 2 for edits
            if (variant == 2) is not edit:
                raise MixedRolesError(
                    f"events[{i}]: {type(event).__name__} does not belong in a {role.value} log"
                )
            cls = obligation if variant == 0 else performed
        key = event._key
        if cls is performed:
            if key == previous:
                raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
        else:
            n = len(seen)
            seen.add(event._id)
            if len(seen) == n:
                raise DuplicateEventError(f"events[{i}] duplicates an earlier event")
        if key < previous:
            raise UnorderedLogError(f"events[{i}] is out of order")
        previous = key


class _Lineage:
    """One append-only list of events, in the order they joined it.

    Every log that reads the list is one of its prefixes, and a prefix
    never changes, so all of them share it.  A log built by the
    constructor starts a lineage over its entries tuple, which becomes a
    list when a log first extends it.  A lineage has one owner that
    appends to it: in the engine, one held log or one channel.  ``keys``
    is None or the identities of every event in the list.  ``order`` is
    the first ``len(order)`` events in canonical order, the entries of
    the latest log that built them: ``Log.entries`` builds forward from
    it.
    """

    __slots__ = ("events", "keys", "order")

    def __init__(
        self, events: Union[list[Event], tuple[Event, ...]], order: tuple[Event, ...] = ()
    ):
        self.events = events
        self.keys: Optional[set] = None
        self.order = order


class Log:
    """An ordered, deduplicated sequence of events with a fixed role.

    Edit logs hold only performed edits; communication logs hold performed
    shares and obligations.  Entries must be in canonical order
    (``sort_key``) with distinct identities (``dedup_key``); the
    constructor takes a tuple of ``entries`` and checks both.  Instances
    are immutable; mutating operations return new logs, which share their
    parents' event objects.  Equality, hashing, ``repr``, pickling and
    copying see the role and the entries alone.

    How a log is stored is private to this module and changes no result.
    A log is its role and a prefix of a lineage, one list of events in
    arrival order (``_Lineage``).  Deriving a log appends the events it
    adds to its parent's list when the parent is the list's head, and
    otherwise first copies the parent's events into a new list
    (``_extendable``), so an op costs the events it adds.  A receive
    appends to the local log's lineage, never the received one's.  The
    engine derives only from heads, so it never copies; only a log
    derived from an older version does.  ``entries`` are built on first
    read and cached: forward from the lineage's sorted cache, or by
    sorting an older log's prefix (``_sorted``).  A log's
    identity set, which its duplicate check reads, is its lineage's, and
    it holds exactly the log's identities while the log is the head.
    """

    __slots__ = ("_role", "_lineage", "_n", "_entries", "_comments")
    __match_args__ = ("role", "entries")

    def __init__(self, role: LogRole, entries: Iterable[Event] = ()):
        entries = tuple(entries)
        _check(role, entries)
        _init(self, role, _Lineage(entries, entries), len(entries), entries)

    @property
    def role(self) -> LogRole:
        return self._role

    @classmethod
    def from_events(cls, role: LogRole, events: Iterable[Event]) -> "Log":
        """Build a log from events in any order, rejecting duplicates."""
        return cls(role, tuple(sorted(events, key=sort_key)))

    @property
    def entries(self) -> tuple[Event, ...]:
        entries = self._entries
        if entries is None:
            entries = self._entries = _sorted(self._lineage, self._n)
        return entries

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.role, self.entries) == (other.role, other.entries)

    def __hash__(self):
        return hash((self.role, self.entries))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(role={self.role!r}, entries={self.entries!r})"

    def __reduce__(self):
        return (self.__class__, (self.role, self.entries))


def _init(
    log: Log, role: LogRole, lineage: _Lineage, n: int, entries: Optional[tuple] = None
) -> Log:
    """Make ``log`` the first ``n`` events of ``lineage``; ``entries``,
    when given, must be them in canonical order."""
    log._role = role
    log._lineage = lineage
    log._n = n
    log._entries = entries
    log._comments = None
    return log


def _sorted(lineage: _Lineage, n: int) -> tuple[Event, ...]:
    """The first ``n`` events of ``lineage``, in canonical order.

    When the lineage's sorted prefix is no longer than ``n`` events, the
    events past it are sorted and merged into a copy of it, which becomes
    the lineage's: they go at its end when they sort after it, and
    otherwise bisection finds the span they fall into, and only that span
    is sorted with them.  A shorter prefix is sorted on its own.
    """
    events, order = lineage.events, lineage.order
    ordered = len(order)
    if n < ordered:
        return tuple(sorted(events[:n], key=_KEY))
    if n > ordered:
        new = sorted(events[ordered:n], key=_KEY)
        if order and new[0]._key < order[-1]._key:
            lo = bisect_left(order, new[0]._key, key=_KEY)
            hi = bisect_left(order, new[-1]._key, lo, key=_KEY)
            new[:0] = order[lo:hi]
            new.sort(key=_KEY)
            order = order[:lo] + tuple(new) + order[hi:]
        else:
            order += tuple(new)
        lineage.order = order
    return order


def _ordered(log: Log) -> tuple[Event, ...]:
    """``log.entries``, without keeping them on ``log``: for a reader that
    meets the versions of a lineage once each, oldest first, so that only
    the lineage's latest sorted prefix is kept."""
    return log._entries or _sorted(log._lineage, log._n)


def _arrived(log: Log, start: int = 0) -> list[Event]:
    """``log``'s events in arrival order from the ``start``-th on, for
    readers that need no order: a slice, so a reader past ``start`` steps
    over none of the events before it."""
    return log._lineage.events[start : log._n]


def _fork(log: Log) -> _Lineage:
    """A new lineage of ``log``'s events in arrival order, whose sorted
    prefix is ``log``'s entries if built: the one place a log's list is
    copied, for a log derived from an older version."""
    return _Lineage(log._lineage.events[: log._n], log._entries or ())


def _extendable(log: Log) -> _Lineage:
    """The lineage a log derived from ``log`` appends to: ``log``'s own
    when ``log`` is its head, and otherwise a fork of ``log``'s prefix."""
    lineage = log._lineage
    return lineage if log._n == len(lineage.events) else _fork(log)


def _tip(log: Log) -> tuple[_Lineage, set]:
    """``_extendable(log)``, and the identities of its events.

    The set is the lineage's, or a new one when it has none yet;
    ``_appended`` hands a new set to the lineage only once an op has
    passed every check, so a rejected op changes neither.
    """
    lineage = _extendable(log)
    keys = lineage.keys
    if keys is None:
        keys = set(map(_ID, lineage.events))
    return lineage, keys


def _appended(
    role: LogRole, lineage: _Lineage, new: list[Event], keys: Optional[set] = None
) -> Log:
    """The new head of ``lineage``: its events and then ``new``.

    The identities of ``new`` must be distinct and missing from the
    lineage.  ``keys``, when given, is ``_tip``'s set of the lineage's
    identities; without it, the lineage's own set, if it has one, is kept
    up to date.
    """
    if keys is None:
        keys = lineage.keys
    if keys is not None:
        keys.update(map(_ID, new))
        lineage.keys = keys
    events = lineage.events
    if events.__class__ is tuple:
        lineage.events = events = list(events)
    events += new
    return _init(object.__new__(Log), role, lineage, len(events))


def empty_log(role: LogRole) -> Log:
    return Log(role, ())


def merge_logs(local: Log, received: Log) -> Log:
    """Deduplicated union of two logs of the same role.

    When both logs carry an event with the same identity, the local copy
    wins.  That matters for obligations: the grantor's log keeps the
    grantor-side clock while every other copy in circulation carries the
    grantee's receipt clock, and a peer must not have its settled copy
    rewritten by a late-arriving duplicate.  Returns ``local`` itself when
    ``received`` adds nothing.  It costs one pass over ``received``'s
    events plus the events it adds (see ``receive_log``).

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
    adds nothing.  Besides one pass over ``received``'s events, in
    arrival order, it costs the events it adds: a new result appends
    them to ``local``'s lineage and identity set when ``local`` is the
    lineage's head, and to a copy of ``local``'s otherwise (see ``Log``),
    never to ``received``'s, even when ``local`` is empty.
    """
    return _received(local, received, receiver, clock)


def _received(
    local: Log, received: Log, receiver: Optional[str], clock: int, start: int = 0
) -> Log:
    """``receive_log``, reading ``received``'s events in arrival order from
    the ``start``-th on: ``local`` must hold the ones before (see
    ``simulator._Channel``)."""
    role = local._role
    if role is not received._role:
        raise MixedRolesError(
            f"cannot merge a {received.role.value} log into a {role.value} log"
        )
    lineage, keys = _tip(local)
    new = [e for e in received._lineage.events[start : received._n] if e._id not in keys]
    if not new:
        return local
    if receiver is not None and role is LogRole.COMM:  # an edit log holds no obligations
        for i, e in enumerate(new):
            if e.to == receiver and isinstance(e, Obligation):
                if type(clock) is not int or clock < 1:  # Obligation's own check
                    raise ValueError("clock must be a positive integer")
                new[i] = _obligation(_new(Obligation), clock, e.verb, e.allow, e.origin)
    return _appended(role, lineage, new, keys)


class Document(_Record):
    """A shared document: identity, creator, and its set of comments.

    Content is modeled as the comment set alone; comments are identified
    by ``(author, comment_id)`` where the id embeds the author-side clock
    of the comment action.
    """

    __slots__ = ("doc_id", "creator", "comments")
    doc_id: str
    creator: str
    comments: frozenset[tuple[str, str]]

    def __init__(
        self, doc_id: str, creator: str, comments: frozenset[tuple[str, str]] = frozenset()
    ):
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("doc_id must be non-empty")
        if not isinstance(creator, str) or not creator:
            raise ValueError("creator must be non-empty")
        _fill(self, doc_id, creator, comments)


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
    if edit_log._comments is None:
        edit_log._comments = _replayed(edit_log.entries)
    return edit_log._comments


def _replayed(entries: Iterable[Event]) -> frozenset[tuple[str, str]]:
    """The comment set of an edit log's ``entries``, in canonical order."""
    comment, delete = Verb.COMMENT, Verb.DELETE_COMMENT  # enum lookups are slow
    live: dict[str, list[str]] = {}
    for event in entries:
        if event.verb is comment:
            live.setdefault(event.by, []).append(f"{event.by}:{event.clock}")
        elif event.verb is delete:
            own = live.get(event.by)
            if own:
                own.pop()
    return frozenset((author, cid) for author, ids in live.items() for cid in ids)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# Per depth, the newline and indent that open a line of ``json.dumps(...,
# indent=2)`` output nested that deep; a trace nests 10 deep.
_PADS = tuple("\n" + "  " * depth for depth in range(11))


def _json_list(texts: list[str], depth: int, brackets: str = "[]") -> str:
    """The rendered ``texts`` as a JSON list, or with ``"{}"`` an object, at
    ``depth``, as ``json.dumps(..., indent=2)`` nests it."""
    if not texts:
        return brackets
    pad = _PADS[depth + 1]
    return f"{brackets[0]}{pad}{(',' + pad).join(texts)}{_PADS[depth]}{brackets[1]}"


def _event_json(event: Event, depth: int) -> str:
    """``event`` as JSON at ``depth``, one template per kind: the wire
    format, whose field order is part of it.  Clocks are exact ints (the
    constructors check): ``!r`` is their JSON."""
    enc, i, o = encode_basestring_ascii, _PADS[depth + 1], _PADS[depth]
    if isinstance(event, PerformedEdit):
        return (
            f'{{{i}"clock": {event.clock!r},{i}"kind": "edit",{i}"verb": {enc(event.verb.value)},'
            f'{i}"by": {enc(event.by)}{o}}}'
        )
    if isinstance(event, PerformedShare):
        return (
            f'{{{i}"clock": {event.clock!r},{i}"kind": "share",{i}"verb": "share",'
            f'{i}"by": {enc(event.by)},{i}"to": {enc(event.to)}{o}}}'
        )
    origin, g = event.origin, _PADS[depth + 2]
    return (
        f'{{{i}"clock": {event.clock!r},{i}"kind": "obligation",{i}"verb": {enc(event.verb.value)},'
        f'{i}"allow": {"true" if event.allow else "false"},{i}"by": {enc(event.by)},'
        f'{i}"to": {enc(event.to)},{i}"origin": {{{g}"grantor": {enc(origin.grantor)},'
        f'{g}"grantee": {enc(origin.grantee)},{g}"share_clock": {origin.share_clock!r}{i}}}{o}}}'
    )


def _log_json(log: Log, depth: int) -> str:
    """``log``'s events as a JSON list at ``depth``."""
    return _json_list([_event_json(event, depth + 1) for event in log.entries], depth)


def event_to_dict(event: Event) -> dict:
    """Serialize one event: its JSON template (``_event_json``), parsed."""
    return json.loads(_event_json(event, 0))


# Per event kind: its field names.
_FIELDS_BY_KIND = {
    "edit": {"kind", "clock", "verb", "by"},
    "share": {"kind", "clock", "verb", "by", "to"},
    "obligation": {"kind", "clock", "verb", "by", "to", "allow", "origin"},
}


# A kind's decoder builds by its builder an event whose fields, all there (a
# missing one reads None), pass an exact-class guard on the constructors' checks.
def _edit_event(data: dict) -> Event:
    clock, verb, by = data.get("clock"), _VERB_BY_VALUE.get(data.get("verb")), data.get("by")
    if (len(data) == 4 and clock.__class__ is int and clock > 0 and by.__class__ is str and by
            and verb is not None and verb is not _SHARE):
        return _performed_edit(_new(PerformedEdit), clock, verb, by)
    return _constructed(data)


def _share_event(data: dict) -> Event:
    clock, by, to = data.get("clock"), data.get("by"), data.get("to")
    if (len(data) == 5 and clock.__class__ is int and clock > 0 and by.__class__ is str and by
            and to.__class__ is str and to and by != to and data.get("verb") == "share"):
        return _performed_share(_new(PerformedShare), clock, by, to)
    return _constructed(data)


def _obligation_event(data: dict) -> Event:
    clock, verb, allow = data.get("clock"), _VERB_BY_VALUE.get(data.get("verb")), data.get("allow")
    by, to, raw = data.get("by"), data.get("to"), data.get("origin")
    if (len(data) == 7 and clock.__class__ is int and clock > 0 and by.__class__ is str and by
            and to.__class__ is str and to and by != to and allow.__class__ is bool
            and verb in OBLIGATION_VERBS and raw.__class__ is dict and len(raw) == 3):
        grantor, grantee, share_clock = raw.get("grantor"), raw.get("grantee"), raw.get("share_clock")
        if (grantor.__class__ is str and grantor == by and grantee.__class__ is str and grantee == to
                and share_clock.__class__ is int and share_clock > 0):
            origin = _origin_key(_new(OriginKey), grantor, grantee, share_clock)
            return _obligation(_new(Obligation), clock, verb, allow, origin)
    return _constructed(data)


_DECODERS = {"edit": _edit_event, "share": _share_event, "obligation": _obligation_event}


def _event(data) -> Event:
    """Parse one serialized event: a plain ``dict`` by its kind's decoder, and
    any other value, or a bad or unhashable kind or verb, by ``_constructed``."""
    try:
        return _DECODERS[data["kind"]](data) if data.__class__ is dict else _constructed(data)
    except (KeyError, TypeError):
        return _constructed(data)


def _constructed(data) -> Event:
    """Parse one serialized event by the constructors, which check its
    values and give every message, once its JSON shape is checked: an
    object, its kind, its exact field set and its verb by value."""
    if not isinstance(data, dict):
        raise ValueError("expected an object")
    kind = data.get("kind")
    names = _FIELDS_BY_KIND.get(kind) if isinstance(kind, str) else None
    if names is None:
        raise ValueError(f"unknown kind {kind!r}")
    missing, unexpected = sorted(names - data.keys()), sorted(data.keys() - names)
    if missing:
        raise ValueError(f"missing fields {missing}")
    if unexpected:
        raise ValueError(f"unexpected fields {unexpected}")
    try:
        verb = _VERB_BY_VALUE[data["verb"]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown verb {data['verb']!r}") from None
    clock, by = data["clock"], data["by"]
    if kind == "edit":
        return PerformedEdit(clock, verb, by)
    if kind == "share":
        if verb is not _SHARE:
            raise ValueError("share events must carry verb 'share'")
        return PerformedShare(clock, by, data["to"])
    raw = data["origin"]
    if not isinstance(raw, dict) or raw.keys() != {"grantor", "grantee", "share_clock"}:
        raise ValueError(_ORIGIN_SHAPE)
    origin = OriginKey(raw["grantor"], raw["grantee"], raw["share_clock"])
    return Obligation(clock, verb, data["allow"], by, data["to"], origin)


def _log_file_pieces(log: Log, doc_id: str) -> tuple[str, str, str]:
    """A log file's text, in pieces: ``log`` with its document envelope."""
    head = f'{{\n  "doc_id": {encode_basestring_ascii(doc_id)},\n  "role": "{log.role.value}"'
    return f'{head},\n  "events": ', _log_json(log, 1), "\n}"


def log_to_dict(log: Log, doc_id: str) -> dict:
    """Serialize a log with its document envelope: its file text, parsed."""
    return json.loads("".join(_log_file_pieces(log, doc_id)))


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
    try:
        events = tuple([_event(raw) for raw in raw_events])
    except ValueError:
        for i, raw in enumerate(raw_events):  # find the first bad event
            try:
                _event(raw)
            except ValueError as exc:
                raise ValueError(f"{where}: events[{i}]: {exc}") from None
    try:
        log = Log(role, events)
    except (DuplicateEventError, MixedRolesError, UnorderedLogError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    return doc_id, log
