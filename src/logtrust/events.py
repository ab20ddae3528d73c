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
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Union

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
        if verb is _SHARE:
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


# A record's ``__init__`` sets its slots through these setters once every
# check has passed, an event's keys included.  The log-file parser
# (``_event``) also sets them, for an event that passes its guard.
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
    seen.
    """
    edit = role is LogRole.EDIT
    seen = set()
    previous = ()
    for i, event in enumerate(entries):
        key = event._key if isinstance(event, _EVENT_TYPES) else sort_key(event)  # raises TypeError
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

    @property
    def _keys(self) -> Optional[set]:
        """The lineage's identity set, or None: a superset of the log's
        identities, and exactly them while the log is the lineage's head."""
        return self._lineage.keys

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


def _arrived(log: Log) -> Iterator[Event]:
    """``log``'s events in arrival order, for readers that need no order."""
    return islice(log._lineage.events, log._n)


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


def _insert_events(log: Log, events: Iterable[Event]) -> Log:
    """``log`` with ``events`` added, each at its sorted position.

    Rejects an event of the other role and a duplicate identity, and a
    rejected insert changes nothing, ``log``'s lineage and identity set
    included.  The simulator adds each group of events stamped with one
    clock tick (a share plus its obligations, or a batch of edits) here.
    """
    lineage, keys = _tip(log)
    return _appended(log._role, lineage, _unheld(log._role, keys, events), keys)


def _unheld(role: LogRole, keys: set, events: Iterable[Event]) -> list[Event]:
    """``events`` as a list, if each is of ``role`` and its identity is
    neither in ``keys`` nor repeated."""
    edit = role is LogRole.EDIT
    new = []
    added = set()
    for event in events:
        identity = dedup_key(event)
        if isinstance(event, PerformedEdit) is not edit:
            raise MixedRolesError(
                f"{type(event).__name__} does not belong in a {role.value} log"
            )
        if identity in keys or identity in added:
            raise DuplicateEventError(f"duplicate event {event!r}")
        added.add(identity)
        new.append(event)
    return new


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
    return _received(local, received, receiver, clock)[0]


def _received(
    local: Log, received: Log, receiver: Optional[str], clock: int, start: int = 0
) -> tuple[Log, list[Event]]:
    """``receive_log``'s result, and the events it added to ``local``.

    Reads ``received``'s events in arrival order from the ``start``-th
    on: ``local`` must hold the ones before (see ``_Channel``).
    """
    role = local._role
    if role is not received._role:
        raise MixedRolesError(
            f"cannot merge a {received.role.value} log into a {role.value} log"
        )
    lineage, keys = _tip(local)
    new = [e for e in received._lineage.events[start : received._n] if e._id not in keys]
    if not new:
        return local, new
    if receiver is not None and role is LogRole.COMM:  # an edit log holds no obligations
        for i, event in enumerate(new):
            if event.to == receiver and isinstance(event, Obligation):
                new[i] = Obligation(clock, event.verb, event.allow, event.by, event.to, event.origin)
    return _appended(role, lineage, new, keys), new


class _Channel:
    """What one channel, from a sender to a recipient for one document,
    has carried, so that a share or a deliver on it reads only what is new.

    ``sent`` is the communication log of the channel's last share, over
    a lineage the channel owns: the sender's communication log filtered
    up to its first ``read`` events (``_outbound``).  The last message
    delivered on the channel carried the first ``edit_n`` events of its
    edit log's lineage and ``comm_n`` of its communication log's, which
    the recipient holds, since a copy only grows.  These marks need no
    record of the lineages they count: each share reads a later version
    of the sender's log than the last, and each message carries later
    versions of the sender's edit log and the channel's log.  A later
    version holds an earlier one's events first, in the same order,
    whether it extends that lineage or a fork of it (``_fork``).
    ``sent_back`` records that the sender holds a share from the
    recipient, so it may share back without obligations.
    """

    __slots__ = ("sent", "read", "edit_n", "comm_n", "sent_back")

    def __init__(self):
        self.sent: Optional[Log] = None
        self.read = 0
        self.edit_n = 0
        self.comm_n = 0
        self.sent_back = False


def _outbound(comm_log: Log, sender: str, recipient: str, channel: _Channel) -> Log:
    """What a share from ``sender`` to ``recipient`` carries of ``comm_log``.

    The recipient gets the full correspondence history relevant to it,
    but not the sender's grants and shares to other peers.  The result is
    a log over a lineage of the channel's own, made on its first share.
    ``comm_log`` must extend the prefix ``channel`` has filtered: only
    the events added since are filtered, and those kept are appended to
    the channel's log; ``channel`` then records the result.
    """
    n, out = comm_log._n, channel.sent
    kept = [
        e for e in comm_log._lineage.events[channel.read : n] if e.by != sender or e.to == recipient
    ]
    if out is None:
        out = _appended(LogRole.COMM, _Lineage([]), kept)
    elif kept:
        out = _appended(LogRole.COMM, _extendable(out), kept)
    channel.sent, channel.read = out, n
    return out


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
    """``event_to_dict(event)`` as JSON at ``depth``, one template per kind.
    Clocks are exact ints (the constructors check): ``!r`` is their JSON."""
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


# Per event kind: its field names, the order ``_event`` reads them in.
_FIELDS_BY_KIND = {
    "edit": ("kind", "clock", "verb", "by"),
    "share": ("kind", "clock", "verb", "by", "to"),
    "obligation": ("kind", "clock", "verb", "by", "to", "allow", "origin"),
}
_VALUES_BY_KIND = {kind: itemgetter(*names) for kind, names in _FIELDS_BY_KIND.items()}


def _event(data) -> Event:
    """Parse one serialized event; a ValueError names its first problem.

    The JSON shape is checked first.  An event whose values then pass the
    constructors' checks on exact classes is built once, through the slot
    setters; any other goes to the constructors, which give every message.
    A message is put together only once a test has failed.
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
    clock, by = values[1], values[3]
    # The guard tests exact classes: a ``true`` clock is no int here.
    fast = data.__class__ is dict and clock.__class__ is int and clock > 0 and by.__class__ is str and by
    if kind == "edit":
        if not fast or verb is _SHARE:
            return PerformedEdit(clock, verb, by)
        event = _new(PerformedEdit)
        _EDIT_CLOCK(event, clock)
        _EDIT_VERB(event, verb)
        _EDIT_BY(event, by)
        key = (clock, by, 2, _VERB_RANK[verb], 0, "", 0)
        _EDIT_KEY(event, key)
        _EDIT_ID(event, key)
        return event
    to = values[4]
    fast = fast and to.__class__ is str and to and by != to
    if kind == "share":
        if verb is not _SHARE:
            raise ValueError("share events must carry verb 'share'")
        if not fast:
            return PerformedShare(clock, by, to)
        event = _new(PerformedShare)
        _SHARE_CLOCK(event, clock)
        _SHARE_BY(event, by)
        _SHARE_TO(event, to)
        key = (clock, by, 1, _SHARE_RANK, 0, to, 0)
        _SHARE_KEY(event, key)
        _SHARE_ID(event, key)
        return event
    raw, allow = values[6], values[5]
    if fast and allow.__class__ is bool and verb in OBLIGATION_VERBS and raw.__class__ is dict:
        grantor, grantee, share_clock = raw.get("grantor"), raw.get("grantee"), raw.get("share_clock")
        if (len(raw) == 3 and grantor.__class__ is str and grantee.__class__ is str and grantor == by
                and grantee == to and share_clock.__class__ is int and share_clock > 0):
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
            key = (clock, by, 0, _VERB_RANK[verb], 1 if allow else 0, to, share_clock)
            _OBLIGATION_KEY(event, key)
            _OBLIGATION_ID(event, key[1:])
            return event
    try:
        if not isinstance(raw, dict) or len(raw) != 3:
            raise KeyError
        origin = OriginKey(raw["grantor"], raw["grantee"], raw["share_clock"])
    except KeyError:
        raise ValueError(_ORIGIN_SHAPE) from None
    return Obligation(clock, verb, allow, by, to, origin)


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
