"""A-posteriori compliance checking over merged logs.

Actions are never blocked up front; instead any peer can replay the logs
it holds and ask, for every performed action, what the obligations in
its communication log said about that action at the time.  A forbidden
action is a violation, and each violation lowers the assessor's local
trust in the offender.

Two audit modes are provided.  ``PROSE`` applies the
latest-obligation-governs rule: the most recent obligation for the
peer/verb before the action decides, with denies winning ties.
``LITERAL`` condemns an action if any earlier forbid for the peer/verb
exists, regardless of later permits.  The modes agree unless a permit
was granted after a forbid for the same peer and verb.

``CopyAudit`` is the one audit: it decides each action with the
kernel's ``GoverningIndex`` and keeps its report current as events join
the logs.  ``local_trust_assessment`` is the one builder of an audit
over a pair of full logs (``detect_violations`` returns its
violations); ``Simulation.audit`` keeps one per held copy and folds in
only the events added since that copy's last audit.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional

from . import kernel
from .errors import MixedRolesError, UnknownCreatorError
from .events import (
    Document,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    Verb,
    _PADS,
    _Record,
    _VERB_RANK,
    _arrived,
    _new,
    _setters,
)
from .trust import DEFAULT_TRUST_MODEL, TrustModel, TrustTable

class AuditMode(enum.Enum):
    PROSE = "prose"
    LITERAL = "literal"


def parse_audit_mode(text: str) -> AuditMode:
    try:
        return AuditMode(text.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown audit mode {text!r}; expected 'prose' or 'literal'"
        ) from None


class Violation(_Record):
    """One performed action that its governing obligation forbade.

    ``forbid`` is that obligation as the audited communication log holds
    it, so its clock lives in the offender's local timeline.  A violation
    holds only what an audit can find: a forbid addressed to the offender,
    for the action's verb, before the action.
    """

    __slots__ = ("offender", "verb", "action_clock", "forbid")
    offender: str
    verb: Verb
    action_clock: int
    forbid: Obligation

    def __init__(self, offender: str, verb: Verb, action_clock: int, forbid: Obligation):
        if not isinstance(forbid, Obligation) or forbid.allow:
            raise ValueError("a violation's governing obligation must be a forbid")
        if offender != forbid.to or verb is not forbid.verb:
            raise ValueError("the forbid must govern the offender's verb")
        if type(action_clock) is not int or action_clock <= forbid.clock:
            raise ValueError("the action must come after the forbid that condemns it")
        _violation(self, offender, verb, action_clock, forbid)

    @property
    def forbid_clock(self) -> int:
        return self.forbid.clock

    @property
    def grantor(self) -> str:
        return self.forbid.by

    @property
    def origin(self) -> OriginKey:
        return self.forbid.origin


_SET_OFFENDER, _SET_VERB, _SET_ACTION_CLOCK, _SET_FORBID = _setters(Violation)


def _violation(
    record: Violation, offender: str, verb: Verb, action_clock: int, forbid: Obligation
) -> Violation:
    _SET_OFFENDER(record, offender)
    _SET_VERB(record, verb)
    _SET_ACTION_CLOCK(record, action_clock)
    _SET_FORBID(record, forbid)
    return record


class AuditReport(_Record):
    """Everything a local audit produces: violations plus updated trust.

    ``trust`` is a new empty table when not given.
    """

    __slots__ = ("assessor", "doc_id", "mode", "violations", "trust")
    assessor: str
    doc_id: str
    mode: AuditMode
    violations: tuple[Violation, ...]
    trust: TrustTable

    def __init__(
        self, assessor: str, doc_id: str, mode: AuditMode, violations: tuple[Violation, ...],
        trust: Optional[TrustTable] = None,
    ):
        _SET_ASSESSOR(self, assessor)
        _SET_DOC_ID(self, doc_id)
        _SET_MODE(self, mode)
        _SET_VIOLATIONS(self, violations)
        _SET_TRUST(self, {} if trust is None else trust)


_SET_ASSESSOR, _SET_DOC_ID, _SET_MODE, _SET_VIOLATIONS, _SET_TRUST = _setters(AuditReport)


def derive_creator(edit_log: Log) -> Optional[str]:
    """Creator according to an edit log: the actor of its create event.

    An empty log has no creator to derive (returns None); a non-empty log
    without a create event is malformed for auditing purposes.
    """
    if not edit_log.entries:
        return None
    for event in edit_log.entries:
        if isinstance(event, PerformedEdit) and event.verb is Verb.CREATE:
            return event.by
    raise UnknownCreatorError("edit log has entries but no create event")


def detect_violations(
    edit_log: Log,
    comm_log: Log,
    doc: Optional[Document] = None,
    *,
    mode: AuditMode = AuditMode.PROSE,
) -> tuple[Violation, ...]:
    """Find every obligation-violating action recorded in the logs.

    Audits performed edits and performed shares by everyone except the
    document creator, who answers to nobody for their own document.  The
    creator is taken from ``doc`` when given and derived from the edit
    log's create event otherwise.  Obligation clocks and action clocks
    are comparable because incoming obligations were re-stamped with the
    receiving peer's clock, so both sides of each comparison live in the
    offender's local timeline.

    Results are ordered by offender, then action clock, then verb, then
    a share's recipient.
    """
    return local_trust_assessment(edit_log, comm_log, doc, mode=mode).violations


def report_to_dict(report: "AuditReport") -> dict:
    return {
        "assessor": report.assessor,
        "doc_id": report.doc_id,
        "mode": report.mode.value,
        "violations": [
            {
                "offender": v.offender,
                "verb": v.verb.value,
                "action_clock": v.action_clock,
                "forbid_clock": v.forbid_clock,
                "grantor": v.grantor,
                "origin": {
                    "grantor": v.origin.grantor,
                    "grantee": v.origin.grantee,
                    "share_clock": v.origin.share_clock,
                },
            }
            for v in report.violations
        ],
        "trust": {peer: report.trust[peer] for peer in sorted(report.trust)},
    }


# Violations per piece of a written report (about 30 kB): from 64 to 256 write
# as fast, one per piece 30% slower, the whole report at once 10% slower.
_REPORT_RUN = 128


def _report_pieces(report: AuditReport, depth: int = 0) -> Iterator[str]:
    """``json.dumps(report_to_dict(report), indent=2)`` at ``depth``, in pieces:
    the head, the violations ``_REPORT_RUN`` at a time, then the trust tail.
    All of a violation's text but its action clock is rendered once per forbid,
    which fixes the offender and verb.  Clocks are exact ints (their
    constructors check), so ``!r`` is ``int.__repr__``."""
    enc, (p0, p1, p2, p3, p4) = encode_basestring_ascii, _PADS[depth : depth + 5]
    yield (
        f'{{{p1}"assessor": {enc(report.assessor)},{p1}"doc_id": {enc(report.doc_id)},'
        f'{p1}"mode": {enc(report.mode.value)},{p1}"violations": '
    )
    violations, around = report.violations, {}
    for start in range(0, len(violations), _REPORT_RUN):
        run = []
        for v in violations[start : start + _REPORT_RUN]:
            forbid = v.forbid
            parts = around.get(id(forbid))
            if parts is None:
                o = forbid.origin
                parts = around[id(forbid)] = (
                    f'{p2}{{{p3}"offender": {enc(forbid.to)},{p3}"verb": {enc(forbid.verb.value)},'
                    f'{p3}"action_clock": ',
                    f',{p3}"forbid_clock": {forbid.clock!r},{p3}"grantor": {enc(forbid.by)},'
                    f'{p3}"origin": {{{p4}"grantor": {enc(o.grantor)},{p4}"grantee": '
                    f'{enc(o.grantee)},{p4}"share_clock": {o.share_clock!r}{p3}}}{p2}}}',
                )
            run.append(f"{parts[0]}{v.action_clock!r}{parts[1]}")
        yield ("," if start else "[") + ",".join(run)
    pairs = [f"{p2}{enc(peer)}: {json.dumps(report.trust[peer])}" for peer in sorted(report.trust)]
    trust = f"{{{','.join(pairs)}{p1}}}" if pairs else "{}"
    yield f'{p1 + "]" if violations else "[]"},{p1}"trust": {trust}{p0}}}'


def local_trust_assessment(
    edit_log: Log,
    comm_log: Log,
    doc: Optional[Document] = None,
    assessor: str = "",
    model: TrustModel = DEFAULT_TRUST_MODEL,
    *,
    mode: AuditMode = AuditMode.PROSE,
) -> AuditReport:
    """Audit the logs and fold the findings into local trust values.

    The one audit over a pair of full logs.  The creator is ``doc``'s when
    given and derived from the edit log otherwise.  Every peer named in
    the logs, and ``assessor`` unless it is empty, starts at the model's
    maximum, and each violation instance applies one decrement under
    ``model``.
    """
    if edit_log.role is not LogRole.EDIT:
        raise MixedRolesError("first argument must be an edit log")
    if comm_log.role is not LogRole.COMM:
        raise MixedRolesError("second argument must be a communication log")
    creator = doc.creator if doc is not None else derive_creator(edit_log)
    audit = CopyAudit(assessor, creator, mode)
    audit.read(edit_log, comm_log)
    return audit.report(doc.doc_id if doc is not None else "", model)


class CopyAudit:
    """The audit of one held copy, kept current as events join its logs.

    ``read`` folds in the events of the copy's logs past the number it
    has folded of each, so the copy must only grow: each log it reads must
    hold the events of the one read before first, in the same order, as a
    log derived from it does (``events._fork``).  A fold reads the index
    answers of each (actor, verb, recipient) group of new actions once and
    bisects once per action; an obligation that changes its group's index
    re-decides only that group's actions after the lowest clock it changed.
    An offender's violations are kept in key order: those of one without
    any land as one sorted run, as in a first fold, the others by
    bisection.  The report does not depend on how the events were split
    into folds or ordered within one, so a copy built over a pair of full
    logs is their from-scratch audit.  An action is identified by its
    actor, clock, verb and, for a share, recipient: two shares by one peer
    at one clock are two actions.
    """

    __slots__ = (
        "assessor", "creator", "mode", "_edits", "_comms",
        "_index", "_actions", "_verdicts", "_peers", "_violations", "_ladder",
    )

    def __init__(self, assessor: str, creator: Optional[str], mode: AuditMode):
        self.assessor = assessor
        self.creator = creator
        self.mode = mode
        self._edits = self._comms = 0  # the events folded of each log
        self._index = kernel.GoverningIndex(mode is AuditMode.LITERAL)
        # (actor, verb) -> recipient -> ascending clocks of the audited
        # actions; an edit's recipient is ""
        self._actions: defaultdict[tuple[str, Verb], dict[str, list[int]]] = defaultdict(dict)
        # offender -> its violations' keys (action clock, verb rank,
        # recipient) in ascending order, and its violations in that order
        self._verdicts: defaultdict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
        self._peers = {assessor} if assessor else set()
        self._violations: Optional[tuple[Violation, ...]] = ()
        # A trust model and its value after 0, 1, 2, ... violations
        self._ladder: tuple[Optional[TrustModel], list[float]] = (None, [])

    def read(self, edit_log: Log, comm_log: Log) -> None:
        """Fold in the events the copy's logs hold past those folded."""
        edits, comms = len(edit_log), len(comm_log)
        if edits != self._edits or comms != self._comms:
            self._fold(chain(_arrived(edit_log, self._edits), _arrived(comm_log, self._comms)))
            self._edits, self._comms = edits, comms

    def _decide(
        self, by: str, verb: Verb, clock: int, to: str, forbid: Optional[Obligation]
    ) -> None:
        """Record that ``forbid``, the index's answer for the action, decides it if a forbid."""
        if forbid is not None and forbid.allow:
            forbid = None
        keys, found = self._verdicts[by]
        key = (clock, _VERB_RANK[verb], to)
        i = bisect_left(keys, key)
        held = found[i].forbid if i < len(keys) and keys[i] == key else None
        if held is forbid:
            return
        if held is None:
            keys.insert(i, key)
            found.insert(i, _violation(_new(Violation), by, verb, clock, forbid))
        elif forbid is None:
            del keys[i], found[i]
        else:
            found[i] = _violation(_new(Violation), by, verb, clock, forbid)
        self._violations = None

    def _fold(self, events: Iterable) -> None:
        peers, creator, share = self._peers, self.creator, Verb.SHARE
        obligations, new = [], {}  # new: (actor, verb, recipient) -> new action clocks
        for event in events:
            if isinstance(event, PerformedEdit):
                group = (event.by, event.verb, "")
            elif isinstance(event, Obligation):
                obligations.append(event)
                peers.add(event.by)
                peers.add(event.to)
                continue
            else:
                group = (event.by, share, event.to)
            new.setdefault(group, []).append(event.clock)
        index, actions, decide = self._index, self._actions, self._decide
        for (by, verb), low in index.add(obligations).items():
            for to, clocks in actions.get((by, verb), {}).items():
                for clock in clocks[bisect_right(clocks, low):]:
                    decide(by, verb, clock, to, index.query(by, verb, clock))
        verdicts, runs = self._verdicts, {}  # runs: offender -> (key, violation) pairs
        for (by, verb, to), clocks in new.items():
            peers.add(by)
            if to:
                peers.add(to)
            if by == creator:
                continue
            record = actions[by, verb].setdefault(to, [])
            clocks.sort()
            if record and clocks[0] < record[-1]:
                for clock in clocks:
                    insort(record, clock)
            else:
                record += clocks
            at, found = index.answers(by, verb)
            keys = by in verdicts and verdicts[by][0]
            rank, run = _VERB_RANK[verb], runs.setdefault(by, [])
            for clock in clocks:
                forbid = found[bisect_left(at, clock)]
                # A new action has no verdict yet, so only a forbid changes one.
                if forbid is None or forbid.allow:
                    continue
                if keys:
                    decide(by, verb, clock, to, forbid)
                else:  # a forbid the index answered, as ``_decide`` takes it
                    violation = _violation(_new(Violation), by, verb, clock, forbid)
                    run.append(((clock, rank, to), violation))
        for by, run in runs.items():
            if run:
                run.sort()
                keys, held = verdicts[by]
                keys += [key for key, _ in run]
                held += [violation for _, violation in run]
                self._violations = None

    def report(self, doc_id: str, model: TrustModel = DEFAULT_TRUST_MODEL) -> AuditReport:
        """The copy's audit report, with trust under ``model``."""
        verdicts = self._verdicts
        if self._violations is None:
            violations: list[Violation] = []
            for by in sorted(verdicts):
                violations += verdicts[by][1]
            self._violations = tuple(violations)
        held_model, ladder = self._ladder
        if held_model is not model:
            ladder = [model.max_value]
            self._ladder = (model, ladder)
        trust = {}
        for peer in sorted(self._peers):
            count = len(verdicts[peer][1]) if peer in verdicts else 0
            # one decrement per violation, from the maximum
            while len(ladder) <= count:
                ladder.append(model.on_violation(ladder[-1]))
            trust[peer] = ladder[count]
        return AuditReport(self.assessor, doc_id, self.mode, self._violations, trust)
