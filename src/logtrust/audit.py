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

``local_trust_assessment`` audits a pair of logs from scratch.
``CopyAudit`` keeps the audit of one held copy current as events join
its logs; ``Simulation.audit`` answers with it, and its report equals
the fresh assessment.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from . import kernel
from .errors import MixedRolesError, UnknownCreatorError
from .events import (
    Document,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    _VERB_RANK,
    _setters,
)
from .trust import (
    DEFAULT_TRUST_MODEL,
    TrustModel,
    TrustTable,
    apply_violations,
    initial_trust,
)

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


@dataclass(frozen=True, slots=True)
class Violation:
    """One performed action that its governing obligation forbade.

    ``forbid`` is that obligation as the audited communication log holds
    it, so its clock lives in the offender's local timeline.
    """

    offender: str
    verb: Verb
    action_clock: int
    forbid: Obligation

    def __post_init__(self):
        if self.forbid.allow:
            raise ValueError("a violation's governing obligation must be a forbid")
        if self.action_clock <= self.forbid.clock:
            raise ValueError("the action must come after the forbid that condemns it")

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


def _found(offender: str, verb: Verb, action_clock: int, forbid: Obligation) -> Violation:
    """A Violation the scan found, built without ``__post_init__``.

    The scan only returns obligations that precede the action, and only
    forbids are kept, so the checks could not fail.
    """
    violation = object.__new__(Violation)
    _SET_OFFENDER(violation, offender)
    _SET_VERB(violation, verb)
    _SET_ACTION_CLOCK(violation, action_clock)
    _SET_FORBID(violation, forbid)
    return violation


_BY = attrgetter("by")
_TO = attrgetter("to")
_OFFENDER_AND_CLOCK = attrgetter("offender", "action_clock")


@dataclass(frozen=True)
class AuditReport:
    """Everything a local audit produces: violations plus updated trust."""

    assessor: str
    doc_id: str
    mode: AuditMode
    violations: tuple[Violation, ...]
    trust: TrustTable = field(default_factory=dict)


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


def _peers_in_logs(edit_log: Log, comm_log: Log) -> set[str]:
    return {
        *map(_BY, edit_log.entries),
        *map(_BY, comm_log.entries),
        *map(_TO, comm_log.entries),
    }


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

    Results are ordered by offender, then action clock, then verb.
    """
    if edit_log.role is not LogRole.EDIT:
        raise MixedRolesError("first argument must be an edit log")
    if comm_log.role is not LogRole.COMM:
        raise MixedRolesError("second argument must be a communication log")
    creator = doc.creator if doc is not None else derive_creator(edit_log)

    actions = [(e.by, e.verb, e.clock) for e in edit_log.entries if e.by != creator]
    actions += [
        (e.by, Verb.SHARE, e.clock)
        for e in comm_log.entries
        if isinstance(e, PerformedShare) and e.by != creator
    ]
    governing = kernel.scan_governing(
        comm_log, actions, literal=(mode is AuditMode.LITERAL)
    )

    violations = [
        _found(by, verb, clock, source)
        for (by, verb, clock), source in zip(actions, governing)
        if source is not None and not source.allow
    ]
    # Each actor's actions are listed in (clock, verb rank) order, edits
    # before shares, so this stable sort also orders each clock's verbs.
    violations.sort(key=_OFFENDER_AND_CLOCK)
    return tuple(violations)


def violation_to_dict(violation: Violation) -> dict:
    origin = violation.origin
    return {
        "offender": violation.offender,
        "verb": violation.verb.value,
        "action_clock": violation.action_clock,
        "forbid_clock": violation.forbid_clock,
        "grantor": violation.grantor,
        "origin": {
            "grantor": origin.grantor,
            "grantee": origin.grantee,
            "share_clock": origin.share_clock,
        },
    }


def report_to_dict(report: "AuditReport") -> dict:
    return {
        "assessor": report.assessor,
        "doc_id": report.doc_id,
        "mode": report.mode.value,
        "violations": [violation_to_dict(v) for v in report.violations],
        "trust": {peer: report.trust[peer] for peer in sorted(report.trust)},
    }


def local_trust_assessment(
    edit_log: Log,
    comm_log: Log,
    doc: Optional[Document] = None,
    assessor: str = "",
    model: TrustModel = DEFAULT_TRUST_MODEL,
    *,
    mode: AuditMode = AuditMode.PROSE,
    prior_trust: Optional[Mapping[str, float]] = None,
) -> AuditReport:
    """Audit the logs and fold the findings into local trust values.

    Without ``prior_trust`` the assessment starts from full trust in every
    peer named in the logs; passing a previous assessment's trust table
    carries values forward instead; each value must be a finite number in
    ``[0, model.max_value]``.  Each violation instance applies one
    decrement under ``model``.
    """
    for peer, value in (prior_trust or {}).items():
        if not (
            isinstance(value, (int, float))
            and math.isfinite(value)
            and 0.0 <= value <= model.max_value
        ):
            raise ValueError(
                f"prior trust in {peer!r} must lie in [0, {model.max_value:g}], got {value!r}"
            )
    violations = detect_violations(edit_log, comm_log, doc, mode=mode)
    peers = _peers_in_logs(edit_log, comm_log)
    if assessor:
        peers.add(assessor)
    trust = initial_trust(sorted(peers), model)
    if prior_trust is not None:
        trust.update(prior_trust)
    trust = apply_violations(trust, violations, model)
    return AuditReport(
        assessor=assessor,
        doc_id=doc.doc_id if doc is not None else "",
        mode=mode,
        violations=violations,
        trust=trust,
    )


class CopyAudit:
    """The audit of one held copy, kept current as events join its logs.

    Events added to the copy's logs are queued on ``pending`` and folded
    in by the next ``report``, whose cost follows them: a new action is
    one index query, and an obligation that changes its group's index
    re-decides only that group's actions after the lowest clock it
    changed.  The report equals ``local_trust_assessment`` over the full
    logs with the copy's creator, ``assessor`` and ``mode``.  Each event
    must be queued once, as its log holds it.  The engine draws a fresh
    clock for every command, so a held copy has at most one action per
    actor, verb and clock, and that triple keys the violations.
    """

    __slots__ = (
        "assessor", "creator", "mode", "pending",
        "_index", "_actions", "_found", "_order", "_counts", "_peers",
        "_violations", "_ladder",
    )

    def __init__(self, assessor: str, creator: str, mode: AuditMode, events: Iterable):
        self.assessor = assessor
        self.creator = creator
        self.mode = mode
        self.pending = list(events)
        self._index = kernel.GoverningIndex(mode is AuditMode.LITERAL)
        # (actor, verb) -> ascending clocks of the audited actions
        self._actions: dict[tuple[str, Verb], list[int]] = {}
        # (offender, action clock, verb rank) -> Violation, and its keys in
        # report order
        self._found: dict[tuple[str, int, int], Violation] = {}
        self._order: list[tuple[str, int, int]] = []
        self._counts: dict[str, int] = {}
        self._peers = {assessor}
        self._violations: Optional[tuple[Violation, ...]] = ()
        # A trust model and its value after 0, 1, 2, ... violations
        self._ladder: tuple[Optional[TrustModel], list[float]] = (None, [])

    def _decide(self, by: str, verb: Verb, clock: int, forbid: Optional[Obligation]) -> None:
        """Record that ``forbid`` now decides the action, if it is a forbid."""
        if forbid is not None and forbid.allow:
            forbid = None
        key = (by, clock, _VERB_RANK[verb])
        held = self._found.get(key)
        if held is None:
            if forbid is None:
                return
            insort(self._order, key)
            self._counts[by] = self._counts.get(by, 0) + 1
        elif forbid is None:
            del self._found[key]
            del self._order[bisect_left(self._order, key)]
            self._counts[by] -= 1
            self._violations = None
            return
        elif held.forbid is forbid:
            return
        self._found[key] = _found(by, verb, clock, forbid)
        self._violations = None

    def _fold(self) -> None:
        events, self.pending = self.pending, []
        actions, query, decide = self._actions, self._index.query, self._decide
        for (by, verb), low in self._index.add(events).items():
            clocks = actions.get((by, verb), ())
            for clock in clocks[bisect_right(clocks, low):]:
                decide(by, verb, clock, query(by, verb, clock))
        peers, creator, share = self._peers, self.creator, Verb.SHARE
        for event in events:
            by = event.by
            peers.add(by)
            if isinstance(event, PerformedEdit):
                verb = event.verb
            else:
                peers.add(event.to)
                if isinstance(event, Obligation):
                    continue
                verb = share
            if by != creator:
                clock = event.clock
                clocks = actions.get((by, verb))
                if clocks is None:
                    clocks = actions[by, verb] = []
                insort(clocks, clock)
                # A new action has no verdict yet, so only a forbid changes one.
                forbid = query(by, verb, clock)
                if forbid is not None and not forbid.allow:
                    decide(by, verb, clock, forbid)

    def report(self, doc_id: str, model: TrustModel = DEFAULT_TRUST_MODEL) -> AuditReport:
        """The copy's audit report, with trust under ``model``."""
        if self.pending:
            self._fold()
        if self._violations is None:
            self._violations = tuple(map(self._found.__getitem__, self._order))
        held_model, ladder = self._ladder
        if held_model is not model:
            ladder = [model.max_value]
            self._ladder = (model, ladder)
        trust = {}
        for peer in sorted(self._peers):
            count = self._counts.get(peer, 0)
            # apply_violations' fold: one decrement per violation, from the maximum
            while len(ladder) <= count:
                ladder.append(model.on_violation(ladder[-1]))
            trust[peer] = ladder[count]
        return AuditReport(self.assessor, doc_id, self.mode, self._violations, trust)
