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
the logs.  ``detect_violations`` and ``local_trust_assessment`` build
one over a pair of full logs; ``Simulation.audit`` keeps one per held
copy and folds in only the events added since that copy's last audit.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain
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
    Verb,
    _VERB_RANK,
    _arrived,
    _setters,
)
from .trust import (
    DEFAULT_TRUST_MODEL,
    TrustModel,
    TrustTable,
    apply_violations,
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


@dataclass(frozen=True, slots=True, init=False)
class Violation:
    """One performed action that its governing obligation forbade.

    ``forbid`` is that obligation as the audited communication log holds
    it, so its clock lives in the offender's local timeline.  A violation
    holds only what an audit can find: a forbid addressed to the offender,
    for the action's verb, before the action.
    """

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
        _SET_OFFENDER(self, offender)
        _SET_VERB(self, verb)
        _SET_ACTION_CLOCK(self, action_clock)
        _SET_FORBID(self, forbid)

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
    return CopyAudit.of_logs(edit_log, comm_log, doc, "", mode).report("").violations


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
    peer named in the logs, and in ``assessor`` unless it is empty;
    passing a previous assessment's trust table carries values forward
    instead; each value must be a finite number, not a bool, in
    ``[0, model.max_value]``.  Each violation instance applies one
    decrement under ``model``.
    """
    for peer, value in (prior_trust or {}).items():
        if not (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and 0.0 <= value <= model.max_value
        ):
            raise ValueError(
                f"prior trust in {peer!r} must lie in [0, {model.max_value:g}], got {value!r}"
            )
    report = CopyAudit.of_logs(edit_log, comm_log, doc, assessor, mode).report(
        doc.doc_id if doc is not None else "", model
    )
    if prior_trust is not None:
        offenders = [v for v in report.violations if v.offender in prior_trust]
        report.trust.update(apply_violations(prior_trust, offenders, model))
    return report


class CopyAudit:
    """The audit of one held copy, kept current as events join its logs.

    Events added to the copy's logs are queued on ``pending`` and folded
    in by the next ``report``, whose cost follows them: a new action is
    one index query, and an obligation that changes its group's index
    re-decides only that group's actions after the lowest clock it
    changed.  The report does not depend on how the events were split
    into folds or ordered within one, so a copy built over a pair of full
    logs is their from-scratch audit.  Each event must be queued once, as
    its log holds it.  An action is identified by its actor, clock, verb
    and, for a share, recipient: two shares by one peer at one clock are
    two actions.
    """

    __slots__ = (
        "assessor", "creator", "mode", "pending",
        "_index", "_actions", "_found", "_order", "_peers",
        "_violations", "_ladder",
    )

    def __init__(
        self, assessor: str, creator: Optional[str], mode: AuditMode, events: Iterable
    ):
        self.assessor = assessor
        self.creator = creator
        self.mode = mode
        self.pending = list(events)
        self._index = kernel.GoverningIndex(mode is AuditMode.LITERAL)
        # (actor, verb) -> recipient -> ascending clocks of the audited
        # actions; an edit's recipient is ""
        self._actions: dict[tuple[str, Verb], dict[str, list[int]]] = {}
        # (offender, action clock, verb rank, recipient) -> Violation, and
        # per offender its keys in ascending order
        self._found: dict[tuple[str, int, int, str], Violation] = {}
        self._order: dict[str, list[tuple[str, int, int, str]]] = {}
        self._peers = {assessor} if assessor else set()
        self._violations: Optional[tuple[Violation, ...]] = ()
        # A trust model and its value after 0, 1, 2, ... violations
        self._ladder: tuple[Optional[TrustModel], list[float]] = (None, [])

    @classmethod
    def of_logs(
        cls, edit_log: Log, comm_log: Log, doc: Optional[Document], assessor: str, mode: AuditMode
    ) -> "CopyAudit":
        """The audit of a pair of logs, by ``assessor`` under ``mode``.

        The creator is ``doc``'s when given and derived from the edit log
        otherwise.
        """
        if edit_log.role is not LogRole.EDIT:
            raise MixedRolesError("first argument must be an edit log")
        if comm_log.role is not LogRole.COMM:
            raise MixedRolesError("second argument must be a communication log")
        creator = doc.creator if doc is not None else derive_creator(edit_log)
        return cls(assessor, creator, mode, chain(_arrived(edit_log), _arrived(comm_log)))

    def _decide(
        self, by: str, verb: Verb, clock: int, to: str, forbid: Optional[Obligation]
    ) -> None:
        """Record that ``forbid`` now decides the action, if it is a forbid."""
        if forbid is not None and forbid.allow:
            forbid = None
        key = (by, clock, _VERB_RANK[verb], to)
        held = self._found.get(key)
        if held is None:
            if forbid is None:
                return
            insort(self._order.setdefault(by, []), key)
        elif forbid is None:
            del self._found[key]
            keys = self._order[by]
            del keys[bisect_left(keys, key)]
            self._violations = None
            return
        elif held.forbid is forbid:
            return
        self._found[key] = Violation(by, verb, clock, forbid)
        self._violations = None

    def _fold(self) -> None:
        events, self.pending = self.pending, []
        actions, query, decide = self._actions, self._index.query, self._decide
        for (by, verb), low in self._index.add(events).items():
            for to, clocks in actions.get((by, verb), {}).items():
                for clock in clocks[bisect_right(clocks, low):]:
                    decide(by, verb, clock, to, query(by, verb, clock))
        peers, creator, share = self._peers, self.creator, Verb.SHARE
        for event in events:
            by = event.by
            peers.add(by)
            if isinstance(event, PerformedEdit):
                verb, to = event.verb, ""
            else:
                to = event.to
                peers.add(to)
                if isinstance(event, Obligation):
                    continue
                verb = share
            if by != creator:
                clock = event.clock
                recipients = actions.get((by, verb))
                if recipients is None:
                    recipients = actions[by, verb] = {}
                clocks = recipients.get(to)
                if clocks is None:
                    clocks = recipients[to] = []
                insort(clocks, clock)
                # A new action has no verdict yet, so only a forbid changes one.
                forbid = query(by, verb, clock)
                if forbid is not None and not forbid.allow:
                    decide(by, verb, clock, to, forbid)

    def report(self, doc_id: str, model: TrustModel = DEFAULT_TRUST_MODEL) -> AuditReport:
        """The copy's audit report, with trust under ``model``."""
        if self.pending:
            self._fold()
        order = self._order
        if self._violations is None:
            violations: list[Violation] = []
            for by in sorted(order):
                violations += map(self._found.__getitem__, order[by])
            self._violations = tuple(violations)
        held_model, ladder = self._ladder
        if held_model is not model:
            ladder = [model.max_value]
            self._ladder = (model, ladder)
        trust = {}
        for peer in sorted(self._peers):
            count = len(order.get(peer, ()))
            # apply_violations' fold: one decrement per violation, from the maximum
            while len(ladder) <= count:
                ladder.append(model.on_violation(ladder[-1]))
            trust[peer] = ladder[count]
        return AuditReport(self.assessor, doc_id, self.mode, self._violations, trust)
