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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Optional

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
