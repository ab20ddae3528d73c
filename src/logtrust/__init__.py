"""logtrust: a-posteriori usage auditing for decentrally shared documents.

Peers log what they do to a shared document and what they obliged each
other to; merging those logs lets any peer detect, after the fact, who
acted against an obligation, and lower its local trust in them.
"""

from types import ModuleType as _ModuleType

from .audit import (
    AuditMode,
    AuditReport,
    Violation,
    derive_creator,
    detect_violations,
    local_trust_assessment,
    parse_audit_mode,
    report_to_dict,
)
from .errors import (
    DocumentNotHeldError,
    DuplicateEventError,
    InternallyConflictingSetError,
    LogTrustError,
    MissingObligationError,
    MixedRolesError,
    NoPendingMessageError,
    ScenarioError,
    SelfShareError,
    UnknownCreatorError,
    UnorderedLogError,
)
from .events import (
    EDIT_VERBS,
    OBLIGATION_VERBS,
    Document,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    dedup_key,
    empty_log,
    event_to_dict,
    log_from_dict,
    log_to_dict,
    merge_logs,
    receive_log,
    replay_comments,
    sort_key,
)
from .obligations import ObligationAtom
from .scengen import generate_scenario
from .simulator import (
    CommandSnapshot,
    Message,
    PeerDocState,
    ScenarioTrace,
    Simulation,
    parse_command,
    parse_scenario,
    run_scenario,
)
from .trust import (
    DEFAULT_TRUST_MODEL,
    MAX_TRUST,
    FixedStepTrust,
    MultiplicativeTrust,
    TrustModel,
    TrustTable,
    apply_violations,
    parse_trust_model,
)

__version__ = "0.1.0"

# Every name imported above, and nothing else: the submodules that the
# imports bind as attributes of the package are not exports.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
