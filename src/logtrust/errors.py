"""Exception types raised by the logtrust library."""


class LogTrustError(Exception):
    """Base class for all logtrust errors."""


class DuplicateEventError(LogTrustError):
    """An event with the same identity is already present in the log."""


class OrderViolationError(LogTrustError):
    """A peer appended an own event with a clock not after its latest one."""


class MixedRolesError(LogTrustError):
    """An edit event met a communication log or vice versa."""


class UnorderedLogError(LogTrustError):
    """A log's entries are not in the canonical total order."""


class UnknownCreatorError(LogTrustError):
    """The edit log has no create event, or it contradicts the document."""


class InternallyConflictingSetError(LogTrustError):
    """An obligation set contains both polarities of the same verb."""


class MissingObligationError(LogTrustError):
    """A share carried no obligations and is not a send-back."""


class DocumentNotHeldError(LogTrustError):
    """The peer does not hold the referenced document."""


class SelfShareError(LogTrustError):
    """A peer attempted to share a document with itself."""


class NoPendingMessageError(LogTrustError):
    """No queued message exists for the requested delivery."""


class ScenarioError(LogTrustError):
    """A scenario file failed validation or a command failed during execution.

    ``index`` is the zero-based position of the offending command, or None
    for file-level problems.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        if index is not None:
            message = f"command {index}: {message}"
        super().__init__(message)
