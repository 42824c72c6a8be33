"""Exception hierarchy for the Railgun reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors (``TypeError``
and friends propagate untouched).
"""


class ReproError(Exception):
    """Base class for all library errors."""


class SchemaError(ReproError):
    """Schema registration, lookup or compatibility failure."""


class SerdeError(ReproError):
    """Serialization or deserialization failure (corrupt/truncated data)."""


class StorageError(ReproError):
    """Storage backend failure (missing file, bad checksum, sealed file)."""


class QueryError(ReproError):
    """Query parse or validation failure."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExpressionError(QueryError):
    """Filter-expression parse or evaluation failure."""


class MessagingError(ReproError):
    """Messaging layer failure (unknown topic, fenced consumer, ...)."""


class EngineError(ReproError):
    """Engine-level failure (bad stream, missing task, recovery error)."""


class CheckpointError(EngineError):
    """Checkpoint creation or restore failure."""
