"""Shared substrate: clock, errors, hashing, serde, compression, stats."""

from repro.common.errors import (
    CheckpointError,
    EngineError,
    MessagingError,
    QueryError,
    ReproError,
    SchemaError,
    SerdeError,
    StorageError,
)
from repro.common.hashing import fnv1a_64, stable_hash
from repro.common.percentiles import PERCENTILE_GRID, LatencyRecorder
from repro.common.timesource import Clock, ManualClock, SystemClock

__all__ = [
    "Clock",
    "ManualClock",
    "SystemClock",
    "ReproError",
    "SchemaError",
    "SerdeError",
    "StorageError",
    "QueryError",
    "MessagingError",
    "EngineError",
    "CheckpointError",
    "fnv1a_64",
    "stable_hash",
    "LatencyRecorder",
    "PERCENTILE_GRID",
]
