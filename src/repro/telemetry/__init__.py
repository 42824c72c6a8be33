"""Unified telemetry plane: registries, stage timings, merged snapshots.

See :mod:`repro.telemetry.registry` for the model and
``docs/OBSERVABILITY.md`` for the metric catalog and the telemetry tail.
"""

from repro.telemetry.registry import (
    METRICS,
    SNAPSHOT_SCHEMA,
    TELEMETRY_ENV,
    MetricsRegistry,
    StageLaps,
    decode_bundle,
    decode_snapshot,
    encode_bundle,
    encode_snapshot,
    merge_snapshots,
    telemetry_enabled,
    to_prometheus,
)

__all__ = [
    "METRICS",
    "SNAPSHOT_SCHEMA",
    "TELEMETRY_ENV",
    "MetricsRegistry",
    "StageLaps",
    "decode_bundle",
    "decode_snapshot",
    "encode_bundle",
    "encode_snapshot",
    "merge_snapshots",
    "telemetry_enabled",
    "to_prometheus",
]
