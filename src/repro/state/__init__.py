"""Metric state store (paper §4.1.3).

Persists aggregation states per (metric, aggregation, entity) key in the
embedded LSM store, mirroring how Railgun keeps "the latest aggregations
results and auxiliary data" in RocksDB. ``countDistinct`` counters live
in a dedicated column family. The working set's decoded aggregators
stay resident between events and are written back as one sorted run at
checkpoints, which then take the LSM's cheap snapshot path.
"""

from repro.state.store import LsmAuxStore, MetricStateStore

__all__ = ["MetricStateStore", "LsmAuxStore"]
