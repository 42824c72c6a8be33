"""The Railgun engine (paper §3–§4).

A :class:`RailgunCluster` hosts N equal nodes, each with a front-end
layer (event routing + reply collection) and a back-end layer of
processor units running Algorithm 1. Tasks — (topic, partition) pairs —
are assigned to processor units by the Figure 7 sticky strategy with
replica-aware invariants; task processors own an event reservoir, a
metric state store and a shared task-plan DAG. Checkpoints pair
reservoir + state snapshots with message offsets; recovery copies data
(delta-aware for stale holders) and replays the log tail.
"""

from repro.engine.assignment import (
    Assignment,
    ProcessorInfo,
    StickyAssignmentStrategy,
    round_robin_task_strategy,
)
from repro.engine.catalog import Catalog, MetricDef, StreamDef
from repro.engine.cluster import RailgunCluster, create_cluster
from repro.engine.frontend import Reply
from repro.engine.node import RailgunNode
from repro.engine.processor import ProcessorUnit
from repro.engine.task import TaskProcessor

__all__ = [
    "Assignment",
    "ProcessorInfo",
    "StickyAssignmentStrategy",
    "round_robin_task_strategy",
    "Catalog",
    "MetricDef",
    "StreamDef",
    "TaskProcessor",
    "ProcessorUnit",
    "RailgunNode",
    "RailgunCluster",
    "Reply",
    "create_cluster",
]
