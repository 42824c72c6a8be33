"""Plan DAG node types.

Nodes are passive descriptions; the traversal logic lives in
:class:`repro.plan.dag.TaskPlan` so the node classes stay trivially
testable. Node identity keys implement the prefix-sharing rule: two
metrics share a node when the key (window spec / filter text / group-by
fields) matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.ast import AggSpec
from repro.query.expressions import Expression
from repro.windows.spec import WindowSpec


@dataclass
class AggregatorNode:
    """Leaf: one aggregation with its state-store namespace."""

    metric_id: int
    agg_index: int
    spec: AggSpec
    #: Column name in replies, e.g. ``sum(amount)`` — formatted once
    #: here: replies are retained, a string per reply would be too.
    display_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.display_name = self.spec.metric_name()


@dataclass
class GroupByNode:
    """Partition by field tuple; children are aggregation leaves."""

    fields: tuple[str, ...]
    aggregators: list[AggregatorNode] = field(default_factory=list)

    def key_of(self, event) -> tuple:
        """Group key extracted from one event (missing fields -> None)."""
        return tuple(event.get(name) for name in self.fields)


@dataclass
class FilterNode:
    """Optional predicate; children are group-bys."""

    filter_key: str  # canonical text, "" for no filter
    expression: Expression | None
    group_bys: dict[tuple[str, ...], GroupByNode] = field(default_factory=dict)

    def passes(self, event) -> bool:
        """True when the event satisfies the predicate (or none is set)."""
        if self.expression is None:
            return True
        return self.expression.matches(event)


@dataclass
class WindowNode:
    """Root: one window spec; children are filters."""

    spec: WindowSpec
    filters: dict[str, FilterNode] = field(default_factory=dict)

    def node_count(self) -> int:
        """Total DAG nodes under (and including) this window."""
        total = 1
        for filter_node in self.filters.values():
            total += 1
            for group_by in filter_node.group_bys.values():
                total += 1 + len(group_by.aggregators)
        return total
