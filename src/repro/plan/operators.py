"""Plan DAG node types.

Nodes are passive descriptions; the traversal logic lives in
:class:`repro.plan.dag.TaskPlan` so the node classes stay trivially
testable. Node identity keys implement the prefix-sharing rule: two
metrics share a node when the key (window spec / filter text / group-by
fields) matches.

A :class:`GroupByNode` also carries what the plan's compiled program
needs of it — its leaves as plain tuples, a key extractor resolved once
from its fields, and the index of :class:`~repro.state.store.Cell` s the
hot path looks up — refreshed by :meth:`GroupByNode.compile`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.events.event import Event
from repro.query.ast import AggSpec
from repro.query.expressions import Expression
from repro.state.store import Cell, encode_group_key
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


def _key_extractor(fields: tuple[str, ...]) -> Callable[[Event], Any]:
    """``event -> cell-index key`` for one group-by field tuple.

    Index keys are equal exactly when their encoded group keys are:
    strings and nulls (what entities are keyed by) index as themselves —
    one field bare, several as a tuple — and anything else (``1``,
    ``1.0`` and ``True`` are equal as dict keys but three different
    entities) as its encoded bytes.
    """
    if len(fields) == 1:
        (name,) = fields

        def key_of(event: Event) -> Any:
            value = event.get(name)
            if value is None or type(value) is str:
                return value
            return encode_group_key((value,))

    else:

        def key_of(event: Event) -> Any:
            key = tuple([event.get(name) for name in fields])
            for value in key:
                if value is not None and type(value) is not str:
                    return encode_group_key(key)
            return key

    return key_of


@dataclass
class GroupByNode:
    """Partition by field tuple; children are aggregation leaves."""

    fields: tuple[str, ...]
    aggregators: list[AggregatorNode] = field(default_factory=list)
    #: event -> cell-index key (see :func:`_key_extractor`)
    key_of: Callable[[Event], Any] = field(init=False, repr=False)
    #: Compiled from ``aggregators``: per leaf ``(metric_id, agg_index,
    #: aggregation name, value field or None for ``*``)`` ...
    leaves: tuple[tuple[int, int, str, str | None], ...] = field(init=False, repr=False)
    #: ... its ``(metric_id, agg_index)`` alone, shared by the cells ...
    leaf_ids: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    #: ... and its value field alone, zipped with a cell's aggregators.
    value_fields: tuple[str | None, ...] = field(init=False, repr=False)
    #: index key -> the cell of that key, dropped by the plan whenever
    #: the state store's epoch moves
    cells: dict[Any, Cell] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.key_of = _key_extractor(self.fields)
        self.compile()

    def compile(self) -> None:
        """Re-derive the leaf tables from ``aggregators``; drops the cells."""
        self.leaves = tuple(
            (node.metric_id, node.agg_index, node.spec.name, node.spec.field)
            for node in self.aggregators
        )
        self.leaf_ids = tuple(leaf[:2] for leaf in self.leaves)
        self.value_fields = tuple(leaf[3] for leaf in self.leaves)
        self.cells = {}

    def encoded_key(self, key: Any) -> bytes:
        """The state-store group key of an index key."""
        if type(key) is bytes:
            return key
        return encode_group_key((key,) if len(self.fields) == 1 else key)


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
