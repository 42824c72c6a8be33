"""The task-plan runtime.

``TaskPlan`` owns the reservoir iterators and the operator DAG for one
task processor. Per processed event it advances each *distinct* iterator
exactly once ("every time a plan advances time, the Window operator
produces the events that arrive and expire, to the downstream operators
of the DAG", §4.1.2), fans the entering/expiring batches through shared
filters and group-bys, folds them into the per-entity aggregator states,
and assembles the reply for the event's own entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.events.event import Event
from repro.plan.operators import AggregatorNode, FilterNode, GroupByNode, WindowNode
from repro.query.ast import Query
from repro.reservoir.iterator import ReservoirIterator
from repro.reservoir.reservoir import EventReservoir
from repro.state.store import MetricStateStore, encode_group_key
from repro.windows.spec import WindowSpec


@dataclass
class MetricHandle:
    """Everything the plan knows about one registered metric."""

    metric_id: int
    query: Query
    window: WindowNode
    filter: FilterNode
    group_by: GroupByNode
    aggregators: list[AggregatorNode] = field(default_factory=list)

    def display_names(self) -> list[str]:
        """Reply column names."""
        return [node.display_name for node in self.aggregators]


@dataclass
class _IteratorEntry:
    iterator: ReservoirIterator
    spec: WindowSpec
    is_head: bool

    def limit(self, eval_ts: int) -> int | None:
        if self.is_head:
            return self.spec.head_limit(eval_ts)
        return self.spec.tail_limit(eval_ts)


class TaskPlan:
    """Operator DAG + iterator management for one task processor."""

    def __init__(self, reservoir: EventReservoir, state: MetricStateStore) -> None:
        self.reservoir = reservoir
        self.state = state
        self._windows: dict[WindowSpec, WindowNode] = {}
        self._iterators: dict[tuple, _IteratorEntry] = {}
        self._metrics: dict[int, MetricHandle] = {}
        self._next_metric_id = 0
        self.events_processed = 0

    # -- registration -------------------------------------------------------------

    def add_metric(
        self, query: Query, backfill: bool = False, metric_id: int | None = None
    ) -> MetricHandle:
        """Register a parsed query; optionally backfill from history.

        Without backfill the metric starts empty and only accumulates
        events arriving after registration. With backfill (the paper's
        §6 future-work item) the current window contents are read from
        the reservoir's timestamp index and folded in, so the metric is
        immediately as accurate as if it had always existed.

        ``metric_id`` may be pinned by the engine so state-store keys
        stay identical across replicas and restores.
        """
        if metric_id is None:
            metric_id = self._next_metric_id
        elif metric_id in self._metrics:
            raise ValueError(f"metric id {metric_id} already registered")
        self._next_metric_id = max(self._next_metric_id, metric_id) + 1

        window = self._windows.get(query.window)
        if window is None:
            window = WindowNode(query.window)
            self._windows[query.window] = window

        filter_key = repr(query.where) if query.where is not None else ""
        filter_node = window.filters.get(filter_key)
        if filter_node is None:
            filter_node = FilterNode(filter_key, query.where)
            window.filters[filter_key] = filter_node

        group_node = filter_node.group_bys.get(query.group_by)
        if group_node is None:
            group_node = GroupByNode(query.group_by)
            filter_node.group_bys[query.group_by] = group_node

        handle = MetricHandle(metric_id, query, window, filter_node, group_node)
        for agg_index, agg_spec in enumerate(query.aggregations):
            node = AggregatorNode(metric_id, agg_index, agg_spec)
            group_node.aggregators.append(node)
            handle.aggregators.append(node)
        self._metrics[metric_id] = handle

        self._ensure_iterators(query.window, backfill)
        if backfill:
            self._backfill(handle)
        return handle

    def _ensure_iterators(self, spec: WindowSpec, backfill: bool) -> None:
        head_key = spec.head_share_key()
        if head_key not in self._iterators:
            self._iterators[head_key] = _IteratorEntry(
                self.reservoir.new_iterator(spec.delay_ms, name=str(head_key)),
                spec,
                is_head=True,
            )
        tail_key = spec.tail_share_key()
        if tail_key is None or tail_key in self._iterators:
            return
        if backfill and self.reservoir.max_seen_ts >= 0:
            boundary = spec.tail_limit(self.reservoir.max_seen_ts)
            iterator = self.reservoir.new_iterator_at(
                boundary if boundary is not None else -1,
                spec.delay_ms + (spec.size_ms or 0),
                name=str(tail_key),
            )
        else:
            iterator = self.reservoir.new_iterator(
                spec.delay_ms + (spec.size_ms or 0), name=str(tail_key)
            )
        self._iterators[tail_key] = _IteratorEntry(iterator, spec, is_head=False)

    def _backfill(self, handle: MetricHandle) -> None:
        """Prime a new metric's state with the current window contents."""
        now = self.reservoir.max_seen_ts
        if now < 0:
            return
        spec = handle.query.window
        upper = spec.head_limit(now)
        lower = spec.tail_limit(now)
        events = self.reservoir.read_range(
            lower if lower is not None else -1, upper
        )
        grouped: dict[tuple, list[Event]] = {}
        for event in events:
            if not handle.filter.passes(event):
                continue
            grouped.setdefault(handle.group_by.key_of(event), []).append(event)
        for key, key_events in grouped.items():
            key_bytes = encode_group_key(key)
            for node in handle.aggregators:
                enters = [
                    (self._value_of(node, event), event) for event in key_events
                ]
                self.state.apply(
                    node.metric_id, node.agg_index, node.spec.name, key_bytes,
                    enters, (),
                )

    # -- metric catalogue ------------------------------------------------------------

    @property
    def metric_count(self) -> int:
        """Registered metrics."""
        return len(self._metrics)

    @property
    def iterator_count(self) -> int:
        """Distinct reservoir iterators (the Figure 9b x-axis)."""
        return len(self._iterators)

    def node_count(self) -> int:
        """Total DAG nodes (windows + filters + group-bys + aggregators)."""
        return sum(window.node_count() for window in self._windows.values())

    def metrics(self) -> list[MetricHandle]:
        """All registered metric handles."""
        return list(self._metrics.values())

    def remove_metric(self, metric_id: int) -> None:
        """Unregister a metric (operational request from the client)."""
        handle = self._metrics.pop(metric_id, None)
        if handle is None:
            return
        handle.group_by.aggregators = [
            node for node in handle.group_by.aggregators
            if node.metric_id != metric_id
        ]
        self._prune_empty_nodes()
        self.state.forget_metric(metric_id)

    def _prune_empty_nodes(self) -> None:
        for spec, window in list(self._windows.items()):
            for filter_key, filter_node in list(window.filters.items()):
                for group_key, group_node in list(filter_node.group_bys.items()):
                    if not group_node.aggregators:
                        del filter_node.group_bys[group_key]
                if not filter_node.group_bys:
                    del window.filters[filter_key]
            if not window.filters:
                del self._windows[spec]
                self._release_iterators_for(spec)

    def _release_iterators_for(self, spec: WindowSpec) -> None:
        still_used_heads = {w.head_share_key() for w in self._windows}
        still_used_tails = {w.tail_share_key() for w in self._windows}
        for key in (spec.head_share_key(), spec.tail_share_key()):
            if key is None or key in still_used_heads or key in still_used_tails:
                continue
            entry = self._iterators.pop(key, None)
            if entry is not None:
                self.reservoir.release_iterator(entry.iterator)

    # -- checkpoint support ---------------------------------------------------------

    def iterator_positions(self) -> dict[str, tuple[int, int]]:
        """Current cursor positions keyed by canonical share-key text."""
        return {
            repr(key): entry.iterator.position
            for key, entry in self._iterators.items()
        }

    def set_iterator_positions(self, positions: dict[str, tuple[int, int]]) -> None:
        """Restore cursor positions saved by :meth:`iterator_positions`.

        Called after metrics are re-registered during recovery, so the
        iterators line up with the restored aggregator states.
        """
        for key, entry in self._iterators.items():
            saved = positions.get(repr(key))
            if saved is None:
                continue
            entry.iterator.chunk_id, entry.iterator.index = saved
            entry.iterator.invalidate_cached_chunk()
            entry.iterator.missed.clear()

    # -- event processing -----------------------------------------------------------

    def process_event(
        self, event: Event, eval_ts: int | None = None, tie_cap: int | None = None
    ) -> dict[int, dict[str, Any]]:
        """Advance time to ``event`` and return per-metric replies.

        The reply for each metric is the aggregation values for *this
        event's* group key — "all the aggregations computed for that
        particular event" (§3.1).

        ``eval_ts`` pins the evaluation time explicitly. The batched
        ingestion path appends a whole run to the reservoir before the
        plan advances, which pushes ``reservoir.max_seen_ts`` past the
        events still awaiting their plan turn — the caller passes each
        event's own in-order timestamp to keep replies identical to the
        per-event interleaving.

        ``tie_cap`` bounds, for iterators whose limit is exactly
        ``eval_ts`` (delay-0 window heads), how many events *at* that
        timestamp one advance may consume. The batched path passes 1:
        a timestamp-tied run is fully in the reservoir before any plan
        turn, and on the per-event path each tie member's reply sees
        only the members appended before it — the cap reproduces that
        cut-off exactly. Iterators whose limit falls below ``eval_ts``
        are unaffected: every event at or below their limit is already
        visible on both paths.
        """
        self.events_processed += 1
        if eval_ts is None:
            eval_ts = max(event.timestamp, self.reservoir.max_seen_ts)

        # 1. Advance each distinct iterator exactly once.
        batches: dict[tuple, list[Event]] = {}
        for key, entry in self._iterators.items():
            limit = entry.limit(eval_ts)
            if limit is None:
                batches[key] = []
            elif tie_cap is not None and limit == eval_ts:
                batches[key] = entry.iterator.advance_upto(limit, tie_cap)
            else:
                batches[key] = entry.iterator.advance_upto(limit)

        # 2..4. Window -> Filter -> GroupBy -> Aggregator, sharing prefixes.
        # The same group key recurs across windows and in the reply:
        # encode each distinct one once per event.
        key_bytes: dict[tuple, bytes] = {}
        updated: dict[tuple[int, int, bytes], Any] = {}
        for spec, window in self._windows.items():
            enters = batches.get(spec.head_share_key(), [])
            tail_key = spec.tail_share_key()
            exits = batches.get(tail_key, []) if tail_key is not None else []
            if not enters and not exits:
                continue
            for filter_node in window.filters.values():
                f_enters = [e for e in enters if filter_node.passes(e)]
                f_exits = [e for e in exits if filter_node.passes(e)]
                if not f_enters and not f_exits:
                    continue
                for group_node in filter_node.group_bys.values():
                    self._apply_group(
                        group_node, f_enters, f_exits, updated, key_bytes
                    )

        # 5. Assemble the reply for this event's own keys.
        return self._build_reply(event, updated, key_bytes)

    def process_event_readonly(self, event: Event) -> dict[int, dict[str, Any]]:
        """Reply for an event without advancing time or mutating state.

        Used for duplicates and policy-discarded out-of-order events:
        the client still gets the entity's current aggregations, but the
        window does not move (§4.1.1 — duplicates are never processed
        twice).
        """
        return self._build_reply(event, {}, {})

    def _apply_group(
        self,
        group_node: GroupByNode,
        enters: list[Event],
        exits: list[Event],
        updated: dict[tuple[int, int, bytes], Any],
        key_bytes: dict[tuple, bytes],
    ) -> None:
        per_key: dict[tuple, tuple[list[Event], list[Event]]] = {}
        for event in enters:
            per_key.setdefault(group_node.key_of(event), ([], []))[0].append(event)
        for event in exits:
            per_key.setdefault(group_node.key_of(event), ([], []))[1].append(event)
        for key, (key_enters, key_exits) in per_key.items():
            encoded = key_bytes.get(key)
            if encoded is None:
                encoded = key_bytes[key] = encode_group_key(key)
            for node in group_node.aggregators:
                result = self.state.apply(
                    node.metric_id,
                    node.agg_index,
                    node.spec.name,
                    encoded,
                    [(self._value_of(node, e), e) for e in key_enters],
                    [(self._value_of(node, e), e) for e in key_exits],
                )
                updated[(node.metric_id, node.agg_index, encoded)] = result

    @staticmethod
    def _value_of(node: AggregatorNode, event: Event) -> Any:
        if node.spec.field is None:
            return True  # count(*): every event counts
        return event.get(node.spec.field)

    def _build_reply(
        self,
        event: Event,
        updated: dict[tuple[int, int, bytes], Any],
        key_bytes: dict[tuple, bytes],
    ) -> dict[int, dict[str, Any]]:
        replies: dict[int, dict[str, Any]] = {}
        for handle in self._metrics.values():
            key = handle.group_by.key_of(event)
            encoded = key_bytes.get(key)
            if encoded is None:
                encoded = key_bytes[key] = encode_group_key(key)
            values: dict[str, Any] = {}
            for node in handle.aggregators:
                cache_key = (node.metric_id, node.agg_index, encoded)
                if cache_key in updated:
                    values[node.display_name] = updated[cache_key]
                else:
                    values[node.display_name] = self.state.peek(
                        node.metric_id, node.agg_index, node.spec.name, encoded
                    )
            replies[handle.metric_id] = values
        return replies
