"""The task-plan runtime.

``TaskPlan`` owns the reservoir iterators and the operator DAG for one
task processor. Each event's *turn* sees what each distinct iterator
produced for it ("every time a plan advances time, the Window operator
produces the events that arrive and expire, to the downstream operators
of the DAG", §4.1.2), fans the entering/expiring batches through shared
filters and group-bys, folds them into the per-entity aggregator states,
and assembles the reply for the event's own entity. A run of fresh
in-order events advances each distinct iterator once per run and cuts
the batches per turn (:meth:`TaskPlan.process_run`); any other event
advances them once for itself (:meth:`TaskPlan.process_event`).

The DAG is walked when it *changes*, not per event: every
``add_metric``/``remove_metric`` compiles it into a flat program —
iterators with their limit arithmetic, windows as index pairs over the
iterator batches, group-by nodes with their leaf tables, a reply plan
per metric, one key slot per group-by field tuple — and one turn loop
(:meth:`TaskPlan._turns`) runs that program for every event, one or a
run at a time. Each turn computes the event's group key once per key
slot. A window of one filter without a predicate over one group-by
node, whose only enter is the turn's own event, folds the event and its
exits straight onto indexed cells (:func:`_fold_on_cells`); any other
window takes the generic fold. Its unit of state
access is the :class:`~repro.state.store.Cell`: one dict hit per
(group-by node, touched key) finds the resident aggregators of all the
node's leaves, folds go straight to them, and the reply reads
``result()`` off the event's own cells. A cell's *first* touch still
goes through the store one leaf at a time (``apply``/``peek``), in DAG
order — windows as registered, keys as they first appear (enters, then
exits), leaves in node order, reply peeks last — because that is where
loads happen and load order is the store's eviction order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.events.event import Event
from repro.plan.operators import AggregatorNode, FilterNode, GroupByNode, WindowNode
from repro.query.ast import Query
from repro.reservoir.iterator import ReservoirIterator
from repro.reservoir.reservoir import EventReservoir
from repro.state.store import Cell, MetricStateStore
from repro.windows.spec import WindowKind, WindowSpec


@dataclass
class MetricHandle:
    """Everything the plan knows about one registered metric."""

    metric_id: int
    query: Query
    window: WindowNode
    filter: FilterNode
    group_by: GroupByNode
    aggregators: list[AggregatorNode] = field(default_factory=list)


def _pairs(field_name: str | None, events) -> list[tuple[Any, Event]]:
    """``(value, event)`` per event for one leaf (``count(*)`` counts
    every event, so its value is a constant ``True``)."""
    if field_name is None:
        return [(True, event) for event in events]
    return [(event.get(field_name), event) for event in events]


def _cuts(
    batch: list[Event], stamps: list[int], offset_ms: int, tumbling: WindowSpec | None
) -> list[int]:
    """Where each event's turn ends in an iterator's run batch: entry
    ``i + 1`` of the result is the cut after turn ``i`` (entry 0 is 0).

    Turn ``i`` consumes what :meth:`TaskPlan.process_event` would with
    ``eval_ts=stamps[i]`` and ``tie_cap=1``: everything up to the limit,
    or — when the limit is the evaluation time itself — everything below
    it and one event at it.
    """
    marks = [event.timestamp for event in batch]
    size = len(marks)
    cut = 0
    bound = [0]
    for stamp in stamps:
        limit = stamp - offset_ms if tumbling is None else tumbling.tail_limit(stamp)
        if limit == stamp:
            cut = bisect_left(marks, limit, cut)
            if cut < size and marks[cut] == limit:
                cut += 1
        else:
            cut = bisect_right(marks, limit, cut)
        bound.append(cut)
    # The last turn's limit is the one the batch was advanced to.
    assert cut == size, f"run cuts consumed {cut} of {size} events"
    return bound


def _fold_on_cells(
    group: GroupByNode, key: Any, event: Event, gone: Sequence[Event]
) -> tuple[Cell, ...] | None:
    """Fold ``event`` into its own cell of ``group`` and the window's
    exits ``gone`` out of theirs, in the generic fold's order: keys in
    order of first appearance (the event's own first), per key its exits
    before its enter, leaf by leaf. Returns the cells folded, or None —
    having folded nothing — when one of them is not indexed.
    """
    cells = group.cells
    cell = cells.get(key)
    if cell is None:
        return None
    if not gone:
        for aggregator, name in zip(cell.aggregators, group.value_fields):
            aggregator.add(True if name is None else event.get(name), event)
        return (cell,)
    key_of = group.key_of
    own: list[Event] = []
    others: dict[Any, tuple[Cell, list[Event]]] = {}
    for e in gone:
        gone_key = key_of(e)
        if gone_key == key:
            own.append(e)
            continue
        held = others.get(gone_key)
        if held is None:
            other = cells.get(gone_key)
            if other is None:
                return None
            held = others[gone_key] = (other, [])
        held[1].append(e)
    for aggregator, name in zip(cell.aggregators, group.value_fields):
        for e in own:
            aggregator.evict(True if name is None else e.get(name), e)
        aggregator.add(True if name is None else event.get(name), event)
    if not others:
        return (cell,)
    for other, exits in others.values():
        for aggregator, name in zip(other.aggregators, group.value_fields):
            for e in exits:
                aggregator.evict(True if name is None else e.get(name), e)
    return (cell, *[other for other, _ in others.values()])


class TaskPlan:
    """Operator DAG + iterator management for one task processor."""

    def __init__(self, reservoir: EventReservoir, state: MetricStateStore) -> None:
        self.reservoir = reservoir
        self.state = state
        self._windows: dict[WindowSpec, WindowNode] = {}
        self._iterators: dict[tuple, ReservoirIterator] = {}
        self._metrics: dict[int, MetricHandle] = {}
        self._next_metric_id = 0
        self.events_processed = 0
        self._compile()

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
        self._compile()
        if backfill:
            self._backfill(handle)
        return handle

    def _ensure_iterators(self, spec: WindowSpec, backfill: bool) -> None:
        head_key = spec.head_share_key()
        if head_key not in self._iterators:
            self._iterators[head_key] = self.reservoir.new_iterator(
                spec.delay_ms, name=str(head_key)
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
        self._iterators[tail_key] = iterator

    def _compile(self) -> None:
        """Flatten the DAG into the programs the turns run:
        index-addressed tuples, nothing left to look up per event. Every
        group-by node drops its cells (its leaf list may have changed
        under them).
        """
        tumbling = {
            spec.tail_share_key(): spec
            for spec in self._windows
            if spec.kind is WindowKind.TUMBLING
        }
        #: ``(iterator, offset_ms, tumbling spec | None)``: the limit is
        #: ``eval_ts - offset_ms`` unless the spec computes it
        self._iterator_program = tuple(
            (iterator, iterator.offset_ms, tumbling.get(key))
            for key, iterator in self._iterators.items()
        )
        slot = {key: index for index, key in enumerate(self._iterators)}
        key_slots: dict[tuple[str, ...], int] = {}
        extractors = []
        windows = []
        self._groups: list[GroupByNode] = []
        for spec, window in self._windows.items():
            tail_key = spec.tail_share_key()
            filters = []
            for filter_node in window.filters.values():
                groups = tuple(filter_node.group_bys.values())
                for group in groups:
                    group.compile()
                    if group.fields not in key_slots:
                        key_slots[group.fields] = len(extractors)
                        extractors.append(group.key_of)
                self._groups.extend(groups)
                expression = filter_node.expression
                filters.append(
                    (None if expression is None else expression.matches, groups)
                )
            # the group-by node a turn may fold on cells directly: the
            # window's only filter has no predicate and one node
            cheap = None
            if len(filters) == 1 and filters[0][0] is None and len(filters[0][1]) == 1:
                cheap = filters[0][1][0]
            windows.append((
                slot[spec.head_share_key()],
                -1 if tail_key is None else slot[tail_key],
                tuple(filters),
                cheap,
                -1 if cheap is None else key_slots[cheap.fields],
            ))
        #: the group key of every distinct group-by field tuple, by key slot
        self._key_program = tuple(extractors)
        #: ``(head batch index, tail batch index or -1, ((predicate |
        #: None, group-by nodes), ...), group-by node folded on cells or
        #: None, its key slot or -1)`` per window, registration order
        self._window_program = tuple(windows)
        #: ``(metric_id, group-by node, ((display name, leaf index),
        #: ...), key slot)`` per metric, registration order
        self._reply_program = tuple(
            (
                handle.metric_id,
                handle.group_by,
                tuple(
                    (node.display_name, handle.group_by.aggregators.index(node))
                    for node in handle.aggregators
                ),
                key_slots[handle.group_by.fields],
            )
            for handle in self._metrics.values()
        )
        self._cells_epoch = self.state.epoch

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
        group = handle.group_by
        grouped: dict[Any, list[Event]] = {}
        for event in events:
            if not handle.filter.passes(event):
                continue
            grouped.setdefault(group.key_of(event), []).append(event)
        for key, key_events in grouped.items():
            key_bytes = group.encoded_key(key)
            for node in handle.aggregators:
                self.state.apply(
                    node.metric_id, node.agg_index, node.spec.name, key_bytes,
                    _pairs(node.spec.field, key_events), (),
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
        self._compile()
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
            iterator = self._iterators.pop(key, None)
            if iterator is not None:
                self.reservoir.release_iterator(iterator)

    # -- checkpoint support ---------------------------------------------------------

    def iterator_positions(self) -> dict[str, tuple[int, int]]:
        """Current cursor positions keyed by canonical share-key text."""
        return {
            repr(key): iterator.position
            for key, iterator in self._iterators.items()
        }

    def set_iterator_positions(self, positions: dict[str, tuple[int, int]]) -> None:
        """Restore cursor positions saved by :meth:`iterator_positions`.

        Called after metrics are re-registered during recovery, so the
        iterators line up with the restored aggregator states.
        """
        for key, iterator in self._iterators.items():
            saved = positions.get(repr(key))
            if saved is None:
                continue
            iterator.chunk_id, iterator.index = saved
            iterator.invalidate_cached_chunk()
            iterator.missed.clear()

    # -- event processing -----------------------------------------------------------

    def process_event(
        self, event: Event, eval_ts: int | None = None, tie_cap: int | None = None
    ) -> dict[int, dict[str, Any]]:
        """Advance time to ``event`` and return per-metric replies.

        The reply for each metric is the aggregation values for *this
        event's* group key — "all the aggregations computed for that
        particular event" (§3.1).

        ``eval_ts`` pins the evaluation time explicitly (default: the
        event's timestamp or the reservoir frontier, whichever is later).
        ``tie_cap`` bounds, for iterators whose limit is exactly
        ``eval_ts`` (delay-0 window heads), how many events *at* that
        timestamp one advance may consume: with 1, a timestamp-tied
        group already in the reservoir is consumed one member per turn,
        so each member's reply sees only the members before it and
        itself. Iterators whose limit falls below ``eval_ts`` are
        unaffected. A run of fresh events the reservoir stored as
        themselves goes through :meth:`process_run` instead, which
        advances each iterator once per run, not once per event.

        Fold order is part of the contract (float accumulation is
        order-sensitive): per (group-by node, key) all exits fold before
        all enters, left to right, leaf by leaf in node order.
        """
        if eval_ts is None:
            eval_ts = max(event.timestamp, self.reservoir.max_seen_ts)
        # 1. Advance each distinct iterator exactly once.
        batches = []
        for iterator, offset_ms, tumbling in self._iterator_program:
            if tumbling is None:
                limit = eval_ts - offset_ms
            else:
                limit = tumbling.tail_limit(eval_ts)
            if tie_cap is not None and limit == eval_ts:
                batches.append(iterator.advance_upto(limit, tie_cap))
            else:
                batches.append(iterator.advance_upto(limit))
        return self._turns((event,), batches, [[0, len(batch)] for batch in batches])[0]

    def process_run(self, events: Sequence[Event]) -> list[dict[int, dict[str, Any]]]:
        """Turns for a run of fresh events, in order, that the reservoir
        has just stored as themselves; the replies :meth:`process_event`
        would give each one with ``eval_ts`` its timestamp and
        ``tie_cap=1``, with the same state, cursors and key counts.

        The sweep advances each distinct iterator once, to the last
        event's limit, and cuts its batch at every event's limit
        (``tie_cap=1`` becomes "one event at the limit" per turn). Late
        events parked in a missed queue belong to the first turn alone,
        so a run that finds any takes the per-event turns. Either way
        the turns themselves are :meth:`_turns`.
        """
        if any(iterator.missed for iterator, _, _ in self._iterator_program):
            return [self.process_event(e, e.timestamp, 1) for e in events]
        return self._sweep(events)

    def _sweep(self, events: Sequence[Event]) -> list[dict[int, dict[str, Any]]]:
        """:meth:`process_run` once the missed queues are known empty.

        Reads of chunks through the reservoir's cache are
        order-sensitive (LRU), and one advance per iterator reorders
        them across iterators: while more than one iterator may page
        (:meth:`ReservoirIterator.may_page`), the run splits in two.
        """
        program = self._iterator_program
        stamps = [event.timestamp for event in events]
        last = stamps[-1]
        limits = [
            last - offset_ms if tumbling is None else tumbling.tail_limit(last)
            for _, offset_ms, tumbling in program
        ]
        if len(events) > 1 and sum(
            iterator.may_page(limit) for (iterator, _, _), limit in zip(program, limits)
        ) > 1:
            middle = len(events) // 2
            return self._sweep(events[:middle]) + self._sweep(events[middle:])
        # A limit at the last timestamp itself consumes one event there
        # per turn at that timestamp: the run's tail ties, not the later
        # members of its tie group the reservoir may already hold.
        ties = len(stamps) - bisect_left(stamps, last)
        batches = []
        bounds = []
        for (iterator, offset_ms, tumbling), limit in zip(program, limits):
            batch = iterator.advance_upto(limit, ties if limit == last else None)
            batches.append(batch)
            bounds.append(_cuts(batch, stamps, offset_ms, tumbling))
        return self._turns(events, batches, bounds)

    def _turns(
        self,
        events: Sequence[Event],
        batches: list[list[Event]],
        bounds: list[list[int]],
    ) -> list[dict[int, dict[str, Any]]]:
        """Each event's turn, in order: turn ``i`` sees
        ``batches[k][bounds[k][i]:bounds[k][i + 1]]`` of each iterator
        ``k`` and walks Window -> Filter -> GroupBy -> Aggregator,
        sharing prefixes, then the reply.

        A window of one filter without a predicate over one group-by
        node, whose only enter is the turn's own event, folds it and its
        exits straight onto indexed cells (:func:`_fold_on_cells`), keyed
        by the event's key slot. Any other window, a cell not indexed or
        a turn past an eviction takes the generic :meth:`_fold`. The
        reply reads the cells the turn stamped, else :meth:`_reply`.
        """
        state = self.state
        dirty_cells = state.dirty_cells
        extractors = self._key_program
        window_program = self._window_program
        reply_program = self._reply_program
        turn = self.events_processed
        folded = 0  # leaves folded on cells: one logical read + write each
        replies = []
        keys: list[Any] = [None] * len(extractors)
        for i, event in enumerate(events):
            turn += 1
            epoch = state.epoch
            if epoch != self._cells_epoch:
                self._current_epoch()
            # False once this event's own loads evicted something: from
            # then on a cell may index aggregators that are no longer
            # resident, so folds go back through the store (only a cell
            # this turn stamped still serves — its reply).
            live = True
            for slot, key_of in enumerate(extractors):
                keys[slot] = key_of(event)
            for head, tail, filters, group, slot in window_program:
                exits = ()
                if tail >= 0:
                    bound = bounds[tail]
                    lo, hi = bound[i], bound[i + 1]
                    if hi > lo:
                        exits = batches[tail][lo:hi]
                bound = bounds[head]
                lo, hi = bound[i], bound[i + 1]
                if live and group is not None and hi - lo == 1 and batches[head][lo] is event:
                    touched = _fold_on_cells(group, keys[slot], event, exits)
                    if touched is not None:
                        for cell in touched:
                            cell.turn = turn
                            if not cell.dirty:
                                cell.dirty = True
                                dirty_cells.append(cell)
                            folded += len(cell.aggregators)
                        continue
                if hi > lo or exits:
                    live = self._fold(
                        filters, batches[head][lo:hi], exits, turn, epoch, live
                    )
            reply: dict[int, dict[str, Any]] = {}
            for metric_id, group, columns, slot in reply_program:
                cell = group.cells.get(keys[slot])
                if cell is None or cell.turn != turn:
                    reply = self._reply(event, turn, live)
                    break
                aggregators = cell.aggregators
                values = reply[metric_id] = {}
                for name, index in columns:
                    values[name] = aggregators[index].result()
            replies.append(reply)
        self.events_processed = turn
        state.key_reads += folded
        state.key_writes += folded
        return replies

    def _fold(
        self,
        filters: tuple,
        enters: Sequence[Event],
        exits: Sequence[Event],
        turn: int,
        epoch: int,
        live: bool,
    ) -> bool:
        """Fold one window's enters and exits through its filters and
        group-by nodes; returns ``live`` after the loads it made."""
        state = self.state
        folded = 0  # leaves folded on cells: one logical read + write each
        dirty_cells = state.dirty_cells
        for predicate, groups in filters:
            if predicate is None:
                f_enters, f_exits = enters, exits
            else:
                f_enters = [e for e in enters if predicate(e)]
                f_exits = [e for e in exits if predicate(e)]
                if not f_enters and not f_exits:
                    continue
            for group in groups:
                key_of = group.key_of
                # key -> (its enters, its exits), keys in order of
                # first appearance
                per_key: dict[Any, tuple[list, list]] = {}
                for side, events in ((0, f_enters), (1, f_exits)):
                    for e in events:
                        key = key_of(e)
                        held = per_key.get(key)
                        if held is None:
                            held = per_key[key] = ([], [])
                        held[side].append(e)
                cells = group.cells
                value_fields = group.value_fields
                for key, (k_enters, k_exits) in per_key.items():
                    cell = cells.get(key) if live else None
                    if cell is None:
                        self._first_fold(group, key, k_enters, k_exits, turn)
                        live = state.epoch == epoch
                        continue
                    aggregators = cell.aggregators
                    if not k_exits and len(k_enters) == 1:
                        e = k_enters[0]
                        for aggregator, name in zip(aggregators, value_fields):
                            aggregator.add(True if name is None else e.get(name), e)
                    elif not k_enters and len(k_exits) == 1:
                        e = k_exits[0]
                        for aggregator, name in zip(aggregators, value_fields):
                            aggregator.evict(True if name is None else e.get(name), e)
                    else:
                        for aggregator, name in zip(aggregators, value_fields):
                            aggregator.update_batch(
                                _pairs(name, k_enters), _pairs(name, k_exits)
                            )
                    cell.turn = turn
                    if not cell.dirty:
                        cell.dirty = True
                        dirty_cells.append(cell)
                    folded += len(aggregators)
        state.key_reads += folded
        state.key_writes += folded
        return live

    def process_event_readonly(self, event: Event) -> dict[int, dict[str, Any]]:
        """Reply for an event without advancing time or mutating state.

        Used for duplicates and policy-discarded out-of-order events:
        the client still gets the entity's current aggregations, but the
        window does not move (§4.1.1 — duplicates are never processed
        twice).
        """
        self._current_epoch()
        return self._reply(event, -1, True)

    def _current_epoch(self) -> int:
        """The store's epoch, after dropping every cell built under an
        older one (some entry has left the resident set since)."""
        epoch = self.state.epoch
        if epoch != self._cells_epoch:
            for group in self._groups:
                group.cells.clear()
            self._cells_epoch = epoch
        return epoch

    def _first_fold(
        self,
        group: GroupByNode,
        key: Any,
        enters: list[Event],
        exits: list[Event],
        turn: int,
    ) -> None:
        """Fold into a cell the index does not hold: leaf by leaf through
        the store, which loads what is not resident (and may evict to do
        so), then index the aggregators it folded on.

        The cell is indexed even if those loads evicted one of its own
        leaves: this turn's reply reads it, and the moved epoch drops it
        before the next event.
        """
        state = self.state
        encoded = group.encoded_key(key)
        aggregators = []
        for metric_id, agg_index, agg_name, field_name in group.leaves:
            state.apply(
                metric_id, agg_index, agg_name, encoded,
                _pairs(field_name, enters), _pairs(field_name, exits),
            )
            aggregators.append(state.resident(metric_id, agg_index, encoded))
        group.cells[key] = Cell(encoded, group.leaf_ids, tuple(aggregators), turn)

    def _reply(
        self, event: Event, turn: int, live: bool
    ) -> dict[int, dict[str, Any]]:
        """Per metric, the event's own cell read column by column; a
        column whose leaf ``turn`` did not fold costs a logical read."""
        state = self.state
        replies: dict[int, dict[str, Any]] = {}
        peeked = 0
        for metric_id, group, columns, _ in self._reply_program:
            key = group.key_of(event)
            cell = group.cells.get(key)
            values: dict[str, Any] = {}
            if cell is not None and (cell.turn == turn or live):
                aggregators = cell.aggregators
                for name, index in columns:
                    values[name] = aggregators[index].result()
                if cell.turn != turn:
                    peeked += len(columns)
            else:
                epoch = state.epoch
                encoded = group.encoded_key(key)
                leaves = group.leaves
                for name, index in columns:
                    _, agg_index, agg_name, _ = leaves[index]
                    values[name] = state.peek(metric_id, agg_index, agg_name, encoded)
                if state.epoch != epoch:
                    live = False
                elif live:
                    self._index_resident(group, key, encoded)
            replies[metric_id] = values
        state.key_reads += peeked
        return replies

    def _index_resident(self, group: GroupByNode, key: Any, encoded: bytes) -> None:
        """Index the cell of ``key`` if every leaf of it is resident
        (peeks load one metric's columns; a node several metrics share
        is complete after the last of them)."""
        resident = self.state.resident
        aggregators = []
        for metric_id, agg_index in group.leaf_ids:
            aggregator = resident(metric_id, agg_index, encoded)
            if aggregator is None:
                return
            aggregators.append(aggregator)
        group.cells[key] = Cell(encoded, group.leaf_ids, tuple(aggregators))
