"""Consumer-group coordination: membership, heartbeats, rebalance.

Implements the Kafka guarantees Railgun exploits (§3.3):

- within a group, every partition of the subscribed topics is assigned
  to **exactly one** member (and members may get none when the group is
  larger than the partition count);
- the coordinator tracks heartbeats and evicts members that miss the
  session timeout, triggering a rebalance;
- each rebalance bumps a **generation**; stale members are fenced;
- the partition assignment strategy is pluggable. Built-ins: range,
  round-robin and sticky; the engine installs an *external authority*
  that runs the paper's Figure 7 strategy across multiple groups.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common.errors import MessagingError
from repro.messaging.broker import MessageBus
from repro.messaging.log import TopicPartition

#: strategy(members -> subscribed topics, partitions, previous assignment)
#: -> member -> set of partitions
AssignmentStrategy = Callable[
    [dict[str, set[str]], list[TopicPartition], dict[str, set[TopicPartition]]],
    dict[str, set[TopicPartition]],
]


def range_assignor(
    subscriptions: dict[str, set[str]],
    partitions: list[TopicPartition],
    previous: dict[str, set[TopicPartition]],
) -> dict[str, set[TopicPartition]]:
    """Kafka's default: contiguous ranges per topic."""
    assignment: dict[str, set[TopicPartition]] = {m: set() for m in subscriptions}
    by_topic: dict[str, list[TopicPartition]] = defaultdict(list)
    for tp in partitions:
        by_topic[tp.topic].append(tp)
    for topic, tps in sorted(by_topic.items()):
        members = sorted(m for m, topics in subscriptions.items() if topic in topics)
        if not members:
            continue
        tps = sorted(tps, key=lambda tp: tp.partition)
        per_member = len(tps) // len(members)
        extra = len(tps) % len(members)
        cursor = 0
        for index, member in enumerate(members):
            take = per_member + (1 if index < extra else 0)
            for tp in tps[cursor : cursor + take]:
                assignment[member].add(tp)
            cursor += take
    return assignment


def round_robin_assignor(
    subscriptions: dict[str, set[str]],
    partitions: list[TopicPartition],
    previous: dict[str, set[TopicPartition]],
) -> dict[str, set[TopicPartition]]:
    """Spread partitions one-by-one over members."""
    assignment: dict[str, set[TopicPartition]] = {m: set() for m in subscriptions}
    ordered = sorted(partitions, key=lambda tp: (tp.topic, tp.partition))
    for index, tp in enumerate(ordered):
        members = sorted(m for m, topics in subscriptions.items() if tp.topic in topics)
        if not members:
            continue
        assignment[members[index % len(members)]].add(tp)
    return assignment


def sticky_assignor(
    subscriptions: dict[str, set[str]],
    partitions: list[TopicPartition],
    previous: dict[str, set[TopicPartition]],
) -> dict[str, set[TopicPartition]]:
    """Kafka's sticky assignment: keep previous owners, balance the rest.

    The base Railgun builds on ("built upon Kafka's sticky assignment
    implementation", §4.2): minimize movement subject to balance.
    """
    members = sorted(subscriptions)
    assignment: dict[str, set[TopicPartition]] = {m: set() for m in members}
    if not members:
        return assignment
    eligible = {
        tp: sorted(m for m in members if tp.topic in subscriptions[m])
        for tp in partitions
    }
    budget = -(-len(partitions) // len(members))  # ceil
    unassigned: list[TopicPartition] = []
    for tp in sorted(partitions, key=lambda tp: (tp.topic, tp.partition)):
        owner = next(
            (m for m, owned in previous.items()
             if tp in owned and m in assignment and tp.topic in subscriptions[m]),
            None,
        )
        if owner is not None and len(assignment[owner]) < budget:
            assignment[owner].add(tp)
        else:
            unassigned.append(tp)
    for tp in unassigned:
        candidates = eligible[tp]
        if not candidates:
            continue
        target = min(candidates, key=lambda m: (len(assignment[m]), m))
        assignment[target].add(tp)
    return assignment


@dataclass
class _Member:
    member_id: str
    topics: set[str]
    last_heartbeat_ms: int
    listener: "object | None" = None
    assignment: set[TopicPartition] = field(default_factory=set)


@dataclass
class _Group:
    group_id: str
    strategy: AssignmentStrategy
    members: dict[str, _Member] = field(default_factory=dict)
    generation: int = 0
    needs_rebalance: bool = True


class GroupCoordinator:
    """Coordinates all consumer groups over one :class:`MessageBus`."""

    def __init__(
        self,
        bus: MessageBus,
        session_timeout_ms: int = 10_000,
        default_strategy: AssignmentStrategy = sticky_assignor,
    ) -> None:
        self.bus = bus
        self.session_timeout_ms = session_timeout_ms
        self._default_strategy = default_strategy
        self._groups: dict[str, _Group] = {}
        self.rebalances = 0
        #: optional hook invoked after any group rebalances — the engine
        #: uses it to co-ordinate active/replica groups (Figure 7).
        self.external_authority: Callable[[str], None] | None = None

    # -- membership -----------------------------------------------------------------

    def join(
        self,
        group_id: str,
        member_id: str,
        topics: Iterable[str],
        now_ms: int,
        listener: object | None = None,
        strategy: AssignmentStrategy | None = None,
    ) -> None:
        """Add a member; marks the group for rebalance."""
        group = self._groups.get(group_id)
        if group is None:
            group = _Group(group_id, strategy or self._default_strategy)
            self._groups[group_id] = group
        elif strategy is not None:
            group.strategy = strategy
        if member_id in group.members:
            raise MessagingError(
                f"member {member_id!r} already in group {group_id!r}"
            )
        group.members[member_id] = _Member(member_id, set(topics), now_ms, listener)
        group.needs_rebalance = True

    def leave(self, group_id: str, member_id: str) -> None:
        """Graceful departure; marks the group for rebalance."""
        group = self._group(group_id)
        member = group.members.pop(member_id, None)
        if member is None:
            return
        if member.listener is not None:
            member.listener.on_partitions_revoked(sorted(member.assignment, key=str))
        group.needs_rebalance = True

    def update_subscription(
        self, group_id: str, member_id: str, topics: Iterable[str]
    ) -> None:
        """Replace a member's topic subscription; triggers a rebalance."""
        group = self._group(group_id)
        member = group.members.get(member_id)
        if member is None:
            raise MessagingError(
                f"unknown member {member_id!r} in group {group_id!r}"
            )
        member.topics = set(topics)
        group.needs_rebalance = True

    def heartbeat(self, group_id: str, member_id: str, now_ms: int) -> None:
        """Record liveness for a member."""
        group = self._group(group_id)
        member = group.members.get(member_id)
        if member is None:
            raise MessagingError(
                f"unknown member {member_id!r} in group {group_id!r} (fenced?)"
            )
        member.last_heartbeat_ms = now_ms

    def tick(self, now_ms: int) -> None:
        """Expire dead members and run any pending rebalances.

        This is the coordinator's event loop; the cluster harness calls
        it as part of pumping the world.
        """
        for group in self._groups.values():
            expired = [
                m.member_id
                for m in group.members.values()
                if now_ms - m.last_heartbeat_ms > self.session_timeout_ms
            ]
            for member_id in expired:
                group.members.pop(member_id)
                group.needs_rebalance = True
        for group in self._groups.values():
            if group.needs_rebalance:
                self._rebalance(group)

    # -- assignment ------------------------------------------------------------------

    def _rebalance(self, group: _Group) -> None:
        group.needs_rebalance = False
        group.generation += 1
        self.rebalances += 1
        topics = set()
        for member in group.members.values():
            topics |= member.topics
        partitions = [
            tp for topic in sorted(topics)
            if self.bus.has_topic(topic)
            for tp in self.bus.topic_partitions(topic)
        ]
        previous = {
            member_id: set(member.assignment)
            for member_id, member in group.members.items()
        }
        subscriptions = {
            member_id: member.topics for member_id, member in group.members.items()
        }
        new_assignment = group.strategy(subscriptions, partitions, previous)
        require_complete = not getattr(group.strategy, "allows_incomplete", False)
        self._validate_assignment(
            group, partitions if require_complete else [], new_assignment
        )
        for member_id, member in group.members.items():
            assigned = new_assignment.get(member_id, set())
            revoked = member.assignment - assigned
            granted = assigned - member.assignment
            if member.listener is not None and revoked:
                member.listener.on_partitions_revoked(sorted(revoked, key=str))
            member.assignment = set(assigned)
            if member.listener is not None and granted:
                member.listener.on_partitions_assigned(sorted(granted, key=str))
        if self.external_authority is not None:
            self.external_authority(group.group_id)

    @staticmethod
    def _validate_assignment(
        group: _Group,
        partitions: list[TopicPartition],
        assignment: dict[str, set[TopicPartition]],
    ) -> None:
        seen: dict[TopicPartition, str] = {}
        for member_id, tps in assignment.items():
            if member_id not in group.members:
                raise MessagingError(
                    f"strategy assigned to unknown member {member_id!r}"
                )
            for tp in tps:
                if tp in seen:
                    raise MessagingError(
                        f"{tp} assigned to both {seen[tp]!r} and {member_id!r}"
                    )
                seen[tp] = member_id
        if group.members:
            for tp in partitions:
                if tp not in seen:
                    raise MessagingError(f"{tp} left unassigned")

    # -- queries ----------------------------------------------------------------------

    def assignment_of(self, group_id: str, member_id: str) -> set[TopicPartition]:
        """Current assignment of a member (empty set when absent)."""
        group = self._groups.get(group_id)
        if group is None:
            return set()
        member = group.members.get(member_id)
        return set(member.assignment) if member else set()

    def generation_of(self, group_id: str) -> int:
        """Current generation number (0 before first rebalance)."""
        group = self._groups.get(group_id)
        return group.generation if group else 0

    def members_of(self, group_id: str) -> list[str]:
        """Sorted live member ids."""
        group = self._groups.get(group_id)
        return sorted(group.members) if group else []

    def set_assignment(
        self, group_id: str, assignment: dict[str, set[TopicPartition]]
    ) -> None:
        """Directly install an assignment (external-authority mode).

        The engine's Figure 7 strategy spans multiple groups, which the
        per-group strategy interface cannot express; it computes
        assignments globally and installs them here.
        """
        group = self._group(group_id)
        self._validate_assignment(group, [], assignment)
        group.generation += 1
        for member_id, member in group.members.items():
            assigned = assignment.get(member_id, set())
            revoked = member.assignment - assigned
            granted = assigned - member.assignment
            if member.listener is not None and revoked:
                member.listener.on_partitions_revoked(sorted(revoked, key=str))
            member.assignment = set(assigned)
            if member.listener is not None and granted:
                member.listener.on_partitions_assigned(sorted(granted, key=str))

    def _group(self, group_id: str) -> _Group:
        try:
            return self._groups[group_id]
        except KeyError:
            raise MessagingError(f"unknown group {group_id!r}") from None
