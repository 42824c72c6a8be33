"""Consumer-group coordination: membership, heartbeats, installed assignments.

Implements the Kafka guarantees Railgun exploits (§3.3):

- within a group, a partition is owned by **at most one** member;
- the coordinator tracks heartbeats and evicts members that miss the
  session timeout, triggering a rebalance;
- each rebalance bumps a **generation**; stale members are fenced.

The coordinator computes no assignment of its own. The engine is the
only assignment authority: it runs the paper's Figure 7 strategy across
the active group and every replica group at once and installs the
result with :meth:`GroupCoordinator.set_assignment`. A membership
rebalance keeps each survivor's installed partitions (limited to the
group's subscribed topics) and notifies the authority through
:attr:`GroupCoordinator.external_authority`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common.errors import MessagingError
from repro.messaging.log import TopicPartition


@dataclass
class _Member:
    member_id: str
    topics: set[str]
    last_heartbeat_ms: int
    assignment: set[TopicPartition] = field(default_factory=set)


@dataclass
class _Group:
    group_id: str
    members: dict[str, _Member] = field(default_factory=dict)
    generation: int = 0
    needs_rebalance: bool = True


class GroupCoordinator:
    """Coordinates the consumer groups of one bus."""

    def __init__(self, session_timeout_ms: int = 10_000) -> None:
        self.session_timeout_ms = session_timeout_ms
        self._groups: dict[str, _Group] = {}
        #: hook invoked after any group rebalances — the engine uses it
        #: to co-ordinate active/replica groups (Figure 7).
        self.external_authority: Callable[[str], None] | None = None

    # -- membership -----------------------------------------------------------------

    def join(
        self, group_id: str, member_id: str, topics: Iterable[str], now_ms: int
    ) -> None:
        """Add a member; marks the group for rebalance."""
        group = self._groups.setdefault(group_id, _Group(group_id))
        if member_id in group.members:
            raise MessagingError(
                f"member {member_id!r} already in group {group_id!r}"
            )
        group.members[member_id] = _Member(member_id, set(topics), now_ms)
        group.needs_rebalance = True

    def leave(self, group_id: str, member_id: str) -> None:
        """Graceful departure; marks the group for rebalance."""
        group = self._group(group_id)
        if group.members.pop(member_id, None) is not None:
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
        """Keep every survivor's installed partitions of the group's
        subscribed topics; the authority installs the real assignment."""
        group.needs_rebalance = False
        group.generation += 1
        topics = set().union(*(m.topics for m in group.members.values()))
        for member in group.members.values():
            member.assignment = {tp for tp in member.assignment if tp.topic in topics}
        if self.external_authority is not None:
            self.external_authority(group.group_id)

    def set_assignment(
        self, group_id: str, assignment: dict[str, set[TopicPartition]]
    ) -> None:
        """Install an assignment computed by the engine's authority.

        The Figure 7 strategy spans multiple groups, so the engine
        computes assignments globally and installs each group's share
        here. Members absent from ``assignment`` own nothing.
        """
        group = self._group(group_id)
        seen: dict[TopicPartition, str] = {}
        for member_id, tps in assignment.items():
            if member_id not in group.members:
                raise MessagingError(
                    f"assignment names unknown member {member_id!r}"
                )
            for tp in tps:
                if tp in seen:
                    raise MessagingError(
                        f"{tp} assigned to both {seen[tp]!r} and {member_id!r}"
                    )
                seen[tp] = member_id
        group.generation += 1
        for member_id, member in group.members.items():
            member.assignment = set(assignment.get(member_id, ()))

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

    def has_member(self, group_id: str, member_id: str) -> bool:
        """True while ``member_id`` is a live member of the group."""
        group = self._groups.get(group_id)
        return group is not None and member_id in group.members

    def _group(self, group_id: str) -> _Group:
        try:
            return self._groups[group_id]
        except KeyError:
            raise MessagingError(f"unknown group {group_id!r}") from None
