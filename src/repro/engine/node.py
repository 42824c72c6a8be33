"""A Railgun node: front-end + a set of processor units (Figure 3).

"All Railgun nodes are equal and composed by layers": the front-end
talks to clients and routes events; the back-end's processor units
compute aggregations. Killing a node stops its heartbeats and polls —
the coordinator notices via session timeout exactly as Kafka would.
"""

from __future__ import annotations

from repro.engine.frontend import FrontEnd
from repro.engine.processor import ProcessorUnit, UnitConfig
from repro.messaging.broker import MessageBus
from repro.messaging.groups import GroupCoordinator


class RailgunNode:
    """One physical node hosting a front-end and N processor units."""

    def __init__(
        self,
        node_id: str,
        bus: MessageBus,
        coordinator: GroupCoordinator,
        clock,
        processor_units: int,
        cluster=None,
        unit_config: UnitConfig | None = None,
    ) -> None:
        if processor_units <= 0:
            raise ValueError(f"need at least one processor unit: {processor_units}")
        self.node_id = node_id
        self.alive = True
        self.frontend = FrontEnd(node_id, bus, clock)
        self.units = [
            ProcessorUnit(
                unit_id=f"{node_id}/pu{index}",
                node_id=node_id,
                bus=bus,
                coordinator=coordinator,
                clock=clock,
                cluster=cluster,
                config=unit_config,
            )
            for index in range(processor_units)
        ]

    def subscribe_units(self, topics: list[str]) -> None:
        """Join all processor units to the event topics."""
        for unit in self.units:
            unit.subscribe(topics)

    def pump(self) -> int:
        """One cooperative step for the whole node; returns work done."""
        if not self.alive:
            return 0
        handled = 0
        for unit in self.units:
            handled += unit.run_once()
        self.frontend.poll_replies()
        return handled

    def kill(self) -> None:
        """Fail-stop the node (heartbeats cease; data stays on 'disk')."""
        self.alive = False

    def revive(self) -> None:
        """Bring a failed node back (rejoins groups on next pump).

        Units keep their on-disk data, so the sticky strategy can hand
        their old tasks back cheaply (stale recovery).
        """
        self.alive = True
