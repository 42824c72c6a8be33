"""The messaging layer — an in-process Kafka stand-in (paper §3.3).

Railgun leans on a small set of Kafka guarantees, all implemented here:

- durable, offset-addressed partition logs that consumers can rewind
  ("allows a Railgun node to recover by rewinding the stream");
- keyed routing: messages with the same key always land in the same
  partition (entity locality, §4);
- consumer groups with at most one owner per (topic, partition) within
  a group, heartbeat-based failure detection, and generation numbers
  that fence zombies.

The layer computes no partition assignment. The engine is the only
assignment authority: it runs the Figure 7 sticky strategy
(:mod:`repro.engine.assignment`) across the active group and all
replica groups at once and installs the result in the
:class:`GroupCoordinator`.
"""

from repro.messaging.broker import MessageBus
from repro.messaging.consumer import Consumer, PartitionView
from repro.messaging.cursor import LogCursor
from repro.messaging.durable import DurableBus, DurableLog
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import Message, PartitionLog, TopicPartition
from repro.messaging.segments import FsyncPolicy, SegmentConfig, SegmentedLog

__all__ = [
    "Message",
    "PartitionLog",
    "TopicPartition",
    "MessageBus",
    "Consumer",
    "PartitionView",
    "GroupCoordinator",
    "FsyncPolicy",
    "SegmentConfig",
    "SegmentedLog",
    "DurableBus",
    "DurableLog",
    "LogCursor",
]
