"""The weighted Deficit Round Robin plugin (§6.1).

"Since our architecture already offers mechanisms to store per-flow
information in the flow table records, it was straightforward to add a
queue per flow which guarantees perfectly fair queuing for all flows.
In order to allow bandwidth reservations, we have implemented a weighted
form of DRR which assigns weights to queues."

Per-flow queues are hung off the flow table's per-gate soft-state slot
(``ctx.slot.private``); packets arriving outside a flow context (e.g.
direct ``set_scheduler`` use) fall back to an internal five-tuple map.

Weights:

* best-effort flows share a fixed default weight;
* reservations attach a weight to a *filter record* (hard state, §5.1.1:
  its ``private`` pointer); every flow derived from that filter inherits
  it.  Weights are expressed in rate units (Mbit/s) so DRR's share ∝
  weight gives the reserved flow its configured fraction ("dynamically
  recalculated for reserved flows", §6.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..aiu.records import overrides
from ..core.errors import ConfigurationError
from ..core.plugin import PluginContext
from ..net.packet import Packet
from .base import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WEIGHT,
    PacketQueue,
    WeightedSchedulerInstance,
    WeightedSchedulerPlugin,
)

DEFAULT_QUANTUM = 1500          # bytes per weight unit per round


class DrrFlowQueue:
    """One flow's queue + deficit counter (the slot.private object)."""

    __slots__ = ("queue", "deficit", "weight", "active", "needs_quantum", "label")

    def __init__(self, weight: float = DEFAULT_WEIGHT, limit: int = DEFAULT_QUEUE_LIMIT,
                 label=None):
        self.queue = PacketQueue(limit)
        self.deficit = 0.0
        self.weight = weight
        self.active = False
        self.needs_quantum = True   # gets its quantum on the next round visit
        self.label = label

    def __repr__(self) -> str:
        return f"DrrFlowQueue({self.label}, w={self.weight}, {len(self.queue)} pkts)"


class DrrInstance(WeightedSchedulerInstance):
    """Weighted DRR over per-flow queues."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # pass_through stands for DRR's own process + dequeue.
        if any(overrides(cls, name, DrrInstance) for name in ("process", "enqueue", "dequeue")):
            cls.pass_through = None

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.quantum = config.get("quantum", DEFAULT_QUANTUM)
        if self.quantum <= 0:
            raise ConfigurationError("DRR quantum must be positive")
        self._active: Deque[DrrFlowQueue] = deque()
        # Fallback per-flow map for packets without a flow-table context.
        self._anonymous: Dict[Tuple, DrrFlowQueue] = {}
        self._backlog = 0

    # ------------------------------------------------------------------
    # Flow-state plumbing
    # ------------------------------------------------------------------
    def on_flow_created(self, flow, slot) -> None:
        slot.private = DrrFlowQueue(
            weight=self.weight_for(slot.filter_record),
            limit=self.queue_limit,
            label=flow.key,
        )

    def on_flow_removed(self, flow, slot) -> None:
        queue: Optional[DrrFlowQueue] = slot.private
        if queue is None:
            return
        # Drain any still-queued packets of an evicted flow.
        while queue.queue:
            queue.queue.pop()
            self._backlog -= 1
        if queue.active:
            queue.active = False
            self._active.remove(queue)
        slot.private = None

    def _queue_for(self, packet: Packet, ctx: PluginContext) -> DrrFlowQueue:
        if ctx.slot is not None:
            if ctx.slot.private is None:
                # Flow classified before this instance was bound.
                self.on_flow_created(ctx.flow, ctx.slot)
            return ctx.slot.private
        key = packet.five_tuple()
        queue = self._anonymous.get(key)
        if queue is None:
            queue = DrrFlowQueue(self.default_weight, self.queue_limit, label=key)
            self._anonymous[key] = queue
        return queue

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, ctx: PluginContext) -> bool:
        """One frame: ``PacketQueue.push`` inlined, ``_queue_for`` only for a new slot."""
        slot = ctx.slot
        queue = slot.private if slot is not None else None
        if queue is None:
            queue = self._queue_for(packet, ctx)
        fifo = queue.queue
        packets = fifo.packets
        if len(packets) >= fifo.limit:
            fifo.drops += 1
            return False
        size = packet._length
        if size < 0:
            size = packet.length
        packets.append(packet)
        fifo.bytes += size
        self._backlog += 1
        if not queue.active:
            queue.active = True
            queue.deficit = 0.0
            queue.needs_quantum = True
            self._active.append(queue)
        return True

    def pass_through(self, packet: Packet, ctx: PluginContext) -> bool:
        """``process`` + ``dequeue`` of a packet that finds this DRR
        empty (sched/base.py): the flow's queue is left as an emptied
        one is (inactive, deficit 0, a quantum owed)."""
        if self._backlog:
            return False
        slot = ctx.slot
        queue = slot.private if slot is not None else None
        if queue is None:
            queue = self._queue_for(packet, ctx)
        if queue.queue.limit < 1:
            return False
        size = packet._length
        if size < 0:
            size = packet.length
        self.packets_processed += 1
        self.packets_queued += 1
        self.packets_sent += 1
        self.bytes_sent += size
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Standard DRR: one quantum per round visit, serve while the
        deficit lasts, then rotate to the tail.  The head's length is
        read once and carried through the pop, the deficit and the sent
        accounting (``PacketQueue.pop`` / ``_account_sent``, inlined)."""
        active = self._active
        while active:
            queue = active[0]
            fifo = queue.queue
            packets = fifo.packets
            packet = None
            if packets:
                if queue.needs_quantum:
                    queue.deficit += self.quantum * queue.weight
                    queue.needs_quantum = False
                size = packets[0]._length
                if size < 0:
                    size = packets[0].length
                if queue.deficit < size:
                    # Deficit exhausted: back of the round-robin list; the
                    # next visit grants a fresh quantum.
                    queue.needs_quantum = True
                    active.rotate(-1)
                    continue
                packet = packets.popleft()
                fifo.bytes -= size
                queue.deficit -= size
                self._backlog -= 1
                self.packets_sent += 1
                self.bytes_sent += size
            if not packets:
                queue.active = False
                queue.deficit = 0.0
                queue.needs_quantum = True
                active.popleft()
            if packet is not None:
                return packet
        return None

    def backlog(self) -> int:
        return self._backlog

    def active_flows(self) -> int:
        return len(self._active)

    def queue_snapshot(self) -> list:
        """Per-active-flow queue detail for telemetry / pmgr show."""
        return [
            {
                "flow": str(queue.label),
                "weight": queue.weight,
                "depth": len(queue.queue),
                "bytes": queue.queue.bytes,
                "drops": queue.queue.drops,
                "deficit": queue.deficit,
            }
            for queue in self._active
        ]


class DrrPlugin(WeightedSchedulerPlugin):
    """The weighted DRR loadable module ("less than 600 lines of C")."""

    name = "drr"
    instance_class = DrrInstance
