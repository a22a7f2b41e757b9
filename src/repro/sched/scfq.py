"""Self-Clocked Fair Queueing (SCFQ, Golestani 1994) — a finish-tag
fair queuer complementing DRR.

The paper's framework argument is that scheduler implementations are
"fluid" and should be swappable plugins; SCFQ demonstrates exactly that:
a third fair-queueing discipline that drops into the same scheduling
gate, same per-flow soft state, same weight/reservation interface as
DRR — different algorithm (per-packet virtual finish times instead of
per-round deficits), so it also gives benchmarks a timestamp-based
comparison point.

Each packet gets a finish tag ``F = max(v, F_flow) + L / w`` where ``v``
is the tag of the packet last chosen for service; the smallest tag is
served first.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Optional, Tuple

from ..core.plugin import PluginContext
from ..net.packet import Packet
from .base import DEFAULT_WEIGHT, WeightedSchedulerInstance, WeightedSchedulerPlugin


class ScfqFlowState:
    """Per-flow finish-tag state (the slot.private object)."""

    __slots__ = ("weight", "last_finish", "queued", "label")

    def __init__(self, weight: float = DEFAULT_WEIGHT, label=None):
        self.weight = weight
        self.last_finish = 0.0
        self.queued = 0
        self.label = label

    def __repr__(self) -> str:
        return f"ScfqFlowState({self.label}, w={self.weight}, queued={self.queued})"


class ScfqInstance(WeightedSchedulerInstance):
    """SCFQ over per-flow finish tags, served from a heap."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self._heap: list = []               # (finish_tag, seq, packet, state)
        self._seq = itertools.count()
        self._virtual_time = 0.0            # tag of the packet in service
        self._anonymous: Dict[Tuple, ScfqFlowState] = {}
        self._backlog = 0

    # ------------------------------------------------------------------
    # Flow state plumbing
    # ------------------------------------------------------------------
    def on_flow_created(self, flow, slot) -> None:
        slot.private = ScfqFlowState(
            weight=self.weight_for(slot.filter_record), label=flow.key
        )

    def on_flow_removed(self, flow, slot) -> None:
        # Queued packets of an evicted flow stay in the heap and drain
        # normally; only the soft state goes.
        slot.private = None

    def _state_for(self, packet: Packet, ctx: PluginContext) -> ScfqFlowState:
        if ctx.slot is not None:
            if not isinstance(ctx.slot.private, ScfqFlowState):
                self.on_flow_created(ctx.flow, ctx.slot)
            return ctx.slot.private
        key = packet.five_tuple()
        state = self._anonymous.get(key)
        if state is None:
            state = ScfqFlowState(self.default_weight, label=key)
            self._anonymous[key] = state
        return state

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, ctx: PluginContext) -> bool:
        state = self._state_for(packet, ctx)
        if state.queued >= self.queue_limit:
            return False
        start = max(self._virtual_time, state.last_finish)
        finish = start + packet.length / state.weight
        state.last_finish = finish
        state.queued += 1
        heapq.heappush(self._heap, (finish, next(self._seq), packet, state))
        self._backlog += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        finish, _seq, packet, state = heapq.heappop(self._heap)
        self._virtual_time = finish          # the self-clocking step
        state.queued -= 1
        if state.queued == 0:
            # An idle flow restarts from the system virtual time when it
            # returns (the max() in enqueue), so clear its stale tag.
            state.last_finish = 0.0
        self._backlog -= 1
        if self._backlog == 0:
            self._virtual_time = 0.0         # system idle: clock reset
        self._account_sent(packet)
        return packet

    def backlog(self) -> int:
        return self._backlog


class ScfqPlugin(WeightedSchedulerPlugin):
    """The SCFQ loadable module."""

    name = "scfq"
    instance_class = ScfqInstance
