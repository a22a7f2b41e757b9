"""The TCP congestion-backoff monitoring plugin — one of the paper's
envisioned plugin types (§4: "a plugin monitoring TCP congestion backoff
behaviour").

Per-flow soft state tracks the highest sequence number seen; a segment
at or below the high-water mark is a retransmission.  The instance
classifies flows as *responsive* (retransmission rate decays after
loss events, i.e. sending slows) or *unresponsive* — the information a
router needs to police flows that ignore congestion signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.messages import Message
from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_MONITOR, Verdict
from ..net.headers import PROTO_TCP
from ..net.packet import Packet


@dataclass
class TcpFlowState:
    """Per-flow monitoring soft state (lives in the flow-table slot)."""

    highest_seq: int = -1
    segments: int = 0
    retransmissions: int = 0
    bytes_seen: int = 0
    # (time, inter-arrival) samples around retransmissions, to observe
    # whether the sender actually backed off.
    last_arrival: float = -1.0
    gap_before_loss: float = 0.0
    gap_after_loss: float = 0.0
    backoff_events: int = 0

    @property
    def retransmission_rate(self) -> float:
        if self.segments == 0:
            return 0.0
        return self.retransmissions / self.segments

    @property
    def backed_off(self) -> bool:
        """True if inter-arrival gaps grew after retransmissions."""
        if self.retransmissions == 0:
            return True  # nothing to back off from
        return self.gap_after_loss > self.gap_before_loss * 1.5


class TcpMonitorInstance(PluginInstance):
    """Watches TCP flows for retransmissions and backoff behaviour."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self._flows: Dict[Tuple, TcpFlowState] = {}
        self.non_tcp_ignored = 0

    def _state_for(self, packet: Packet, ctx: PluginContext) -> TcpFlowState:
        slot = ctx.slot
        if slot is not None and isinstance(slot.private, TcpFlowState):
            return slot.private
        key = packet.five_tuple()
        state = self._flows.get(key) or self._flows.setdefault(key, TcpFlowState())
        if slot is not None:
            slot.private = state    # a re-created flow re-adopts its history
        return state

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if packet.protocol != PROTO_TCP:
            self.non_tcp_ignored += 1
            return Verdict.CONTINUE
        state = self._state_for(packet, ctx)
        seq = packet.annotations.get("tcp_seq", 0)
        state.segments += 1
        state.bytes_seen += packet.length
        gap = 0.0
        if state.last_arrival >= 0:
            gap = ctx.now - state.last_arrival
        state.last_arrival = ctx.now
        if seq <= state.highest_seq:
            state.retransmissions += 1
            state.gap_before_loss = gap or state.gap_before_loss
            state.backoff_events += 1
        else:
            if state.backoff_events and gap:
                state.gap_after_loss = max(state.gap_after_loss, gap)
            state.highest_seq = seq
        return Verdict.CONTINUE

    # ------------------------------------------------------------------
    def report(self) -> Dict[Tuple, TcpFlowState]:
        return dict(self._flows)

    def unresponsive_flows(self) -> List[Tuple]:
        """Flows that keep retransmitting without slowing down."""
        return [
            key
            for key, state in self._flows.items()
            if state.retransmission_rate > 0.05 and not state.backed_off
        ]


class TcpMonitorPlugin(Plugin):
    """Loadable TCP-backoff monitor module."""

    plugin_type = TYPE_MONITOR
    name = "tcpmon"
    instance_class = TcpMonitorInstance

    def handle_custom(self, message: Message):
        if message.type == "report":
            return message.args["instance"].report()
        if message.type == "unresponsive":
            return message.args["instance"].unresponsive_flows()
        return super().handle_custom(message)
