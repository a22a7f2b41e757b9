"""The statistics-gathering plugin the paper envisions for network
management (§2: "it is important to be able to quickly and easily change
the kinds of statistics being collected, and to do this without
incurring significant overhead on the data path").

Per-flow counters ride in the flow table's soft-state slot, so steady
state costs one pointer dereference and two additions per packet.
Collectors are swappable at run time via a plugin-specific message —
exactly the "change the kinds of statistics" requirement.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Tuple

from ..core.messages import Message
from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_STATISTICS, Verdict
from ..net.headers import protocol_name
from ..net.packet import Packet


def collect_volume(packet: Packet, record: Dict) -> None:
    """Default collector: per-flow packet and byte counts."""
    record["packets"] = record.get("packets", 0) + 1
    record["bytes"] = record.get("bytes", 0) + packet.length


def collect_sizes(packet: Packet, record: Dict) -> None:
    """Histogram of packet sizes in 256-byte bins."""
    bins = record.get("size_bins") or record.setdefault("size_bins", Counter())
    bins[packet.length // 256] += 1


def collect_protocols(packet: Packet, record: Dict) -> None:
    """Per-protocol packet counts."""
    protos = record.get("protocols") or record.setdefault("protocols", Counter())
    protos[protocol_name(packet.protocol)] += 1


COLLECTORS = {
    "volume": collect_volume,
    "sizes": collect_sizes,
    "protocols": collect_protocols,
}


class StatisticsInstance(PluginInstance):
    """Counts traffic on bound flows with a swappable collector."""

    def __init__(self, plugin, collector: str = "volume", **config):
        super().__init__(plugin, **config)
        self.collector_name = collector
        self._collector: Callable = COLLECTORS[collector]
        self._flows: Dict[Tuple, Dict] = {}

    # ------------------------------------------------------------------
    def set_collector(self, name: str) -> None:
        """Swap what is being collected, live."""
        self._collector = COLLECTORS[name]
        self.collector_name = name

    # ------------------------------------------------------------------
    def on_flow_created(self, flow, slot) -> None:
        key = flow.key      # a re-created flow re-adopts its tuple's record
        slot.private = self._flows.setdefault(
            (key.src, key.dst, key.protocol, key.sport, key.dport), {})

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if ctx.slot is not None:
            if ctx.slot.private is None:
                self.on_flow_created(ctx.flow, ctx.slot)
            record = ctx.slot.private
        else:
            key = packet.five_tuple()
            record = self._flows.get(key) or self._flows.setdefault(key, {})
        self._collector(packet, record)
        return Verdict.CONTINUE

    # ------------------------------------------------------------------
    def report(self) -> Dict[Tuple, Dict]:
        """Snapshot of all per-flow records."""
        return {key: dict(value) for key, value in self._flows.items()}

    def totals(self) -> Dict[str, int]:
        packets = sum(r.get("packets", 0) for r in self._flows.values())
        size = sum(r.get("bytes", 0) for r in self._flows.values())
        return {"flows": len(self._flows), "packets": packets, "bytes": size}


class StatisticsPlugin(Plugin):
    """Loadable statistics module."""

    plugin_type = TYPE_STATISTICS
    name = "stats"
    instance_class = StatisticsInstance

    def handle_custom(self, message: Message):
        if message.type == "set_collector":
            message.args["instance"].set_collector(message.args["collector"])
            return True
        if message.type == "report":
            return message.args["instance"].report()
        return super().handle_custom(message)
