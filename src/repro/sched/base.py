"""Common scaffolding for packet-scheduler plugins.

A scheduler instance is a plugin instance whose ``process`` enqueues the
packet (returning ``Verdict.CONSUMED``) and that additionally exposes
``dequeue(now)`` for the router's transmit path.  Per-flow state (queues,
weights) lives in the flow table's per-gate soft-state slot, exactly as
§5.2 describes for the DRR plugin; per-filter state (a reservation's
weight, a class binding) lives in the filter record's opaque pointer,
``FilterRecord.private`` (§5.1.1), so it goes when the filter goes.

``pass_through(packet, ctx)`` (``None`` on every plugin instance; DRR
has one) is called by the generated loops, in ``process``'s fault
domain, instead of ``process`` when the router has no event loop, no
plugin is quarantined and the instance is the one the port's drain
would run on.  It returns True only if the instance is empty and
``dequeue`` would hand this packet straight back (no backlog, no tail
drop due), having made exactly the state changes of both; the loop then
transmits it as the drain would.  False leaves no state change that
``process`` would not make first: the loop hands the packet to
``Router._output``.  The metered walk never calls it.  A ``DrrInstance`` subclass overriding
``process``, ``enqueue`` or ``dequeue`` gets ``None`` at class creation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_PACKET_SCHEDULING, Verdict
from ..net.packet import Packet
from ..sim.cost import Costs

DEFAULT_QUEUE_LIMIT = 256
DEFAULT_WEIGHT = 1.0


class PacketQueue:
    """A bounded FIFO of packets with byte accounting (tail drop)."""

    __slots__ = ("limit", "packets", "bytes", "drops")

    def __init__(self, limit: int = DEFAULT_QUEUE_LIMIT):
        self.limit = limit
        self.packets: Deque[Packet] = deque()
        self.bytes = 0
        self.drops = 0

    def push(self, packet: Packet) -> bool:
        """Append; returns False (and counts a drop) when full."""
        if len(self.packets) >= self.limit:
            self.drops += 1
            return False
        self.packets.append(packet)
        self.bytes += packet.length
        return True

    def pop(self) -> Optional[Packet]:
        if not self.packets:
            return None
        packet = self.packets.popleft()
        self.bytes -= packet.length
        return packet

    def head(self) -> Optional[Packet]:
        return self.packets[0] if self.packets else None

    def __len__(self) -> int:
        return len(self.packets)

    def __bool__(self) -> bool:
        return bool(self.packets)


class SchedulerInstance(PluginInstance):
    """Base class for scheduler plugin instances.

    Subclasses implement :meth:`enqueue` and :meth:`dequeue`; ``process``
    adapts them to the gate protocol and charges the cost model.
    """

    enqueue_cost = Costs.DRR_ENQUEUE
    dequeue_cost = Costs.DRR_DEQUEUE

    def __init__(self, plugin: Plugin, **config):
        super().__init__(plugin, **config)
        self.interface: Optional[str] = config.get("interface")
        self.packets_queued = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0

    # -- gate protocol ---------------------------------------------------
    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1     # PluginInstance.process, minus its frame
        ctx.cycles.charge(self.enqueue_cost, "sched_enqueue")
        if self.enqueue(packet, ctx):
            self.packets_queued += 1
            return Verdict.CONSUMED
        self.packets_dropped += 1
        return Verdict.DROP

    # -- scheduler contract ------------------------------------------------
    def enqueue(self, packet: Packet, ctx: PluginContext) -> bool:
        """Queue the packet; False means tail-dropped."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pick the next packet to transmit, or None when idle."""
        raise NotImplementedError

    def backlog(self) -> int:
        """Packets currently queued."""
        raise NotImplementedError

    # -- shared accounting ---------------------------------------------
    def _account_sent(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.length

    # -- telemetry (docs/OBSERVABILITY.md) -----------------------------
    def snapshot(self) -> dict:
        """JSON-able counters for the telemetry registry's scheduler
        collector and ``pmgr show``; kernels extend with queue detail
        via :meth:`queue_snapshot`."""
        return {
            "plugin": self.plugin.name,
            "instance": self.name,
            "interface": self.interface,
            "packets_queued": self.packets_queued,
            "packets_sent": self.packets_sent,
            "packets_dropped": self.packets_dropped,
            "bytes_sent": self.bytes_sent,
            "backlog": self.backlog(),
            "queues": self.queue_snapshot(),
        }

    def queue_snapshot(self) -> list:
        """Per-queue depth detail; the base class has no queue structure
        to report, kernels override."""
        return []


class SchedulerPlugin(Plugin):
    """Base plugin class for packet schedulers."""

    plugin_type = TYPE_PACKET_SCHEDULING
    instance_class = SchedulerInstance


class WeightedSchedulerInstance(SchedulerInstance):
    """DRR and SCFQ: a flow's weight is its filter record's ``private``
    (a reservation), else ``default_weight``."""

    def __init__(self, plugin: Plugin, **config):
        super().__init__(plugin, **config)
        self.default_weight = config.get("default_weight", DEFAULT_WEIGHT)
        self.queue_limit = config.get("limit", DEFAULT_QUEUE_LIMIT)

    def set_weight(self, filter_record, weight: float) -> None:
        """Attach a weight to all flows derived from a filter record."""
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        filter_record.private = float(weight)

    def reserve(self, filter_record, rate_bps: float) -> None:
        """Reserve bandwidth: weight in Mbit/s units (share ∝ weight).

        The unit keeps quantum × weight at packet scale — per round a
        1 Mbit/s reservation earns one quantum — so DRR rounds keep
        cycling and a large reservation cannot monopolize the link
        between rounds.
        """
        if rate_bps <= 0:
            raise ConfigurationError("reserved rate must be positive")
        self.set_weight(filter_record, rate_bps / 1_000_000.0)

    def weight_for(self, filter_record) -> float:
        weight = getattr(filter_record, "private", None)
        return self.default_weight if weight is None else weight


class ClassSchedulerInstance(SchedulerInstance):
    """CBQ and H-FSC: a flow's class is its filter record's ``private``
    (set by :meth:`attach_filter`), else ``default_class``.  Subclasses
    build ``_classes`` (name -> class, ``root`` first)."""

    def get_class(self, name: str):
        try:
            return self._classes[name]
        except KeyError as exc:
            raise ConfigurationError(f"unknown {self.plugin.name} class {name!r}") from exc

    def attach_filter(self, filter_record, class_name: str) -> None:
        """Route flows derived from ``filter_record`` to a leaf class."""
        cls = self.get_class(class_name)
        if not cls.is_leaf:
            raise ConfigurationError(f"{class_name!r} is not a leaf class")
        filter_record.private = cls

    def on_flow_created(self, flow, slot) -> None:
        cls = getattr(slot.filter_record, "private", None)
        slot.private = self.default_class if cls is None else cls


class WeightedSchedulerPlugin(SchedulerPlugin):
    """Answers the ``set_weight`` and ``reserve`` control messages."""

    def handle_custom(self, message: Message):
        args = message.args
        if message.type == "set_weight":
            args["instance"].set_weight(args["record"], args["weight"])
            return True
        if message.type == "reserve":
            args["instance"].reserve(args["record"], args["rate_bps"])
            return True
        return super().handle_custom(message)
