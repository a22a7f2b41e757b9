"""Table 3 rows 2 and 4: the plugin-architecture kernels.

Row 2: the full gate set with *empty* plugins bound at all three gates
("We installed three gates which called empty plugins for the first
test"), 16 filters installed.

Row 4: "only one gate for packet scheduling in case DRR was turned on" —
a DRR plugin instance bound to all traffic on the output interface.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..aiu.filters import Filter
from ..core.gates import DEFAULT_GATES, GATE_PACKET_SCHEDULING
from ..core.plugin import Plugin, PluginInstance, TYPE_IP_SECURITY
from ..core.router import Router
from ..net.packet import Packet
from ..sim.cost import NULL_METER
from ..sched.drr import DrrPlugin
from ..workloads.filtersets import table3_filters


class EmptyPlugin(Plugin):
    """The measurement plugin: does nothing, costs one indirect call."""

    plugin_type = TYPE_IP_SECURITY
    name = "empty"
    instance_class = PluginInstance


class PluginKernel:
    """A Router wrapped with the Table 3 measurement interface."""

    def __init__(self, router: Router, name: str):
        self.router = router
        self.name = name

    def process(self, packet: Packet, cycles=NULL_METER, now: float = 0.0) -> str:
        return self.router.receive(packet, now=now, cycles=cycles)


def _install_background_filters(router: Router, filters: Sequence[Filter]) -> None:
    """The paper's '16 filters installed' — classifier state that does
    not match the measured flows, spread across the gates."""
    gates = list(router.gates)
    for index, flt in enumerate(filters):
        router.aiu.create_filter(gates[index % len(gates)], flt)


def build_plugin_kernel(
    filter_count: int = 16, gates: Sequence[str] = DEFAULT_GATES, use_flow_cache: bool = True
) -> PluginKernel:
    """Row 2: plugin architecture, empty plugins at three gates (the
    gate-count and flow-cache ablations vary ``gates`` and the cache)."""
    router = Router(name="plugin", gates=gates, flow_buckets=32768,
                    use_flow_cache=use_flow_cache)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    plugin = EmptyPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    for gate in router.gates:
        # Catch-all binding so every measured packet calls the empty
        # plugin at every gate, matching the paper's setup.
        plugin.register_instance(instance, "*, *, UDP", gate=gate)
    _install_background_filters(router, table3_filters(filter_count))
    return PluginKernel(router, "NetBSD with our Plugin Architecture")


def build_drr_plugin_kernel(filter_count: int = 16, quantum: int = 8192) -> PluginKernel:
    """Row 4: plugin architecture + the weighted DRR plugin."""
    router = Router(
        name="plugin-drr", gates=(GATE_PACKET_SCHEDULING,), flow_buckets=32768
    )
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    plugin = DrrPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance(interface="atm1", quantum=quantum)
    plugin.register_instance(instance, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)
    router.set_scheduler("atm1", instance)
    _install_background_filters(router, table3_filters(filter_count))
    return PluginKernel(router, "NetBSD with our Plugin Architecture and a DRR plugin")
