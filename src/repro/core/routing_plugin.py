"""The L4-switching routing plugin — the paper's §8 future work,
implemented: "By unifying routing and packet classification, we get
QoS-based routing/Level 4 switching for free."

A routing plugin instance bound to a flow filter stores a forwarding
decision (output interface + optional next hop).  When the routing gate
is in the gate list, the AIU's single classification resolves the route
together with every other per-flow binding, and the stock routing-table
lookup is skipped entirely for bound flows — routing on all six tuple
fields, not just the destination address.
"""

from __future__ import annotations

from typing import Optional

from ..net.routing import Route
from ..net.addresses import IPAddress, Prefix
from .plugin import Plugin, PluginContext, PluginInstance, TYPE_ROUTING, Verdict


class L4RouteInstance(PluginInstance):
    """Forwards bound flows to a fixed interface/next hop."""

    def __init__(
        self,
        plugin,
        interface: str = None,
        next_hop: Optional[str] = None,
        **config,
    ):
        super().__init__(plugin, **config)
        if interface is None:
            raise ValueError("L4 route instance needs an output interface")
        self.route = Route(
            prefix=Prefix.default(),
            next_hop=IPAddress.parse(next_hop) if next_hop else None,
            interface=interface,
        )

    def process(self, packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        packet.annotations["route"] = self.route
        return Verdict.CONTINUE


class L4BlackholeInstance(PluginInstance):
    """Policy routing's drop action (e.g. RFC1918 sources at the edge)."""

    def process(self, packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        return Verdict.DROP


class L4RoutingPlugin(Plugin):
    """Loadable L4-switching module for the routing gate."""

    plugin_type = TYPE_ROUTING
    name = "l4route"

    def create_instance(self, action: str = "forward", **config):
        if action == "forward":
            instance = L4RouteInstance(self, **config)
        elif action == "blackhole":
            instance = L4BlackholeInstance(self, **config)
        else:
            raise ValueError(f"unknown action {action!r}")
        self.instances.append(instance)
        return instance
