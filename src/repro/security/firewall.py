"""A firewall plugin — one of the paper's envisioned plugin types (§4)
and a headline application ("our framework is also very well suited ...
to security devices like Firewalls").

The AIU already does the hard part (classifying packets to flows), so a
firewall instance is trivially an action: bind an ``allow`` instance to
permitted flows and a ``deny`` instance (or a default-deny filter) to the
rest.
"""

from __future__ import annotations

from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_FIREWALL, Verdict
from ..net.packet import Packet

ACTIONS = ("allow", "deny")


class FirewallInstance(PluginInstance):
    """Applies a fixed allow/deny action to bound flows."""

    def __init__(self, plugin, action: str = "deny", **config):
        super().__init__(plugin, **config)
        if action not in ACTIONS:
            raise ValueError(f"unknown firewall action {action!r}")
        self.action = action
        self.allowed = 0
        self.denied = 0

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if self.action == "allow":
            self.allowed += 1
            return Verdict.CONTINUE
        self.denied += 1
        return Verdict.DROP


class FirewallPlugin(Plugin):
    """Loadable firewall module."""

    plugin_type = TYPE_FIREWALL
    name = "firewall"
    instance_class = FirewallInstance
