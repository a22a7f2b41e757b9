"""IPv6 option-processing plugins (§4: "a dozen lines of code for an IP
option plugin" is the simple end of the plugin spectrum).

* :class:`HopByHopInstance` walks the hop-by-hop TLVs and applies the
  RFC 2460 unknown-option action bits (skip / drop / drop+ICMP).
* :class:`RouterAlertInstance` implements RFC 2711: packets carrying the
  Router Alert option are punted to a registered control handler (how
  RSVP sees transit PATH messages).
* :class:`JumboInstance` validates RFC 2675 jumbograms.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_IP_OPTIONS, Verdict
from ..net.headers import OPT_JUMBO, OPT_ROUTER_ALERT
from ..net.packet import Packet

#: RFC 2460 §4.2 action bits for unrecognized options.
ACTION_SKIP = 0
ACTION_DROP = 1
ACTION_DROP_ICMP = 2
ACTION_DROP_ICMP_NOT_MCAST = 3

KNOWN_OPTIONS = frozenset({OPT_ROUTER_ALERT, OPT_JUMBO})


class HopByHopInstance(PluginInstance):
    """Generic hop-by-hop option walker."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.unknown_skipped = 0
        self.dropped = 0
        self.icmp_sent = 0        # modelled: we count instead of emitting

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        for option in packet.hop_options:
            if option.opt_type in KNOWN_OPTIONS:
                continue
            action = option.action_bits
            if action == ACTION_SKIP:
                self.unknown_skipped += 1
                continue
            self.dropped += 1
            if action in (ACTION_DROP_ICMP, ACTION_DROP_ICMP_NOT_MCAST):
                self.icmp_sent += 1
            return Verdict.DROP
        return Verdict.CONTINUE


class RouterAlertInstance(PluginInstance):
    """RFC 2711 Router Alert: punt flagged packets to a control handler."""

    def __init__(self, plugin, handler: Optional[Callable] = None, **config):
        super().__init__(plugin, **config)
        self.handler = handler
        self.alerts = 0

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        for option in packet.hop_options:
            if option.opt_type == OPT_ROUTER_ALERT:
                self.alerts += 1
                packet.annotations["router_alert"] = True
                if self.handler is not None:
                    self.handler(packet, ctx)
                break
        return Verdict.CONTINUE


class JumboInstance(PluginInstance):
    """RFC 2675 jumbogram validation."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.jumbograms = 0
        self.malformed = 0

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        for option in packet.hop_options:
            if option.opt_type != OPT_JUMBO:
                continue
            if len(option.data) != 4:
                self.malformed += 1
                return Verdict.DROP
            (jumbo_len,) = struct.unpack("!I", option.data)
            if jumbo_len <= 65535:
                self.malformed += 1
                return Verdict.DROP
            self.jumbograms += 1
            packet.annotations["jumbo_length"] = jumbo_len
        return Verdict.CONTINUE


class HopByHopPlugin(Plugin):
    plugin_type = TYPE_IP_OPTIONS
    name = "hopbyhop"
    instance_class = HopByHopInstance


class RouterAlertPlugin(Plugin):
    plugin_type = TYPE_IP_OPTIONS
    name = "routeralert"
    instance_class = RouterAlertInstance


class JumboPlugin(Plugin):
    plugin_type = TYPE_IP_OPTIONS
    name = "jumbo"
    instance_class = JumboInstance
