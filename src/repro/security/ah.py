"""The IP Authentication Header plugin (transport mode).

Outbound instances wrap the transport payload in an AH header whose ICV
covers the immutable IP fields plus the payload; inbound instances
verify the ICV, enforce the anti-replay window, and restore the inner
protocol.  Both directions are plugin instances bound to flows through
the security gate — the paper's "SEC2" walk in §3.2.
"""

from __future__ import annotations

import struct

from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_IP_SECURITY, Verdict
from ..net.headers import AHHeader, PROTO_AH
from ..net.packet import Packet
from ..sim.cost import Costs
from .sa import SADatabase, SecurityAssociation, SecurityError


def _authenticated_bytes(packet: Packet, next_header: int, payload: bytes) -> bytes:
    """The byte range the ICV covers: immutable pseudo-header + payload."""
    return (
        packet.src.to_bytes()
        + packet.dst.to_bytes()
        + struct.pack("!BBHH", next_header, 0, packet.src_port, packet.dst_port)
        + bytes(payload)    # may be a zero-copy memoryview (Packet.parse)
    )


class AhOutboundInstance(PluginInstance):
    """Adds an AH header to matching flows."""

    def __init__(self, plugin, sa: SecurityAssociation = None, **config):
        super().__init__(plugin, **config)
        if sa is None:
            raise SecurityError("AH outbound instance needs an SA")
        self.sa = sa

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        sequence = self.sa.next_sequence()
        inner_proto = packet.protocol
        icv_input = _authenticated_bytes(packet, inner_proto, packet.payload)
        ctx.cycles.charge(len(icv_input) * Costs.SW_AUTH_PER_BYTE, "sw_auth")
        header = AHHeader(
            next_header=inner_proto,
            spi=self.sa.spi,
            sequence=sequence,
            icv=self.sa.icv(icv_input),
        )
        packet.annotations["ah_inner_protocol"] = inner_proto
        packet.payload = header.serialize() + bytes(packet.payload)
        packet.protocol = PROTO_AH
        packet.fix = None  # the transformed packet is a different flow
        return Verdict.CONTINUE


class AhInboundInstance(PluginInstance):
    """Verifies and strips AH from matching flows."""

    def __init__(self, plugin, sadb: SADatabase = None, **config):
        super().__init__(plugin, **config)
        if sadb is None:
            raise SecurityError("AH inbound instance needs an SA database")
        self.sadb = sadb
        self.auth_failures = 0
        self.replays = 0

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if packet.protocol != PROTO_AH:
            return Verdict.CONTINUE
        try:
            header, consumed = AHHeader.parse(packet.payload)
            sa = self.sadb.get(header.spi)
        except (ValueError, SecurityError):
            self.auth_failures += 1
            return Verdict.DROP
        inner_payload = packet.payload[consumed:]
        icv_input = _authenticated_bytes(packet, header.next_header, inner_payload)
        ctx.cycles.charge(len(icv_input) * Costs.SW_AUTH_PER_BYTE, "sw_auth")
        if not sa.verify(icv_input, header.icv):
            self.auth_failures += 1
            return Verdict.DROP
        if not sa.replay.check_and_update(header.sequence):
            self.replays += 1
            return Verdict.DROP
        packet.protocol = header.next_header
        packet.payload = inner_payload
        packet.fix = None
        return Verdict.CONTINUE


class AhPlugin(Plugin):
    """Loadable AH module; config picks the direction."""

    plugin_type = TYPE_IP_SECURITY
    name = "ah"

    def create_instance(self, direction: str = "out", **config):
        if direction == "out":
            instance = AhOutboundInstance(self, **config)
        elif direction == "in":
            instance = AhInboundInstance(self, **config)
        else:
            raise SecurityError(f"unknown AH direction {direction!r}")
        self.instances.append(instance)
        return instance
