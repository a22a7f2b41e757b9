"""The ESP plugin — tunnel-mode encryption for VPNs (§2's motivating
"security algorithms (e.g. to implement virtual private networks)").

An outbound instance encrypts the *entire* inner datagram and wraps it
in an ESP header addressed between the tunnel endpoints; the inbound
instance (at the remote gateway) authenticates, decrypts, reconstructs
the inner packet from real wire bytes, and re-injects it into the IP
core — the BSD-style reprocessing loop.
"""

from __future__ import annotations

from ..core.plugin import Plugin, PluginContext, PluginInstance, TYPE_IP_SECURITY, Verdict
from ..net.addresses import IPAddress
from ..net.headers import ESPHeader, PROTO_ESP
from ..net.packet import Packet
from ..sim.cost import Costs
from .sa import ICV_BYTES, SADatabase, SecurityAssociation, SecurityError


class EspOutboundInstance(PluginInstance):
    """Encrypt-and-tunnel for matching flows."""

    def __init__(self, plugin, sa: SecurityAssociation = None, **config):
        super().__init__(plugin, **config)
        if sa is None:
            raise SecurityError("ESP outbound instance needs an SA")
        if sa.mode != "tunnel":
            raise SecurityError("this ESP implementation is tunnel-mode only")
        if sa.encryption_key is None:
            raise SecurityError("ESP SA needs an encryption key")
        self.sa = sa
        # Parsed once; every tunnelled packet shares the (immutable) pair.
        self._tunnel_src = IPAddress.parse(sa.tunnel_src)
        self._tunnel_dst = IPAddress.parse(sa.tunnel_dst)

    def _charge_crypto(self, ctx: PluginContext, nbytes: int) -> None:
        """Cost-model hook: software cipher+MAC work is per byte.  The
        hardware-offload subclasses override this with a fixed driver
        cost (§3: plugins as drivers for crypto engines)."""
        ctx.cycles.charge(
            nbytes * (Costs.SW_CRYPTO_PER_BYTE + Costs.SW_AUTH_PER_BYTE),
            "sw_crypto",
        )

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        sequence = self.sa.next_sequence()
        inner = packet.serialize()
        self._charge_crypto(ctx, len(inner))
        ciphertext = self.sa.encrypt(sequence, inner)
        body = ciphertext + self.sa.icv(
            self.sa.spi.to_bytes(4, "big") + sequence.to_bytes(4, "big") + ciphertext
        )
        header = ESPHeader(spi=self.sa.spi, sequence=sequence, body=body)
        packet.src = self._tunnel_src
        packet.dst = self._tunnel_dst
        packet.protocol = PROTO_ESP
        packet.src_port = 0
        packet.dst_port = 0
        packet.hop_options = []
        packet.payload = header.serialize()
        packet.ttl = 64
        packet.fix = None
        return Verdict.CONTINUE


class EspInboundInstance(PluginInstance):
    """Tunnel tail: authenticate, decrypt, decapsulate, re-inject."""

    def __init__(self, plugin, sadb: SADatabase = None, **config):
        super().__init__(plugin, **config)
        if sadb is None:
            raise SecurityError("ESP inbound instance needs an SA database")
        self.sadb = sadb
        self.auth_failures = 0
        self.replays = 0
        self.decapsulated = 0

    # Decrypt-and-verify costs what encrypt-and-sign does, per byte.
    _charge_crypto = EspOutboundInstance._charge_crypto

    def process(self, packet: Packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if packet.protocol != PROTO_ESP:
            return Verdict.CONTINUE
        try:
            header = ESPHeader.parse(packet.payload)
            sa = self.sadb.get(header.spi)
        except (ValueError, SecurityError):
            self.auth_failures += 1
            return Verdict.DROP
        if len(header.body) < ICV_BYTES:
            self.auth_failures += 1
            return Verdict.DROP
        self._charge_crypto(ctx, len(header.body))
        ciphertext, icv = header.body[:-ICV_BYTES], header.body[-ICV_BYTES:]
        auth_input = (
            header.spi.to_bytes(4, "big")
            + header.sequence.to_bytes(4, "big")
            + ciphertext
        )
        if not sa.verify(auth_input, icv):
            self.auth_failures += 1
            return Verdict.DROP
        if not sa.replay.check_and_update(header.sequence):
            self.replays += 1
            return Verdict.DROP
        try:
            inner = Packet.parse(sa.decrypt(header.sequence, ciphertext), iif=packet.iif)
        except ValueError:
            self.auth_failures += 1
            return Verdict.DROP
        self.decapsulated += 1
        if ctx.router is not None:
            # Re-inject the inner datagram into the IP core (reprocessing).
            ctx.router.receive(inner, now=ctx.now)
            return Verdict.CONSUMED
        # No router in context (unit tests): substitute in place.
        packet.src = inner.src
        packet.dst = inner.dst
        packet.protocol = inner.protocol
        packet.src_port = inner.src_port
        packet.dst_port = inner.dst_port
        packet.payload = inner.payload
        packet.ttl = inner.ttl
        packet.fix = None
        return Verdict.CONTINUE


class EspPlugin(Plugin):
    """Loadable ESP module; config picks the direction."""

    plugin_type = TYPE_IP_SECURITY
    name = "esp"

    def create_instance(self, direction: str = "out", **config):
        if direction == "out":
            instance = EspOutboundInstance(self, **config)
        elif direction == "in":
            instance = EspInboundInstance(self, **config)
        else:
            raise SecurityError(f"unknown ESP direction {direction!r}")
        self.instances.append(instance)
        return instance
