"""The docs/PLUGIN_AUTHORING.md worked example, executed verbatim.

If this test breaks, the guide is lying to third-party plugin authors.
"""

from types import SimpleNamespace

import pytest

from repro.core import (
    GATE_IP_OPTIONS,
    Plugin,
    PluginInstance,
    Router,
    TYPE_IP_OPTIONS,
    Verdict,
)
from repro.core.messages import Message
from repro.net.headers import IPv4Header
from repro.net.packet import Packet, make_udp


# --- the guide's §2 example, verbatim --------------------------------------
class DscpMarkInstance(PluginInstance):
    """Sets the DSCP/traffic-class field on bound flows."""

    def __init__(self, plugin, dscp=0, **config):
        super().__init__(plugin, **config)
        if not 0 <= dscp <= 63:
            raise ValueError("DSCP is a 6-bit value")
        self.dscp = dscp
        self.marked = 0

    def process(self, packet, ctx):
        self.packets_processed += 1
        packet.tos = self.dscp << 2
        self.marked += 1
        return Verdict.CONTINUE


class DscpMarkPlugin(Plugin):
    plugin_type = TYPE_IP_OPTIONS
    name = "dscpmark"
    instance_class = DscpMarkInstance

    # the guide's §5 example
    def handle_custom(self, message: Message):
        if message.type == "set_dscp":
            message.args["instance"].dscp = message.args["dscp"]
            return True
        return super().handle_custom(message)


@pytest.fixture
def router():
    r = Router(flow_buckets=64)
    r.add_interface("atm0", prefix="10.0.0.0/8")
    r.add_interface("atm1", prefix="20.0.0.0/8")
    return r


class TestGuideExample:
    def test_load_bind_and_mark(self, router):
        # The guide's §3 sequence.
        router.pcu.load(DscpMarkPlugin())
        plugin = router.pcu.get("dscpmark")
        gold = plugin.create_instance(dscp=46)
        plugin.register_instance(gold, "10.0.0.1, *, UDP")
        pkt = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, iif="atm0")
        router.receive(pkt)
        assert pkt.tos == 46 << 2
        assert gold.marked == gold.packets_processed == 1
        # Unbound flows are untouched.
        other = make_udp("10.0.0.2", "20.0.0.1", 5000, 53, iif="atm0")
        router.receive(other)
        assert other.tos == 0

    def test_wire_to_wire_emits_the_mark(self, router):
        """The example writes ``packet.tos`` and nothing else — no flag,
        no ``fix = None`` — and a datagram that came off the wire still
        leaves with the new TOS under a valid checksum."""
        router.pcu.load(DscpMarkPlugin())
        plugin = router.pcu.get("dscpmark")
        plugin.register_instance(plugin.create_instance(dscp=46), "10.0.0.1, *, UDP")
        sent = []
        router.interface("atm1").link = SimpleNamespace(
            carry=lambda sender, packet, departure: sent.append(packet))
        wire = make_udp("10.0.0.1", "20.0.0.1", 5000, 53, payload_size=8).serialize()
        assert router.receive_batch([Packet.parse(wire, "atm0")]) == ["forwarded"]
        header = IPv4Header.parse(sent[0].serialize())      # verifies the checksum
        assert (header.tos, header.ttl) == (46 << 2, 63)

    def test_multiple_instances_coexist(self, router):
        router.pcu.load(DscpMarkPlugin())
        plugin = router.pcu.get("dscpmark")
        gold = plugin.create_instance(dscp=46)
        bleach = plugin.create_instance(dscp=0)
        plugin.register_instance(gold, "10.0.0.1, *, UDP", priority=1)
        plugin.register_instance(bleach, "*, *", priority=0)
        voice = make_udp("10.0.0.1", "20.0.0.1", 1, 2, tos=99, iif="atm0")
        junk = make_udp("10.9.9.9", "20.0.0.1", 1, 2, tos=99, iif="atm0")
        router.receive(voice)
        router.receive(junk)
        assert voice.tos == 46 << 2
        assert junk.tos == 0

    def test_custom_message(self, router):
        router.pcu.load(DscpMarkPlugin())
        plugin = router.pcu.get("dscpmark")
        gold = plugin.create_instance(dscp=46)
        plugin.callback(Message("set_dscp", {"instance": gold, "dscp": 40}))
        assert gold.dscp == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            DscpMarkPlugin().create_instance(dscp=64)

    def test_default_gate_is_options(self):
        assert DscpMarkPlugin().default_gate() == GATE_IP_OPTIONS

    def test_example_lints_clean(self):
        """The §2 template passes the §8 lint, RP211 included."""
        from repro.analysis import lint_plugin

        assert lint_plugin(DscpMarkPlugin) == []
