"""The control path drops flows one way: ``FlowTable.purge``, once per verb.

``create_filter`` purges with a predicate built from the new filter
(``_claimed_by``), which must agree with ``Filter.matches`` — the
predicate ``LinearFilterTable`` classifies with — on every flow.  The
instance verbs (``deregister_instance``, ``purge_instance``, unload)
remove any number of filter records and still walk the flow table once.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiu.aiu import _claimed_by
from repro.aiu.filters import Filter, PortSpec, flow_key_of
from repro.aiu.flow_table import FlowTable
from repro.core import GATE_IP_SECURITY, Plugin, PluginInstance, Router, TYPE_IP_SECURITY
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress, Prefix
from repro.net.packet import Packet, make_udp

IIFS = (None, "atm0", "atm1")
PORTS = st.one_of(st.sampled_from((0, 1, 53, 65534, 65535)), st.integers(0, 65535))


@st.composite
def _packet_and_filter(draw):
    width = draw(st.sampled_from((IPV4_WIDTH, IPV6_WIDTH)))
    addr = st.integers(0, (1 << width) - 1)
    src, dst = draw(addr), draw(addr)
    packet = Packet(
        src=IPAddress(src, width),
        dst=IPAddress(dst, width),
        protocol=draw(st.sampled_from((6, 17))),
        src_port=draw(PORTS),
        dst_port=draw(PORTS),
        iif=draw(st.sampled_from(IIFS)),
    )
    # The filter's family is usually the packet's, sometimes the other
    # one, sometimes absent (both addresses wildcards).
    family = draw(st.sampled_from(("same", "same", "other", "none")))
    fwidth = width if family != "other" else IPV4_WIDTH + IPV6_WIDTH - width

    def prefix(near):
        if family == "none":
            return Prefix.default(fwidth)
        # Near the packet's address (so matches are common) or anywhere;
        # wildcard, host or any length between.
        base = near if fwidth == width and draw(st.booleans()) else draw(
            st.integers(0, (1 << fwidth) - 1))
        length = draw(st.one_of(st.sampled_from((0, fwidth)), st.integers(0, fwidth)))
        return Prefix(base, length, fwidth)

    def ports(actual):
        kind = draw(st.sampled_from(("wild", "exact", "range")))
        if kind == "wild":
            return PortSpec.wildcard()
        if kind == "exact":
            return PortSpec.exact(draw(st.sampled_from((actual, 0, 65535))))
        low, high = sorted((draw(PORTS), draw(PORTS)))
        return PortSpec(low, high)

    src_prefix, dst_prefix = prefix(src), prefix(dst)
    if src_prefix.is_wildcard and not dst_prefix.is_wildcard:
        src_prefix = Prefix.default(dst_prefix.width)
    if dst_prefix.is_wildcard and not src_prefix.is_wildcard:
        dst_prefix = Prefix.default(src_prefix.width)
    flt = Filter(
        src=src_prefix,
        dst=dst_prefix,
        protocol=draw(st.sampled_from((None, 6, 17))),
        sport=ports(packet.src_port),
        dport=ports(packet.dst_port),
        iif=draw(st.sampled_from(IIFS)),
    )
    return packet, flt


@settings(max_examples=400, deadline=None)
@given(case=_packet_and_filter())
def test_create_filter_predicate_agrees_with_filter_matches(case):
    packet, flt = case
    flow = SimpleNamespace(key=flow_key_of(packet))
    assert _claimed_by(flt)(flow) == flt.matches(packet)


# ----------------------------------------------------------------------
# Instance verbs: k filter records, one flow pass
# ----------------------------------------------------------------------
class _Instance(PluginInstance):
    pass


class _Plugin(Plugin):
    name = "onepass"
    plugin_type = TYPE_IP_SECURITY
    instance_class = _Instance


def _deregister(router, plugin, instance):
    assert plugin.deregister_instance(instance)


def _purge_instance(router, plugin, instance):
    router.aiu.purge_instance(instance)


def _unload(router, plugin, instance):
    router.pcu.unload(plugin)


@pytest.mark.parametrize("verb", [_deregister, _purge_instance, _unload])
def test_instance_verbs_walk_the_flow_table_once(verb, monkeypatch):
    router = Router(flow_buckets=256)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    plugin = _Plugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    for i in range(8):
        plugin.register_instance(instance, f"10.0.0.{i}, *, UDP", gate=GATE_IP_SECURITY)
    for i in range(16):                  # 8 flows bound to the instance, 8 not
        router.receive(make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0"))
    gate = router.aiu.gate_index(GATE_IP_SECURITY)
    # One more flow holds the instance with no filter behind it.
    stray = next(f for f in router.aiu.flow_table if f.key.src & 0xFF == 12)
    stray.slot(gate).instance = instance

    passes = []
    real_purge = FlowTable.purge

    def counting_purge(table, stale):
        passes.append(table)
        return real_purge(table, stale)

    monkeypatch.setattr(FlowTable, "purge", counting_purge)
    verb(router, plugin, instance)
    assert len(passes) == 1
    assert not any(record.instance is instance for record in router.aiu.filters())
    for flow in router.aiu.flow_table:
        assert all(slot is None or slot.instance is not instance for slot in flow.slots)
    assert len(router.aiu.flow_table) == 16 - 8 - 1
