"""The rendered walk: which instance saw a traced packet at each gate
and what it decided (``Span.render``)."""

import pytest

from repro.core import GATE_IP_SECURITY, Router
from repro.net.packet import make_udp
from repro.security import FirewallPlugin


@pytest.fixture
def traced_router():
    router = Router(flow_buckets=64)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    router.attach_lifecycle_tracer()
    return router


def _pkt(i=1, **kw):
    kw.setdefault("iif", "atm0")
    return make_udp(f"10.0.0.{i}", "20.0.0.1", 5000 + i, 53, **kw)


class TestTracer:
    def test_forwarded_packet_walk(self, traced_router):
        pkt = _pkt()
        traced_router.receive(pkt)
        text = traced_router._lifecycle.span_for(pkt.packet_id).render()
        assert "arrived on atm0" in text
        assert "gate ip_options" in text
        assert "route" in text and "atm1" in text
        assert "done: forwarded" in text

    def test_plugin_verdict_recorded(self, traced_router):
        firewall = FirewallPlugin()
        traced_router.pcu.load(firewall)
        deny = firewall.create_instance(action="deny", name="blocker")
        firewall.register_instance(deny, "10.*, *", gate=GATE_IP_SECURITY)
        pkt = _pkt()
        traced_router.receive(pkt)
        text = traced_router._lifecycle.span_for(pkt.packet_id).render()
        assert "blocker -> drop" in text
        assert "done: dropped_by_plugin" in text

    def test_no_route_recorded(self, traced_router):
        pkt = make_udp("10.0.0.1", "99.0.0.1", 1, 2, iif="atm0")
        traced_router.receive(pkt)
        text = traced_router._lifecycle.span_for(pkt.packet_id).render()
        assert "no route" in text
        assert "dropped_no_route" in text

    def test_untraced_packet(self, traced_router):
        pkt = _pkt()
        assert traced_router._lifecycle.span_for(pkt.packet_id) is None

    def test_capacity_bounded(self):
        router = Router(flow_buckets=64)
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        tracer = router.attach_lifecycle_tracer(capacity=5)
        packets = [_pkt(i % 200 + 1) for i in range(20)]
        for pkt in packets:
            router.receive(pkt)
        assert len(tracer) == 5
        assert tracer.span_for(packets[0].packet_id) is None
        assert tracer.span_for(packets[-1].packet_id) is not None

    def test_last(self, traced_router):
        first, second = _pkt(1), _pkt(2)
        traced_router.receive(first)
        traced_router.receive(second)
        assert traced_router._lifecycle.spans()[-1].packet_id == second.packet_id

    def test_disabled_by_default(self):
        router = Router(flow_buckets=64)
        assert router._lifecycle is None

    def test_gate_without_instance_traced(self, traced_router):
        pkt = _pkt()
        traced_router.receive(pkt)
        text = traced_router._lifecycle.span_for(pkt.packet_id).render()
        assert "(no instance bound)" in text


class _BoomInstance:
    """Minimal faulty instance for tracer tests."""

    def __init__(self, plugin):
        self.plugin = plugin
        self.name = "boom0"

    def process(self, packet, ctx):
        raise ValueError("kaboom")


class TestFaultTracing:
    @pytest.fixture
    def faulty_router(self, traced_router):
        from repro.core import Plugin, TYPE_IP_SECURITY

        class BoomPlugin(Plugin):
            name = "boom"
            plugin_type = TYPE_IP_SECURITY

        plugin = BoomPlugin()
        traced_router.pcu.load(plugin)
        instance = _BoomInstance(plugin)
        plugin.instances.append(instance)
        plugin.register_instance(instance, "10.*, *", gate=GATE_IP_SECURITY)
        return traced_router

    def test_fault_event_rendered(self, faulty_router):
        pkt = _pkt()
        faulty_router.receive(pkt)
        text = faulty_router._lifecycle.span_for(pkt.packet_id).render()
        assert "boom0 FAULT ValueError: kaboom -> drop" in text
        assert "done: dropped_by_plugin" in text

    def test_quarantined_gate_noted(self, faulty_router):
        import math

        faulty_router.faults.quarantine("boom", until=math.inf)
        pkt = _pkt()
        faulty_router.receive(pkt)
        text = faulty_router._lifecycle.span_for(pkt.packet_id).render()
        assert "[quarantined:drop]" in text
        assert "done: dropped_by_plugin" in text
