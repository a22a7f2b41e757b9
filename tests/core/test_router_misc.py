"""Tests for remaining router plumbing: event-loop attachment, polling,
origination, and top-level package API."""

import pytest

from repro.core import Disposition, Router
from repro.net.packet import make_udp
from repro.sim.cost import CycleMeter
from repro.sim.events import EventLoop

from tests.perf.test_batch_pipeline import _HookedPlugin


def _pkt(i=1, **kw):
    kw.setdefault("iif", "atm0")
    return make_udp(f"10.0.0.{i}", "20.0.0.1", 5000 + i, 53, **kw)


@pytest.fixture
def router():
    r = Router(flow_buckets=64)
    r.add_interface("atm0", prefix="10.0.0.0/8")
    r.add_interface("atm1", prefix="20.0.0.0/8")
    return r


class TestPlumbing:
    def test_duplicate_interface_rejected(self, router):
        with pytest.raises(ValueError):
            router.add_interface("atm0")

    def test_set_scheduler_unknown_interface(self, router):
        with pytest.raises(ValueError):
            router.set_scheduler("nope", object())

    def test_poll_and_process(self, router):
        router.interface("atm0").inject(_pkt(), at_time=0.0)
        router.interface("atm0").inject(_pkt(2), at_time=0.0)
        results = router.poll_and_process()
        assert results == [Disposition.FORWARDED, Disposition.FORWARDED]
        assert router.interface("atm1").tx_packets == 2

    def test_attach_loop_after_construction(self):
        router = Router(flow_buckets=64)
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        loop = EventLoop()
        router.attach_loop(loop)
        peer = Router(flow_buckets=64, loop=loop)
        peer_if = peer.add_interface("p0", prefix="10.0.0.0/8")
        peer.routing_table.add("20.0.0.0/8", "p0")
        peer_if.connect(router.interface("atm0"))
        pkt = make_udp("10.0.0.1", "20.0.0.1", 1, 2, iif="x0")
        peer.receive(pkt, now=0.0)
        loop.run_until_idle()
        # Delivered across the link and forwarded by the attached router.
        assert router.interface("atm1").tx_packets == 1

    def test_originate_routes_and_transmits(self, router):
        pkt = make_udp("20.0.0.254", "20.0.0.1", 1, 2)
        assert router.originate(pkt) == Disposition.FORWARDED
        assert router.interface("atm1").tx_packets == 1

    def test_originate_without_route(self, router):
        pkt = make_udp("9.9.9.9", "99.0.0.1", 1, 2)
        assert router.originate(pkt) == Disposition.DROPPED_NO_ROUTE

    def test_measure_packet_v6(self, router):
        router.routing_table.add("2001:db8::/32", "atm1")
        pkt = make_udp("2001:db8::1", "2001:db8::2", 1, 2, iif="atm0")
        meter = router.measure_packet(pkt)
        assert isinstance(meter, CycleMeter)
        assert meter.total >= 6460

    def test_repr(self, router):
        assert "atm0" in repr(router)


class TestRebind:
    def test_rebind_moves_the_batch_start_hook(self, router):
        """``AIU.bind`` re-binds a filter without adding or removing
        one; the router must still re-derive its hooks — the epoch
        moves, the plan and its compiled loop do not."""
        plugin = _HookedPlugin()
        router.pcu.load(plugin)
        old, new = plugin.create_instance(), plugin.create_instance()
        record = plugin.register_instance(old, "*, *, UDP", gate="ip_security")
        assert router.receive_batch([_pkt()]) == [Disposition.FORWARDED]
        assert (len(old.batch_calls), len(new.batch_calls)) == (1, 0)
        loops = dict(router._loops)
        router.aiu.bind(record, new)
        assert router.receive_batch([_pkt(2)]) == [Disposition.FORWARDED]
        assert (len(old.batch_calls), len(new.batch_calls)) == (1, 1)
        assert router._loops == loops and router.loop_compiles == len(loops)


class TestTopLevelApi:
    def test_headline_names_importable(self):
        import repro

        for name in ("Router", "PluginManager", "Filter", "AIU", "Packet",
                     "EventLoop", "Costs", "make_udp", "PLUGIN_REGISTRY"):
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_stable_surface_is_all(self):
        """docs/API.md names: everything in __all__ resolves, and the
        telemetry/management additions are part of the stable surface."""
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        for name in ("Pmgr", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
                     "LifecycleTracer", "JsonLinesExporter", "prometheus_text",
                     "load_plugin"):
            assert name in repro.__all__, name
        assert repro.Pmgr is repro.PluginManager

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_quickstart_snippet_from_readme(self):
        from repro import PluginManager, Router, make_udp

        router = Router(name="edge", flow_buckets=64)
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        pmgr = PluginManager(router)
        pmgr.run_script(
            """
            modload drr
            create drr drr0 interface=atm1 quantum=1500
            scheduler atm1 drr0
            bind drr0 - <129.*, 192.94.233.10, TCP, *, *, *>
            bind drr0 - *, *, UDP
            """
        )
        disposition = router.receive(
            make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, payload_size=972,
                     iif="atm0")
        )
        assert disposition == "queued"
        assert router.aiu.stats()["filters"] == 2
