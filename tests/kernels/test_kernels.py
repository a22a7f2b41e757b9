"""Tests for the Table 3 kernel rigs' behaviour.  The paper's Table 3
numbers and their shape are the ``E3.*`` rows of ``benchmarks/paper.py``,
pinned by tests/perf/test_paper.py."""

from repro.kernels import (
    build_altq_kernel,
    build_besteffort_kernel,
    build_drr_plugin_kernel,
    build_plugin_kernel,
)
from repro.sim.cost import CycleMeter
from repro.workloads import table3_flows


class TestBestEffort:
    def test_forwarding_works(self):
        kernel = build_besteffort_kernel()
        pkt = table3_flows()[0].packet()
        meter = CycleMeter()
        assert kernel.process(pkt, meter) == "forwarded"
        assert meter.total == 6460  # the paper's exact Table 3 row 1

    def test_ttl_and_route_drops(self):
        kernel = build_besteffort_kernel()
        expired = table3_flows()[0].packet(ttl=1)
        assert kernel.process(expired, CycleMeter()) == "dropped_ttl"
        from repro.net.packet import make_udp

        unroutable = make_udp("10.0.0.1", "99.0.0.1", 1, 2)
        assert kernel.process(unroutable, CycleMeter()) == "dropped_no_route"


class TestKernelBehaviour:
    def test_plugin_kernel_uses_flow_cache(self):
        kernel = build_plugin_kernel()
        flows = table3_flows()
        for _ in range(3):
            for flow in flows:
                kernel.process(flow.packet(), CycleMeter())
        stats = kernel.router.aiu.stats()
        assert stats["hits"] >= 6
        assert stats["misses"] == 3  # one per flow

    def test_plugin_kernel_first_packet_costs_more(self):
        kernel = build_plugin_kernel()
        flow = table3_flows()[0]
        first = CycleMeter()
        kernel.process(flow.packet(), first)
        second = CycleMeter()
        kernel.process(flow.packet(), second)
        assert first.total > second.total  # filter lookups amortized

    def test_drr_kernel_actually_schedules(self):
        kernel = build_drr_plugin_kernel()
        for flow in table3_flows():
            kernel.process(flow.packet(), CycleMeter())
        assert kernel.router.counters["queued"] == 3
        assert kernel.router.interface("atm1").tx_packets == 3

    def test_altq_kernel_classifies_and_forwards(self):
        kernel = build_altq_kernel()
        meter = CycleMeter()
        kernel.process(table3_flows()[0].packet(), meter)
        assert "altq_classify" in meter.breakdown()
        assert kernel.forwarded == 1

    def test_background_filters_installed(self):
        kernel = build_plugin_kernel(filter_count=16)
        # 16 background filters + 3 catch-all bindings.
        assert kernel.router.aiu.filter_count() == 19
