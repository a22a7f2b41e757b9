"""Tests for the Table 3 kernel rigs — the shape of the paper's headline
numbers is asserted here (the paper's rows themselves are pinned by
tests/perf/test_paper.py)."""

import pytest

from repro.kernels import (
    build_all_table3_kernels,
    build_altq_kernel,
    build_besteffort_kernel,
    build_drr_plugin_kernel,
    build_plugin_kernel,
    run_table3_workload,
)
from repro.sim.cost import CycleMeter
from repro.workloads import table3_flows


@pytest.fixture(scope="module")
def results():
    return [
        run_table3_workload(kernel, repetitions=2)
        for kernel in build_all_table3_kernels()
    ]


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


class TestTable3Shape:
    def test_best_effort_is_exactly_6460(self, results):
        assert results[0].avg_cycles == pytest.approx(6460, abs=1)

    def test_plugin_overhead_near_8_percent(self, results):
        """The headline claim: ~8% / ~500 cycles over best-effort."""
        overhead = results[1].overhead_vs(results[0])
        assert 0.06 <= overhead <= 0.10
        assert 400 <= results[1].avg_cycles - results[0].avg_cycles <= 600

    def test_altq_drr_overhead_near_paper(self, results):
        # Paper: 8160 cycles, ~26% over best-effort.
        assert results[2].avg_cycles == pytest.approx(8160, rel=0.05)

    def test_plugin_drr_close_to_altq_but_not_slower(self, results):
        """§7.3: 'we benefit only from faster hashing' — the plugin DRR
        build is at least as fast as the ALTQ build."""
        assert results[3].avg_cycles <= results[2].avg_cycles
        assert results[3].avg_cycles == pytest.approx(results[2].avg_cycles, rel=0.1)

    def test_ordering_matches_paper(self, results):
        cycles = [r.avg_cycles for r in results]
        assert cycles[0] < cycles[1] < cycles[3] <= cycles[2]

    def test_throughput_column(self, results):
        # Paper row 1: 36 800 pkts/s at 233 MHz.
        assert results[0].throughput_pps == pytest.approx(36068, rel=0.05)


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
