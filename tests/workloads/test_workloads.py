"""Tests for the synthetic workload generators."""

import random

import pytest

from repro.aiu.dag import DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.bmp.waldvogel import BinarySearchOnLengths
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, Prefix
from repro.workloads import (
    bursty_arrivals,
    heavy_tailed_train_lengths,
    matching_probe,
    pareto_on_off,
    poisson_arrivals,
    prefix_length_filters,
    random_filters,
    round_robin_trains,
    scenario,
    scenario_names,
    synthetic_flows,
    table3_filters,
    table3_flows,
    zipf_flows,
)


class TestFlowGenerators:
    def test_table3_flows_shape(self):
        flows = table3_flows()
        assert len(flows) == 3
        packet = flows[0].packet()
        assert packet.length == 8192
        assert packet.protocol == 17

    def test_synthetic_flows_distinct(self):
        flows = synthetic_flows(50, seed=3)
        keys = {(f.src, f.src_port) for f in flows}
        assert len(keys) == 50

    def test_synthetic_flows_deterministic(self):
        assert synthetic_flows(10, seed=5) == synthetic_flows(10, seed=5)

    def test_synthetic_flows_v6(self):
        flows = synthetic_flows(5, seed=1, ipv6=True)
        assert all(":" in f.src for f in flows)
        assert flows[0].packet().is_ipv6

    def test_round_robin_interleaves(self):
        flows = table3_flows()
        packets = list(round_robin_trains(flows, 2))
        sources = [str(p.src) for p in packets]
        assert sources[:3] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert len(packets) == 6

    def test_round_robin_trains_mode(self):
        flows = table3_flows()
        packets = list(round_robin_trains(flows, 2, interleave=False))
        sources = [str(p.src) for p in packets]
        assert sources[:2] == ["10.0.0.1", "10.0.0.1"]

    def test_bursty_arrivals_have_trains(self):
        flows = synthetic_flows(4, seed=2)
        schedule = bursty_arrivals(flows, burst_length=10, bursts_per_flow=2, seed=2)
        assert len(schedule) == 4 * 2 * 10
        # Within a burst, consecutive packets share a flow.
        first_burst = schedule[:10]
        assert len({p.packet.src.value for p in first_burst}) == 1
        # Times increase monotonically.
        times = [p.time for p in schedule]
        assert times == sorted(times)

    def test_poisson_arrivals_bounded(self):
        flows = synthetic_flows(2, seed=1)
        schedule = poisson_arrivals(flows, duration=1.0, rate_pps=100, seed=4)
        assert all(0 <= p.time < 1.0 for p in schedule)
        assert 50 < len(schedule) < 200

    def test_pareto_on_off_bursty(self):
        flow = synthetic_flows(1, seed=1)[0]
        schedule = pareto_on_off(flow, duration=5.0, on_rate_pps=1000, seed=3)
        assert len(schedule) > 10
        gaps = [b.time - a.time for a, b in zip(schedule, schedule[1:])]
        # On/off structure: some gaps are much longer than the on-rate gap.
        assert max(gaps) > 10 * min(g for g in gaps if g > 0)


class TestAdversarialGenerators:
    def test_zipf_flows_popularity_ordering(self):
        """Destination popularity follows rank: the top destination
        attracts more flows than the tail."""
        flows = zipf_flows(300, destinations=16, alpha=1.1, seed=4)
        by_dst = {}
        for f in flows:
            by_dst[f.dst] = by_dst.get(f.dst, 0) + 1
        counts = sorted(by_dst.values(), reverse=True)
        assert counts[0] > counts[-1]
        assert counts[0] >= 300 / 16  # head is above uniform share

    def test_zipf_flows_distinct_and_deterministic(self):
        flows = zipf_flows(200, seed=9)
        keys = {(f.src, f.src_port, f.dst) for f in flows}
        assert len(keys) == 200
        assert zipf_flows(200, seed=9) == flows
        assert zipf_flows(200, seed=10) != flows

    def test_heavy_tailed_train_lengths_bounds(self):
        lengths = heavy_tailed_train_lengths(500, minimum=2, cap=100, seed=3)
        assert len(lengths) == 500
        assert all(2 <= n <= 100 for n in lengths)
        # Heavy tail: some trains are much longer than the typical one.
        lengths.sort()
        assert lengths[-1] >= 5 * lengths[len(lengths) // 2]

    def test_heavy_tailed_train_lengths_deterministic(self):
        assert heavy_tailed_train_lengths(50, seed=7) == heavy_tailed_train_lengths(50, seed=7)

    def test_scenario_registry(self):
        names = scenario_names()
        assert {"syn_flood", "cache_thrash", "flash_crowd", "filter_churn"} <= set(names)
        sc = scenario("syn_flood", seed=3)
        assert sc.warmup and sc.attack and sc.recovery
        times = [t for t, _p, _a in sc.warmup + sc.attack + sc.recovery]
        assert times == sorted(times)
        assert any(is_attack for _t, _p, is_attack in sc.attack)
        with pytest.raises(KeyError):
            scenario("no_such_attack")


class TestFilterSets:
    def test_count_and_determinism(self):
        a = random_filters(100, seed=9)
        b = random_filters(100, seed=9)
        assert len(a) == 100
        assert [str(f) for f in a] == [str(f) for f in b]

    def test_host_fraction_all_hosts(self):
        filters = random_filters(50, seed=1, host_fraction=1.0)
        assert all(f.is_fully_specified for f in filters)

    def test_v6_filters(self):
        filters = random_filters(20, width=IPV6_WIDTH, seed=1)
        assert all(f.src.width == IPV6_WIDTH for f in filters)

    def test_laminar_safety_installs_without_ambiguity(self):
        """The whole point of the catalogue: DAG install never raises."""
        table = DagFilterTable(width=32)
        for flt in random_filters(300, seed=11, host_fraction=0.3):
            table.install(FilterRecord(flt, gate="g"))
        assert len(table) == 300

    def test_matching_probe_matches(self):
        rng = random.Random(5)
        for flt in random_filters(50, seed=2, host_fraction=0.4):
            src, dst, proto, sport, dport = matching_probe(flt, rng)
            assert flt.src.is_wildcard or flt.src.matches(src)
            assert flt.dst.is_wildcard or flt.dst.matches(dst)
            assert flt.sport.matches(sport)
            assert flt.dport.matches(dport)
            if flt.protocol is not None:
                assert proto == flt.protocol

    def test_table3_filters_count(self):
        assert len(table3_filters()) == 16

    @pytest.mark.parametrize("width,probes", [(IPV4_WIDTH, 5), (IPV6_WIDTH, 7)])
    def test_prefix_length_filters_fill_the_bspl_tree(self, width, probes):
        """Table 2's 2·log₂W: width − 1 lengths in each address table make
        BSPL's length tree perfect, log₂W deep; one more length deepens it."""
        filters = prefix_length_filters(width)
        for field in ("src", "dst"):
            engine = BinarySearchOnLengths(width)
            for flt in filters:
                prefix = getattr(flt, field)
                if not prefix.is_wildcard:
                    engine.insert(prefix, flt)
            assert len({p.length for p, _ in engine.entries()}) == width - 1
            assert engine.worst_case_accesses() == probes
            engine.insert(Prefix(0, 1, width), None)
            assert engine.worst_case_accesses() == probes + 1
        table = DagFilterTable(width=width)
        for flt in filters:
            table.install(FilterRecord(flt, gate="g"))
        assert len(table) == 2 * (width - 1)
