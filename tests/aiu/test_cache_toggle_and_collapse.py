"""Tests for the ablation knobs: flow cache off, wildcard collapsing."""

import pytest

from repro.aiu import AIU
from repro.aiu.dag import DagFilterTable
from repro.aiu.filters import Filter
from repro.aiu.records import FilterRecord
from repro.net.packet import make_udp
from repro.sim.cost import MemoryMeter

GATES = ("ip_options", "ip_security", "packet_scheduling")


def _pkt(i=1):
    return make_udp(f"10.0.0.{i}", "20.0.0.1", 5000 + i, 53, iif="atm0")


class TestFlowCacheToggle:
    def test_disabled_cache_classifies_every_packet(self):
        aiu = AIU(GATES, flow_buckets=64, use_flow_cache=False)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="sec")
        aiu.classify(_pkt(), "ip_security")
        aiu.classify(_pkt(), "ip_security")
        # Every packet does one filter lookup per populated gate.
        assert aiu.filter_lookups == 2
        assert len(aiu.flow_table) == 0

    def test_disabled_cache_still_returns_bindings(self):
        aiu = AIU(GATES, flow_buckets=64, use_flow_cache=False)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="sec")
        instance, record = aiu.classify(_pkt(), "ip_security")
        assert instance == "sec"
        assert record.slot(aiu.gate_index("ip_security")).instance == "sec"

    def test_disabled_cache_leaves_no_filter_backrefs(self):
        """Cache-off classification builds throwaway flow records: none
        reaches the flow table, so no purge can ever find one."""
        aiu = AIU(GATES, flow_buckets=64, use_flow_cache=False)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="s")
        _instance, record = aiu.classify(_pkt(), "ip_security")
        assert record.slot(aiu.gate_index("ip_security")).filter_record is not None
        assert len(aiu.flow_table) == 0 and list(aiu.flow_table) == []

    def test_enabled_cache_default(self):
        aiu = AIU(GATES, flow_buckets=64)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="sec")
        aiu.classify(_pkt(), "ip_security")
        aiu.classify(_pkt(), "ip_security")
        assert aiu.flow_table.hits == 1


class TestNewFilterInvalidatesFlows:
    def test_more_specific_filter_takes_over_cached_flow(self):
        aiu = AIU(GATES, flow_buckets=64)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="broad")
        aiu.classify(_pkt(1), "ip_security")
        assert len(aiu.flow_table) == 1
        aiu.create_filter("ip_security", "10.0.0.1, *, UDP", instance="narrow")
        # The overlapping cached flow was purged...
        assert len(aiu.flow_table) == 0
        # ...and the next packet picks up the new binding.
        instance, _ = aiu.classify(_pkt(1), "ip_security")
        assert instance == "narrow"

    def test_unrelated_flows_keep_their_cache_entries(self):
        aiu = AIU(GATES, flow_buckets=64)
        aiu.create_filter("ip_security", "10.*, *, UDP", instance="broad")
        aiu.classify(_pkt(1), "ip_security")
        aiu.create_filter("ip_security", "99.0.0.0/8, *, UDP", instance="other")
        assert len(aiu.flow_table) == 1
        aiu.classify(_pkt(1), "ip_security")
        assert aiu.flow_table.hits == 1

    def test_iif_scoped_filter_only_purges_matching_iif(self):
        aiu = AIU(GATES, flow_buckets=64)
        aiu.create_filter("ip_security", "*, *, UDP", instance="x")
        aiu.classify(_pkt(1), "ip_security")           # iif=atm0
        aiu.create_filter("ip_security", "*, *, UDP, *, *, atm9", instance="y")
        assert len(aiu.flow_table) == 1                # different iif


class TestWildcardCollapse:
    def _tables(self):
        plain = DagFilterTable(width=32)
        collapsed = DagFilterTable(width=32, collapse_wildcards=True)
        flt = Filter.parse("10.0.0.0/8, *, UDP")   # ports + iif wildcard
        for table in (plain, collapsed):
            table.install(FilterRecord(flt, gate="g"))
        return plain, collapsed

    def test_same_result(self):
        plain, collapsed = self._tables()
        pkt = make_udp("10.1.2.3", "9.9.9.9", 1234, 80)
        assert plain.lookup(pkt).filter == collapsed.lookup(pkt).filter

    def test_fewer_accesses(self):
        plain, collapsed = self._tables()
        pkt = make_udp("10.1.2.3", "9.9.9.9", 1234, 80)
        meter_plain, meter_collapsed = MemoryMeter(), MemoryMeter()
        plain.lookup(pkt, meter_plain)
        collapsed.lookup(pkt, meter_collapsed)
        assert meter_collapsed.accesses < meter_plain.accesses
        # Both port probes skipped (the two wildcard-only port levels).
        assert meter_plain.breakdown()["port"] == 2
        assert "port" not in meter_collapsed.breakdown()

    def test_collapse_does_not_skip_branching_levels(self):
        collapsed = DagFilterTable(width=32, collapse_wildcards=True)
        collapsed.install(FilterRecord(Filter.parse("10.*, *, UDP, 53, *"), gate="g"))
        collapsed.install(FilterRecord(Filter.parse("10.*, *, UDP, 80, *"), gate="g"))
        dns = make_udp("10.1.1.1", "2.2.2.2", 53, 9)
        hit = collapsed.lookup(dns)
        assert hit is not None
        assert hit.filter.sport.low == 53
