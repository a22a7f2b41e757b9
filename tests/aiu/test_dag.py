"""Tests for the DAG set-pruning filter table, including the paper's
worked example (Table 1 / Figure 4) and property-based cross-checks
against the linear oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aiu.dag import DagFilterTable
from repro.aiu.filters import Filter, PortSpec
from repro.aiu.linear import LinearFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.net.addresses import IPV6_WIDTH, IPAddress
from repro.net.packet import Packet, make_tcp, make_udp
from repro.sim.cost import MemoryMeter


def _install(table, spec, priority=0):
    record = FilterRecord(Filter.parse(spec), gate="test", priority=priority)
    table.install(record)
    return record


@pytest.fixture
def paper_table():
    """Table 1's four filters, installed in a DAG (Figure 4)."""
    table = DagFilterTable(width=32)
    records = {
        1: _install(table, "129.*, 192.94.233.10, TCP"),
        2: _install(table, "128.252.153.1, 128.252.153.7, UDP"),
        3: _install(table, "128.252.153.1, 128.252.153.7, TCP"),
        4: _install(table, "128.252.153.*, *, UDP"),
    }
    return table, records


class TestPaperExample:
    """Experiment E1: the §5.1.1 worked example, verbatim."""

    def test_triple_from_the_paper_matches_filter2(self, paper_table):
        table, records = paper_table
        # "<128.252.153.1, 128.252.154.7, UDP> ... returning filter 2"
        # (the paper's prose walks destination 128.252.154.7 through the
        # edge labelled 128.252.153.7 — a typo in the text; the DAG figure
        # and Table 1 use 128.252.153.7, which we reproduce).
        pkt = make_udp("128.252.153.1", "128.252.153.7", 1234, 80)
        assert table.lookup(pkt) is records[2]

    def test_tcp_variant_matches_filter3(self, paper_table):
        table, records = paper_table
        pkt = make_tcp("128.252.153.1", "128.252.153.7", 1234, 80)
        assert table.lookup(pkt) is records[3]

    def test_filter1_matches_network_traffic(self, paper_table):
        table, records = paper_table
        pkt = make_tcp("129.1.2.3", "192.94.233.10", 1, 2)
        assert table.lookup(pkt) is records[1]

    def test_filter4_catches_subnet_udp(self, paper_table):
        table, records = paper_table
        pkt = make_udp("128.252.153.99", "9.9.9.9", 1, 2)
        assert table.lookup(pkt) is records[4]

    def test_filter2_is_proper_subset_of_filter4(self, paper_table):
        table, records = paper_table
        # "filter 2 is a proper subset of filter 4": a packet matching
        # both must get filter 2 (the more specific one).
        pkt = make_udp("128.252.153.1", "128.252.153.7", 5, 5)
        matches = table.lookup_all(pkt)
        assert records[2] in matches
        assert records[4] in matches
        assert matches[0] is records[2]

    def test_no_match_returns_none(self, paper_table):
        table, _ = paper_table
        assert table.lookup(make_udp("1.2.3.4", "5.6.7.8", 1, 2)) is None


class TestSetPruningInvariant:
    def test_wildcard_filter_replicated_under_specific_edge(self):
        table = DagFilterTable(width=32)
        broad = _install(table, "*, *, UDP")
        specific = _install(table, "10.0.0.1, 10.0.0.2, UDP, 53, 53")
        # Packet matching both must land on a leaf containing both.
        pkt = make_udp("10.0.0.1", "10.0.0.2", 53, 53)
        assert table.lookup(pkt) is specific
        assert set(table.lookup_all(pkt)) == {broad, specific}
        # Packet matching only the broad filter.
        other = make_udp("99.0.0.1", "99.0.0.2", 1, 1)
        assert table.lookup(other) is broad

    def test_copy_down_on_later_specific_insert(self):
        table = DagFilterTable(width=32)
        broad = _install(table, "10.*, *, *")
        # Installed later: a more specific source — broad must be copied
        # down into the new subtree.
        specific = _install(table, "10.1.0.0/16, *, TCP")
        udp_pkt = make_udp("10.1.2.3", "1.1.1.1", 1, 1)
        assert table.lookup(udp_pkt) is broad
        tcp_pkt = make_tcp("10.1.2.3", "1.1.1.1", 1, 1)
        assert table.lookup(tcp_pkt) is specific

    def test_most_specific_at_earlier_level_dominates(self):
        table = DagFilterTable(width=32)
        src_specific = _install(table, "10.0.0.1, *, *")
        dst_specific = _install(table, "10.0.0.0/8, 20.0.0.1, *")
        pkt = make_udp("10.0.0.1", "20.0.0.1", 1, 1)
        # The DAG descends the most specific source edge first.
        assert table.lookup(pkt) is src_specific

    def test_priority_breaks_exact_ties(self):
        table = DagFilterTable(width=32)
        low = _install(table, "*, *, UDP", priority=0)
        high = _install(table, "*, *, UDP", priority=5)
        pkt = make_udp("1.1.1.1", "2.2.2.2", 1, 1)
        assert table.lookup(pkt) is high
        assert low in table.lookup_all(pkt)


class TestRemoval:
    def test_remove_restores_less_specific_match(self):
        table = DagFilterTable(width=32)
        broad = _install(table, "10.*, *, UDP")
        specific = _install(table, "10.0.0.1, *, UDP")
        pkt = make_udp("10.0.0.1", "2.2.2.2", 1, 1)
        assert table.lookup(pkt) is specific
        assert table.remove(specific)
        assert table.lookup(pkt) is broad

    def test_remove_is_idempotent(self):
        table = DagFilterTable(width=32)
        record = _install(table, "10.*, *, UDP")
        assert table.remove(record)
        assert not table.remove(record)

    def test_removed_filter_gone_from_all_replicas(self):
        table = DagFilterTable(width=32)
        broad = _install(table, "*, *, UDP")
        _install(table, "10.0.0.1, *, UDP")
        _install(table, "20.0.0.1, *, UDP")
        table.remove(broad)
        for src in ("10.0.0.1", "20.0.0.1", "30.0.0.1"):
            pkt = make_udp(src, "1.1.1.1", 1, 1)
            assert broad not in table.lookup_all(pkt) if table.lookup(pkt) else True
        assert table.lookup(make_udp("30.0.0.1", "1.1.1.1", 1, 1)) is None

    def test_len_tracks_installed(self):
        table = DagFilterTable(width=32)
        a = _install(table, "10.*, *, UDP")
        _install(table, "11.*, *, UDP")
        assert len(table) == 2
        table.remove(a)
        assert len(table) == 1


class TestAmbiguity:
    def test_partial_port_overlap_rejected(self):
        table = DagFilterTable(width=32)
        _install(table, "10.*, *, UDP, 10-20, *")
        with pytest.raises(AmbiguousFilterError):
            _install(table, "10.1.0.0/16, *, UDP, 15-30, *")
        # The failed install must leave the table unchanged.
        assert len(table) == 1

    def test_install_refused_by_a_dead_label_leaves_no_ghost(self):
        """A removed filter's port label stays on its node and can
        refuse a later filter part-way through the insert, after the
        record already went down other edges.  None of it may stay."""
        table = DagFilterTable(width=32)
        broad = _install(table, "*, *, UDP")
        table.remove(_install(table, "10.*, *, UDP, 1000-1200, *"))
        ghost = FilterRecord(Filter.parse("*, *, UDP, 1100-1400, *"), gate="test")
        with pytest.raises(AmbiguousFilterError):
            table.install(ghost)
        for src in ("9.9.9.9", "10.9.9.9"):
            pkt = make_udp(src, "2.2.2.2", 1100, 9)
            assert table.lookup_all(pkt) == [broad]
            assert table.lookup_fast(pkt) is broad
        assert not ghost.leaves and not ghost.via and not ghost.active
        assert len(table) == 1

    def test_a_refused_install_writes_nothing(self):
        """The pre-flight refuses before the insert writes: no edge, node
        or port label of the refused filter stays to refuse a later,
        legal one."""
        table = DagFilterTable(width=32)
        table.remove(_install(table, "11.0.0.0/16, 10.0.0.0/16, UDP, 30-40, 30"))
        nodes = table.node_count()
        with pytest.raises(AmbiguousFilterError):
            _install(table, "*, *, *, 15-35, 30-40")
        assert (table.node_count(), len(table)) == (nodes, 0)
        legal = _install(table, "11.0.0.0/8, 10.0.0.0/8, *, 10-20, 30")
        pkt = make_udp("11.1.1.1", "10.1.1.1", 15, 30)
        assert table.lookup(pkt) is table.lookup_fast(pkt) is legal

    def test_nested_port_ranges_allowed(self):
        table = DagFilterTable(width=32)
        _install(table, "*, *, TCP, 0-1023, *")
        inner = _install(table, "*, *, TCP, 22, *")
        pkt = make_tcp("1.1.1.1", "2.2.2.2", 22, 9)
        assert table.lookup(pkt) is inner

    def test_disjoint_port_ranges_allowed(self):
        table = DagFilterTable(width=32)
        a = _install(table, "*, *, TCP, 10-20, *")
        b = _install(table, "*, *, TCP, 30-40, *")
        assert table.lookup(make_tcp("1.1.1.1", "2.2.2.2", 15, 9)) is a
        assert table.lookup(make_tcp("1.1.1.1", "2.2.2.2", 35, 9)) is b

    def test_overlap_ok_when_address_spaces_disjoint(self):
        table = DagFilterTable(width=32)
        _install(table, "10.*, *, UDP, 10-20, *")
        # Different, non-overlapping source prefix: never shares a node.
        _install(table, "11.*, *, UDP, 15-30, *")
        assert len(table) == 2

    def test_overlap_ok_when_protocols_differ(self):
        table = DagFilterTable(width=32)
        _install(table, "10.*, *, UDP, 10-20, *")
        _install(table, "10.*, *, TCP, 15-30, *")
        assert len(table) == 2


class TestMemoryAccessModel:
    def test_v4_filter_lookup_within_table2_bound(self):
        """Experiment E2 (unit-level): ≤ 20 accesses for IPv4 with BSPL."""
        table = DagFilterTable(width=32, bmp_engine="bspl")
        for i in range(64):
            spec = f"10.{i}.0.0/16, 20.{i}.0.1, UDP, {1000 + i}, 53"
            _install(table, spec)
        meter = MemoryMeter()
        table.lookup(make_udp("10.3.0.1", "20.3.0.1", 1003, 53), meter)
        assert meter.accesses <= 20
        breakdown = meter.breakdown()
        assert breakdown["fnptr_bmp"] == 1
        assert breakdown["fnptr_hash"] == 1
        assert breakdown["dag_edge"] == 6
        assert breakdown["port"] == 2

    def test_v6_filter_lookup_within_table2_bound(self):
        table = DagFilterTable(width=IPV6_WIDTH, bmp_engine="bspl")
        for i in range(32):
            spec = f"2001:db8:{i:x}::/48, 2001:db8:ff{i:02x}::1, UDP, {1000 + i}, 53"
            _install(table, spec)
        meter = MemoryMeter()
        table.lookup(make_udp("2001:db8:3::9", "2001:db8:ff03::1", 1003, 53), meter)
        assert meter.accesses <= 24


class TestIntrospection:
    def test_node_count_grows_with_replication(self):
        table = DagFilterTable(width=32)
        _install(table, "*, *, UDP")
        base = table.node_count()
        _install(table, "10.0.0.1, *, UDP")
        assert table.node_count() > base

    def test_records_listing(self):
        table = DagFilterTable(width=32)
        a = _install(table, "10.*, *, UDP")
        assert table.records() == [a]


# ---------------------------------------------------------------------------
# The compiled walk's dead ends and fall-throughs, level by level.
# ---------------------------------------------------------------------------
_ADDRS = {
    "v4": dict(a="10.0.0.0/8", b="20.0.0.0/8", c="30.0.0.0/8",
               a1="10.0.0.1", b1="20.0.0.1", c1="30.0.0.1",
               x1="11.0.0.1", y1="40.0.0.1"),
    "v6": dict(a="2001:db8::/32", b="2001:db9::/32", c="2001:dba::/32",
               a1="2001:db8::1", b1="2001:db9::1", c1="2001:dba::1",
               x1="2002::1", y1="2001:dbb::1"),
}

#: name -> spec; disjoint port ranges leave a None segment between them.
_WALK_FILTERS = {
    "low": "{a}, {b}, UDP, 0-1999, 0-99",
    "high": "{a}, {b}, UDP, 3000-65535, 60000-65535",
    "anyproto": "{a}, {c}, *",
    "tcp_atm0": "{a}, {b}, TCP, *, *, atm0",
    "tcp": "{a}, {b}, TCP",
}

#: (case, src, dst, protocol, sport, dport, iif, expected filter name)
_WALK_CASES = [
    ("no source prefix", "x1", "b1", 17, 5, 5, None, None),
    ("source but no destination", "a1", "y1", 17, 5, 5, None, None),
    ("no protocol edge, no wildcard", "a1", "b1", 1, 5, 5, None, None),
    ("protocol falls to wildcard", "a1", "c1", 6, 5, 5, "atm1", "anyproto"),
    ("sport in the gap", "a1", "b1", 17, 2500, 50, None, None),
    ("dport in the gap", "a1", "b1", 17, 1000, 100, None, None),
    ("ports 0 at range edges", "a1", "b1", 17, 0, 0, None, "low"),
    ("ports 65535 at range edges", "a1", "b1", 17, 65535, 65535, None, "high"),
    ("iif exact", "a1", "b1", 6, 5, 5, "atm0", "tcp_atm0"),
    ("iif falls to wildcard", "a1", "b1", 6, 5, 5, "atm1", "tcp"),
]


def _walk_table(family):
    table = DagFilterTable(width=32 if family == "v4" else IPV6_WIDTH)
    records = {
        name: _install(table, spec.format(**_ADDRS[family]))
        for name, spec in _WALK_FILTERS.items()
    }
    return table, records


def _walk_packet(family, src, dst, protocol, sport, dport, iif):
    addrs = _ADDRS[family]
    return Packet(
        src=IPAddress.parse(addrs[src]), dst=IPAddress.parse(addrs[dst]),
        protocol=protocol, src_port=sport, dst_port=dport, iif=iif,
    )


@pytest.mark.parametrize("family", ["v4", "v6"])
@pytest.mark.parametrize("case", _WALK_CASES, ids=[c[0] for c in _WALK_CASES])
def test_compiled_walk_dead_ends_and_fall_throughs(family, case):
    table, records = _walk_table(family)
    pkt = _walk_packet(family, *case[1:7])
    expected = records.get(case[7])
    assert table.lookup_fast(pkt) is table.lookup(pkt)
    assert table.lookup_fast(pkt) is expected


@pytest.mark.parametrize("family", ["v4", "v6"])
def test_compiled_walk_on_empty_and_emptied_tables(family):
    empty = DagFilterTable(width=32 if family == "v4" else IPV6_WIDTH)
    emptied, records = _walk_table(family)
    for record in records.values():
        assert emptied.remove(record)
    for table in (empty, emptied):
        for case in _WALK_CASES:
            pkt = _walk_packet(family, *case[1:7])
            assert table.lookup_fast(pkt) is table.lookup(pkt)
            assert table.lookup_fast(pkt) is None


# ---------------------------------------------------------------------------
# Property-based: the DAG agrees with the linear oracle on laminar filters.
# ---------------------------------------------------------------------------
_prefix = st.builds(
    lambda base, length: f"{base >> 24 & 255}.{base >> 16 & 255}.{base >> 8 & 255}.{base & 255}/{length}",
    st.integers(0, (1 << 32) - 1),
    st.integers(0, 32),
)
_port = st.sampled_from(["*", "53", "80", "5000", "0-1023", "1024-65535"])
_proto = st.sampled_from(["*", "TCP", "UDP"])
_iif = st.sampled_from(["*", "atm0", "atm1"])

_filter_spec = st.builds(
    lambda s, d, p, sp, dp, i: f"{s}, {d}, {p}, {sp}, {dp}, {i}",
    _prefix, _prefix, _proto, _port, _port, _iif,
)

_packet = st.builds(
    lambda src, dst, proto, sp, dp, iif: (make_tcp if proto == "TCP" else make_udp)(
        f"{src >> 24 & 255}.{src >> 16 & 255}.{src >> 8 & 255}.{src & 255}",
        f"{dst >> 24 & 255}.{dst >> 16 & 255}.{dst >> 8 & 255}.{dst & 255}",
        sp,
        dp,
        iif=iif,
    ),
    st.integers(0, (1 << 32) - 1),
    st.integers(0, (1 << 32) - 1),
    st.sampled_from(["TCP", "UDP"]),
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.sampled_from(["atm0", "atm1"]),
)


@settings(max_examples=80, deadline=None)
@given(specs=st.lists(_filter_spec, max_size=12), packets=st.lists(_packet, max_size=8))
def test_dag_agrees_with_linear_oracle(specs, packets):
    dag = DagFilterTable(width=32)
    linear = LinearFilterTable(width=32)
    for spec in specs:
        record = FilterRecord(Filter.parse(spec), gate="g")
        try:
            dag.install(record)
        except AmbiguousFilterError:
            continue  # skipped in both tables
        linear.install(record)
    for pkt in packets:
        dag_hit = dag.lookup(pkt)
        linear_hit = linear.lookup(pkt)
        if linear_hit is None:
            assert dag_hit is None
        else:
            assert dag_hit is not None
            # Same best filter under the shared ordering.
            assert dag_hit.sort_key() == linear_hit.sort_key()
        # And the replica set at the leaf equals the true match set.
        assert set(dag.lookup_all(pkt)) == set(linear.lookup_all(pkt))
