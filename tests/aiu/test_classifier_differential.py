"""Seeded differential fuzz: compiled vs metered vs linear oracle.

The compiled slow path (``DagFilterTable.lookup_fast``) is a wall-clock
specialization of the metered walk (``DagFilterTable.lookup``); the
:class:`LinearFilterTable` is the brute-force correctness oracle that
handles any filter set.  (Through a router — verbs mutating the tables
between compiles, the un-metered executors walking them — the two walks
meet in the oracle, tests/oracle/.)  These tests drive all three over seeded random
filter sets and probe traffic — including traffic aimed *at* the
installed filters, not just random misses — and assert exact agreement,
then churn the tables with interleaved installs/removals to prove the
epoch invalidation never serves a stale compiled result.  The generated
histories at the bottom do the same for the per-node memos: after every
verb the memoised compile must equal a table rebuilt from scratch.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aiu import AIU, Filter
from repro.aiu.dag import DagFilterTable
from repro.aiu.linear import LinearFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress
from repro.analysis import audit_dag_table
from repro.analysis.equivalence import _record_probes
from repro.net.packet import Packet
from repro.workloads.filtersets import matching_probe, random_filters

SEEDS = (1, 7, 23, 99)


def _build_tables(filters, width):
    """Install ``filters`` into a DAG + linear pair; skip ambiguous ones."""
    dag = DagFilterTable(width=width)
    linear = LinearFilterTable(width=width)
    records = []
    for flt in filters:
        record = FilterRecord(flt, gate="g")
        try:
            dag.install(record)
        except AmbiguousFilterError:
            continue
        linear.install(record)
        records.append(record)
    assert records, "filter generator produced nothing installable"
    return dag, linear, records


def _probe_packets(filters, width, rng, per_filter=2, random_probes=64):
    """Packets matching installed filters plus uniform random traffic."""
    tuples = [matching_probe(flt, rng) for flt in filters for _ in range(per_filter)]
    tuples += [(rng.getrandbits(width), rng.getrandbits(width), rng.choice((6, 17)),
                rng.randrange(65536), rng.randrange(65536)) for _ in range(random_probes)]
    return [Packet(src=IPAddress(src, width), dst=IPAddress(dst, width), protocol=protocol,
                   src_port=sport, dst_port=dport, iif=rng.choice(["atm0", "atm1", None]))
            for src, dst, protocol, sport, dport in tuples]


def _assert_agree(dag, linear, packet):
    """Compiled is metered is the linear oracle's record (sort keys are
    unique — the record seq breaks every tie — so the same object)."""
    metered = dag.lookup(packet)
    assert dag.lookup_fast(packet) is metered, packet
    assert metered is linear.lookup(packet), packet


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "width", [IPV4_WIDTH, IPV6_WIDTH], ids=["ipv4", "ipv6"]
)
def test_compiled_agrees_on_static_tables(seed, width):
    filters = random_filters(48, width=width, seed=seed, host_fraction=0.5)
    dag, linear, records = _build_tables(filters, width)
    rng = random.Random(seed * 1000 + 1)
    for packet in _probe_packets(
        [r.filter for r in records], width, rng
    ):
        _assert_agree(dag, linear, packet)


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_never_stale_under_churn(seed):
    """Interleave install/remove/lookup; the compiled path must track
    every mutation (per-table epoch) and never serve a removed filter or
    miss a newly installed one."""
    width = IPV4_WIDTH
    pool = random_filters(40, width=width, seed=seed, host_fraction=0.5)
    rng = random.Random(seed * 1000 + 2)
    probes = _probe_packets(pool, width, rng, per_filter=1, random_probes=16)
    dag = DagFilterTable(width=width)
    linear = LinearFilterTable(width=width)
    live = {}
    for step in range(300):
        op = rng.random()
        index = rng.randrange(len(pool))
        if op < 0.45:
            if index not in live:
                record = FilterRecord(pool[index], gate="g")
                try:
                    dag.install(record)
                except AmbiguousFilterError:
                    continue
                linear.install(record)
                live[index] = record
        elif op < 0.70:
            record = live.pop(index, None)
            if record is not None:
                assert dag.remove(record)
                assert linear.remove(record)
        else:
            _assert_agree(dag, linear, probes[rng.randrange(len(probes))])
    # Final sweep over every probe after the churn settles.
    for packet in probes:
        _assert_agree(dag, linear, packet)


def test_recompile_is_lazy_and_epoch_driven():
    """Mutations only bump the epoch; flattening happens on the next
    fast lookup, and an unchanged table is never recompiled."""
    dag = DagFilterTable(width=IPV4_WIDTH)
    record = FilterRecord(
        random_filters(1, seed=3, host_fraction=0.0)[0], gate="g"
    )
    dag.install(record)
    assert dag._compiled_epoch != dag.epoch  # not compiled yet
    packet = Packet(
        src=IPAddress(0, IPV4_WIDTH),
        dst=IPAddress(0, IPV4_WIDTH),
        protocol=17,
        src_port=1,
        dst_port=1,
    )
    dag.lookup_fast(packet)
    assert dag._compiled_epoch == dag.epoch
    root_before = dag._compiled_root
    dag.lookup_fast(packet)
    assert dag._compiled_root is root_before  # no recompile when clean
    assert dag.remove(record)
    assert dag._compiled_epoch != dag.epoch  # invalidated again
    assert dag.lookup_fast(packet) is dag.lookup(packet)


# ----------------------------------------------------------------------
# Generated histories over a laminar pool that replicates
# ----------------------------------------------------------------------
#: Every pair is disjoint or nested except the two marked ones, so every
#: install replicates into (or copies down from) something: a /8 over a
#: /16 over /24s, port ranges nested three deep, family-wildcard records
#: that live in both the v4 and the v6 table.
POOL = tuple(Filter.parse(spec) for spec in (
    "10.0.0.0/8, *, *",
    "10.1.0.0/16, *, UDP",
    "10.1.1.0/24, *, UDP",
    "10.1.2.0/24, 20.0.0.0/8, UDP",
    "10.1.2.0/24, 20.1.0.0/16, UDP",
    "10.1.0.0/16, *, UDP, 1000-2000, *",
    "10.1.0.0/16, *, UDP, 1200-1300, *",
    "10.1.1.0/24, *, UDP, 1250, *",
    "10.1.0.0/16, *, UDP, 1500-2500, *",        # ambiguous beside 1000-2000
    "10.1.0.0/16, *, UDP, *, *, atm0",
    "*, *, UDP",
    "*, *, TCP, *, 0-1023",
    "*, *, TCP, *, 80",
    "*, *, UDP, 1100-1400, *",                  # ambiguous in v6 only: rolled back from v4
    "2001:db8::/32, *, UDP",
    "2001:db8:1::/48, *, UDP",
    "2001:db8::/32, *, UDP, 1000-1200, *",
))
_VERBS = st.tuples(
    st.sampled_from(("install", "install", "remove", "rebind")),
    st.integers(0, len(POOL) - 1),
)


def _rebuilt(table):
    """A table built from scratch from ``table.records()``, and its
    records' originals (clones keep the install order, so every tie
    breaks the same way)."""
    fresh = DagFilterTable(width=table.width)
    original = {None: None}
    for record in table.records():
        clone = FilterRecord(record.filter, record.gate, record.instance, record.priority)
        fresh.install(clone)
        original[clone] = record
    return fresh, original


def _assert_memos_agree(aiu):
    """At RP301's probe points of every pool filter of the table's
    family (so a removed filter's boundaries stay probed): memoised
    ``lookup_fast`` == rebuilt-from-scratch ``lookup_fast`` == metered
    ``lookup``; and every clean memo equals a fresh compile (RP505)."""
    for (_gate, width), table in aiu._tables.items():
        assert audit_dag_table(table) == []
        fresh, original = _rebuilt(table)
        family = 4 if width == IPV4_WIDTH else 6
        for flt in POOL:
            if flt.family not in (None, family):
                continue
            for packet in _record_probes(SimpleNamespace(filter=flt), width, 64):
                memoised = table.lookup_fast(packet)
                assert memoised is table.lookup(packet), packet
                assert memoised is original[fresh.lookup_fast(packet)], packet


@settings(max_examples=40, deadline=None)
@given(st.lists(_VERBS, min_size=1, max_size=24))
# /24s first, then the /16 and the /8 replicate over them; out of order.
@example([("install", i) for i in (2, 3, 4, 1, 0)] + [("remove", 1), ("install", 1),
         ("remove", 2), ("rebind", 0), ("remove", 0)])
# Nested ranges, each ambiguous one refused beside the other.
@example([("install", i) for i in (5, 6, 7, 8)] + [("remove", 5), ("install", 8),
         ("install", 5), ("remove", 6)])
# Ambiguous in the v6 table only: the v4 install is rolled back.
@example([("install", 10), ("install", 16), ("install", 13), ("remove", 16),
          ("install", 13), ("install", 16), ("remove", 10)])
def test_memoised_compile_equals_a_rebuild_after_every_verb(history):
    aiu = AIU(("g",))
    live = {}
    for verb, index in history:
        if verb == "install" and index not in live:
            try:
                live[index] = aiu.create_filter("g", POOL[index], instance=f"i{index}")
            except AmbiguousFilterError:
                pass        # must leave every table, and every memo, as it was
        elif verb == "remove" and index in live:
            assert aiu.remove_filter(live.pop(index))
        elif verb == "rebind" and index in live:
            aiu.bind(live[index], f"rebound{index}")
        _assert_memos_agree(aiu)
    for table in aiu._tables.values():
        assert len(table) == sum(
            1 for index in live
            if POOL[index].family in (None, 4 if table.width == IPV4_WIDTH else 6)
        )


def test_a_verb_recompiles_its_path_not_the_table():
    """What the memos are for, in nodes: one more disjoint /24 beside
    255 rebuilds its own path and the root's edge table."""
    table = DagFilterTable(width=IPV4_WIDTH)
    for i in range(256):
        flt = Filter.parse(f"10.{i % 16}.{i // 16}.0/24, 20.*, UDP")
        table.install(FilterRecord(flt, gate="g"))
        if i == 254:
            table.ensure_compiled()
            assert table.nodes_compiled_last == table.nodes_compiled == table.node_count()
    table.ensure_compiled()
    assert (table.compiles, table.nodes_compiled_last) == (2, 7)
    table.ensure_compiled()                     # clean: an int compare
    assert table.compiles == 2


_EDGES = sorted({p for f in POOL for s in (f.sport, f.dport)
                 for p in (s.low - 1, s.low, s.high, s.high + 1) if 0 <= p <= 65535})


def _pool_address(width):
    nets = sorted({p.value for f in POOL for p in (f.src, f.dst)
                   if not p.is_wildcard and p.width == width})
    near = st.tuples(st.sampled_from(nets), st.integers(0, 0xFFFF)).map(lambda t: t[0] | t[1])
    return st.one_of(near, st.integers(0, (1 << width) - 1)).map(lambda v: IPAddress(v, width))


_port = st.one_of(st.sampled_from(_EDGES), st.integers(0, 65535))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((IPV4_WIDTH, IPV6_WIDTH)).flatmap(lambda width: st.builds(
    Packet, src=_pool_address(width), dst=_pool_address(width),
    protocol=st.sampled_from((1, 6, 17)), src_port=_port, dst_port=_port,
    iif=st.sampled_from(("atm0", "atm1", None)),
)))
def test_compiled_walk_is_the_metered_walk_on_random_packets(packet):
    """Every pool filter that installs, random packets near its prefixes
    and port edges: the straight-line walk returns the metered walk's record."""
    aiu = AIU(("g",))
    for flt in POOL:
        try:
            aiu.create_filter("g", flt)
        except AmbiguousFilterError:
            pass
    table = aiu._tables[("g", packet.src.width)]
    assert table.lookup_fast(packet) is table.lookup(packet)
