"""Compiled lookups equal the metered walk at every boundary probe: clean
on healthy tables and engines across all BMP implementations, and loud
when the compiled state is corrupted while its epoch claims freshness.

The probes are the oracle's edge set (``tests/oracle/edges.py``): the
first and last address of each prefix and the two just outside, port
endpoints ± 1, an absent protocol and an absent interface.  The
corruption cases show that this set finds a stale or mis-keyed compile
without any help from traffic that happens to land there.
"""

import pytest

from repro.aiu.dag import DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.bmp import ENGINES, make_engine
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH
from repro.workloads.filtersets import random_filters

from tests.aiu.test_classifier_differential import SEEDS
from tests.oracle.edges import filter_probes, route_probes

ENGINE_NAMES = sorted(set(ENGINES))


def _build_dag(filters, width, engine_name="patricia"):
    table = DagFilterTable(width=width, bmp_engine=engine_name)
    for flt in filters:
        try:
            table.install(FilterRecord(flt, gate="g"))
        except AmbiguousFilterError:
            continue
    return table


def _divergences(table):
    """Probes of the installed filters where ``lookup_fast`` does not
    return the metered walk's record."""
    return [packet for record in table.records()
            for packet in filter_probes(record.filter, table.width)
            if table.lookup_fast(packet) is not table.lookup(packet)]


def _engine(name, seed):
    engine = make_engine(name, IPV4_WIDTH)
    for index, flt in enumerate(random_filters(64, seed=seed, host_fraction=0.5)):
        if not flt.src.is_wildcard:
            engine.insert(flt.src, index)
    return engine


def _engine_divergences(engine):
    probes = route_probes([prefix for prefix, _ in engine.entries()], engine.width)
    return [addr for addr in probes
            if engine.lookup_entry_fast(addr) != engine.lookup_entry(addr)]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_healthy_dag_verifies_clean(engine_name, seed):
    table = _build_dag(random_filters(48, seed=seed, host_fraction=0.5), IPV4_WIDTH,
                       engine_name)
    assert _divergences(table) == []


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_healthy_ipv6_dag_verifies_clean(seed):
    table = _build_dag(random_filters(32, width=IPV6_WIDTH, seed=seed, host_fraction=0.5),
                       IPV6_WIDTH)
    assert _divergences(table) == []


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_healthy_engine_verifies_clean(engine_name):
    assert _engine_divergences(_engine(engine_name, 11)) == []


def test_corrupted_compiled_dag_is_caught():
    table = _build_dag(random_filters(32, seed=5, host_fraction=0.5), IPV4_WIDTH)
    table.ensure_compiled()
    # An empty compiled exact-node that matches nothing, with the epoch
    # stamped fresh so no recompile rescues it.
    table._compiled_root = (2, {}, None)
    table._compiled_epoch = table.epoch
    assert _divergences(table)


def test_stale_memo_survives_a_recompile_and_is_caught():
    """The memoised compile's own failure mode: a mutation that moves
    the epoch but does not dirty its path.  The lazy recompile trusts
    the clean memos, so the compiled walk keeps serving the record the
    metered walk no longer finds — at that record's boundary probes."""
    table = _build_dag(random_filters(32, seed=5, host_fraction=0.5), IPV4_WIDTH)
    table.ensure_compiled()
    assert _divergences(table) == []
    victim = next(r for r in table.records() if any(l.compiled is r for l in r.leaves))
    for leaf in victim.leaves:
        leaf.filters.remove(victim)
    table.epoch += 1
    assert _divergences(table)
    assert table._compiled_epoch == table.epoch     # it did recompile


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_corrupted_engine_fast_tables_are_caught(engine_name):
    engine = _engine(engine_name, 13)
    engine.lookup_entry_fast(0)  # force a compile
    engine._fast_tables = ()
    engine._fast_epoch = engine.mutation_epoch
    assert _engine_divergences(engine)


def test_verify_aiu_covers_every_gate_table():
    router = Router(name="eq-aiu")
    library = RouterPluginLibrary(router)
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d1", "192.168.0.0/16, *, UDP")
    tables = router.aiu._tables.values()
    assert sum(len(table) for table in tables) == 2
    assert [_divergences(table) for table in tables] == [[]] * len(tables)
