"""Compiled/interpreted equivalence verifier: clean on healthy tables
and engines across all BMP implementations, and loud (RP301/RP302) when
the compiled state is deliberately corrupted while its epoch claims
freshness — the exact failure mode the verifier exists to catch."""

import pytest

from repro.aiu.dag import DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.analysis import verify_aiu, verify_engine, verify_table
from repro.bmp import ENGINES, make_engine
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH
from repro.workloads.filtersets import random_filters

from tests.aiu.test_classifier_differential import SEEDS

ENGINE_NAMES = sorted(set(ENGINES))


def _build_dag(filters, width, engine_name="patricia"):
    table = DagFilterTable(width=width, bmp_engine=engine_name)
    for flt in filters:
        try:
            table.install(FilterRecord(flt, gate="g"))
        except AmbiguousFilterError:
            continue
    return table


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_healthy_dag_verifies_clean(engine_name, seed):
    filters = random_filters(48, seed=seed, host_fraction=0.5)
    table = _build_dag(filters, IPV4_WIDTH, engine_name)
    findings = verify_table(table, IPV4_WIDTH, subject="t")
    assert findings == [], [d.render() for d in findings]


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_healthy_ipv6_dag_verifies_clean(seed):
    filters = random_filters(32, width=IPV6_WIDTH, seed=seed, host_fraction=0.5)
    table = _build_dag(filters, IPV6_WIDTH)
    findings = verify_table(table, IPV6_WIDTH, subject="t6")
    assert findings == [], [d.render() for d in findings]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_healthy_engine_verifies_clean(engine_name):
    engine = make_engine(engine_name, IPV4_WIDTH)
    for index, flt in enumerate(random_filters(64, seed=11, host_fraction=0.5)):
        if not flt.src.is_wildcard:
            engine.insert(flt.src, index)
    findings = verify_engine(engine, subject=engine_name)
    assert findings == [], [d.render() for d in findings]


def test_corrupted_compiled_dag_is_caught():
    filters = random_filters(32, seed=5, host_fraction=0.5)
    table = _build_dag(filters, IPV4_WIDTH)
    table.ensure_compiled()
    # Corrupt: an empty compiled exact-node that matches nothing, with
    # the epoch stamped fresh so no recompile rescues it.
    table._compiled_root = (2, {}, None)
    table._compiled_epoch = table.epoch
    findings = verify_table(table, IPV4_WIDTH, subject="corrupt")
    assert findings, "corrupted compiled table verified clean"
    assert all(d.code == "RP301" for d in findings)
    assert all(d.severity == "error" for d in findings)


def test_stale_memo_survives_a_recompile_and_is_caught():
    """The memoised compile's own failure mode: a mutation that moves
    the epoch but does not dirty its path.  The lazy recompile trusts
    the clean memos, so the compiled walk keeps serving the record the
    interpreted walk no longer finds — at that record's boundary probes."""
    table = _build_dag(random_filters(32, seed=5, host_fraction=0.5), IPV4_WIDTH)
    table.ensure_compiled()
    assert verify_table(table, IPV4_WIDTH) == []
    victim = next(r for r in table.records() if any(l.compiled is r for l in r.leaves))
    for leaf in victim.leaves:
        leaf.filters.remove(victim)
    table.epoch += 1
    findings = verify_table(table, IPV4_WIDTH, subject="stale-memo")
    assert findings and all(d.code == "RP301" for d in findings)
    assert table._compiled_epoch == table.epoch     # it did recompile


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_corrupted_engine_fast_tables_are_caught(engine_name):
    engine = make_engine(engine_name, IPV4_WIDTH)
    for index, flt in enumerate(random_filters(64, seed=13, host_fraction=0.5)):
        if not flt.src.is_wildcard:
            engine.insert(flt.src, index)
    engine.lookup_entry_fast(0)  # force a compile
    engine._fast_tables = ()
    engine._fast_epoch = engine.mutation_epoch
    findings = verify_engine(engine, subject=engine_name)
    assert findings, f"corrupted {engine_name} verified clean"
    assert all(d.code == "RP302" for d in findings)


def test_verify_aiu_covers_every_gate_table():
    router = Router(name="eq-aiu")
    library = RouterPluginLibrary(router)
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d1", "192.168.0.0/16, *, UDP")
    report = verify_aiu(router.aiu)
    assert len(report) == 0, [d.render() for d in report]
