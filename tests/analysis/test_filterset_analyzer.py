"""Filter-set semantic analyzer: each RP1xx code on a hand-built case,
then the seeded property test — a planted shadowed filter is *always*
flagged, and removing the plant always returns the set to zero RP101 —
plus the filterset-generator dedupe regression (with the analyzer as
the oracle that deduped sets carry no conflicts)."""

import random

import pytest

import repro.workloads.filtersets as filtersets
from repro.aiu.filters import Filter
from repro.aiu.records import FilterRecord
from repro.analysis import analyze_filterset, analyze_records
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH
from repro.workloads.filtersets import random_filters

from tests.aiu.test_classifier_differential import SEEDS, _build_tables


def _bind(library, plugin, instance, spec, gate=None, priority=0):
    return library.bind(instance, spec, gate=gate, priority=priority)


def _router_library():
    router = Router(name="fs-analyzer")
    library = RouterPluginLibrary(router)
    return router, library


def test_duplicate_binding_same_instance_is_shadow_plus_redundant():
    router, library = _router_library()
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d1", "10.0.0.0/8, *, TCP")
    report = analyze_filterset(router.aiu)
    # Latest seq wins the tie, so the first copy is dead (RP101) and the
    # winner is redundant against... nothing else; one RP101 only.
    assert len(report.by_code("RP101")) == 1
    assert not report.by_code("RP103")


def test_covered_filter_same_instance_is_redundant_not_error():
    router, library = _router_library()
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d1", "10.1.0.0/16, *, TCP")
    report = analyze_filterset(router.aiu)
    assert not report.has_errors
    (redundant,) = report.by_code("RP102")
    assert "10.1.0.0/16" in redundant.message


def test_conflicting_bindings_identical_filters_different_instances():
    router, library = _router_library()
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.create_instance("drr", "d2", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d2", "10.0.0.0/8, *, TCP")
    report = analyze_filterset(router.aiu)
    (conflict,) = report.by_code("RP103")
    assert "d1" in conflict.message and "d2" in conflict.message
    # The conflict diagnostic subsumes the per-record shadow finding.
    assert not report.by_code("RP101")


def test_priority_resolves_conflict():
    router, library = _router_library()
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.create_instance("drr", "d2", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d2", "10.0.0.0/8, *, TCP", priority=5)
    report = analyze_filterset(router.aiu)
    assert not report.by_code("RP103")
    # d1's copy is still dead, and that is now an RP101.
    shadows = report.by_code("RP101")
    assert len(shadows) == 1 and "d1" in shadows[0].subject


def test_instance_at_multiple_gates_warns_rp105():
    router, library = _router_library()
    library.modload("stats")
    library.create_instance("stats", "s1")
    library.bind("s1", "10.0.0.0/8, *, TCP", gate="ip_options")
    library.bind("s1", "10.0.0.0/8, *, TCP", gate="packet_scheduling")
    report = analyze_filterset(router.aiu)
    (multi,) = report.by_code("RP105")
    assert "ip_options" in multi.message
    assert "packet_scheduling" in multi.message


def test_multicover_shadowing_needs_the_dag_walk():
    """A /8 fully partitioned by two /9s: no single filter covers it, so
    pairwise covers() cannot see the shadow — the DAG walk must."""
    records = [
        FilterRecord(Filter.parse("<10.0.0.0/9, *, *, *, *, *>"), gate="g"),
        FilterRecord(Filter.parse("<10.128.0.0/9, *, *, *, *, *>"), gate="g"),
        FilterRecord(Filter.parse("<10.0.0.0/8, *, *, *, *, *>"), gate="g"),
    ]
    report = analyze_records(records, width=IPV4_WIDTH)
    shadows = report.by_code("RP101")
    assert len(shadows) == 1
    assert "10.0.0.0/8" in shadows[0].subject


def test_partial_port_overlap_rp104_names_the_second_filter():
    records = [
        FilterRecord(Filter.parse("<*, *, UDP, *, 10-20, *>"), gate="g"),
        FilterRecord(Filter.parse("<*, *, UDP, *, 15-25, *>"), gate="g"),
    ]
    report = analyze_records(records, width=IPV4_WIDTH)
    (overlap,) = report.diagnostics
    assert overlap.code == "RP104"
    assert "15-25" in overlap.subject and "10-20" in overlap.message


def test_unreachable_branch_info_rp106():
    records = [
        FilterRecord(Filter.parse("<10.0.0.0/9, *, *, *, *, *>"), gate="g"),
        FilterRecord(Filter.parse("<10.128.0.0/9, *, *, *, *, *>"), gate="g"),
        FilterRecord(Filter.parse("<10.0.0.0/8, *, *, *, *, *>"), gate="g"),
    ]
    router, _ = _router_library()
    aiu = router.aiu
    for record in records:
        aiu.create_filter("packet_scheduling", record.filter)
    report = analyze_filterset(aiu)
    assert report.by_code("RP106"), [d.render() for d in report]


def test_clean_set_has_no_findings():
    router, library = _router_library()
    library.modload("drr")
    library.create_instance("drr", "d1", quantum=512)
    library.bind("d1", "10.0.0.0/8, *, TCP")
    library.bind("d1", "192.168.0.0/16, *, UDP")
    report = analyze_filterset(router.aiu)
    assert len(report) == 0, [d.render() for d in report]


# ----------------------------------------------------------------------
# Property test: planted shadows are always found, absence is clean.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_shadow_always_flagged(seed):
    filters = random_filters(48, width=IPV4_WIDTH, seed=seed, host_fraction=0.5)
    dag, linear, records = _build_tables(filters, IPV4_WIDTH)

    baseline = analyze_records(records, width=IPV4_WIDTH)
    baseline_shadowed = {d.subject for d in baseline.by_code("RP101")}

    rng = random.Random(seed * 31 + 7)
    victim = rng.choice(records)
    # Plant an exact duplicate at lower priority: identical specificity,
    # loses the priority tie-break everywhere -> must be RP101.
    plant = FilterRecord(victim.filter, gate="g", priority=-1)
    planted = records + [plant]
    report = analyze_records(planted, width=IPV4_WIDTH)
    shadowed = {d.subject for d in report.by_code("RP101")}
    assert baseline_shadowed < shadowed or len(shadowed) > len(baseline_shadowed)

    # Removing the plant restores the baseline exactly.
    again = analyze_records(records, width=IPV4_WIDTH)
    assert {d.subject for d in again.by_code("RP101")} == baseline_shadowed


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_sets_are_shadow_free(seed):
    """The deduped generator never produces exact-duplicate shadows or
    binding conflicts on its own."""
    filters = random_filters(64, width=IPV4_WIDTH, seed=seed, host_fraction=0.5)
    _, _, records = _build_tables(filters, IPV4_WIDTH)
    report = analyze_records(records, width=IPV4_WIDTH)
    assert not report.by_code("RP103")


# ----------------------------------------------------------------------
# Dedupe regression (workloads/filtersets.py)
# ----------------------------------------------------------------------
def test_dedupe_under_forced_collisions(monkeypatch):
    """Narrow weights force five-tuple collisions that the pre-fix
    generator emitted as exact duplicates; the analyzer is the oracle
    that none survive."""
    monkeypatch.setattr(filtersets, "V4_LENGTH_WEIGHTS", {8: 1})
    filters = filtersets.random_filters(
        512, seed=3, host_fraction=0.0, with_ports=False
    )
    keys = {(f.src, f.dst, f.protocol, f.sport, f.dport) for f in filters}
    assert len(keys) == len(filters)
    records = [FilterRecord(f, gate="g") for f in filters]
    report = analyze_records(records, width=IPV4_WIDTH)
    assert not report.by_code("RP101")
    assert not report.by_code("RP103")


def test_dedupe_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(filtersets, "V4_LENGTH_WEIGHTS", {0: 1})
    with pytest.raises(ValueError, match="distinct filters"):
        filtersets.random_filters(64, seed=1, host_fraction=0.0, with_ports=False)


def test_dedupe_preserves_collision_free_streams():
    """Seeds that never collide must draw the identical filter sequence
    the pre-dedupe generator produced (benchmarks and goldens depend on
    the byte-identical stream)."""
    # Reproduce the original algorithm inline.
    rng = random.Random(42)
    expected = []
    weights = filtersets.V4_LENGTH_WEIGHTS
    for _ in range(128):
        if rng.random() < 0.5:
            src = filtersets._random_prefix(rng, 32, 32)
            dst = filtersets._random_prefix(rng, 32, 32)
            protocol = rng.choice((6, 17))
            sport = filtersets.PortSpec.exact(rng.randrange(1024, 65536))
            dport = filtersets.PortSpec.exact(rng.randrange(1, 1024))
        else:
            src = filtersets._random_prefix(
                rng, 32, filtersets._weighted_length(rng, weights)
            )
            dst = filtersets._random_prefix(
                rng, 32, filtersets._weighted_length(rng, weights)
            )
            protocol = rng.choice(filtersets.PROTOCOLS)
            sport = rng.choice(filtersets.PORT_CATALOGUE)
            dport = rng.choice(filtersets.PORT_CATALOGUE)
        expected.append(Filter(src=src, dst=dst, protocol=protocol,
                               sport=sport, dport=dport))
    assert filtersets.random_filters(128, seed=42, host_fraction=0.5) == expected
