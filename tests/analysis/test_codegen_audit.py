"""Exec-codegen audit unit tests: each RP5xx code fires on a planted
corruption of generated source / exec namespace / plan key / compiled
lookup structure, and a genuinely warmed router audits clean (so the
codes can gate CI without false positives)."""

import pytest

from repro.aiu.dag import _C_EXACT, _C_PREFIX, _C_RANGE, DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.analysis import (
    analyze_router,
    audit_dag_table,
    audit_engine,
    audit_loop,
    audit_loop_source,
    audit_router_codegen,
)
from repro.bmp import make_engine
from repro.core.gates import DEFAULT_GATES, GATE_IP_SECURITY
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH
from repro.net.packet import make_udp
from repro.workloads.filtersets import random_filters

# A minimal well-formed "generated" lanes loop: free names resolved by
# the namespace, a sweep fault handler that resumes through the _resume
# helper, a tail fault handler that classifies through on_fault.
CLEAN_SOURCE = '''\
def _batch_loop(packets, now):
    out = []
    for packet in packets:
        try:
            out.append(classify(packet, now))
        except Exception as exc:
            return _resume(packets, out, exc)
    for packet in packets:
        try:
            emit(packet)
        except Exception as exc:
            on_fault(exc)
    return out
'''

NAMESPACE = {
    "classify": lambda p, n: "forward",
    "emit": lambda p: None,
    "on_fault": lambda e: "drop",
    "_resume": lambda *a: [],
}


def _codes(diagnostics):
    return sorted(d.code for d in diagnostics)


# ----------------------------------------------------------------------
# RP501 / RP502 — free-name discipline
# ----------------------------------------------------------------------
def test_clean_source_audits_clean():
    assert audit_loop_source(CLEAN_SOURCE, NAMESPACE) == []


def test_rp501_unresolved_free_name():
    namespace = {k: v for k, v in NAMESPACE.items() if k != "classify"}
    findings = audit_loop_source(CLEAN_SOURCE, namespace)
    assert _codes(findings) == ["RP501"]
    assert "'classify'" in findings[0].message
    assert findings[0].line is not None


def test_rp501_a_per_packet_getattr_is_not_a_safe_builtin():
    """Per-flow hooks are resolved when a filter is bound, so no emitted
    loop looks an attribute up by name per packet."""
    source = CLEAN_SOURCE.replace(
        "emit(packet)", 'getattr(packet, "on_flow_created", emit)(packet)')
    findings = audit_loop_source(source, NAMESPACE)
    assert _codes(findings) == ["RP501"]
    assert "'getattr'" in findings[0].message


def test_rp502_nondeterministic_builtin():
    source = CLEAN_SOURCE.replace(
        "out.append(classify(packet, now))",
        "out.append(classify(packet, now) or hash(packet))",
    )
    findings = audit_loop_source(source, NAMESPACE)
    assert "RP502" in _codes(findings)
    assert any("'hash'" in d.message for d in findings)


def test_rp502_wins_over_rp501_for_forbidden_names():
    source = CLEAN_SOURCE.replace(
        "classify(packet, now)", "classify(packet, time())"
    )
    findings = audit_loop_source(source, NAMESPACE)
    assert _codes(findings) == ["RP502"]


# ----------------------------------------------------------------------
# RP503 — fault split/resume
# ----------------------------------------------------------------------
def test_rp503_no_handler_at_all():
    source = '''\
def _batch_loop(packets, now):
    inst, ctx = classify(packets[0], now)
    return [inst.process(p, ctx) for p in packets]
'''
    findings = audit_loop_source(source, NAMESPACE)
    assert _codes(findings) == ["RP503"]
    assert "no fault handler" in findings[0].message


def test_rp503_one_guarded_call_does_not_excuse_another():
    source = CLEAN_SOURCE.replace(
        "    return out\n", "    sched.dequeue(now)\n    return out\n"
    ).replace("emit(packet)", "sched.process(packet, now)")
    findings = audit_loop_source(source, {**NAMESPACE, "sched": object()})
    assert _codes(findings) == ["RP503"]
    assert ".dequeue()" in findings[0].message and findings[0].line == 13


def test_rp503_swallowing_handler():
    source = CLEAN_SOURCE.replace(
        "return _resume(packets, out, exc)", "out.append(None)"
    )
    findings = audit_loop_source(source, NAMESPACE)
    assert "RP503" in _codes(findings)
    assert any("neither resumes" in d.message for d in findings)


def test_rp503_reraise_is_accepted():
    source = CLEAN_SOURCE.replace(
        "return _resume(packets, out, exc)", "raise"
    )
    assert audit_loop_source(source, NAMESPACE) == []


def test_rp503_on_fault_is_accepted():
    source = CLEAN_SOURCE.replace(
        "return _resume(packets, out, exc)",
        "out.append(on_fault(exc))",
    )
    assert audit_loop_source(source, NAMESPACE) == []


# ----------------------------------------------------------------------
# RP504 — plan/source coherence
# ----------------------------------------------------------------------
def test_rp504_plan_field_missing_marker():
    plan = {"tm": True, "layout": "lanes"}
    findings = audit_loop_source(CLEAN_SOURCE, NAMESPACE, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "_tm_gate_cells" in findings[0].message


def test_rp504_marker_without_plan_field():
    source = CLEAN_SOURCE.replace(
        "out = []", "out = []\n    cells = _tm_gate_cells"
    )
    namespace = dict(NAMESPACE, _tm_gate_cells=())
    plan = {"layout": "lanes"}
    findings = audit_loop_source(source, namespace, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "clears" in findings[0].message


def test_rp504_fused_without_on_fault():
    """A tail that does not classify its faults through on_fault is
    RP503's finding when its handler swallows them and none when it
    re-raises; RP504 keeps no on_fault marker (docs/STATIC_ANALYSIS.md,
    "Retired codes").  Only a lanes plan may (and must) resume through
    _resume."""
    swallowed = CLEAN_SOURCE.replace("on_fault(exc)", "pass")
    findings = audit_loop_source(swallowed, NAMESPACE, plan={"layout": "lanes"})
    assert _codes(findings) == ["RP503"]
    reraised = CLEAN_SOURCE.replace("on_fault(exc)", "raise")
    assert audit_loop_source(reraised, NAMESPACE, plan={"layout": "lanes"}) == []
    findings = audit_loop_source(CLEAN_SOURCE, NAMESPACE, plan={"layout": "packet"})
    assert _codes(findings) == ["RP504"]
    assert "_resume" in findings[0].message


def test_rp504_unreferenced_pre_gate():
    plan = {"layout": "lanes", "pre": [("ip_security", None)]}
    findings = audit_loop_source(CLEAN_SOURCE, NAMESPACE, plan=plan)
    assert _codes(findings) == ["RP504"]
    assert "ip_security" in findings[0].message


def _drr_router(gates=DEFAULT_GATES, scheduler=True, at_gate=False):
    router = Router(name="audit-drr", gates=gates)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    library = RouterPluginLibrary(router)
    library.modload("firewall")
    library.create_instance("firewall", "fw0")
    library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    if scheduler:
        library.modload("drr")
        library.create_instance("drr", "dr")
        library.set_scheduler("atm1", "dr")
        if at_gate:
            library.bind("dr", "*, *, UDP", gate="packet_scheduling")
    router.receive(make_udp("10.0.0.1", "20.0.1.1", 5000, 9000, iif="atm0"))
    router.receive_batch(
        [make_udp("10.0.0.1", "20.0.1.1", 5000, 9000, iif="atm0")]
    )
    assert set(router._loops) == {"packet", "lanes"}
    return router


def test_rp504_scheduler_drain_follows_has_sched():
    """A plan that can queue must carry the emitted drain; one that
    cannot (no scheduling gate, no bound scheduler) must not."""
    queues = _drr_router()
    bound_only = _drr_router(gates=(GATE_IP_SECURITY,))
    bare = _drr_router(gates=(GATE_IP_SECURITY,), scheduler=False)
    for router, has_sched in ((queues, True), (bound_only, True), (bare, False)):
        assert audit_router_codegen(router) == []
        for loop in router._loops.values():
            assert loop._plan["has_sched"] is has_sched
            assert ("sched.dequeue" in loop._source) is has_sched
            loop._plan["has_sched"] = not has_sched     # lie about the plan
            findings = audit_loop(loop)
            assert _codes(findings) == ["RP504"]
            assert "has_sched" in findings[0].message


def test_rp503_sees_the_drain_classify_through_on_fault():
    loop = _drr_router(at_gate=True)._loops["packet"]
    classify = "on_fault(sched, SGATE, exc, None, at)"
    assert loop._source.count(classify) == 2            # both CONSUMED sites
    assert audit_loop(loop) == []
    swallowed = loop._source.replace(classify, "pass")
    findings = audit_loop_source(swallowed, loop.__globals__, plan=loop._plan)
    assert _codes(findings) == ["RP503", "RP503"]


def test_rp504_loop_without_source_attribute():
    def not_generated(packets, now):
        return []

    findings = audit_loop(not_generated)
    assert _codes(findings) == ["RP504"]
    assert "_source" in findings[0].message


# ----------------------------------------------------------------------
# RP505 — compiled lookup structures
# ----------------------------------------------------------------------
def _seeded_table():
    table = DagFilterTable(width=IPV4_WIDTH)
    for flt in random_filters(32, seed=3, host_fraction=0.3):
        try:
            table.install(FilterRecord(flt, gate="check"))
        except AmbiguousFilterError:
            continue
    table.ensure_compiled()
    return table


def _seeded_engine():
    engine = make_engine("waldvogel", IPV4_WIDTH)
    for index, flt in enumerate(random_filters(32, seed=5, host_fraction=0.3)):
        if not flt.src.is_wildcard:
            engine.insert(flt.src, index)
    engine.lookup_entry_fast(0)
    return engine


def test_rp505_dag_clean_when_untampered():
    assert audit_dag_table(_seeded_table()) == []


def test_rp505_dag_stale_epoch():
    table = _seeded_table()
    table._compiled_epoch -= 1
    table.ensure_compiled = lambda: None  # pin the tampered state
    findings = audit_dag_table(table)
    assert _codes(findings) == ["RP505"]
    assert "epoch" in findings[0].message


def test_rp505_dag_prefix_tables_out_of_order():
    table = _seeded_table()
    root = table._compiled_root
    assert root[0] == _C_PREFIX and len(root[1]) >= 2
    table._compiled_root = (root[0], tuple(reversed(root[1])), root[2])
    findings = audit_dag_table(table)
    assert "RP505" in _codes(findings)
    assert any("longest-first" in d.message for d in findings)


def _plant(table, depth, replace):
    """Swap the first node at ``depth`` on the root's first path for
    ``replace(node)``, rebuilding only the path above it: the memos
    stay as compiled, so the level check is the only thing to trip."""
    def rebuild(node, level):
        if level == depth:
            return replace(node)
        kind, a, b = node
        if kind == _C_PREFIX:
            (shift, children), *rest = a
            label, child = next(iter(children.items()))
            return (kind, ((shift, {**children, label: rebuild(child, level + 1)}), *rest), b)
        if kind == _C_RANGE:
            i = next(i for i, kid in enumerate(b) if kid is not None)
            return (kind, a, b[:i] + [rebuild(b[i], level + 1)] + b[i + 1:])
        if not a:
            return (kind, a, rebuild(b, level + 1))
        label, child = next(iter(a.items()))
        return (kind, {**a, label: rebuild(child, level + 1)}, b)

    table._compiled_root = rebuild(table._compiled_root, 0)


@pytest.mark.parametrize(
    "depth,replace,level",
    [
        (3, lambda node: (_C_EXACT, {}, node[2][0]), "sport"),
        (2, lambda node: (_C_RANGE, [], [node[2]]), "protocol"),
    ],
)
def test_rp505_dag_node_of_the_wrong_kind_for_its_level(depth, replace, level):
    """The compiled walk never reads a tag — the level fixes the kind —
    so a mis-kinded node would be mis-walked silently; the audit flags it."""
    table = _seeded_table()
    _plant(table, depth, replace)
    findings = audit_dag_table(table)
    assert _codes(findings) == ["RP505"]
    assert f"{level} level holds a kind-" in findings[0].message


def test_rp505_dag_clean_memo_differs_from_a_fresh_compile():
    """A mutation that does not dirty its path leaves a memo the next
    recompile would trust; the audit recompiles everything and compares
    — without disturbing the memos or the table's compile counters."""
    table = _seeded_table()
    record, leaf = next(
        (r, l) for r in table.records() for l in r.leaves if l.compiled is r
    )
    leaf.filters.remove(record)             # no dirty mark, no epoch bump
    counters = table.compiles, table.nodes_compiled, table.nodes_compiled_last
    findings = audit_dag_table(table)
    assert _codes(findings) == ["RP505"]
    assert "memo" in findings[0].message and "level 6" in findings[0].message
    assert leaf.compiled is record
    assert counters == (table.compiles, table.nodes_compiled, table.nodes_compiled_last)
    # Removing it the table's way dirties the path; only it is rebuilt.
    leaf.filters.append(record)
    assert table.remove(record)
    assert audit_dag_table(table) == []
    assert 0 < table.nodes_compiled_last < table.node_count() // 2


def test_rp505_engine_clean_when_untampered():
    assert audit_engine(_seeded_engine()) == []


def test_rp505_engine_tables_out_of_order():
    engine = _seeded_engine()
    assert len(engine._fast_tables) >= 2
    engine._fast_tables = tuple(reversed(engine._fast_tables))
    findings = audit_engine(engine)
    assert "RP505" in _codes(findings)


def test_rp505_engine_entry_count_mismatch():
    engine = _seeded_engine()
    shift, first = engine._fast_tables[0]
    dropped = dict(first)
    dropped.popitem()
    engine._fast_tables = ((shift, dropped),) + tuple(engine._fast_tables[1:])
    findings = audit_engine(engine)
    assert "RP505" in _codes(findings)
    assert any("entries" in d.message for d in findings)


# ----------------------------------------------------------------------
# Router-level audit: warm both layouts, then via analyze_router
# ----------------------------------------------------------------------
def _warm_router(name, max_flows=None, with_plugin=False):
    router = Router(name=name, gates=DEFAULT_GATES, max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    if with_plugin:
        library = RouterPluginLibrary(router)
        library.modload("firewall")
        library.create_instance("firewall", "fw0")
        library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    router.receive_batch(
        [make_udp("10.0.0.1", "20.0.1.1", 5000, 9000, iif="atm0")]
    )
    return router


@pytest.mark.parametrize(
    "max_flows,with_plugin,shape",
    [(None, False, "single"), (None, True, "lanes"), (64, True, "fused")],
)
def test_warm_router_audits_clean(max_flows, with_plugin, shape):
    """The three configurations that used to select three loop shapes:
    no gates and a bounded table both run the packet layout now."""
    router = _warm_router(f"audit-{shape}", max_flows, with_plugin)
    assert set(router._loops) == {"lanes" if shape == "lanes" else "packet"}
    assert audit_router_codegen(router) == []


def test_analyze_router_surfaces_codegen_findings():
    router = _warm_router("audit-wired", with_plugin=True)
    router._loops["lanes"]._plan["tm"] = True  # lie about the plan
    report = analyze_router(router)
    assert any(d.code == "RP504" for d in report)


def test_rp504_loop_filed_under_the_wrong_plan():
    router = _warm_router("audit-misfiled", with_plugin=True)
    key = (router._plan, False)
    assert router._loop_cache[key] is router._loops
    filterless = (((), False, False, True), False)
    router._loop_cache[filterless] = router._loop_cache.pop(key)
    findings = audit_router_codegen(router)
    assert _codes(findings) == ["RP504", "RP504"]
    assert "not the entry of the current plan" in findings[0].message
    assert "filed under" in findings[1].message
    assert findings[1].subject == "batch loop (lanes)"


def test_rp504_audits_cached_loops_of_other_plans():
    """A loop waiting in the cache for its plan to come back is audited
    like the active ones, against the plan it waits under."""
    router = _warm_router("audit-cached", with_plugin=True)
    waiting = router._loops["lanes"]
    record = router.aiu.create_filter("ip_options", "*, *, UDP")
    assert audit_router_codegen(router) == []       # warms the new plan
    assert "lanes" in router._loops and router._loops["lanes"] is not waiting
    waiting._plan["tm"] = True                      # lie about the plan
    findings = audit_router_codegen(router)
    assert findings and all(d.code == "RP504" for d in findings)
    assert {d.subject for d in findings} == {"cached batch loop (lanes)"}
    router.aiu.remove_filter(record)
    findings = audit_router_codegen(router)         # it is served again
    assert {d.subject for d in findings} == {"batch loop (lanes)"}


def test_subject_prefix_labels_findings():
    router = _warm_router("audit-prefix")
    router._loops["packet"]._plan["tm"] = True
    findings = audit_router_codegen(router, subject_prefix="shard3: ")
    assert findings
    assert all(d.subject == "shard3: batch loop (packet)" for d in findings)
