"""Exec-codegen audit tests, and the behaviour of the codes it retired.

RP501 fires on a planted free name and RP505 on each planted
corruption of a compiled lookup structure, and a genuinely warmed
router audits clean (so the codes can gate CI without false
positives).

RP502-RP504 audited what a generated loop does — reads time only from
its ``now``, charges every plugin fault to the plugin's domain, runs
the loop compiled for the router's current plan — by reading its
source.  They are retired (docs/STATIC_ANALYSIS.md, "Retired codes"):
their tests keep their names and now pin that behaviour on real
routers, through the metered walk (the spec), ``receive`` (the packet
layout) and ``receive_batch`` in chunks of 7 and 256 (the lanes layout
where the plan allows it), compared by the oracle's ``World.check``.
Each is a must-fail id of the catalogue row (tests/mutants/) that
plants the defect its code stood for.
"""

import pytest

from repro.aiu.dag import _C_EXACT, _C_PREFIX, _C_RANGE, DagFilterTable
from repro.aiu.matchers import AmbiguousFilterError
from repro.aiu.records import FilterRecord
from repro.analysis import (
    analyze_router,
    audit_dag_table,
    audit_engine,
    audit_loop_source,
    audit_router_codegen,
)
from repro.bmp import make_engine
from repro.core import FaultPolicy, PluginInstance, Verdict
from repro.core.gates import (
    DEFAULT_GATES,
    GATE_IP_OPTIONS,
    GATE_IP_SECURITY,
    GATE_PACKET_SCHEDULING,
)
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import IPV4_WIDTH
from repro.net.packet import make_udp
from repro.sched.fifo import FifoPlugin
from repro.workloads.filtersets import random_filters
from tests.oracle.harness import World, build_router
from tests.perf.test_batch_pipeline import (
    _bind,
    _FlakyDequeuePlugin,
    _mixed_workload,
    _plugin,
    _PortFaultyPlugin,
    _PortFilterPlugin,
)

# A minimal well-formed "generated" loop: every free name resolved by
# the namespace.
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
# RP501 — free-name discipline
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


# ----------------------------------------------------------------------
# Retired codes: what they guarded, on real routers
# ----------------------------------------------------------------------
FRONTS = ("spec", "receive", "batch7", "batch256")


def _world(configure=None, **kwargs):
    return World(lambda name: build_router(name, configure, **kwargs), fronts=FRONTS)


def _run(world, workload=_mixed_workload):
    """One burst through every front; any difference from the spec fails."""
    world.run(workload)
    assert not world.parked, world.parked
    return world


def _both_layouts(world):
    assert "packet" in world.router("receive")._loops
    assert "lanes" in world.router("batch256")._loops


class _Clock(PluginInstance):
    """Records the ``ctx.now`` of every call, per gate."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.seen = []

    def process(self, packet, ctx):
        self.packets_processed += 1
        self.seen.append((ctx.gate, ctx.now))
        return Verdict.CONTINUE


class _TwoPerTick(PluginInstance):
    """Passes two packets per clock tick and drops the rest: a decision
    that reads ``ctx.now``."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.tick, self.passed = None, 0

    def process(self, packet, ctx):
        self.packets_processed += 1
        if ctx.now != self.tick:
            self.tick, self.passed = ctx.now, 0
        self.passed += 1
        return Verdict.CONTINUE if self.passed <= 2 else Verdict.DROP


class _AlwaysFaults(PluginInstance):
    def process(self, packet, ctx):
        self.packets_processed += 1
        raise RuntimeError("fault on every call")


def test_rp502_nondeterministic_builtin():
    """A loop reads time only from its ``now``: every context a plugin
    is handed — pre-routing gate, scheduling gate — carries the time the
    burst was received at, in both layouts."""
    clocks = {}

    def configure(router):
        clock = clocks[router.name] = _bind(router, _plugin("clock", _Clock))
        clock.plugin.register_instance(clock, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)

    world = _world(configure)
    for _ in range(2):
        _run(world)
    _both_layouts(world)
    spec = clocks.pop("spec").seen
    assert {gate for gate, _ in spec} == {GATE_IP_SECURITY, GATE_PACKET_SCHEDULING}
    assert {now for _, now in spec} == {0.0, 0.01}
    for name, clock in clocks.items():
        assert sorted(clock.seen) == sorted(spec), name


def test_rp502_wins_over_rp501_for_forbidden_names():
    """A plugin whose verdict depends on ``ctx.now`` decides the same on
    every front: the generated loops hand it the burst's time, never a
    clock of their own."""
    def configure(router):
        _bind(router, _plugin("two-per-tick", _TwoPerTick))

    world = _world(configure)
    for _ in range(2):
        _run(world)
    _both_layouts(world)
    assert world.router("spec").counters["dropped_by_plugin"] > 0


def test_rp503_no_handler_at_all():
    """A plugin that raises does not unwind the batch: the faulting
    packets are dropped and charged to its domain, the rest forwarded,
    in both layouts."""
    world = _run(_world(lambda router: _bind(router, _PortFaultyPlugin)))
    _both_layouts(world)
    spec = world.router("spec")
    assert spec.counters["plugin_faults"] > 0 and spec.counters["forwarded"] > 0


def test_rp503_one_guarded_call_does_not_excuse_another():
    """Every plugin call of a loop is guarded, not only the gate calls:
    a scheduler whose ``dequeue`` raises mid-drain is charged for it
    while the gate plugin before it runs clean, in both layouts."""
    def configure(router):
        _bind(router, _PortFilterPlugin)
        plugin = _FlakyDequeuePlugin()
        router.pcu.load(plugin)
        router.set_scheduler("atm1", plugin.create_instance(interface="atm1"))
        router.faults.set_policy(plugin.name, FaultPolicy(threshold=100))

    world = _run(_world(configure))
    _both_layouts(world)
    records = world.router("spec").faults.records()
    assert records and {(r.gate, r.plugin) for r in records} == {
        (GATE_PACKET_SCHEDULING, "flaky-dequeue")}


def test_rp503_swallowing_handler():
    """A fault is never swallowed: each one is in the plugin's fault ring
    and counted, and its packet is dropped, on every front alike."""
    world = _run(_world(lambda router: _bind(router, _PortFaultyPlugin)))
    _both_layouts(world)
    spec = world.router("spec")
    faults = spec.counters["plugin_faults"]
    assert faults and len(spec.faults.records()) == faults
    assert spec.faults.domain("port-faulty").total == faults


def test_rp503_reraise_is_accepted():
    """Nothing a plugin raises leaves the router: a plugin that faults on
    every call trips its breaker, and the rest of the batch bypasses it
    — ``receive`` and ``receive_batch`` return a disposition each."""
    def configure(router):
        _bind(router, _plugin("always-faults", _AlwaysFaults))
        router.faults.set_policy(
            "always-faults", FaultPolicy(threshold=3, window=5.0, action="bypass", cooldown=10.0))

    world = _run(_world(configure))
    spec = world.router("spec")
    assert spec.counters["plugin_faults"] == 3
    assert spec.faults.domain("always-faults").quarantine_count == 1
    assert spec.counters["forwarded"] > 0


def test_rp503_on_fault_is_accepted():
    """Faults go through the fault policy: the breaker counts them and
    trips mid-batch, and every later packet the plugin would see is
    dropped without a call, in both layouts."""
    def configure(router):
        _bind(router, _PortFaultyPlugin)
        router.faults.set_policy(
            "port-faulty", FaultPolicy(threshold=2, window=5.0, action="drop", cooldown=10.0))

    world = _run(_world(configure))
    domain = world.router("spec").faults.domain("port-faulty")
    assert domain.total == 2 and domain.quarantine_count == 1
    assert "packet" in world.router("batch256")._loops      # the sweep resumed


def test_rp503_sees_the_drain_classify_through_on_fault():
    """Both sites that take a packet for a port — the scheduling gate's
    instance and the port's bound scheduler — drain it, and a faulting
    ``dequeue`` there is charged with no packet, in both layouts."""
    def configure(router):
        _bind(router, _PortFilterPlugin)
        plugin = _FlakyDequeuePlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance(interface="atm1")
        plugin.register_instance(instance, "*, *, UDP, *, 9000", gate=GATE_PACKET_SCHEDULING)
        router.set_scheduler("atm1", instance)
        router.faults.set_policy(plugin.name, FaultPolicy(threshold=100))

    world = _run(_world(configure))
    _both_layouts(world)
    spec = world.router("spec")
    assert spec.counters["queued"] and spec.counters["tx_scheduled"]
    assert spec.faults.records() and all(
        r.gate == GATE_PACKET_SCHEDULING for r in spec.faults.records())


def test_rp504_plan_field_missing_marker():
    """With telemetry on, each gate dispatch is counted in its cell by
    every layout, exactly as the metered walk counts it."""
    def configure(router):
        _bind(router, _PortFilterPlugin)
        router.attach_telemetry()

    world = _run(_world(configure))
    _both_layouts(world)
    spec = world.router("spec")
    assert spec._tm_gate_cells[spec.aiu.gate_index(GATE_IP_SECURITY)] > 0


def test_rp504_marker_without_plan_field():
    """Telemetry on and off between bursts: the loops counting gate cells
    are exactly those of the bursts telemetry was on for."""
    world = _world(lambda router: _bind(router, _PortFilterPlugin))
    _run(world)
    world.each_router(Router.attach_telemetry)
    _run(world)
    cells = list(world.router("spec")._tm_gate_cells)
    assert any(cells)
    world.each_router(Router.detach_telemetry)
    _run(world)
    world.each_router(Router.attach_telemetry)
    _run(world)
    _both_layouts(world)


def test_rp504_fused_without_on_fault():
    """Only a lanes sweep resumes: a fault there hands the batch to the
    packet layout, so the quarantine it trips holds for every later
    packet of that batch, which the metered walk drops uncalled."""
    instances = {}

    def configure(router):
        instances[router.name] = _bind(router, _PortFaultyPlugin)
        router.faults.set_policy(
            "port-faulty", FaultPolicy(threshold=1, window=5.0, action="drop", cooldown=10.0))

    world = _run(_world(configure))
    assert set(world.router("batch256")._loops) == {"lanes", "packet"}
    calls = {name: instance.packets_processed for name, instance in instances.items()}
    assert set(calls.values()) == {calls["spec"]} and calls["spec"] < 80


def test_rp504_unreferenced_pre_gate():
    """Every active pre-routing gate runs, the first one too: a drop at
    ``ip_options`` is a drop, and the ``ip_security`` plugin behind it
    sees only what passed, in both layouts."""
    clocks = {}

    def configure(router):
        _bind(router, _PortFilterPlugin, gate=GATE_IP_OPTIONS)
        clocks[router.name] = _bind(router, _plugin("clock", _Clock))

    world = _run(_world(configure))
    _both_layouts(world)
    spec = world.router("spec")
    assert spec.counters["dropped_by_plugin"] > 0
    assert {len(clock.seen) for clock in clocks.values()} == {len(clocks["spec"].seen)}


def test_rp504_scheduler_drain_follows_has_sched():
    """A port with a bound scheduler is drained by the call that queued
    to it: what was queued is transmitted in the same burst, in both
    layouts; a router that cannot queue compiles no scheduling stage at
    all.  The scheduler is a FIFO, which has no ``pass_through``: the
    loops hand each of its packets to ``Router._output``, which
    enqueues and drains."""
    def configure(router):
        _bind(router, _PortFilterPlugin)
        fifo = FifoPlugin()
        router.pcu.load(fifo)
        router.set_scheduler("atm1", fifo.create_instance(interface="atm1"))

    world = _run(_world(configure))
    _both_layouts(world)
    spec = world.router("spec")
    assert spec.counters["queued"] == spec.counters["tx_scheduled"] > 0
    bare = _run(_world(lambda router: _bind(router, _PortFilterPlugin),
                       gates=(GATE_IP_OPTIONS, GATE_IP_SECURITY)))
    loops = [fn for name in FRONTS[1:] for fn in bare.router(name)._loops.values()]
    assert loops and not any(fn._plan["has_sched"] or "schedulers" in fn._source
                             for fn in loops)


def test_rp504_loop_without_source_attribute():
    """A bounded flow table stays bounded under the generated loops (the
    packet layout: a bounded table never runs lanes): the table evicts
    exactly as the metered walk does and never holds more than its cap."""
    world = _run(_world(lambda router: _bind(router, _PortFilterPlugin), max_flows=8))
    for name in FRONTS:
        table = world.router(name).aiu.flow_table
        assert table.active <= table.allocated <= 8 and table.evictions > 0, name
    assert set(world.router("batch256")._loops) == {"packet"}


def _flap(world, records):
    """Bind a port filter on every router, or remove the one bound."""
    def flap(router):
        if router.name in records:
            router.aiu.remove_filter(records.pop(router.name))
            return
        if not router.pcu.is_loaded("port-filter"):
            router.pcu.load(_PortFilterPlugin())
        plugin = router.pcu.get("port-filter")
        records[router.name] = plugin.register_instance(
            plugin.create_instance(), "*, *, UDP", gate=GATE_IP_SECURITY)
    world.each_router(flap)


def test_rp504_loop_filed_under_the_wrong_plan():
    """A bind or an unbind between bursts changes the plan, and the next
    burst runs the new plan's loop: the filter drops from its first
    packet on, and stops when it is gone."""
    world, records = _world(), {}
    _run(world)
    _flap(world, records)
    _run(world)
    assert world.router("spec").counters["dropped_by_plugin"] > 0
    _both_layouts(world)
    _flap(world, records)
    _run(world)
    for name in FRONTS[1:]:
        assert set(world.router(name)._loops) == {"packet"}, name


def test_rp504_audits_cached_loops_of_other_plans():
    """A plan that comes back runs the loops compiled for it before,
    without compiling them again."""
    world, records = _world(), {}
    _run(world)
    first = {name: dict(world.router(name)._loops) for name in FRONTS[1:]}
    for _ in range(2):
        _flap(world, records)
        _run(world)
    for name, loops in first.items():
        router = world.router(name)
        assert router.loop_reuses == 1, name
        assert all(router._loops[layout] is fn for layout, fn in loops.items()), name


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
    del router._loops["lanes"].__globals__["TEXC"]  # a name the emitter uses
    report = analyze_router(router)
    assert [d.code for d in report] == ["RP501"]


def test_subject_prefix_labels_findings():
    router = _warm_router("audit-prefix")
    del router._loops["packet"].__globals__["TEXC"]
    findings = audit_router_codegen(router, subject_prefix="shard3: ")
    assert _codes(findings) == ["RP501"]
    assert findings[0].subject == "shard3: batch loop (packet)"
