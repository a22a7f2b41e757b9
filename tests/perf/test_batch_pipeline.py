"""The generated un-metered executor (repro.core.batch) against the
metered walk, configuration by configuration.

Each differential case is a step program for the oracle's world
(tests/oracle/harness.py): the routers are set up by ``configure``, the
traffic goes through every front — ``receive``, ``receive_batch`` at 1,
7 and 256 in the layout the plan picks, wire in → wire out, two inline
shards, a single-node topology — and ``World.check`` compares
dispositions, counters, flow tables, telemetry cells, fault rings,
health and emitted bytes with the spec.  What stays here is what the
world does not see: which layout ran, loop caching, the batch-start
hook, tracer batching, re-entrancy, and the two documented divergences,
pinned by name at the bottom.
"""

import random

import pytest

from repro.core import (
    DEGRADE_BYPASS,
    FaultPolicy,
    GATE_IP_OPTIONS,
    GATE_IP_SECURITY,
    GATES_WITH_L4_ROUTING,
    Plugin,
    PluginInstance,
    Router,
    TYPE_IP_SECURITY,
    Verdict,
)
from repro.core.batch import loop_for
from repro.core.gates import GATE_PACKET_SCHEDULING, GATE_ROUTING
from repro.core.routing_plugin import L4RoutingPlugin
from repro.net.interfaces import NetworkInterface
from repro.net.packet import make_udp
from repro.sched import CbqPlugin, SchedulerInstance, SchedulerPlugin
from repro.sched.drr import DrrPlugin
from repro.sim.cost import NULL_METER, CycleMeter
from repro.sim.events import EventLoop
from tests.oracle.harness import FRONTS, Tap, World, build_router

SINGLE = ("spec", "receive", "batch1", "batch7", "batch256", "wire", "topology")
CHUNKS = (1, 7, 256)
_build = build_router


def _plugin(name, instance_class, plugin_type=TYPE_IP_SECURITY, base=Plugin):
    return type(f"{instance_class.__name__}Plugin", (base,), {
        "plugin_type": plugin_type, "name": name, "instance_class": instance_class})


class _PortFilter(PluginInstance):
    def process(self, packet, ctx):
        self.packets_processed += 1
        return Verdict.DROP if packet.dst_port == 7777 else Verdict.CONTINUE


class _NthFaulter(PluginInstance):
    """Raises on every n-th call — mid-batch, by construction."""

    def __init__(self, plugin, every=5, **config):
        super().__init__(plugin, **config)
        self.every, self.calls = every, 0

    def process(self, packet, ctx):
        self.calls += 1
        if self.calls % self.every == 0:
            raise RuntimeError(f"fault at call {self.calls}")
        return Verdict.CONTINUE


class _PortFaulter(PluginInstance):
    """Faults on a fixed set of packets — order-invariant by design."""

    def process(self, packet, ctx):
        self.packets_processed += 1
        if packet.src_port % 9 == 4:
            raise RuntimeError(f"fault on src port {packet.src_port}")
        return Verdict.CONTINUE


class _FlakyScheduler(_PortFaulter):
    """A pass-through scheduler that faults on marked packets."""

    def dequeue(self, now):
        return None


_PortFilterPlugin = _plugin("port-filter", _PortFilter)
_FaultyPlugin = _plugin("faulty-batch", _NthFaulter)
_PortFaultyPlugin = _plugin("port-faulty", _PortFaulter)
_FlakySchedulerPlugin = _plugin("flaky-sched", _FlakyScheduler)


def _bind(router, plugin_cls, gate=GATE_IP_SECURITY, spec="*, *, UDP", **config):
    plugin = plugin_cls()
    router.pcu.load(plugin)
    instance = plugin.create_instance(**config)
    plugin.register_instance(instance, spec, gate=gate)
    return instance


def _filtered(router):
    _bind(router, _PortFilterPlugin)


def _mixed_workload(seed=42, count=80):
    """Hits, misses, TTL expiry, no-route, plugin drops — shuffled."""
    packets = []
    for i in range(count // 4):
        for _ in range(3):
            packets.append(
                make_udp("10.0.0.1", f"20.0.1.{i % 9 + 1}", 5000 + i, 9000, iif="atm0"))
    for i in range(count // 8):
        packets.append(make_udp("10.0.2.1", "20.0.2.1", 6000 + i, 9000, iif="atm0"))
        packets.append(make_udp("10.0.3.1", "20.0.3.1", 7000 + i, 9000, iif="atm0", ttl=1))
        packets.append(make_udp("10.0.4.1", "40.0.0.1", 7100 + i, 9000, iif="atm0"))
        packets.append(make_udp("10.0.5.1", "20.0.5.1", 7200 + i, 7777, iif="atm0"))
    random.Random(seed).shuffle(packets)
    return packets


def _state(router):
    state = {
        "counters": dict(router.counters),
        "flow_stats": router.aiu.flow_table.stats(),
        "filter_lookups": router.aiu.filter_lookups,
        "tx": {
            name: (iface.tx_packets, iface.tx_bytes, iface.next_free)
            for name, iface in router.interfaces.items()
        },
        "emitted": {
            name: iface.link.emitted
            for name, iface in router.interfaces.items()
            if iface.link is not None
        },
        "health": router.faults.health(),
        "fault_ring": [r.signature() for r in router.faults.records()],
    }
    if router._tm_gate_cells is not None:
        state["gate_cells"] = list(router._tm_gate_cells)
        state["size_counts"] = list(router.aiu._tm_size_counts)
    return state


def _run_differential(make_router, workload=_mixed_workload, chunks=CHUNKS):
    """The spec, ``receive`` and ``receive_batch`` at each of ``chunks``
    on the oracle's world; returns the routers by arm."""
    world = World(make_router, fronts=("receive",) + tuple(f"batch{c}" for c in chunks))
    world.run(workload)
    assert not world.parked
    return {name: world.router(name) for name in world.fronts}


def _run(configure=None, workload=_mixed_workload, fronts=FRONTS, **kwargs):
    """``workload`` through every front of a world whose routers
    ``configure`` sets up; any difference from the spec fails, except
    that shards keep their own fault windows and call counters."""
    world = World(lambda name: build_router(name, configure, **kwargs), fronts=fronts)
    world.run(workload)
    assert set(world.parked.items()) <= {("sharded", "per_shard_state")}, world.parked
    return world


def _layouts(world):
    """Layouts compiled per front; every compiled loop names its own."""
    out = {}
    for name, front in world.fronts.items():
        out[name] = set()
        for router in front.routers:
            assert all(fn._plan["layout"] == layout for layout, fn in router._loops.items())
            out[name] |= set(router._loops)
    return out


# ----------------------------------------------------------------------
# Layout coverage
# ----------------------------------------------------------------------
def test_single_shape_matches_scalar():
    """No active pre-routing gate: every entry runs the packet layout —
    and the metered walks compile nothing."""
    layouts = _layouts(_run())
    assert layouts.pop("spec") == layouts.pop("topology") == set()
    assert all(names == {"packet"} for names in layouts.values())


def test_lanes_shape_matches_scalar():
    layouts = _layouts(_run(_filtered))
    assert layouts["receive"] == {"packet"}
    assert all(layouts[f] == {"lanes"}
               for f in ("batch1", "batch7", "batch256", "wire", "sharded"))


def test_fused_shape_bounded_table_matches_scalar():
    """A capped flow table keeps receive_batch on the packet layout:
    in-batch evictions interleave with packet processing exactly as the
    metered order demands."""
    layouts = _layouts(_run(_filtered, max_flows=8))
    assert all(layouts[f] == {"packet"}
               for f in ("receive", "batch1", "batch7", "batch256", "wire", "sharded"))


def test_telemetry_cells_and_histogram_match_scalar():
    """``gate.<gate>.dispatch`` counts dispatches into gates that have
    filters, whichever executor ran: with one gate of three active the
    metered walk must not count the two it merely visits."""
    def configure(router):
        router.attach_telemetry()
        _filtered(router)

    spec = _run(configure).router("spec")
    cells = spec._tm_gate_cells
    assert cells[spec.aiu.gate_index(GATE_IP_SECURITY)] == sum(cells) == len(_mixed_workload())


def test_uneven_chunks_and_chunk_of_one():
    _run(fronts=("receive", "batch1", "batch3", "batch64"))


def test_metered_batch_takes_the_specification_path():
    """A real meter forces per-packet receive(); dispositions and the
    modelled cycle totals must match the scalar metered run."""
    scalar, batched = build_router("scalar", _filtered), build_router("batched", _filtered)
    scalar_meter, batch_meter = CycleMeter(), CycleMeter()
    expected = [scalar.receive(p, cycles=scalar_meter) for p in _mixed_workload()]
    assert batched.receive_batch(_mixed_workload(), cycles=batch_meter) == expected
    assert batch_meter.total == scalar_meter.total
    assert _state(batched) == _state(scalar)
    assert not batched._loops


def test_tracer_that_samples_nothing_leaves_the_batch_batched(monkeypatch):
    """An attached tracer none of whose flows are in the batch must not
    turn ``receive_batch`` into per-packet calls: one generated loop
    over the whole batch, state equal to a tracer-less twin."""
    folds = {p.flow_fold32() for p in _mixed_workload()}
    sample = next(n for n in range(2, 10_000) if all(f % n for f in folds))
    plain, traced = build_router("plain", _filtered), build_router("traced", _filtered)
    tracer = traced.attach_lifecycle_tracer(sample=sample)
    monkeypatch.setattr(
        Router, "receive", lambda *a, **k: pytest.fail("per-packet receive"))
    assert (traced.receive_batch(_mixed_workload())
            == plain.receive_batch(_mixed_workload()))
    assert _state(traced) == _state(plain)
    assert set(traced._loops) == {"lanes"}
    assert tracer.sampled == 0


def test_mixed_batch_under_a_tracer_matches_packet_by_packet():
    """Sampled packets walk traced, the unsampled runs between them stay
    batched, in arrival order: same dispositions, state and spans as
    feeding the packets one by one."""
    scalar, batched = build_router("one-by-one", _filtered), build_router("batched", _filtered)
    tracers = [r.attach_lifecycle_tracer(sample=3) for r in (scalar, batched)]
    expected = [scalar.receive(p) for p in _mixed_workload()]
    assert batched.receive_batch(_mixed_workload()) == expected
    assert _state(batched) == _state(scalar)
    one_by_one, split = (
        [(s.flow, s.disposition, s.stages, s.details) for s in t.spans()] for t in tracers)
    assert split == one_by_one
    assert 0 < len(split) < len(expected)
    assert set(batched._loops) == {"lanes"}


def _v6_workload():
    """Labelled IPv6 flows (hits and misses) between two /32s."""
    packets = [
        make_udp(f"2001:db8::{i % 5 + 1}", "2001:db9::1", 5000 + i % 5, 9000,
                 iif="atm0", flow_label=0x100 + i % 5)
        for i in range(40)
    ]
    random.Random(3).shuffle(packets)
    return packets


def _v6_flow_label(router):
    router.aiu.flow_table.use_flow_label = True
    _filtered(router)


_SPECIAL_GATES = (GATE_ROUTING, GATE_PACKET_SCHEDULING)


def test_scalar_fallback_configs_still_match():
    """Configs whose classification cannot be inlined (flow cache off,
    IPv6 flow-label hashing, no pre-routing gate to anchor it at) get
    the same loops with the classify stage emitted as a call to
    ``AIU.classify``.  (``gates=()`` is not a configuration: the AIU
    rejects it.)"""
    for configure, workload, kwargs in (
        (_filtered, _mixed_workload, {"use_flow_cache": False}),
        (_v6_flow_label, _v6_workload, {}),
        (None, _mixed_workload, {"gates": _SPECIAL_GATES}),
        (lambda r: _bind(r, _PortFilterPlugin, gate=GATE_PACKET_SCHEDULING),
         _mixed_workload, {"gates": _SPECIAL_GATES}),
    ):
        world = _run(configure, workload, **kwargs)
        for name in ("receive", "batch7", "wire"):
            assert not loop_for(world.router(name))._plan["probe"]
    with pytest.raises(ValueError):
        Router(gates=())


@pytest.mark.parametrize("pre_gate", [False, True], ids=["packet", "lanes"])
def test_l4_switching_at_the_routing_gate_matches_scalar(pre_gate):
    """Filters on the routing gate (§8's L4 switching): one instance
    forwards flows chosen by source port out ``atm2`` — some of them to
    a destination the table has no route for — and one blackholes a
    source net; every front agrees with the metered walk."""
    def configure(router):
        if pre_gate:
            _filtered(router)
        plugin = L4RoutingPlugin()
        router.pcu.load(plugin)
        switch = plugin.create_instance(action="forward", interface="atm2")
        plugin.register_instance(switch, "*, 20.0.1.0/24, UDP, 5000-5009, *", gate=GATE_ROUTING)
        plugin.register_instance(switch, "*, *, UDP, 7100-7105, *", gate=GATE_ROUTING)
        hole = plugin.create_instance(action="blackhole")
        plugin.register_instance(hole, "10.0.2.0/24, *, UDP", gate=GATE_ROUTING)

    world = _run(configure, gates=GATES_WITH_L4_ROUTING)
    spec = world.router("spec")
    assert spec.interfaces["atm2"].tx_packets > 0
    assert spec.counters["dropped_no_route"] > len(_mixed_workload()) // 8
    assert all(loop_for(world.router(name))._plan["routing_active"]
               for name in ("receive", "batch7", "batch256", "wire"))
    assert set(world.router("batch256")._loops) == {"lanes" if pre_gate else "packet"}


# ----------------------------------------------------------------------
# Parse-once contract on the data path
# ----------------------------------------------------------------------
def test_batch_folds_each_five_tuple_exactly_once():
    """Fresh packets cost one five-tuple derivation each; wire packets
    pre-warmed by Packet.parse() cost zero on either entry point."""
    from repro.net.packet import PARSE_STATS, Packet

    scalar, batched = build_router("scalar", _filtered), build_router("batched", _filtered)
    fresh = _mixed_workload(count=40)
    before = PARSE_STATS.tuple_derivations
    batched.receive_batch(fresh)
    assert PARSE_STATS.tuple_derivations == before + len(fresh)

    def warmed():
        return [Packet.parse(p.serialize(), iif="atm0") for p in _mixed_workload(count=40)]

    first, second = warmed(), warmed()
    before = PARSE_STATS.tuple_derivations
    expected = [scalar.receive(p) for p in first]
    assert batched.receive_batch(second) == expected
    # Parse already derived the folds; neither data path re-derives.
    assert PARSE_STATS.tuple_derivations == before


# ----------------------------------------------------------------------
# Plan/epoch invalidation
# ----------------------------------------------------------------------
def test_filter_install_between_batches_recompiles_the_loop():
    world = _run(workload=lambda: _mixed_workload(seed=1, count=40))
    batched = world.router("batch256")
    assert set(batched._loops) == {"packet"}
    world.each_router(_filtered)
    world.run(lambda: _mixed_workload(seed=2, count=40))
    # A gate went active: every loop compiled for the old plan is gone.
    assert set(batched._loops) == {"lanes"}

    # A second filter at the same gate bumps the epoch but leaves the
    # plan as it was: the loop is kept, not recompiled.
    kept = batched._loops["lanes"]
    epoch = batched.aiu.plan_epoch
    batched.aiu.create_filter(GATE_IP_SECURITY, "10.9.0.0/16, *, UDP")
    assert batched.aiu.plan_epoch > epoch
    batched.receive_batch(_mixed_workload(seed=3, count=8))
    assert batched._loops == {"lanes": kept}


def test_plan_flips_serve_each_plan_its_own_loops_compiled_once():
    """bind -> unbind -> bind, telemetry on/off and ``set_scheduler``
    between bursts on the *same* routers: every front stays equal to the
    metered walk across each flip, a plan that comes back gets the very
    loop objects it had, and no loop is ever served under a plan or
    telemetry state other than the one it was compiled for."""
    extra = {}

    def configure(router):
        _bind(router, _PortFilterPlugin, gate=GATE_IP_OPTIONS)
        plugin = _HookedPlugin()
        router.pcu.load(plugin)
        extra[router.name] = plugin, plugin.create_instance()

    world = World(lambda name: build_router(
        name, configure, gates=(GATE_IP_OPTIONS, GATE_IP_SECURITY)))
    arms = ("receive", "batch7", "batch256")
    served = []         # per phase: arm -> {layout: loop}

    def phase(seed, verb=None):
        if verb is not None:
            world.each_router(lambda router: verb(router, *extra[router.name]))
        world.run(lambda: _mixed_workload(seed=seed, count=40))
        assert set(world.parked.items()) <= {("sharded", "per_shard_state")}
        for front in world.live():
            for router in front.routers:
                for fn in router._loops.values():
                    assert fn._plan["pre"] == router._plan[0]
                    assert fn._plan["has_sched"] == router._plan[3]
                    assert fn._plan["tm"] == (router._tm_gate_cells is not None)
        served.append({arm: dict(world.router(arm)._loops) for arm in arms})

    def bind(router, plugin, instance):
        plugin.register_instance(instance, "10.0.5.0/24, *, UDP", gate=GATE_IP_SECURITY)

    def unbind(router, plugin, instance):
        assert plugin.deregister_instance(instance)

    phase(1)                                                    # 0: one gate
    phase(2, bind)                                              # 1: two gates
    phase(3, unbind)                                            # 2: one gate again
    phase(4, bind)                                              # 3: two again
    phase(5, lambda router, *_: router.attach_telemetry())      # 4: two + telemetry
    phase(6, unbind)                                            # 5: one + telemetry
    phase(7, lambda router, *_: router.detach_telemetry())      # 6: one gate, off
    phase(8, lambda router, *_: _drr(router))                   # 7: can queue now

    assert served[2] == served[0] == served[6] and served[3] == served[1]
    for arm in arms:
        router = world.router(arm)
        assert served[1][arm] and served[1][arm].keys() == served[0][arm].keys()
        for other in (1, 4, 5, 7):
            assert not set(served[0][arm].values()) & set(served[other][arm].values())
        assert all(fn._plan["has_sched"] for fn in served[7][arm].values())
        assert router.counters["queued"] > 0
        # Five distinct (plan, telemetry) states, each layout compiled once.
        assert sum(1 for loops in router._loop_cache.values() if loops) == 5
        assert router.loop_compiles == sum(map(len, router._loop_cache.values()))
        assert router.loop_reuses == 3                          # phases 2, 3 and 6
    assert not world.router("spec").loop_compiles


def test_loop_cache_is_bounded_and_drops_the_least_recently_selected():
    from repro.analysis import audit_router_codegen
    from repro.core.router import LOOP_CACHE_PLANS

    gates = ("g0", "g1", "g2", "g3")
    router = build_router("many-plans", gates=gates)
    records = {}

    def run(active):
        """Make exactly ``active`` the gates with a filter; one batch."""
        for gate in gates:
            if (gate in active) != (gate in records):
                if gate in active:
                    records[gate] = router.aiu.create_filter(gate, "*, *, UDP")
                else:
                    router.aiu.remove_filter(records.pop(gate))
        burst = [make_udp("10.0.0.1", "20.0.1.1", 5000 + i, 9000, iif="atm0")
                 for i in range(8)]
        assert router.receive_batch(burst) == ["forwarded"] * 8
        assert router._loops is router._loop_cache[(router._plan, False)]
        assert len(router._loop_cache) <= LOOP_CACHE_PLANS
        return router._loops

    subsets = [gates[:n] for n in range(1, 5)] + [gates[n:] for n in range(1, 4)]
    subsets += [("g0", "g2"), ("g1", "g3")]
    assert len(set(subsets)) == LOOP_CACHE_PLANS + 1
    first = [run(active) for active in subsets[:2]]
    assert run(subsets[0]) is first[0]              # re-selected: now the newest
    for active in subsets[2:]:
        run(active)
    # The ninth plan made room for itself: the least recently selected
    # one went, the re-selected one stayed.
    assert run(subsets[0]) is first[0]
    assert run(subsets[1]) is not first[1]
    assert audit_router_codegen(router) == []


# ----------------------------------------------------------------------
# Fault / quarantine equivalence (mid-batch resume)
# ----------------------------------------------------------------------
_POLICIES = [
    FaultPolicy(threshold=1000, window=1.0),                       # capture only
    FaultPolicy(threshold=1, window=5.0, action="drop", cooldown=10.0),
    FaultPolicy(threshold=2, window=5.0, action=DEGRADE_BYPASS, cooldown=10.0),
]
_TRIP_DROP = FaultPolicy(threshold=2, window=5.0, action="drop", cooldown=10.0)


@pytest.mark.parametrize("policy", _POLICIES, ids=["capture", "trip1", "bypass2"])
@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "fused"])
def test_mid_batch_fault_splits_match_scalar(policy, bounded):
    """A plugin fault mid-batch: earlier packets finished first, the
    faulter takes the fault verdict, later packets observe any freshly
    tripped quarantine — in the metered walk's order, however many
    faults land in one batch (the fault ring's sequence numbers are part
    of the compared state)."""
    def configure(router):
        _bind(router, _FaultyPlugin, every=5)
        router.faults.set_policy("faulty-batch", policy)

    world = _run(configure, max_flows=16 if bounded else None)
    assert len(world.router("spec").faults.records()) > (policy.threshold > 1)
    if not bounded:
        # The sweep left through _resume, which compiled the packet layout.
        assert set(world.router("batch256")._loops) == {"lanes", "packet"}


@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "fused"])
def test_fault_at_two_gates_same_instance_matches_scalar(bounded):
    """One instance bound at two pre-routing gates, faulting mid-batch:
    the resume must start at the *next* gate position, not re-run the
    faulting gate.  The lanes layout reorders cross-gate call
    interleaving (documented divergence), so its faulter keys off the
    packet itself; the packet layout preserves the metered call order
    exactly, so there the call-counting faulter must also agree."""
    def configure(router):
        plugin = _FaultyPlugin() if bounded else _PortFaultyPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance(**({"every": 7} if bounded else {}))
        for gate in (GATE_IP_OPTIONS, GATE_IP_SECURITY):
            plugin.register_instance(instance, "*, *, UDP", gate=gate)
        router.faults.set_policy(plugin.name, _TRIP_DROP)

    _run(configure, max_flows=16 if bounded else None)


def test_scheduler_fault_quarantine_is_seen_by_later_gate_calls_in_the_batch():
    """One instance is ``atm1``'s bound scheduler and, for port-9000
    flows, also filter-bound at the scheduling gate.  When a bound-
    scheduler call faults and trips the quarantine, the gate calls of
    the packets behind it in the same batch must be intercepted — the
    lanes tail intercepts like the packet layout does."""
    def configure(router):
        _filtered(router)                           # keeps receive_batch on lanes
        instance = _bind(router, _FlakySchedulerPlugin, gate=GATE_PACKET_SCHEDULING,
                         spec="*, *, UDP, *, 9000")
        router.set_scheduler("atm1", instance)
        router.faults.set_policy(
            "flaky-sched", FaultPolicy(threshold=1, window=5.0, action="drop", cooldown=10.0))

    world = _run(configure, lambda: [
        make_udp("10.0.0.1", "20.0.1.1", 5000 + i, 9000 + i % 2, iif="atm0")
        for i in range(40)])
    assert set(world.router("batch256")._loops) == {"lanes"}
    domain = world.router("spec").faults.domain("flaky-sched")
    assert domain.total >= 1 and domain.dropped > 0


# ----------------------------------------------------------------------
# Scheduler path: an empty DRR's pass-through, the spec's stage otherwise
# ----------------------------------------------------------------------
def _drr(router, gate_spec=None, bound=True, **config):
    """A DRR instance on ``atm1``: filter-bound at the scheduling gate
    for ``gate_spec``, bound with ``set_scheduler``, or both."""
    if router.pcu.is_loaded("drr"):
        plugin = router.pcu.get("drr")
    else:
        plugin = DrrPlugin()
        router.pcu.load(plugin)
    instance = plugin.create_instance(interface="atm1", quantum=4096, **config)
    if gate_spec is not None:
        plugin.register_instance(instance, gate_spec, gate=GATE_PACKET_SCHEDULING)
    if bound:
        router.set_scheduler("atm1", instance)
    return instance


def _assert_drained_by_the_loop(world):
    """Every front conserves packets — what left a port was forwarded
    directly or drained from a scheduler — and every modelled dequeue
    is an emitted transmit.  Returns the drained count."""
    spec = world.router("spec")
    scheduled = spec.counters["tx_scheduled"]
    if spec.loop is None:       # the event loop's _tx_one is not metered
        modelled = world.spec.meter.breakdown().get("sched_dequeue", 0)
        assert modelled == scheduled * getattr(spec.scheduler("atm1"), "dequeue_cost", 0)
    for name, front in world.fronts.items():
        sent = sum(i.tx_packets for r in front.routers for i in r.interfaces.values())
        forwarded = sum(r.counters["forwarded"] for r in front.routers)
        assert sent == forwarded + scheduled, name
        assert any("tx_scheduled" in r.counters for r in front.routers) == (scheduled > 0)
    return scheduled


@pytest.fixture
def no_spec_entry(monkeypatch):
    """An empty DRR that is the port's scheduler takes the packet in the
    generated loop (``pass_through``): no loop hands one to
    ``Router._output``, the metered walk's scheduling stage."""
    output = Router._output

    def metered_output(self, packet, oif, now, cycles):
        assert cycles is not NULL_METER, "_output from a generated loop"
        return output(self, packet, oif, now, cycles)

    monkeypatch.setattr(Router, "_output", metered_output)


def test_drr_scheduler_queued_dispositions_match_scalar():
    world = _run(lambda router: _drr(router, "*, *, UDP"))
    assert world.router("batch7").counters["queued"] > 0


@pytest.mark.parametrize("gate_spec,bound", [
    ("*, *, UDP", True),                # the sched_drr benchmark's shape
    (None, True),                       # set_scheduler only: no FIX slot
    ("*, *, UDP", False),               # the consuming gate instance self-registers
    ("*, *, UDP, *, 9000", True),       # some flows by the gate, the rest bound
], ids=["gate+bound", "bound-only", "gate-only", "mixed"])
@pytest.mark.parametrize("pre_gate", [False, True], ids=["packet", "lanes"])
def test_drr_drain_matches_scalar(gate_spec, bound, pre_gate, no_spec_entry):
    def configure(router):
        if pre_gate:
            _filtered(router)
        _drr(router, gate_spec, bound)

    world = _run(configure)
    assert _assert_drained_by_the_loop(world) > 0
    assert world.router("batch7").counters["queued"] > 0
    assert set(world.router("batch256")._loops) == {"lanes" if pre_gate else "packet"}


@pytest.mark.parametrize("scheduler", [True, False], ids=["drr", "direct"])
@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "packet"])
def test_tx_scheduled_conserves_transmits(scheduler, bounded, no_spec_entry):
    """``tx_packets == forwarded + tx_scheduled`` on every executor —
    metered and un-metered ``receive``, ``receive_batch`` in both
    layouts, a lanes sweep left through ``_resume`` by a faulting gate —
    and the key never materialises on a router that scheduled nothing."""
    def configure(router):
        router.routing_table.add("40.0.0.0/8", "atm2")      # no scheduler there
        _bind(router, _PortFaultyPlugin)
        if scheduler:
            _drr(router, "*, 20.*, UDP", bound=False)

    world = _run(configure, max_flows=64 if bounded else None)
    scheduled = _assert_drained_by_the_loop(world)
    spec = world.router("spec")
    assert (scheduled > 0) == scheduler and spec.counters["forwarded"] > 0
    assert spec.faults.domain("port-faulty").total > 0
    # A lanes sweep that faulted re-entered the packet layout.
    assert set(world.router("batch256")._loops) == (
        {"packet"} if bounded else {"lanes", "packet"})


def test_gate_instance_consumes_into_another_bound_scheduler():
    """The drain serves the interface's scheduler, not the instance that
    consumed: flows queued by a gate-bound instance wait (forever, here)
    while the bound one drains."""
    def configure(router):
        _drr(router, "*, *, UDP, *, 9000", bound=False)
        _drr(router)

    world = _run(configure)
    assert 0 < _assert_drained_by_the_loop(world) < world.router("spec").counters["queued"]


def test_bound_scheduler_without_a_scheduling_gate(no_spec_entry):
    """``has_sched`` is the router's ability to queue, not the gate: a
    scheduler bound on a router built without the scheduling gate takes
    its packets in the same emitted stage, and binding it recompiles."""
    def configure(router):
        assert router.receive(_mixed_workload()[0]) == "forwarded"
        assert not router._loops["packet"]._plan["has_sched"]
        _drr(router)

    world = _run(configure, gates=(GATE_IP_OPTIONS, GATE_IP_SECURITY), fronts=SINGLE)
    assert _assert_drained_by_the_loop(world) > 0
    assert loop_for(world.router("batch7"))._plan["has_sched"]


class _FlakyDequeue(SchedulerInstance):
    """FIFO whose ``dequeue`` raises on every third call."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.fifo, self.calls = [], 0

    def enqueue(self, packet, ctx):
        self.fifo.append(packet)
        return True

    def dequeue(self, now):
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError(f"dequeue fault at call {self.calls}")
        return self.fifo.pop(0) if self.fifo else None

    def backlog(self):
        return len(self.fifo)


class _FlakyDequeuePlugin(SchedulerPlugin):
    name = "flaky-dequeue"
    instance_class = _FlakyDequeue


@pytest.mark.parametrize("action", ["drop", DEGRADE_BYPASS])
@pytest.mark.parametrize("pre_gate", [False, True], ids=["packet", "lanes"])
def test_dequeue_faults_mid_batch_until_quarantine_trips(action, pre_gate):
    """A faulting ``dequeue`` is charged to the scheduler's domain with
    no packet, ends that drain (the backlog waits for the next kick),
    and — once the threshold trips — the bound scheduler's ``process``
    is intercepted: dropped, or bypassed to a direct emit."""
    instances = {}

    def configure(router):
        if pre_gate:
            _filtered(router)
        plugin = _FlakyDequeuePlugin()
        router.pcu.load(plugin)
        instances[router.name] = plugin.create_instance(interface="atm1")
        router.set_scheduler("atm1", instances[router.name])
        router.faults.set_policy(
            plugin.name, FaultPolicy(threshold=4, window=5.0, action=action, cooldown=10.0))

    world = _run(configure)
    _assert_drained_by_the_loop(world)
    spec = world.router("spec")
    domain = spec.faults.domain("flaky-dequeue")
    assert domain.total == 4 and domain.quarantine_count == 1
    assert all(r.gate == GATE_PACKET_SCHEDULING for r in spec.faults.records())
    intercepted = "forwarded" if action == DEGRADE_BYPASS else "dropped_by_plugin"
    assert spec.counters["queued"] and spec.counters[intercepted]
    for name in SINGLE:
        assert instances[name].calls == instances["spec"].calls, name
        assert instances[name].backlog() == instances["spec"].backlog(), name


class _CountingInterface(NetworkInterface):
    """Not the stock class: the loops must call ``output``, not inline it."""

    outputs = 0

    def output(self, packet, now=0.0):
        self.outputs += 1
        return super().output(packet, now)


def test_drain_calls_output_on_an_interface_subclass(no_spec_entry):
    def configure(router):
        port = router.interfaces["atm1"] = _CountingInterface("atm1", rate_bps=1e6)
        port.link = Tap()
        _drr(router, "*, *, UDP, *, 9000")

    world = _run(configure)
    assert _assert_drained_by_the_loop(world) > 0
    for name, front in world.fronts.items():
        for router in front.routers:
            port = router.interfaces["atm1"]
            assert port.outputs == port.tx_packets > 0, name


def test_event_loop_owns_the_drain(monkeypatch):
    """With an event loop the tail hands the packet to the spec, which
    only kicks: transmissions are the loop's ``_tx_one`` events, paced by
    the link, in every front."""
    kicks = []
    kick = Router._kick
    monkeypatch.setattr(
        Router, "_kick", lambda self, *a, **k: (kicks.append(self.name), kick(self, *a, **k))[1])

    def configure(router):
        router.attach_loop(EventLoop())
        _filtered(router)
        _drr(router, "*, *, UDP")

    world = _run(configure)
    scheduled = _assert_drained_by_the_loop(world)
    assert scheduled == world.router("spec").counters["queued"] > 0
    for name in SINGLE:
        router = world.router(name)
        assert kicks.count(router.name) == scheduled, name
        assert router.loop.now == router.interfaces["atm1"].next_free > 0, name


def test_non_work_conserving_scheduler_leaves_backlog_across_batches():
    """A bounded CBQ class out of tokens returns ``None`` with packets
    queued: the drain stops, the backlog carries over into the next
    batch's kicks, and a full class tail-drops.  (Not sharded: each
    shard's class would hold its own token bucket.)"""
    instances = {}

    def configure(router):
        _filtered(router)
        plugin = CbqPlugin()
        router.pcu.load(plugin)
        instance = instances[router.name] = plugin.create_instance(interface="atm1")
        instance.add_class("slow", rate_bps=64_000, bounded=True, default=True,
                           qlimit=24, burst_bytes=280)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)

    world = _run(configure, fronts=SINGLE)
    scheduled = _assert_drained_by_the_loop(world)
    spec = world.router("spec")
    assert 0 < scheduled < spec.counters["queued"]
    assert spec.counters["dropped_by_plugin"] > 5          # plugin drops + tail drops
    for name, instance in instances.items():
        assert instance.backlog() == spec.counters["queued"] - scheduled == 24, name


# ----------------------------------------------------------------------
# The batch-start hook
# ----------------------------------------------------------------------
class _HookedFilter(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.batch_calls = []

    def on_batch_start(self, now, batch_size):
        self.batch_calls.append((now, batch_size))

    def process(self, packet, ctx):
        self.packets_processed += 1
        return Verdict.CONTINUE


_HookedPlugin = _plugin("hooked", _HookedFilter)


def test_on_batch_start_called_once_per_batch():
    router = build_router("hooked")
    instance = _bind(router, _HookedPlugin)
    packets = _mixed_workload(count=40)
    sizes = []
    for start in range(0, len(packets), 9):
        chunk = packets[start:start + 9]
        router.receive_batch(chunk, now=1.5)
        sizes.append(len(chunk))
    assert instance.batch_calls == [(1.5, size) for size in sizes]
    # A lone packet is a batch of one.
    router.receive(_mixed_workload(count=8)[0], now=2.5)
    assert instance.batch_calls[-1] == (2.5, 1)


def test_on_batch_start_must_not_change_behavior():
    """The hook contract: the metered walk never calls the hook, so a
    hook-bearing plugin must produce identical dispositions and state on
    every path — the hook only hoists invariants."""
    world = _run(lambda router: _bind(router, _HookedPlugin))
    assert not world.router("spec")._batch_hooks
    assert len(world.router("batch7")._batch_hooks) == 1


class _FaultyHook(_HookedFilter):
    """Its batch-start hook raises on its first call only."""

    def on_batch_start(self, now, batch_size):
        _HookedFilter.on_batch_start(self, now, batch_size)
        if len(self.batch_calls) == 1:
            raise RuntimeError("batch-start hook fault")


@pytest.mark.parametrize("batched", [False, True], ids=["receive", "receive_batch"])
def test_a_raising_batch_start_hook_is_a_fault_of_its_plugin(batched):
    """A raising ``on_batch_start`` is charged to its plugin's fault
    domain at the ``on_batch_start`` gate: the fault is in the ring and
    counted, the hook after it still runs, and the batch runs, with the
    dispositions and counters of a twin whose plugins have no hook."""
    hooked, hookless = build_router("hooked"), build_router("hookless")
    faulty = _bind(hooked, _plugin("faulty", _FaultyHook))
    later = _bind(hooked, _HookedPlugin, gate=GATE_IP_OPTIONS)
    _bind(hookless, _plugin("faulty", PluginInstance))
    _bind(hookless, _plugin("hooked", PluginInstance), gate=GATE_IP_OPTIONS)
    results = []
    for router in (hooked, hookless):
        packets = _mixed_workload(count=40)
        if batched:
            results.append(router.receive_batch(packets, now=1.0))
        else:
            results.append([router.receive(p, now=1.0) for p in packets])
    assert results[0] == results[1]
    (record,) = hooked.faults.records()
    assert (record.plugin, record.gate, record.error_type) == (
        "faulty", "on_batch_start", "RuntimeError")
    assert hooked.counters["plugin_faults"] == 1
    counters = dict(hooked.counters)
    del counters["plugin_faults"]
    assert counters == dict(hookless.counters)
    calls = 1 if batched else len(packets)
    assert len(faulty.batch_calls) == len(later.batch_calls) == calls


def test_a_hook_fault_that_trips_quarantine_holds_for_the_batch_it_starts():
    """A batch-start fault can trip its plugin's breaker before any packet
    runs: the batch it starts then intercepts the plugin, as ``receive``
    per packet does, instead of sweeping it in the ``lanes`` layout."""
    batched, single = build_router("batched"), build_router("single")
    instances = []
    for router in (batched, single):
        instances.append(_bind(router, _plugin("faulty", _FaultyHook)))
        router.faults.set_policy("faulty", FaultPolicy(threshold=1))
    out = batched.receive_batch(_mixed_workload(count=40), now=1.0)
    assert out == [single.receive(p, now=1.0) for p in _mixed_workload(count=40)]
    assert set(out) == {"dropped_by_plugin"} and set(batched._loops) == {"lanes", "packet"}
    assert [i.packets_processed for i in instances] == [0, 0]


def test_warmed_pipeline_passes_codegen_audit():
    """After real traffic warms both layouts (lanes, and packet with and
    without the inlined probe; without it ``receive_batch`` runs the
    packet layout too) plus the compiled filter tables and
    routing engines, the RP5xx exec-codegen audit reports zero findings
    — the emitter's live output is the fixture."""
    from repro.analysis import audit_router_codegen

    layouts = set()
    for configure, kwargs in ((None, {}), (_filtered, {}), (_filtered, {"max_flows": 64}),
                              (_filtered, {"use_flow_cache": False})):
        router = build_router("audit", configure, **kwargs)
        workload = _mixed_workload()
        router.receive(workload[0])
        for start in range(1, len(workload), 7):
            router.receive_batch(workload[start:start + 7])
        layouts.update((layout, fn._plan["probe"]) for layout, fn in router._loops.items())
        assert audit_router_codegen(router) == []
    assert layouts == {("packet", True), ("lanes", True), ("packet", False)}


# ----------------------------------------------------------------------
# Re-entrancy: a plugin that re-injects from inside process()
# ----------------------------------------------------------------------
class _Reinjector(PluginInstance):
    """ESP-inbound-shaped: on an outer packet, re-inject an inner one
    into the IP core from inside ``process`` and then keep using the
    context.  The loops pool one context per gate; the nested walk must
    not change this call's under it."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.seen, self.inner = [], []

    def process(self, packet, ctx):
        self.packets_processed += 1
        if packet.dst_port == 9000:
            inner = make_udp("10.0.9.1", "30.0.0.1", packet.src_port, 9001, iif="atm0")
            self.inner.append(ctx.router.receive(inner, now=ctx.now))
            index = ctx.router.aiu.gate_index(ctx.gate)
            self.seen.append((ctx.gate, ctx.flow is packet.fix,
                              ctx.slot is packet.fix.slots[index], ctx.now, ctx.out_interface))
        return Verdict.CONTINUE


@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "packet"])
def test_reentrant_plugin_sees_its_own_context(bounded):
    """``ctx.flow``/``ctx.slot``/``ctx.now``/``ctx.out_interface`` read
    after a nested ``receive`` are the outer call's, from ``receive``
    and from both ``receive_batch`` layouts; the nested packet's
    disposition and every counter match the metered walk."""
    instances = {}

    def configure(router):
        # Where the inner packets leave is untapped: under ``lanes`` the
        # two gates' re-injections interleave differently (the first
        # documented divergence), and that is not what this pins.
        router.interfaces["atm2"].link = None
        instance = instances[router.name] = _bind(router, _plugin("reinjector", _Reinjector))
        instance.plugin.register_instance(instance, "*, *, UDP", gate=GATE_PACKET_SCHEDULING)

    world = _run(configure, lambda: [
        make_udp("10.0.0.1", f"20.0.1.{i % 3 + 1}", 5000 + i % 6, 9000, iif="atm0")
        for i in range(24)], max_flows=64 if bounded else None)
    assert ("packet" if bounded else "lanes") in world.router("batch256")._loops
    spec = instances["spec"]
    assert spec.inner == ["forwarded"] * 48
    for name, instance in instances.items():
        if name in SINGLE:                  # a shard sees its own flows only
            assert instance.inner == spec.inner, name
            assert sorted(instance.seen) == sorted(spec.seen), name
        for gate, own_flow, own_slot, now, oif in instance.seen:
            assert own_flow and own_slot and now == 0.0, (name, gate)
            assert oif == ("atm1" if gate == GATE_PACKET_SCHEDULING else None)


# ----------------------------------------------------------------------
# Documented divergences (docs/PERFORMANCE.md), pinned by name
# ----------------------------------------------------------------------
class _CallLog(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.calls = []

    def process(self, packet, ctx):
        self.calls.append((ctx.gate, packet.src_port))
        return Verdict.CONTINUE


class _CallLogPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "call-log"
    instance_class = _CallLog


def test_divergence_lanes_reorders_cross_gate_call_interleaving():
    """One instance at two pre-routing gates.  The metered walk (and the
    packet layout) calls gate A then gate B per packet; the lanes layout
    calls gate A over the whole batch, then gate B.  Exactly that and
    nothing else differs: per gate the packet order is the metered one,
    and dispositions and state are equal."""
    instances = {}

    def make(name):
        router = _build(name)
        plugin = _CallLogPlugin()
        router.pcu.load(plugin)
        instance = instances[name] = plugin.create_instance()
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_OPTIONS)
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        return router

    def workload():
        return [make_udp("10.0.0.1", "20.0.1.1", 5000 + i, 9000, iif="atm0")
                for i in range(6)]

    routers = _run_differential(make, workload, chunks=(1, 6))
    assert set(routers["batch6"]._loops) == {"lanes"}
    spec = instances["spec"].calls
    ports = [5000 + i for i in range(6)]
    assert spec == [(gate, port) for port in ports
                    for gate in (GATE_IP_OPTIONS, GATE_IP_SECURITY)]
    assert instances["receive"].calls == spec
    assert instances["batch1"].calls == spec
    assert instances["batch6"].calls == [
        (gate, port) for gate in (GATE_IP_OPTIONS, GATE_IP_SECURITY)
        for port in ports
    ]


class _Dropper(PluginInstance):
    def process(self, packet, ctx):
        return Verdict.DROP


class _DropperPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "dropper"
    instance_class = _Dropper


class _Installer(PluginInstance):
    """On the trigger packet, binds a dropper at the (until then
    filterless) ip_options gate."""

    def process(self, packet, ctx):
        if packet.src_port == 5003:
            plugin = ctx.router.pcu.get("dropper")
            plugin.register_instance(
                plugin.create_instance(), "*, *, UDP", gate=GATE_IP_OPTIONS
            )
        return Verdict.CONTINUE


class _InstallerPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "installer"
    instance_class = _Installer


@pytest.mark.parametrize("bounded", [False, True], ids=["lanes", "packet"])
def test_divergence_plugin_filter_change_mid_batch_lands_at_batch_boundary(bounded):
    """A plugin activates a gate from inside ``process``.  The metered
    walk (and ``receive``, a batch of one) visits the gate from the next
    packet on; a batch checks its plan once, so the packets behind the
    trigger *in the same batch* are not dispatched into the new gate —
    they forward — and the change lands at the next batch boundary.
    Nothing else differs in the packet layout; the lanes layout had also
    classified those packets before the trigger ran — without the new
    gate's table — so the new filter's flow purge takes their records
    too (they re-install, and meet the new table, next batch)."""
    def make(name):
        router = _build(name, **({"max_flows": 64} if bounded else {}))
        router.pcu.load(_DropperPlugin())
        _bind(router, _InstallerPlugin)
        return router

    def workload():
        return [make_udp("10.0.0.1", "20.0.1.1", 5000 + i, 9000, iif="atm0")
                for i in range(12)]

    spec = make("spec")
    expected = [spec.receive(p, cycles=CycleMeter()) for p in workload()]
    assert expected == ["forwarded"] * 4 + ["dropped_by_plugin"] * 8

    scalar = make("receive")
    assert [scalar.receive(p) for p in workload()] == expected
    assert _state(scalar) == _state(spec)

    batched = make("batched")
    packets = workload()
    got = batched.receive_batch(packets[:6]) + batched.receive_batch(packets[6:])
    assert got == ["forwarded"] * 6 + ["dropped_by_plugin"] * 6
    assert set(batched._loops) == {"packet" if bounded else "lanes"}
    want, late = _state(spec), _state(batched)
    want["counters"]["forwarded"] += 2
    want["counters"]["dropped_by_plugin"] -= 2
    want["tx"]["atm1"] = late["tx"]["atm1"]          # two more packets left
    assert want["emitted"]["atm1"] == late["emitted"]["atm1"][:4]
    want["emitted"]["atm1"] = late["emitted"]["atm1"]
    if not bounded:
        want["flow_stats"]["evictions"] += 2
        want["flow_stats"]["active"] -= 2
        want["filter_lookups"] -= 2
    assert late == want
