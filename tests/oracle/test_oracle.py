"""One oracle: generated histories of configuration verbs and traffic,
run on every executor, compared with the metered walk after every step.

The rules come from two places.  Every row of
:data:`repro.mgr.fanout.VERBS` is a rule whose plain-value arguments are
drawn from :data:`VERB_ARGS` (a row without a strategy fails
:func:`test_every_verb_has_an_argument_strategy`), applied through each
front's library.  The traffic rules send bursts — cached flows, misses,
churn on a bounded table, IPv6 with hop options, fragments, and
``edges``: the boundary probes (:mod:`tests.oracle.edges`) of every
filter a rule can bind, installed or not, and of every route prefix;
wire-born or constructor-born — and named histories: a chaos-wrapped
faulting plugin, a DRR bound as a port's scheduler (plain, so it passes
packets straight through, or ``flaky``, whose ``dequeue`` raises), a
plugin that paces by ``ctx.now``, a flood that trips the overload
governor, and ROADMAP's four
first customers (a gate's first filter installed by a plugin mid-batch
and, traced, between the sampled and unsampled runs of one batch; equal
writes before a patched ``serialize``; a table mutated between
compiles) — and two for the per-flow hooks: a plugin that plants the
first instance with them mid-batch, and one that loses its last filter
while holding cached flows.  After every step the invariant runs
:meth:`tests.oracle.harness.World.check`, which also holds the AIU's
hook bookkeeping (:func:`tests.oracle.harness.hooks_hold`) and
:func:`tests.oracle.harness.flows_bind_live_filters` on every router.

CI runs one derandomized, bounded profile.  When it fails, Hypothesis
prints the step program: paste it below as a plain test (see
``test_installer_fires_in_a_traced_batch``) — no seed files.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.aiu.filters import Filter
from repro.mgr import library as library_module
from repro.mgr.fanout import VERBS
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress, Prefix
from repro.net.fragment import fragment_v4
from repro.net.headers import OptionTLV, PROTO_TCP, PROTO_UDP
from repro.net.packet import make_udp

from .edges import filter_probes, route_probes
from .harness import (CHAIN_FRONTS, PLUGINS, PORTS, TRIGGER_PORT, V6_ROUTES, Flaky, World,
                      _hooks, unplant)

MAX_FLOWS = 16

# ----------------------------------------------------------------------
# Verb arguments: plain values, one strategy per VERBS row
# ----------------------------------------------------------------------
_plugin = st.sampled_from(("firewall", "stats", "drr", "fifo", *sorted(PLUGINS)))
_instance = st.sampled_from(("i0", "i1", "i2"))
_config = {
    "firewall": st.fixed_dictionaries({"action": st.sampled_from(("deny", "allow"))}),
    "drr": st.just({"interface": "atm1", "quantum": 1500}),
    "chaos": st.builds(lambda seed: {"fault_rate": 0.2, "corrupt_rate": 0.1, "seed": seed},
                       st.integers(0, 9)),
}
#: What ``bind`` draws from.
FILTERS = (
    "*, *, UDP", "10.0.0.0/8, *, UDP", "*, 20.0.1.0/24, UDP", "*, *, UDP, *, 9000",
    "*, *, UDP, 5000-5005, *", "*, 20.*, UDP, *, 7777", "10.0.2.0/24, *, *",
    "2001:db8::/32, *, UDP", "*, *, TCP", "*, *, UDP, *, *, atm2",
)
#: What ``add_route`` installs, beside the ports' and harness.V6_ROUTES.
ROUTES = ("40.0.0.0/8", "20.0.9.0/24", "2001:db8:1::/48", "0.0.0.0/0", "::/0")
_filter = st.sampled_from(FILTERS)
_gate = st.sampled_from((None, "ip_options", "ip_security", "packet_scheduling"))
_kwargs = st.fixed_dictionaries
_none = st.just(((), {}))


def _call(*args, **kwargs):
    return st.tuples(st.tuples(*args), _kwargs(kwargs))


VERB_ARGS = {
    "modload": _call(_plugin),
    "modunload": _call(_plugin),
    "create_instance": _plugin.flatmap(lambda name: st.tuples(
        st.tuples(st.just(name), _instance), _config.get(name, st.just({})))),
    "free_instance": _call(_instance),
    "bind": _call(_instance, _filter, gate=_gate, priority=st.integers(0, 2)),
    "unbind": _call(_instance),
    "set_scheduler": _call(st.sampled_from(("atm1", "atm2")), _instance),
    "add_route": _call(st.sampled_from(ROUTES),
                       st.sampled_from(("atm1", "atm2"))),
    "add_mroute": _call(st.just("232.1.1.1"), st.just(["atm1", "atm2"]),
                        source=st.just("10.0.0.0/8")),
    "send_message": st.tuples(st.tuples(st.sampled_from(("stats", "drr")),
                                        st.just("set_collector")),
                              _kwargs({"instance": _instance, "collector": st.just("sizes")})),
    "quarantine": _call(_plugin, action=st.sampled_from((None, "drop", "bypass"))),
    "reinstate": _call(_plugin),
    "set_fault_policy": _call(_plugin, threshold=st.integers(1, 3),
                              window=st.sampled_from((0.02, 5.0)),
                              action=st.sampled_from(("drop", "bypass", "unload")),
                              cooldown=st.sampled_from((0.01, 1.0))),
    "enable_telemetry": _none,
    "disable_telemetry": _none,
    "enable_overload": st.tuples(st.just(()), _kwargs({}, optional={
        "sample_interval": st.sampled_from((4, 16, 64)),
        "escalate_after": st.integers(1, 2),
        "shed_after": st.integers(1, 2),
        "recover_after": st.integers(1, 3),
        "memory_budget": st.sampled_from((None, None, None, 24)),
        "idle_reclaim": st.sampled_from((0.01, 2.0)),
    })),
    "disable_overload": _none,
    "start_trace": _call(sample=st.integers(1, 3), capacity=st.sampled_from((4, 64))),
    "stop_trace": _none,
    "run_script": _call(st.sampled_from((
        "modload fifo\ncreate fifo q0\nbind q0 - 10.*, *, UDP\n",
        "modload firewall\ncreate firewall fw0 action=deny\nbind fw0 ip_security *, *, TCP\n",
        "telemetry on\ntrace on sample=2\n",
    ))),
}


# ----------------------------------------------------------------------
# Traffic: deterministic bursts from (kind, seed, the burst's serial)
# ----------------------------------------------------------------------
def _cached(rng, serial):
    flows = rng.sample(range(12), 8)
    ports = (9000, 9000, 9000, 7777, TRIGGER_PORT)
    return [
        (lambda f=f, r=r: make_udp(f"10.0.0.{f % 4 + 1}", f"20.0.1.{f % 9 + 1}", 5000 + f,
                                   ports[(f + r) % 5], payload_size=f * 8, iif="atm0"))
        for r in range(3) for f in flows
    ]


def _miss(rng, serial):
    shapes = [("20.0.2.1", {}), ("20.0.3.1", {"ttl": 1}), ("40.0.0.1", {}),
              ("30.0.0.1", {}), ("10.0.9.1", {})]
    return [
        (lambda i=i, dst=dst, kw=kw: make_udp("10.0.2.1", dst, 10_000 + 64 * serial + i,
                                              9000, iif="atm0", **kw))
        for i in range(20) for dst, kw in [shapes[rng.randrange(len(shapes))]]
    ]


def _churn(rng, serial):
    base = rng.randrange(1 << 12) * 16
    return [(lambda i=i: make_udp(f"10.1.{i % 7}.{i % 200 + 1}", "20.0.4.1",
                                  1024 + (base + i) % 60_000, 9000, iif="atm0"))
            for i in range(4 * MAX_FLOWS)]


def _v6(rng, serial):
    return [
        (lambda i=i: make_udp(f"2001:db8::{i % 5 + 1}", f"2001:db9::{i % 3 + 1}",
                              5000 + i % 5, 9000 if i % 4 else 7777, iif="atm0",
                              flow_label=0x100 + i % 5,
                              hop_options=[OptionTLV(0x1E, b"")] if i % 2 else []))
        for i in rng.sample(range(24), 12)
    ]


def _fragments(rng, serial):
    big = [(lambda i=i: make_udp("10.0.5.1", f"30.0.0.{i + 1}", 6000 + i, 9000,
                                 payload_size=1800 + 100 * i, iif="atm0"))
           for i in range(3)]
    pieces = fragment_v4(make_udp("10.0.6.1", "20.0.6.1", 6100 + serial % 50, 9000,
                                  payload_size=1200, iif="atm0"), 576)
    return big + [(lambda p=p: p.copy()) for p in pieces]


def _flood(rng, serial):
    hosts = [rng.randrange(1, 250) for _ in range(160)]
    return [(lambda i=i, h=h: make_udp(f"10.{2 + i % 50}.{i % 251}.{h}", "20.0.8.1",
                                       1024 + i, 9000, iif="atm0"))
            for i, h in enumerate(hosts)]


#: Every filter a rule can bind: ``bind``'s pool, then what the scripts
#: and the named histories below bind.
POOL = tuple(Filter.parse(spec) for spec in FILTERS + (
    "10.*, *, UDP", "*, 20.0.1.0/24, UDP, *, 7777",
    "10.0.0.0/8, 20.0.1.0/24, UDP, 5000-5005, *"))
#: Every route prefix a router can hold, per width.
ROUTE_PREFIXES = {
    width: [p for p in map(Prefix.parse, [prefix for _, prefix, _ in PORTS]
                           + [prefix for prefix, _ in V6_ROUTES] + list(ROUTES))
            if p.width == width]
    for width in (IPV4_WIDTH, IPV6_WIDTH)
}
_SOURCE = {IPV4_WIDTH: "10.0.0.1", IPV6_WIDTH: "2001:db8::1"}


def _edge_probes():
    """The boundary probes of every pool filter, installed or not (a stale
    memo answers for a removed one), and of every route prefix; a
    protocol without ports carries none, as on the wire."""
    probes = [packet for flt in POOL for width in (IPV4_WIDTH, IPV6_WIDTH)
              if flt.family in (None, 4 if width == IPV4_WIDTH else 6)
              for packet in filter_probes(flt, width)]
    probes += [make_udp(_SOURCE[width], str(IPAddress(dst, width)), 5000, 9000, iif="atm0")
               for width, prefixes in ROUTE_PREFIXES.items()
               for dst in route_probes(prefixes, width)]
    for packet in probes:
        if packet.protocol not in (PROTO_TCP, PROTO_UDP):
            packet.src_port = packet.dst_port = 0
    return probes


EDGES = _edge_probes()


def _edges(rng, serial):
    return [packet.copy for packet in rng.sample(EDGES, len(EDGES))]


TRAFFIC = {"cached": _cached, "miss": _miss, "churn": _churn, "v6": _v6,
           "fragments": _fragments, "flood": _flood, "edges": _edges}


class Oracle(RuleBasedStateMachine):
    """Verbs and bursts on every front; the spec decides."""

    def __init__(self):
        super().__init__()
        self._registry = dict(library_module.PLUGIN_REGISTRY)
        library_module.PLUGIN_REGISTRY.update(PLUGINS)
        self.world = None
        self.serial = 0

    def teardown(self):
        library_module.PLUGIN_REGISTRY.clear()
        library_module.PLUGIN_REGISTRY.update(self._registry)

    @initialize(bounded=st.booleans())
    def build(self, bounded):
        self.world = World(fronts=CHAIN_FRONTS, max_flows=MAX_FLOWS if bounded else None)

    def burst(self, kind, seed=0, wire=False):
        self.serial += 1
        fresh = TRAFFIC[kind](random.Random(seed), self.serial)
        return self.world.send(lambda: [make() for make in fresh], wire=wire)

    @rule(kind=st.sampled_from(sorted(TRAFFIC)), seed=st.integers(0, 3), wire=st.booleans())
    def traffic(self, kind, seed, wire):
        self.burst(kind, seed, wire)

    # -- the faulting plugin, the flood --------------------------------
    @rule(seed=st.integers(0, 9), action=st.sampled_from(("drop", "bypass")))
    def chaos_storm(self, seed, action):
        verb = self.world.verb
        verb("modload", "chaos")
        verb("create_instance", "chaos", f"chaos{seed}", fault_rate=0.2, seed=seed)
        verb("bind", f"chaos{seed}", "*, *, UDP", gate="ip_security")
        verb("set_fault_policy", "chaos", threshold=2, window=0.05, action=action,
             cooldown=0.02)
        self.burst("cached", seed)

    @rule(seed=st.integers(0, 9), plugin=st.sampled_from(("flaky", "drr")),
          action=st.sampled_from(("drop", "bypass")))
    def drr_at_the_gate(self, seed, plugin, action):
        """A DRR at the scheduling gate and bound as ``atm1``'s
        scheduler: a plain one hands each packet it takes straight back
        (``pass_through``); ``flaky`` raises from ``dequeue``
        mid-drain, under a fault policy.  Cached flows reach it through
        the gate's filter; the misses that go out ``atm1`` reach it as the
        bound scheduler, without a flow slot.  The governor is off, so the
        bursts are not shed before they reach the port; once compared,
        the instance is freed, so it queues or drops nothing of later
        steps."""
        verb = self.world.verb
        verb("disable_overload")
        name = f"{plugin}{seed}"
        verb("modload", plugin)
        verb("create_instance", plugin, name, seed=seed)
        verb("bind", name, "*, 20.0.1.0/24, UDP", gate="packet_scheduling")
        verb("set_scheduler", "atm1", name)
        if plugin == "flaky":
            verb("set_fault_policy", plugin, threshold=3, window=0.05, action=action,
                 cooldown=0.02)
        self.burst("cached", seed)
        self.burst("miss", seed)
        self.world.check()
        verb("free_instance", name)

    @rule(seed=st.integers(0, 3))
    def ticker_paces(self, seed):
        """A plugin that passes two packets per ``ctx.now``; freed once
        compared."""
        verb = self.world.verb
        verb("modload", "ticker")
        verb("create_instance", "ticker", "ticker")
        verb("bind", "ticker", "*, *, UDP", gate="ip_security")
        self.burst("cached", seed)
        self.burst("cached", seed + 1)
        self.world.check()
        verb("free_instance", "ticker")

    @rule(seed=st.integers(0, 3))
    def governor_flood(self, seed):
        self.world.verb("enable_overload", sample_interval=16, escalate_after=1,
                        memory_budget=24)
        self.burst("flood", seed)
        self.burst("cached", seed)

    # -- ROADMAP's first customers -------------------------------------
    @rule(traced=st.booleans())
    def installer_mid_batch(self, traced):
        """A gate's first filter installed by a plugin mid-batch; traced,
        the install lands between the sampled and unsampled runs of one
        batch."""
        verb = self.world.verb
        if traced:
            verb("start_trace", sample=2)
        verb("modload", "installer")
        verb("create_instance", "installer", "inst")
        verb("bind", "inst", "*, *, UDP", gate="ip_security")
        self.burst("cached", 1)
        # Its planted drop of all UDP would mask every later burst.
        self.world.check()
        verb("unbind", "inst")

    @rule()
    def hooks_planted_at_an_active_gate(self):
        """A plugin binds the first instance with per-flow hooks mid-batch
        at a gate a filter already activates: the plan stands, so the
        ``packet`` layout must call its ``on_flow_created`` from the next
        miss on."""
        verb = self.world.verb
        verb("modload", "firewall")
        verb("create_instance", "firewall", "opener", action="allow")
        verb("bind", "opener", "*, *, TCP", gate="ip_options")
        verb("modload", "planter")
        verb("create_instance", "planter", "planter")
        verb("bind", "planter", "*, *, UDP", gate="ip_security")
        self.burst("cached", 1)
        # Its planted drop of all UDP would mask every later burst.
        self.world.check()
        self.world.each_router(unplant)

    @rule(seed=st.integers(0, 3))
    def hooks_outlive_their_filters(self, seed):
        """An instance whose class has both per-flow hooks loses its last
        filter while it holds cached flows: the removal hook may go only
        after that verb's purge, or the instance never hears them go."""
        verb = self.world.verb
        verb("modload", "hooks")
        verb("create_instance", "hooks", "h")
        verb("bind", "h", "*, *, UDP", gate="ip_security")
        self.burst("cached", seed)
        verb("unbind", "h")

    @rule()
    def equal_writes_before_a_patched_serialize(self):
        verb = self.world.verb
        verb("modload", "writer")
        verb("create_instance", "writer", "w")
        verb("bind", "w", "10.0.0.0/8, *, UDP", gate="ip_security")
        self.burst("cached", 2, wire=True)

    @rule(seed=st.integers(0, 3))
    def table_mutated_between_compiles(self, seed):
        verb = self.world.verb
        verb("modload", "firewall")
        verb("create_instance", "firewall", "fw", action="deny")
        verb("create_instance", "firewall", "fw2", action="deny")
        verb("bind", "fw", "*, 20.0.1.0/24, UDP, *, 7777", gate="ip_security")
        self.burst("cached", seed)
        verb("bind", "fw2", "10.0.0.0/8, 20.0.1.0/24, UDP, 5000-5005, *",
             gate="ip_security")
        self.burst("cached", seed)
        verb("unbind", "fw")
        self.burst("cached", seed)

    @invariant()
    def fronts_agree(self):
        if self.world is not None:
            self.world.check()


for _verb in VERBS:
    def _apply(self, call, _verb=_verb):
        args, kwargs = call
        self.world.verb(_verb, *args, **kwargs)

    _apply.__name__ = f"verb_{_verb}"
    setattr(Oracle, _apply.__name__, rule(call=VERB_ARGS[_verb])(_apply))

Oracle.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    stateful_step_count=30, suppress_health_check=list(HealthCheck),
    report_multiple_bugs=False,
)
TestOracle = Oracle.TestCase


def test_every_verb_has_an_argument_strategy():
    assert set(VERB_ARGS) == set(VERBS)


# ----------------------------------------------------------------------
# Step programs the machine printed, kept as plain tests
# ----------------------------------------------------------------------
def test_installer_fires_in_a_traced_batch():
    """Traced, the trigger packet walks alone, so the filter it installs
    lands between the sampled and unsampled runs: every executor stays
    exact and only the shards (each its own installer) part."""
    state = Oracle()
    state.build(bounded=False)
    state.installer_mid_batch(traced=True)
    state.fronts_agree()
    state.teardown()
    assert state.world.parked == {"sharded": "per_shard_state"}
    assert "dropped_by_plugin" in state.world.spec.dispositions[-1]


def test_untraced_installer_parks_the_batching_fronts_by_name():
    for bounded in (False, True):
        state = Oracle()
        state.build(bounded=bounded)
        state.installer_mid_batch(traced=False)
        state.fronts_agree()
        state.teardown()
        assert state.world.parked == {
            "batch7": "filter_change_mid_batch_lands_at_batch_boundary",
            "batch256": "filter_change_mid_batch_lands_at_batch_boundary",
            "wire": "filter_change_mid_batch_lands_at_batch_boundary",
            "sharded": "per_shard_state",
        }


def test_a_batch_of_one_keeps_the_governor_clock_of_receive():
    """Degraded, ``receive_batch`` counted every packet twice against the
    governor's sampling clock (once itself, once in ``receive``)."""
    state = Oracle()
    state.build(bounded=False)
    state.fronts_agree()
    state.governor_flood(seed=0)
    state.fronts_agree()
    state.teardown()
    assert "batch1" in state.world.fronts


def test_telemetry_counts_a_faulting_lanes_sweep_once():
    """A fault mid-sweep hands the lane's tail to ``_resume``, which
    counts those packets' gate dispatches again: the sweep's bulk count
    must take them back out."""
    state = Oracle()
    state.build(bounded=False)
    state.verb_enable_telemetry(call=((), {}))
    state.chaos_storm(seed=1, action="drop")
    state.fronts_agree()
    state.teardown()
    assert "batch7" in state.world.fronts


def test_a_batch_that_forwards_nothing_adds_no_forwarded_counter():
    state = Oracle()
    state.build(bounded=False)
    state.verb_modload(call=(("firewall",), {}))
    state.verb_create_instance(call=(("firewall", "i0"), {"action": "deny"}))
    state.verb_bind(call=(("i0", "*, *, UDP"), {"gate": "ip_security", "priority": 0}))
    state.traffic(kind="cached", seed=0, wire=False)
    state.fronts_agree()
    state.teardown()
    assert "forwarded" not in state.world.router("batch7").counters
    assert len(state.world.fronts) == len(CHAIN_FRONTS)


def test_a_plugin_filter_at_an_active_gate_waits_for_the_batch_only_under_lanes():
    """The gate is active already, so the plan stands: the packet layout
    classifies each packet after the install and stays exact; ``lanes``
    classified the whole batch before it."""
    for bounded, parked in ((False, {"batch7", "batch256", "wire"}), (True, set())):
        state = Oracle()
        state.build(bounded=bounded)
        state.verb_modload(call=(("firewall",), {}))
        state.verb_create_instance(call=(("firewall", "i0"), {"action": "allow"}))
        state.verb_bind(call=(("i0", "*, *, TCP"), {"gate": "ip_options", "priority": 0}))
        state.installer_mid_batch(traced=False)
        state.fronts_agree()
        state.teardown()
        assert state.world.parked == dict.fromkeys(
            parked, "filter_change_mid_batch_lands_at_batch_boundary") | {
            "sharded": "per_shard_state"}


def test_hooks_planted_mid_batch_are_heard_at_once_under_packet():
    """Hooks are decided per filter record, not per compiled plan: the
    loop compiled before the plant calls the planted instance's
    ``on_flow_created`` for every flow it classifies after, and unbinding
    it removes each of them; the churn after runs with the drop gone."""
    for bounded, parked in ((False, {"batch7", "batch256", "wire"}), (True, set())):
        state = Oracle()
        state.build(bounded=bounded)
        state.hooks_planted_at_an_active_gate()
        state.fronts_agree()
        state.traffic(kind="churn", seed=0, wire=False)
        state.fronts_agree()
        state.teardown()
        assert state.world.parked == dict.fromkeys(
            parked, "filter_change_mid_batch_lands_at_batch_boundary") | {
            "sharded": "per_shard_state"}
        (hooks,) = _hooks(state.world.router("spec"))
        assert hooks.created == hooks.removed > 0


def test_edge_traffic_straddles_port_ends_and_a_removed_covering_filter():
    """The ``edges`` burst's own customers: a deny filter's port range,
    probed one past each end, and a covering deny filter unbound beside
    the wildcard-source one replicated under it, whose compiled subtree
    must not keep answering for it.  Every front stays, and the probes
    do reach both filters."""
    state = Oracle()
    state.build(bounded=False)
    state.verb_modload(call=(("firewall",), {}))
    for name, spec in (("i0", "*, *, UDP, 5000-5005, *"), ("i1", "10.0.0.0/8, *, UDP")):
        state.verb_create_instance(call=(("firewall", name), {"action": "deny"}))
        state.verb_bind(call=((name, spec), {"gate": "ip_security", "priority": 0}))
    before = Counter(state.burst("edges"))
    state.fronts_agree()
    state.verb_unbind(call=(("i1",), {}))
    after = Counter(state.burst("edges"))
    state.fronts_agree()
    state.teardown()
    assert state.world.parked == {}
    assert before["dropped_by_plugin"] > after["dropped_by_plugin"] > 0


def test_transit_arrives_on_the_port_its_link_names():
    """The chain's later hops receive transit on ``atm2``, the far end of
    each link: a deny filter naming that port drops there, on the chain
    and on its hop-by-hop twin alike, and never on a single router,
    whose traffic arrives on ``atm0``."""
    state = Oracle()
    state.build(bounded=False)
    state.verb_modload(call=(("firewall",), {}))
    state.verb_create_instance(call=(("firewall", "i0"), {"action": "deny"}))
    state.verb_bind(call=(("i0", "*, *, UDP, *, *, atm2"),
                          {"gate": "ip_security", "priority": 0}))
    state.traffic(kind="cached", seed=0, wire=False)
    state.fronts_agree()
    state.teardown()
    assert state.world.parked == {}
    r1, r2, r3 = (router.counters for router in state.world.fronts["chain"].routers)
    assert "dropped_by_plugin" not in r1
    assert r2["dropped_by_plugin"] == r2["rx"] > 0 and not r3["rx"]
    assert "dropped_by_plugin" not in state.world.spec.dispositions[-1]


def test_a_faulting_dequeue_is_charged_on_every_front():
    """A scheduling-gate DRR whose ``dequeue`` raises: every front
    charges the same faults to it and leaves the same backlog.  It
    overrides ``dequeue``, so it has no ``pass_through`` to skip it."""
    assert Flaky.pass_through is None
    state = Oracle()
    state.build(bounded=False)
    state.drr_at_the_gate(seed=1, plugin="flaky", action="drop")
    state.fronts_agree()
    state.teardown()
    assert state.world.parked == {"sharded": "per_shard_state"}
    assert state.world.router("spec").faults.total_faults() > 0


def test_a_quarantined_drr_is_intercepted_on_every_front():
    """An empty DRR that is the port's scheduler, quarantined by the
    verb: every front intercepts it at the scheduling gate — drops the
    packet under ``drop``, sends it straight out under ``bypass`` — and
    none hands it a packet."""
    for action, disposition in (("drop", "dropped_by_plugin"), ("bypass", "forwarded")):
        state = Oracle()
        state.build(bounded=False)
        state.verb_modload(call=(("drr",), {}))
        state.verb_create_instance(call=(("drr", "i0"), {"interface": "atm1", "quantum": 1500}))
        state.verb_bind(call=(("i0", "*, *, UDP"), {"gate": "packet_scheduling", "priority": 0}))
        state.verb_set_scheduler(call=(("atm1", "i0"), {}))
        state.verb_quarantine(call=(("drr",), {"action": action}))
        state.traffic(kind="cached", seed=0, wire=False)
        state.fronts_agree()
        state.teardown()
        assert state.world.parked == {}
        spec = state.world.router("spec")
        assert spec.scheduler("atm1").packets_processed == spec.counters["queued"] == 0
        assert spec.counters[disposition] > 0, action


def test_a_gate_scheduler_drains_its_backlog_once_it_is_the_port_s():
    """``i0`` takes packets at the scheduling gate while the port drains
    ``i1``, so they wait in ``i0``; once ``set_scheduler`` makes ``i0``
    the port's scheduler, the next packet finds it backlogged and must
    go out behind them, not past them."""
    state = Oracle()
    state.build(bounded=False)
    state.verb_modload(call=(("drr",), {}))
    for name in ("i0", "i1"):
        state.verb_create_instance(call=(("drr", name), {"interface": "atm1", "quantum": 1500}))
    state.verb_set_scheduler(call=(("atm1", "i1"), {}))
    state.verb_bind(call=(("i0", "*, *, UDP"), {"gate": "packet_scheduling", "priority": 0}))
    state.traffic(kind="cached", seed=0, wire=False)
    state.fronts_agree()
    spec = state.world.router("spec")
    assert spec.interfaces["atm1"].tx_packets == 0
    state.verb_set_scheduler(call=(("atm1", "i0"), {}))
    state.traffic(kind="cached", seed=0, wire=False)
    state.fronts_agree()
    state.teardown()
    assert state.world.parked == {}
    assert spec.interfaces["atm1"].tx_packets == spec.counters["queued"] > 0
    assert spec.scheduler("atm1").backlog() == 0
