"""The oracle's world: one configuration, one traffic program, every
executor.

The metered walk (``Router.receive(p, cycles=meter)``: the §3.2 gate
macro, one AIU classification per packet, FIX for later gates) is the
specification.  A :class:`World` builds one *front* per executor from the
same router factory, applies every step to all of them, and
:meth:`World.check` compares each front's observation with the spec's.

Fronts (:data:`FRONTS`): ``spec``; un-metered ``receive``;
``receive_batch`` in chunks of 1, 7 and 256 (``lanes`` or ``packet`` by
the router's plan); ``wire`` (parse, forward, serialize at the tap); a
2-shard inline ``sharded`` front; and a single-node ``topology`` driven
metered, whose modelled cycles must be the spec's.  Every port is a
:class:`Tap` that serializes what it carries, so emitted bytes are
compared on every front.

The only tolerated differences are the predicates in
:data:`EXEMPTIONS` (docs/PERFORMANCE.md "Documented divergences"): a
front that differs from the spec where one holds is parked — dropped
from the world with the predicate's name — and any other difference
fails the step.
"""

from __future__ import annotations

from collections import Counter

from repro import PluginManager, ShardedRouter, Topology
from repro.core.router import Router
from repro.core.plugin import Plugin, PluginInstance, TYPE_IP_SECURITY, Verdict
from repro.core.gates import GATE_IP_OPTIONS
from repro.net.packet import Packet
from repro.sim import ChaosPlugin
from repro.sim.cost import CycleMeter

FRONTS = ("spec", "receive", "batch1", "batch7", "batch256", "wire", "sharded", "topology")

#: (name, connected prefix, MTU): ``atm2``'s MTU fragments big datagrams.
PORTS = (("atm0", "10.0.0.0/8", 9180), ("atm1", "20.0.0.0/8", 9180),
         ("atm2", "30.0.0.0/8", 1500))
V6_ROUTES = (("2001:db8::/32", "atm0"), ("2001:db9::/32", "atm1"))


class Tap:
    """Duck-types ``repro.net.interfaces.Link``: what a port emitted, as
    wire bytes, with the time it left."""

    def __init__(self):
        self.emitted = []

    def carry(self, sender, packet, departure):
        assert packet.departure_time == departure
        data = packet.serialize()
        if "frag" in packet.annotations and not packet.is_ipv6:
            # The identification a router gives its fragments comes from
            # one process-wide counter; mask it and the header checksum.
            data = data[:4] + b"\0\0" + data[6:10] + b"\0\0" + data[12:]
        self.emitted.append((data, departure))


def build_router(name, configure=None, **kwargs):
    """The oracle's router: three tapped ports, v4 and v6 routes, then
    ``configure(router)``."""
    router = Router(name=name, **kwargs)
    for port, prefix, mtu in PORTS:
        router.add_interface(port, prefix=prefix, mtu=mtu).link = Tap()
    for prefix, port in V6_ROUTES:
        router.routing_table.add(prefix, port)
    if configure is not None:
        configure(router)
    return router


# ----------------------------------------------------------------------
# Plugins the rules load by name (PLUGINS joins them to the registry)
# ----------------------------------------------------------------------
TRIGGER_PORT = 5003


class Installer(PluginInstance):
    """On the first trigger packet, binds itself at the ``ip_options``
    gate, where it drops everything: a gate's filter installed by a
    plugin, mid-batch."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.armed = False

    def process(self, packet, ctx):
        if ctx.gate == GATE_IP_OPTIONS:
            return Verdict.DROP
        if packet.dst_port == TRIGGER_PORT and not self.armed:
            self.armed = True
            self.plugin.register_instance(self, "*, *, UDP", gate=GATE_IP_OPTIONS)
        return Verdict.CONTINUE


class InstallerPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "installer"
    instance_class = Installer


class Writer(PluginInstance):
    """Writes every packed field back — equal values, the addresses as
    equal but distinct objects — and marks a third of the flows."""

    def process(self, packet, ctx):
        packet.src = type(packet.src)(packet.src.value, packet.src.width)
        packet.dst_port = packet.dst_port + 0
        packet.tos = 0x20 if packet.src_port % 3 == 0 else packet.tos
        return Verdict.CONTINUE


class WriterPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "writer"
    instance_class = Writer


#: Registry names the oracle's rules modload, beside PLUGIN_REGISTRY's.
PLUGINS = {"installer": InstallerPlugin, "writer": WriterPlugin, "chaos": ChaosPlugin}

#: Plugins whose instances keep per-call state (an RNG, an arming flag):
#: each shard holds its own, so the sharded front cannot match them.
PER_INSTANCE_STATE = frozenset(("chaos", "installer"))


# ----------------------------------------------------------------------
# Observations
# ----------------------------------------------------------------------
def _settled(router):
    if router.loop is not None:
        router.loop.run()
    return router


def router_view(router):
    """Everything one router lets the spec and a twin be compared on."""
    _settled(router)
    health = router.health()
    del health["router"]
    view = {
        "counters": dict(router.counters),
        "flows": router.aiu.flow_table.stats(),
        "filter_lookups": router.aiu.filter_lookups,
        "tx": {name: (i.tx_packets, i.tx_bytes, i.next_free)
               for name, i in router.interfaces.items()},
        "emitted": {name: list(i.link.emitted) for name, i in router.interfaces.items()
                    if isinstance(i.link, Tap)},
        "health": health,
        "faults": [r.signature() for r in router.faults.records()],
    }
    if router._tm_gate_cells is not None:
        view["gate_cells"] = list(router._tm_gate_cells)
        view["size_counts"] = list(router.aiu._tm_size_counts)
    return view


#: Counters a fanned-out verb bumps once per shard.
FANNED_EVENTS = frozenset(("plugin_quarantines", "plugin_reinstatements"))


def shard_view(routers, bounded):
    """What N shards must sum to: counters, emitted bytes per port as a
    multiset (each shard paces its own copy of a port), and, on
    unbounded tables (a bounded one holds N times the records), the flow
    counters."""
    counters, emitted = Counter(), {}
    flows = Counter()
    for router in map(_settled, routers):
        counters.update({k: v for k, v in router.counters.items() if k not in FANNED_EVENTS})
        table = router.aiu.flow_table
        flows.update({k: getattr(table, k) for k in ("active", "hits", "misses", "births")})
        for name, iface in router.interfaces.items():
            if isinstance(iface.link, Tap):
                emitted.setdefault(name, []).extend(b for b, _ in iface.link.emitted)
    view = {"counters": dict(counters),
            "emitted": {name: sorted(out) for name, out in emitted.items()}}
    if not bounded:
        view["flows"] = dict(flows)
    return view


def configuration(library):
    """What the verbs configured, as the query topics report it."""
    trace = library.query("trace")
    return {
        "plugins": library.query("plugins")["plugins"],
        "filters": library.query("filters")["filters"],
        "faults": {
            name: tuple(snap[k] for k in ("state", "action", "threshold", "window",
                                          "cooldown", "quarantined_until"))
            for name, snap in library.query("faults")["plugins"].items()
        },
        "telemetry": library.query("telemetry")["enabled"],
        "overload": library.query("overload")["enabled"],
        "trace": {k: trace.get(k) for k in ("enabled", "sample", "capacity")},
    }


# ----------------------------------------------------------------------
# Exemption predicates: the one place a front may differ from the spec
# ----------------------------------------------------------------------
def _stateful_at_two_gates(router):
    """An instance with per-call state bound at two gates (so at least
    one of them is swept by ``lanes``)."""
    gates = {}
    for record in router.aiu.filters():
        instance = record.instance
        if instance is not None and instance.plugin.name in PER_INSTANCE_STATE:
            gates.setdefault(id(instance), set()).add(record.gate)
    return any(len(g) > 1 for g in gates.values())


def lanes_reorders_cross_gate_calls(world, front):
    """``test_divergence_lanes_reorders_cross_gate_call_interleaving``:
    the lanes sweep calls gate A over the batch, then gate B."""
    return front.chunked and any(
        "lanes" in loops
        for router in front.routers for loops in router._loop_cache.values()
    ) and _stateful_at_two_gates(world.spec.routers[0])


def filter_change_mid_batch_lands_at_batch_boundary(world, front):
    """``test_divergence_plugin_filter_change_mid_batch_lands_at_batch_boundary``:
    a batch checks its plan once (and ``lanes`` classifies it up front),
    so a filter a plugin installs or removes mid-batch may apply only
    from the next batch on."""
    return front.chunked and front.epoch_moved_mid_call


def governor_samples_once_per_call(world, front):
    """The governor is packet-clocked per call: ``receive_batch`` takes
    one sample per batch, so once a tier changes, fronts that batch
    differ from the per-packet walk in which window tripped."""
    return front.chunked and any(
        getattr(r._overload, "escalations", 0)
        for r in world.spec.routers + front.routers)


def per_shard_state(world, front):
    """Shards keep their own fault windows, governor clocks and plugin
    instance state (RNGs, self-installed filters); configuration fans
    out, that state does not."""
    spec = world.spec.routers[0]
    return front.name.startswith("sharded") and (
        spec.faults.total_faults() > 0 or world.governed
        or any(spec.pcu.is_loaded(name) for name in PER_INSTANCE_STATE))


EXEMPTIONS = (
    per_shard_state,
    filter_change_mid_batch_lands_at_batch_boundary,
    lanes_reorders_cross_gate_calls,
    governor_samples_once_per_call,
)


# ----------------------------------------------------------------------
# Fronts and the world
# ----------------------------------------------------------------------
class Front:
    """One executor under test: its entry object, the plain routers
    behind it, the library its verbs go through, and what it returned."""

    def __init__(self, name, entry, routers, chunk=None, meter=None):
        self.name = name
        self.entry = entry
        self.routers = routers
        self.chunk = chunk                  # packets per call; None = per packet
        self.meter = meter
        self.library = PluginManager(entry, output=lambda line: None).library
        self.dispositions = []
        self.epoch_moved_mid_call = False

    @property
    def chunked(self):
        """More than one packet per call."""
        return self.chunk not in (None, 1)

    def deliver(self, packets, now):
        entry, meter = self.entry, self.meter
        if self.chunk is None:
            if meter is not None:
                return [entry.receive(p, now=now, cycles=meter) for p in packets]
            return [entry.receive(p, now=now) for p in packets]
        out = []
        for start in range(0, len(packets), self.chunk):
            chunk = packets[start:start + self.chunk]
            epochs = [r.aiu.plan_epoch for r in self.routers]
            out += entry.receive_batch(chunk, now=now)
            if len(chunk) > 1 and epochs != [r.aiu.plan_epoch for r in self.routers]:
                self.epoch_moved_mid_call = True
        return out


def _wire(packets):
    return [Packet.parse(p.serialize(), p.iif) for p in packets]


class World:
    """Every front of :data:`FRONTS` (or the named subset) over routers
    from ``make(name)``; ``spec`` always."""

    def __init__(self, make=None, fronts=FRONTS, **router_kwargs):
        if make is None:
            def make(name):
                return build_router(name, **router_kwargs)
        self.governed = False
        self.now = 0.0
        self.parked = {}
        self.fronts = {}
        for name in ("spec",) + tuple(f for f in fronts if f != "spec"):
            self.fronts[name] = self._front(name, make)
        self.spec = self.fronts["spec"]
        self.bounded = self.router("spec").aiu.flow_table.max_records is not None

    @staticmethod
    def _front(name, make):
        if name.startswith("sharded"):             # "sharded<N>": N shards, else 2
            sharded = ShardedRouter(nshards=int(name[7:] or 2),
                                    factory=lambda i: make(f"{name}/{i}"))
            return Front(name, sharded, sharded.shards, chunk=256)
        if name == "topology":
            topo = Topology(name="single")
            node = topo.add_node("only", router=make("topology"))
            return Front(name, topo, [node], meter=CycleMeter())
        router = make(name)
        if name == "spec":
            return Front(name, router, [router], meter=CycleMeter())
        if name == "receive":
            return Front(name, router, [router])
        return Front(name, router, [router], chunk=256 if name == "wire" else int(name[5:]))

    def live(self):
        return list(self.fronts.values())

    def router(self, front):
        """The (first) plain router behind ``front``."""
        return self.fronts[front].routers[0]

    def each_router(self, fn):
        """Apply ``fn`` to every plain router of every front."""
        for front in self.live():
            for router in front.routers:
                fn(router)

    def verb(self, verb, *args, **kwargs):
        """One typed library call on every front; all must agree on
        whether it raised, and with what.  Returns the spec's outcome."""
        outcomes = {}
        for front in self.live():
            try:
                getattr(front.library, verb)(*args, **kwargs)
                outcomes[front.name] = None
            except Exception as exc:                # compared across fronts
                outcomes[front.name] = type(exc).__name__
        want = outcomes["spec"]
        assert all(o == want for o in outcomes.values()), (verb, args, kwargs, outcomes)
        if verb == "enable_overload" and want is None:
            self.governed = True
        return want

    def send(self, make_packets, wire=False, advance=0.01):
        """One burst, built fresh per front by ``make_packets()``, on one
        clock; wire-born when ``wire`` (always on the ``wire`` front)."""
        now = self.now
        self.now += advance
        for front in self.live():
            packets = make_packets()
            if wire or front.name == "wire":
                packets = _wire(packets)
            front.dispositions.append(front.deliver(packets, now))
        return self.spec.dispositions[-1]

    def run(self, make_packets, **kwargs):
        """``send`` then ``check``."""
        self.send(make_packets, **kwargs)
        self.check()
        return self

    def check(self):
        """Compare every front with the spec; park a front whose
        difference an exemption predicate explains, fail otherwise."""
        spec = self.spec
        want = router_view(spec.routers[0])
        want_config = configuration(spec.library)
        shard_want = None
        for front in self.live()[1:]:
            if front.name.startswith("sharded"):
                shard_want = shard_want or shard_view(spec.routers, self.bounded)
                got, expected = shard_view(front.routers, self.bounded), shard_want
            else:
                got, expected = router_view(front.routers[0]), want
            diff = [k for k in {**expected, **got} if got.get(k) != expected.get(k)]
            if front.dispositions != spec.dispositions:
                diff.insert(0, "dispositions")
            if front.meter is not None and front.meter.total != spec.meter.total:
                diff.append("cycles")
            if diff:
                reasons = [p.__name__ for p in EXEMPTIONS if p(self, front)]
                assert reasons, (front.name, diff, _first_difference(front, spec, got, expected))
                self.parked[front.name] = reasons[0]
                del self.fronts[front.name]
                continue
            assert configuration(front.library) == want_config, front.name


def _first_difference(front, spec, got, expected):
    """Where ``front`` first parts from the spec: a path and both values."""
    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in list(b) + [k for k in a if k not in b]:
                if a.get(key) != b.get(key):
                    return walk(a.get(key), b.get(key), path + [key])
        if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    return walk(x, y, path + [i])
        return path, a, b

    if front.dispositions != spec.dispositions:
        return walk(front.dispositions, spec.dispositions, ["dispositions"])
    return walk(got, expected, [])
