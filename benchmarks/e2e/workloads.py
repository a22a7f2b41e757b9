"""The seven workloads.  Each class builds its inputs from the seed,
builds and configures the system under test through public calls only,
checks the timed path against a twin on the metered spec path, and then
offers one driver call at a time to the harness (closed loop, one
client: the harness offers the next call only when this one returned).

A *cycle* is the workload's fixed, repeating sequence of driver calls
(``calls_per_cycle`` slots).  The harness times whole cycles, so every
slot has the same number of samples.
"""

from __future__ import annotations

import copy
import random
from array import array
from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.packet import Packet
from repro.shard import ShardedPluginLibrary, ShardedRouter, encode_packet
from repro.sim.cost import CycleMeter
from repro.topo import TopologyPluginLibrary
from repro.workloads import topo_scenarios
from repro.workloads.adversarial import run_scenario

import gen
from speed import UNSCALED
from tracing import NULL_TRACER

ORACLE_BURSTS = 8            # 2048 packets through the metered twin
CTL_INSTANCE = "bench_ctl"
# Owns a source net no generated flow uses: binding it bumps plan_epoch
# (loop recompile, compiled-table rebuild) without reclassifying traffic.
CTL_FILTER = "10.200.0.0/16, 20.*, UDP"


class SinkTap:
    """Duck-types ``repro.net.interfaces.Link``: keeps what an interface
    emits, so emitted bytes can be compared and counted."""

    def __init__(self):
        self.packets: List[Packet] = []

    def carry(self, sender, packet, departure: float) -> None:
        self.packets.append(packet)

    def take(self) -> List[Packet]:
        out, self.packets = self.packets, []
        return out


def two_port_router(max_flows: Optional[int] = None) -> Router:
    router = Router(name="dut", max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def control_verbs(lib, route: str, iface: str, **target) -> List[Tuple[str, Callable]]:
    """The verb cycle bind -> add_route -> unbind on any of the three
    plugin libraries (``target`` is ``node=`` on a topology).  The cycle
    restores the filter set, and re-adding the same route replaces it,
    so state does not grow with run length."""
    lib.modload("firewall", **target)
    lib.create_instance("firewall", CTL_INSTANCE, action="allow", **target)
    return [
        ("bind", lambda: lib.bind(CTL_INSTANCE, CTL_FILTER,
                                  gate="ip_security", **target)),
        ("add_route", lambda: lib.add_route(route, iface, **target)),
        ("unbind", lambda: lib.unbind(CTL_INSTANCE, **target)),
    ]


def mismatches(want: list, got: list) -> int:
    return sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))


class Workload:
    name = ""
    expect = "forwarded"
    calls_per_cycle = 0
    packets_per_cycle = 0
    #: Per-packet service times of the last call, where one driver call
    #: is too coarse to be a service-time sample (topo_ipsec).
    svc_samples: Optional[array] = None
    #: The harness's machine-speed reference, for workloads that take
    #: such samples themselves.
    speed = UNSCALED

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.input_digest = ""
        self.verbs: List[Tuple[str, Callable]] = []
        self._cursor = 0

    def offer(self, slot: int, tracer):
        """One driver call (the timed region)."""
        raise NotImplementedError

    def check(self, slot: int, out) -> None:
        """Count the call's packets and its wrong outcomes (untimed)."""
        if out is None:
            return
        self.attempted += len(out)
        self.failed += len(out) - out.count(self.expect)

    def reset(self) -> None:
        """Make the cycle's inputs offerable again (untimed)."""

    def next_slot(self) -> int:
        """The slot :meth:`post_op` offers next (cycling, outside cycles)."""
        slot = self._cursor
        self._cursor = (slot + 1) % self.calls_per_cycle
        return slot

    def post_op(self, tracer) -> int:
        """Service time (ns) of the first driver call after a verb."""
        slot = self.next_slot()
        start = perf_counter_ns()
        out = self.offer(slot, tracer)
        elapsed = perf_counter_ns() - start
        self.check(slot, out)
        return elapsed

    def conserve(self) -> None:
        """End-of-run conservation check over everything offered."""

    def close(self) -> None:
        pass

    def probe_packets(self) -> List[Packet]:
        """Fresh objects of the first 2048 packets of this stream."""
        raise NotImplementedError

    def probe_router(self) -> Router:
        """A fresh single router configured for this stream."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Single-router workloads
# ----------------------------------------------------------------------
class RouterWorkload(Workload):
    pool_bursts = 120
    max_flows: Optional[int] = None
    oracle_bursts = ORACLE_BURSTS
    keep_tap = False             # the sink tap outlives the oracle pass

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = self.make_bursts(self.pool_bursts)
        self.input_digest = gen.digest(p for burst in self.pool for p in burst)
        self.router, self.lib = self.build()
        self._tap = SinkTap()
        self.prepare()
        self.verbs = control_verbs(self.lib, "20.200.0.0/16", "atm1")
        self.slots = self.make_slots()
        self.calls_per_cycle = len(self.slots)
        self.packets_per_cycle = self.pool_bursts * gen.BURST
        self._oracle()

    # -- per-workload pieces -------------------------------------------
    def make_bursts(self, count: int) -> List[List[Packet]]:
        raise NotImplementedError

    @classmethod
    def build(cls) -> Tuple[Router, RouterPluginLibrary]:
        """A fresh, configured system under test (also the oracle twin
        and the layer probes' router)."""
        router = two_port_router(cls.max_flows)
        return router, RouterPluginLibrary(router)

    def prepare(self) -> None:
        """Hook between building the router and checking it."""

    def make_slots(self) -> List[Tuple[str, int]]:
        return [("burst", i) for i in range(self.pool_bursts)]

    def twin_bursts(self) -> List[List[Packet]]:
        return self.make_bursts(self.oracle_bursts)

    # -- driver calls ----------------------------------------------------
    def offer(self, slot: int, tracer):
        kind, index = self.slots[slot]
        if kind == "verb":
            name, verb = self.verbs[index]
            with tracer("mgr." + name):
                verb()
            return None
        with tracer("core.receive_batch"):
            return self.router.receive_batch(self.pool[index])

    def reset(self) -> None:
        for burst in self.pool:
            for packet in burst:
                packet.fix = None
                packet.ttl = 64

    def next_slot(self) -> int:
        """Burst slots only, re-arming the pool at each wrap."""
        while True:
            slot = super().next_slot()
            if slot == 0:
                self.reset()
            if self.slots[slot][0] == "burst":
                return slot

    # -- correctness -----------------------------------------------------
    def _emitted(self) -> List[bytes]:
        return [p.serialize() for p in self._tap.take()]

    def _oracle(self) -> None:
        """Run the first bursts (and the verbs between them) through a
        twin on the metered spec path and through the real driver call;
        dispositions and emitted wire bytes must match packet for packet.
        The same pass warms flow caches and compiled loops."""
        twin, twin_lib = self.build()
        twin_verbs = control_verbs(twin_lib, "20.200.0.0/16", "atm1")
        twin_tap = SinkTap()
        twin.interfaces["atm1"].link = twin_tap
        self.router.interfaces["atm1"].link = self._tap
        meter = CycleMeter()
        twin_pool = self.twin_bursts()
        want, got, got_wire = [], [], []
        for slot, (kind, index) in enumerate(self.slots):
            if len(want) == self.oracle_bursts * gen.BURST:
                break
            if kind == "verb":
                twin_verbs[index][1]()
            else:
                for packet in twin_pool[index]:
                    want.append(twin.receive(packet, cycles=meter))
            out = self.offer(slot, NULL_TRACER)
            self.check(slot, out)
            if out is not None:
                got.extend(out)
                got_wire.extend(self._emitted())
        want_wire = [p.serialize() for p in twin_tap.take()]
        self.failed += mismatches(want, got) + mismatches(want_wire, got_wire)
        if not self.keep_tap:
            self.router.interfaces["atm1"].link = None
        self.reset()

    def conserve(self) -> None:
        counters = self.router.counters
        sent = self.router.interfaces["atm1"].tx_packets
        self.failed += abs(sent - counters["forwarded"] - counters["tx_scheduled"])

    def probe_packets(self) -> List[Packet]:
        return [p for burst in self.twin_bursts() for p in burst]

    def probe_router(self) -> Router:
        return self.build()[0]


class WireFastpath(RouterWorkload):
    name = "wire_fastpath"
    distinct_bursts = 24            # replayed 5x per cycle; bytes are immutable
    keep_tap = True

    def make_bursts(self, count: int) -> List[List[Packet]]:
        rng = random.Random(self.seed)
        count = min(count, self.distinct_bursts)
        return gen.bursts(rng, gen.flows(rng), count, imix=False)

    def prepare(self) -> None:
        """Inputs become wire bytes; the expected output is the input
        one hop older."""
        self.wire = [[p.serialize() for p in burst] for burst in self.pool]
        self.pool = []
        self.expected = []
        for burst in self.wire:
            hopped = []
            for data in burst:
                packet = Packet.parse(data)
                packet.ttl -= 1
                hopped.append(packet.serialize())
            self.expected.append(hopped)

    def twin_bursts(self):
        return [[Packet.parse(data, "atm0") for data in burst]
                for burst in self.wire[:self.oracle_bursts]]

    def offer(self, slot: int, tracer):
        parse = Packet.parse
        with tracer("net.parse"):
            packets = [parse(data, "atm0")
                       for data in self.wire[slot % self.distinct_bursts]]
        with tracer("core.receive_batch"):
            out = self.router.receive_batch(packets)
        with tracer("net.serialize"):
            self.emitted = [p.serialize() for p in self._tap.take()]
        return out

    def _emitted(self):
        return self.emitted

    def check(self, slot: int, out) -> None:
        super().check(slot, out)
        expected = self.expected[slot % self.distinct_bursts]
        if self.emitted != expected:
            self.failed += mismatches(expected, self.emitted)

    def reset(self) -> None:
        pass


class GateChain(RouterWorkload):
    name = "gate_chain"
    firewall_filters: Sequence[str] = ("*, *, UDP",)
    scheduler = False

    def make_bursts(self, count: int):
        rng = random.Random(self.seed)
        return gen.bursts(rng, gen.flows(rng), count, imix=True)

    @classmethod
    def build(cls):
        router, lib = super().build()
        lib.modload("stats")
        lib.create_instance("stats", "st")
        lib.bind("st", "*, *, UDP", gate="ip_options")
        lib.modload("firewall")
        lib.create_instance("firewall", "fw", action="allow")
        for spec in cls.firewall_filters:
            lib.bind("fw", spec, gate="ip_security")
        if cls.scheduler:
            lib.modload("drr")
            lib.create_instance("drr", "dr")
            lib.bind("dr", "*, *, UDP", gate="packet_scheduling")
            lib.set_scheduler("atm1", "dr")
        lib.enable_telemetry()
        return router, lib


class SchedDrr(GateChain):
    name = "sched_drr"
    scheduler = True
    expect = "queued"


class FlowChurn(RouterWorkload):
    name = "flow_churn"
    pool_bursts = 2 * gen.CHURN_FLOWS // gen.BURST     # every tuple twice a cycle
    max_flows = 1024

    def make_bursts(self, count: int):
        rng = random.Random(self.seed)
        tuples = gen.filtered_flows(rng, gen.CHURN_FLOWS, gen.CHURN_NETS)
        return gen.bursts(rng, tuples, count, imix=False)

    @classmethod
    def build(cls):
        router, lib = super().build()
        lib.modload("firewall")
        lib.create_instance("firewall", "fw", action="allow")
        for spec in gen.filter_specs(gen.CHURN_NETS):
            lib.bind("fw", spec, gate="ip_security")
        return router, lib


class ControlChurn(GateChain):
    name = "control_churn"
    firewall_filters = gen.filter_specs(64)
    verb_every = 8
    oracle_bursts = 24           # one whole bind -> add_route -> unbind cycle

    def make_bursts(self, count: int):
        rng = random.Random(self.seed)
        tuples = gen.filtered_flows(rng, gen.FLOWS, len(self.firewall_filters))
        return gen.bursts(rng, tuples, count, imix=True)

    def make_slots(self):
        slots = []
        for burst in range(self.pool_bursts):
            if burst % self.verb_every == 0:
                slots.append(("verb", (burst // self.verb_every) % 3))
            slots.append(("burst", burst))
        return slots


# ----------------------------------------------------------------------
# Multi-hop
# ----------------------------------------------------------------------
def _clone(packet: Packet) -> Packet:
    """A per-run copy, as run_scenario makes: routers mutate packets."""
    fresh = copy.copy(packet)
    fresh.annotations = dict(packet.annotations)
    fresh.fix = None
    return fresh


class _TimedTopology:
    """What ``run_scenario`` needs of a router, with every ``receive``
    timed (and a span recorded when tracing is on)."""

    def __init__(self, topo):
        self.aiu = topo.aiu
        self._overload = topo._overload
        self._receive = topo.receive
        self.tracer = NULL_TRACER
        self.speed = UNSCALED
        self.samples = array("d")

    def receive(self, packet, now: float = 0.0) -> str:
        factor = self.speed.current()
        start = perf_counter_ns()
        with self.tracer("topo.receive"):
            disposition = self._receive(packet, now=now)
        self.samples.append((perf_counter_ns() - start) * factor)
        return disposition


class TopoIpsec(Workload):
    name = "topo_ipsec"
    calls_per_cycle = 1
    sizes = dict(warmup_packets=1000, attack_packets=6000, recovery_packets=1000)

    def _build(self):
        """(topology, scenario, the three phases as one timeline)."""
        topo, scenario = topo_scenarios.build("ipsec_tunnel", self.seed, **self.sizes)
        return topo, scenario, [entry for _phase, entries in scenario.phases()
                                for entry in entries]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.topo, self.scenario, self.timeline = self._build()
        self.packets_per_cycle = len(self.timeline)
        self.input_digest = gen.digest(p for _t, p, _a in self.timeline)
        self.proxy = _TimedTopology(self.topo)
        self.verbs = control_verbs(TopologyPluginLibrary(self.topo),
                                   "10.2.200.0/24", "wan0", node="gwa")
        self._background = [p for _t, p, attack in self.scenario.warmup
                            if not attack]
        self._oracle()

    def _oracle(self) -> None:
        twin, _scenario, twin_timeline = self._build()
        tap, twin_tap = SinkTap(), SinkTap()
        self.topo.node("e2").interfaces["lan0"].link = tap
        twin.node("e2").interfaces["lan0"].link = twin_tap
        meter = CycleMeter()
        count = ORACLE_BURSTS * gen.BURST
        want = [twin.receive(p, now=t, cycles=meter)
                for t, p, _a in twin_timeline[:count]]
        got = [self.topo.receive(_clone(p), now=t)
               for t, p, _a in self.timeline[:count]]
        want_wire = [p.serialize() for p in twin_tap.take()]
        got_wire = [p.serialize() for p in tap.take()]
        self.topo.node("e2").interfaces["lan0"].link = None
        self.attempted += len(got)
        self.failed += mismatches(want, got) + mismatches(want_wire, got_wire)

    def offer(self, slot: int, tracer):
        self.proxy.tracer = tracer
        self.proxy.speed = self.speed
        self.proxy.samples = self.svc_samples = array("d")
        return run_scenario(self.proxy, self.scenario, batch_size=0)

    def check(self, slot: int, report) -> None:
        wrong = 0
        for stats in report["phases"].values():
            wrong += stats["background_sent"] - stats["background_forwarded"]
            wrong += stats["attack_forwarded"]
        self.attempted += len(self.timeline)
        self.failed += max(wrong, len(self.scenario.check(report)))

    def post_op(self, tracer) -> int:
        packet = _clone(self._background[self._cursor % len(self._background)])
        self._cursor += 1
        self.proxy.tracer = tracer
        start = perf_counter_ns()
        disposition = self.proxy.receive(packet)
        elapsed = perf_counter_ns() - start
        self.attempted += 1
        self.failed += disposition != "forwarded"
        return elapsed

    def probe_packets(self):
        return [_clone(p) for _t, p, _a in self.timeline[:ORACLE_BURSTS * gen.BURST]]

    def probe_router(self):
        """The scenario's first hop without its neighbours."""
        router = Router(name="e1")
        router.add_interface("lan0", prefix="10.1.0.0/16")
        router.add_interface("up0")
        router.routing_table.add("10.2.0.0/16", "up0")
        router.routing_table.add("192.0.2.0/24", "up0")
        return router


# ----------------------------------------------------------------------
# Sharded, across a process boundary
# ----------------------------------------------------------------------
def _shard_factory(index: int) -> Router:
    """Runs inside each forked worker, so no router state crosses the fork."""
    return two_port_router()


class ShardWire(Workload):
    name = "shard_wire"
    nshards = 2                  # the box has two cores
    ring = 2048
    distinct_rings = 8           # descriptors are immutable, so rings replay
    calls_per_cycle = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        # Fork the workers before the inputs exist: they inherit less.
        self.front = ShardedRouter(nshards=self.nshards, factory=_shard_factory,
                                   backend="mp")
        try:
            self.verbs = control_verbs(ShardedPluginLibrary(self.front),
                                       "20.200.0.0/16", "atm1")
            packets = self._packets(self.distinct_rings)
            self.input_digest = gen.digest(packets)
            descs = [encode_packet(p) for p in packets]
            self.rings = [descs[at:at + self.ring]
                          for at in range(0, len(descs), self.ring)]
            self.packets_per_cycle = self.calls_per_cycle * self.ring
            self._oracle()
        except BaseException:
            self.close()
            raise

    def _packets(self, rings: int) -> List[Packet]:
        rng = random.Random(self.seed)
        count = rings * self.ring // gen.BURST
        flows = gen.flows(rng, shards=self.nshards)
        return [p for burst in gen.bursts(rng, flows, count, imix=False)
                for p in burst]

    def _oracle(self) -> None:
        """Emitted bytes stay in the workers; dispositions are compared
        here and the workers' own counters in :meth:`conserve`."""
        twin = _shard_factory(0)
        meter = CycleMeter()
        want = [twin.receive(p, cycles=meter) for p in self._packets(1)]
        got = self.front.receive_wire(self.rings[0])
        self.attempted += len(got)
        self.failed += mismatches(want, got)

    def offer(self, slot: int, tracer):
        with tracer("shard.receive_wire"):
            return self.front.receive_wire(self.rings[slot % self.distinct_rings])

    def conserve(self) -> None:
        counters = self.front.health()["counters"]
        self.failed += abs(counters.get("forwarded", 0) - self.attempted)

    def close(self) -> None:
        self.front.close()

    def probe_packets(self):
        return self._packets(1)

    def probe_router(self):
        return _shard_factory(0)


WORKLOADS = {
    cls.name: cls
    for cls in (WireFastpath, GateChain, SchedDrr, FlowChurn, ControlChurn,
                TopoIpsec, ShardWire)
}
