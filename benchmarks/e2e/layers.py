"""Per-layer probes: each times one layer's public function from outside,
on fixed operation counts, and reports the median of a few repeats.

``stream_probes`` runs on the current workload's own packets;
``fixed_probes`` builds the canonical input each layer's number is
defined on (the churn stream for the AIU ladder, the gate_chain stream
for gate dispatch, ...) from the same generators and seed, so those
read the same whichever workload's traced run prints them.

A ``*_ns`` figure is per item and includes one Python-level call from
the probe loop; the ladders subtract two such loops, so it cancels there.
"""

from __future__ import annotations

import gc
import inspect
import random
import sys
from statistics import median
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Sequence

from repro.bmp import make_engine
from repro.core.plugin import PluginContext
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.addresses import Prefix
from repro.net.interfaces import NetworkInterface
from repro.net.packet import PARSE_STATS, Packet
from repro.sched import DrrPlugin
from repro.security import SecurityAssociation
from repro.shard import (
    ShardedRouter,
    ShardWorkerPool,
    decode_packet,
    dispatch_wire,
    encode_packet,
)
from repro.topo import Topology

import gen
import workloads
from workloads import CTL_FILTER, two_port_router

REPEATS = 5
SIM_PACKETS = 512

#: CycleMeter label -> the paper's Table 3 column.
SIM_STAGE = {
    "driver_rx": "driver", "driver_tx": "driver",
    "aiu_call": "classify", "flow_hash": "classify",
    "classification": "classify", "fix_store": "classify",
    "route_lookup": "route",
    "sched_enqueue": "sched", "sched_dequeue": "sched",
    "ip_input": "forward", "ip_forward": "forward",
}                                   # anything else is gate work
SIM_STAGES = ("driver", "classify", "gates", "route", "sched", "forward")


def per_item_ns(fn: Callable, items: Sequence, before: Callable = None,
                repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = perf_counter_ns()
        for item in items:
            fn(item)
        samples.append((perf_counter_ns() - start) / len(items))
    return median(samples)


def timed_ms(fn: Callable) -> float:
    start = perf_counter_ns()
    fn()
    return (perf_counter_ns() - start) / 1e6


def rearm(packets: Iterable[Packet]) -> None:
    for packet in packets:
        packet.fix = None
        packet.ttl = 64


def in_bursts(packets: List[Packet]) -> List[List[Packet]]:
    return [packets[at:at + gen.BURST] for at in range(0, len(packets), gen.BURST)]


def forward_ns(router: Router, packets: List[Packet], scalar: bool = False,
               repeats: int = REPEATS) -> float:
    """ns/packet of ``receive_batch`` (or ``receive``) alone, warm."""
    bursts = in_bursts(packets)

    def one_pass() -> int:
        start = perf_counter_ns()
        if scalar:
            receive = router.receive
            for packet in packets:
                receive(packet)
        else:
            receive_batch = router.receive_batch
            for burst in bursts:
                receive_batch(burst)
        return perf_counter_ns() - start

    one_pass()
    samples = []
    for _ in range(repeats):
        rearm(packets)
        samples.append(one_pass() / len(packets))
    return median(samples)


# ----------------------------------------------------------------------
# On the workload's own stream
# ----------------------------------------------------------------------
def stream_probes(workload) -> Dict[str, float]:
    packets = workload.probe_packets()
    count = len(packets)
    out: Dict[str, float] = {}
    out["net.bytes_per_pkt"] = sum(p.length for p in packets) / count
    out["net.serialize_ns"] = per_item_ns(Packet.serialize, packets)
    wire = [p.serialize() for p in packets]
    out["net.parse_ns"] = per_item_ns(Packet.parse, wire)
    out["net.emit_ns"] = per_item_ns(NetworkInterface("probe").output, packets)
    table = workload.probe_router().routing_table
    out["net.route_lookup_ns"] = per_item_ns(
        table.lookup_fast, [p.dst for p in packets])

    # core: the executor alone on this stream, batch and scalar.
    router = workload.probe_router()
    out["core.forward_ns"] = forward_ns(router, packets)
    # One more warm pass with the exact counters read around it.
    rearm(packets)
    flows_before = router.aiu.flow_table.stats()
    counters_before = dict(router.counters)
    folds_before = PARSE_STATS.tuple_derivations
    collections_before = sum(s["collections"] for s in gc.get_stats())
    blocks_before = sys.getallocatedblocks()
    for burst in in_bursts(packets):
        router.receive_batch(burst)
    blocks = sys.getallocatedblocks() - blocks_before
    collections = sum(s["collections"] for s in gc.get_stats()) - collections_before
    flows_after = router.aiu.flow_table.stats()
    hits = flows_after["hits"] - flows_before["hits"]
    misses = flows_after["misses"] - flows_before["misses"]
    out["net.tuple_derivations_per_pkt"] = (
        PARSE_STATS.tuple_derivations - folds_before) / count
    out["aiu.hit_ratio"] = hits / (hits + misses)
    out["aiu.evictions_per_pkt"] = (
        flows_after["evictions"] - flows_before["evictions"]) / count
    out["sched.queued_share"] = (
        router.counters["queued"] - counters_before.get("queued", 0)) / count
    out["core.alloc_blocks_per_pkt"] = blocks / count
    out["gc.collections_per_kpkt"] = collections * 1000 / count
    out["core.scalar_ns"] = forward_ns(workload.probe_router(), packets, scalar=True)
    out["core.batch_vs_scalar_ratio"] = out["core.scalar_ns"] / out["core.forward_ns"]

    # sim: the paper's modelled cycles for the same packets.
    rearm(packets)
    router = workload.probe_router()
    stages = dict.fromkeys(SIM_STAGES, 0)
    for packet in packets[:SIM_PACKETS]:
        for label, cycles in router.measure_packet(packet).breakdown().items():
            stages[SIM_STAGE.get(label, "gates")] += cycles
    total = sum(stages.values())
    out["sim.cycles_per_pkt"] = total / SIM_PACKETS
    for stage, cycles in stages.items():
        out[f"sim.share.{stage}"] = cycles / total
    return out


# ----------------------------------------------------------------------
# On each layer's canonical input
# ----------------------------------------------------------------------
def fixed_probes(seed: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for probe in (_aiu, _core, _sched, _security, _shard, _topo, _mgr):
        out.update(probe(seed))
    return out


def _churn_packets(seed: int, tuples: int = 4096) -> List[Packet]:
    rng = random.Random(seed)
    flows = gen.filtered_flows(rng, tuples, gen.CHURN_NETS)
    return [gen.udp(flow, gen.SMALL) for flow in flows]


def _gate_packets(seed: int) -> List[Packet]:
    rng = random.Random(seed)
    bursts = gen.bursts(rng, gen.flows(rng), workloads.ORACLE_BURSTS, imix=True)
    return [p for burst in bursts for p in burst]


def _aiu(seed: int) -> Dict[str, float]:
    packets = _churn_packets(seed)
    gate = "ip_security"

    def classify_ns(make_router: Callable[[], Router], fresh: bool) -> float:
        """``AIU.classify`` over the churn stream.  ``fresh``: a new
        uncapped router per repeat (every tuple unseen).  Otherwise one
        capped router, filled first: 4096 tuples through 1024 records
        means every repeat misses, installs and evicts."""
        router = make_router()
        state = {"router": router}
        if not fresh:
            for packet in packets:
                router.aiu.classify(packet, gate)

        def before():
            rearm(packets)
            if fresh:
                state["router"] = make_router()

        return per_item_ns(lambda p: state["router"].aiu.classify(p, gate),
                           packets, before=before)

    def capped(filters: int) -> Router:
        router = two_port_router(max_flows=1024)
        for spec in gen.filter_specs(filters):
            router.aiu.create_filter(gate, spec)
        return router

    warm = two_port_router()
    for packet in packets:
        warm.aiu.classify(packet, gate)
    hit = per_item_ns(warm.aiu.flow_table.lookup, packets)
    miss = classify_ns(two_port_router, fresh=True)
    evict = classify_ns(lambda: capped(0), fresh=False)
    dag = classify_ns(lambda: capped(gen.CHURN_NETS), fresh=False)

    # Control-path costs on the 256-filter set.
    router = capped(gen.CHURN_NETS)
    router.aiu.ensure_compiled()
    create_us, compile_ms, remove_us = [], [], []
    for _ in range(2 * REPEATS - 1):
        start = perf_counter_ns()
        record = router.aiu.create_filter(gate, CTL_FILTER)
        create_us.append((perf_counter_ns() - start) / 1e3)
        compile_ms.append(timed_ms(router.aiu.ensure_compiled))
        start = perf_counter_ns()
        router.aiu.remove_filter(record)
        remove_us.append((perf_counter_ns() - start) / 1e3)
        router.aiu.ensure_compiled()

    # The longest-prefix engine the default Router builds.
    engine_name = inspect.signature(Router.__init__).parameters["bmp_engine"].default
    engine = make_engine(engine_name, 32)
    for spec in gen.filter_specs(gen.CHURN_NETS):
        engine.insert(Prefix.parse(spec.split(",")[0]), spec)
    bmp = per_item_ns(engine.lookup_fast, [p.src.value for p in packets])
    return {
        "aiu.hit_lookup_ns": hit,
        "aiu.classify_miss_ns": miss,
        "aiu.install_evict_ns": evict - hit,
        "aiu.dag_ns": dag - evict,
        "aiu.compile_ms": median(compile_ms),
        "aiu.create_filter_us": median(create_us),
        "aiu.remove_filter_us": median(remove_us),
        "bmp.lookup_ns": bmp,
    }


def _gates_router(scheduler: bool = False, telemetry: bool = True) -> Router:
    cls = workloads.SchedDrr if scheduler else workloads.GateChain
    router, lib = cls.build()
    if not telemetry:
        lib.disable_telemetry()
    return router


def _core(seed: int) -> Dict[str, float]:
    packets = _gate_packets(seed)
    bursts = in_bursts(packets)
    plain = forward_ns(two_port_router(), packets)
    gates = forward_ns(_gates_router(), packets)
    drr = forward_ns(_gates_router(scheduler=True), packets)

    first = []
    for _ in range(REPEATS):
        rearm(packets)
        router = _gates_router()
        first.append(timed_ms(lambda: router.receive_batch(bursts[0])))

    # Recompile: the burst after a plan_epoch bump, minus a steady burst.
    router = _gates_router()
    for burst in bursts:
        router.receive_batch(burst)
    steady, bumped = [], []
    record = None
    for index in range(2 * REPEATS):
        rearm(packets)
        steady.append(timed_ms(lambda: router.receive_batch(bursts[0])))
        if record is None:
            record = router.aiu.create_filter("ip_security", CTL_FILTER)
        else:
            router.aiu.remove_filter(record)
            record = None
        bumped.append(timed_ms(lambda: router.receive_batch(bursts[1])))

    # Telemetry attached / detached, interleaved pairs on one stream.
    on, off = _gates_router(), _gates_router(telemetry=False)
    on_ns, off_ns = [], []
    for _ in range(REPEATS):
        on_ns.append(forward_ns(on, packets, repeats=1))
        off_ns.append(forward_ns(off, packets, repeats=1))
    snapshot = [timed_ms(on.telemetry.snapshot) for _ in range(2 * REPEATS - 1)]
    return {
        "core.gate_ns": (gates - plain) / 2,
        "core.first_burst_ms": median(first),
        "core.recompile_ms": median(bumped) - median(steady),
        "sched.drr_ns": drr - gates,
        "telemetry.overhead_ratio": median(on_ns) / median(off_ns),
        "telemetry.snapshot_ms": median(snapshot),
    }


def _sched(seed: int) -> Dict[str, float]:
    packets = _gate_packets(seed)[:1024]        # 16 per flow: under the queue limit
    instance = DrrPlugin().create_instance()
    ctx = PluginContext()
    enqueue, dequeue = [], []
    for _ in range(REPEATS):
        enqueue.append(per_item_ns(lambda p: instance.enqueue(p, ctx), packets,
                                   repeats=1))
        dequeue.append(per_item_ns(lambda _p: instance.dequeue(0.0), packets,
                                   repeats=1))
    return {"sched.enqueue_ns": median(enqueue), "sched.dequeue_ns": median(dequeue)}


def _security(seed: int) -> Dict[str, float]:
    sa = SecurityAssociation(spi=0x1001, auth_key=b"authentication-k",
                             encryption_key=b"encryption-key!!")
    plaintext = random.Random(seed).randbytes(1000)
    ciphertext = sa.encrypt(1, plaintext)
    sequences = range(1, 65)
    return {
        "security.esp_encrypt_ns_per_byte":
            per_item_ns(lambda s: sa.encrypt(s, plaintext), sequences) / 1000,
        "security.esp_decrypt_ns_per_byte":
            per_item_ns(lambda s: sa.decrypt(s, ciphertext), sequences) / 1000,
    }


def _shard(seed: int) -> Dict[str, float]:
    rng = random.Random(seed)
    nshards = workloads.ShardWire.nshards
    packets = [p for burst in gen.bursts(rng, gen.flows(rng, shards=nshards),
                                         workloads.ORACLE_BURSTS, imix=False)
               for p in burst]
    count = len(packets)
    factory = workloads._shard_factory
    descs = [encode_packet(p) for p in packets]
    buckets, _indices = dispatch_wire(descs, nshards)
    out = {
        "shard.encode_ns": per_item_ns(encode_packet, packets),
        "shard.decode_ns": per_item_ns(decode_packet, descs),
        "shard.dispatch_ns": median(
            timed_ms(lambda: dispatch_wire(descs, nshards)) * 1e6 / count
            for _ in range(REPEATS)),
        "shard.balance": max(map(len, buckets)) * nshards / count,
    }

    def ring_ns(receive: Callable) -> float:
        receive(descs)
        return median(timed_ms(lambda: receive(descs)) * 1e6 / count
                      for _ in range(2 * REPEATS - 1))

    pool = ShardWorkerPool(nshards, factory, null_path=True)
    try:
        out["shard.ipc_ns"] = ring_ns(pool.process_wire)
    finally:
        pool.close()
    inline = ring_ns(ShardedRouter(nshards=nshards, factory=factory,
                                   backend="inline").receive_wire)
    with ShardedRouter(nshards=nshards, factory=factory, backend="mp") as front:
        mp = ring_ns(front.receive_wire)
    out["shard.inline_pps"] = 1e9 / inline
    out["shard.mp_vs_inline_ratio"] = inline / mp
    return out


def _topo(seed: int) -> Dict[str, float]:
    """Four plain routers in a line: what the topology pump adds per hop
    over four bare scalar receives."""
    rng = random.Random(seed)
    packets = [p for burst in gen.bursts(rng, gen.flows(rng), 4, imix=False,
                                         iif="in0") for p in burst]
    count = len(packets)

    def plain() -> Router:
        router = Router(name="hop")
        router.add_interface("in0")
        router.add_interface("out0", prefix="20.0.0.0/8")
        return router

    topo = Topology("probe", max_hops=8)
    names = ("h1", "h2", "h3", "h4")
    for name in names:
        topo.add_node(name)
        topo.add_interface(name, "in0")
        topo.add_interface(name, "out0")
        topo.add_route(name, "20.0.0.0/8", "out0")
    for near, far in zip(names, names[1:]):
        topo.link(near, "out0", far, "in0")

    def through_topo() -> float:
        rearm(packets)
        for packet in packets:
            packet.iif = "in0"
        start = perf_counter_ns()
        for packet in packets:
            topo.receive(packet)
        return (perf_counter_ns() - start) / count

    through_topo()
    before = dict(topo.counters)
    path = median(through_topo() for _ in range(REPEATS))
    after = topo.counters
    passes = REPEATS * count
    for packet in packets:
        packet.iif = "in0"
    hop = forward_ns(plain(), packets, scalar=True)
    return {
        "topo.hop_overhead_ns": (path - len(names) * hop) / (len(names) - 1),
        "topo.hops_per_pkt": (after["rx"] - before["rx"]) / passes,
        "topo.delivered_share":
            (after["forwarded"] - before["forwarded"]) / (passes * len(names)),
    }


def _mgr(seed: int) -> Dict[str, float]:
    _router, lib = workloads.ControlChurn.build()
    verbs = dict(workloads.control_verbs(lib, "20.200.0.0/16", "atm1"))
    verbs["query_aiu"] = lambda: lib.query("aiu")
    samples = {name: [] for name in ("bind", "add_route", "unbind", "query_aiu")}
    for _ in range(3 * REPEATS):
        for name in samples:
            samples[name].append(timed_ms(verbs[name]) * 1e3)
    return {f"mgr.{name}_us": median(values) for name, values in samples.items()}
