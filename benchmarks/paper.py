#!/usr/bin/env python3
"""The paper's evaluation as one table of rows.

Every number EXPERIMENTS.md reports is a row ``(id, measure, paper
value, tolerance)``: ``measure`` computes it from the cost model or the
component under test (deterministic, so it repeats bit for bit),
``paper`` is what the paper states (``None`` where it makes a claim but
gives no number), and the tolerance ``(lo, hi)`` is the closed range the
claim allows (``None`` leaves an end open).

    python benchmarks/paper.py

recomputes every row (≈ 1.5 min), writes EXPERIMENTS.json and rewrites
the generated blocks of EXPERIMENTS.md — each experiment's table and
its "Status:" line, between ``<!-- paper.py X -->`` markers; the prose
around them is hand-written.  tests/perf/test_paper.py pins every row to
the JSON and to its tolerance; ``slow`` rows (the 50k-filter Table 2
sets, the 8192-filter and 16/64-cover DAGs, the 65 536-flow table, the
500-packet trains: ≈ 1 min) run under ``pytest -m paper``.  Wall-clock
speed is measured by benchmarks/e2e/, not here.
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.aiu import AIU  # noqa: E402
from repro.aiu.dag import DagFilterTable  # noqa: E402
from repro.aiu.filters import Filter  # noqa: E402
from repro.aiu.flow_table import FlowTable  # noqa: E402
from repro.aiu.linear import LinearFilterTable  # noqa: E402
from repro.aiu.records import FilterRecord, FlowRecord, GateSlot  # noqa: E402
from repro.core import DEFAULT_GATES, Router  # noqa: E402
from repro.core.plugin import PluginContext  # noqa: E402
from repro.kernels import (  # noqa: E402
    build_altq_kernel, build_besteffort_kernel, build_drr_plugin_kernel,
    build_plugin_kernel, run_table3_workload,
)
from repro.mgr import PluginManager  # noqa: E402
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress  # noqa: E402
from repro.net.packet import Packet, make_udp  # noqa: E402
from repro.sched.altq import AltqWfq  # noqa: E402
from repro.sched.cbq import CbqPlugin  # noqa: E402
from repro.sched.curves import ServiceCurve  # noqa: E402
from repro.sched.drr import DrrPlugin  # noqa: E402
from repro.sched.hfsc import HfscPlugin  # noqa: E402
from repro.sched.hsf import HsfPlugin  # noqa: E402
from repro.sched.scfq import ScfqPlugin  # noqa: E402
from repro.security import EspPlugin, HwEspPlugin, SecurityAssociation  # noqa: E402
from repro.sim.cost import (  # noqa: E402
    CPU_HZ, Costs, CycleMeter, MemoryMeter, cycles_to_us, memory_accesses_to_us,
)
from repro.stats import jain_fairness  # noqa: E402
from repro.workloads import (  # noqa: E402
    bursty_arrivals, matching_probe, prefix_length_filters, random_filters,
    synthetic_flows, table3_flows,
)

JSON_PATH = ROOT / "EXPERIMENTS.json"
MD_PATH = ROOT / "EXPERIMENTS.md"
cached = functools.lru_cache(maxsize=None)


@dataclass(frozen=True)
class Row:
    id: str
    label: str
    paper: Optional[float]
    tolerance: Tuple[Optional[float], Optional[float]]
    measure: Callable[[], float]
    slow: bool = False


ROWS: Dict[str, Row] = {}


def row(id, label, paper, tolerance, measure, slow=False):
    ROWS[id] = Row(id, label, paper, tolerance, measure, slow)


def exact(v):
    return (v, v)


def rel(v, r):
    return (round(v * (1 - r), 6), round(v * (1 + r), 6))


def atmost(v):
    return (None, v)


def atleast(v):
    return (v, None)


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def filter_table(filters, width=IPV4_WIDTH, engine="bspl", linear=False, collapse=False):
    """The one filter-table builder every classifier row uses."""
    table = LinearFilterTable(width=width) if linear else DagFilterTable(
        width=width, bmp_engine=engine, collapse_wildcards=collapse)
    for flt in filters:
        table.install(FilterRecord(flt, gate="paper"))
    return table


def probe_meters(table, filters, count, seed, width=IPV4_WIDTH):
    """One metered lookup per sampled filter, of a packet it matches."""
    rng = random.Random(seed)
    meters = []
    for flt in rng.sample(filters, min(count, len(filters))):
        src, dst, proto, sport, dport = matching_probe(flt, rng)
        packet = Packet(src=IPAddress(src, width), dst=IPAddress(dst, width),
                        protocol=proto, src_port=sport, dst_port=dport)
        meter = MemoryMeter()
        assert table.lookup(packet, meter) is not None
        meters.append(meter)
    return meters


def mean(values):
    values = list(values)
    return sum(values) / len(values)


# ----------------------------------------------------------------------
# E1 — Table 1 / Figure 4
# ----------------------------------------------------------------------
def e1_filter():
    specs = ("129.*, 192.94.233.10, TCP", "128.252.153.1, 128.252.153.7, UDP",
             "128.252.153.1, 128.252.153.7, TCP", "128.252.153.*, *, UDP")
    filters = [Filter.parse(spec) for spec in specs]
    hit = filter_table(filters).lookup(make_udp("128.252.153.1", "128.252.153.7", 1234, 80))
    return next(n for n, flt in enumerate(filters, 1) if flt is hit.filter)


row("E1.filter", "filter the §5.1.1 walk returns", 2, exact(2), e1_filter)


# ----------------------------------------------------------------------
# E2 — Table 2: worst-case memory accesses per filter lookup
# ----------------------------------------------------------------------
@cached
def table2(width, kind):
    """Breakdown of the costliest lookup: ``worst`` is the set that fills
    the BSPL length tree; ``1k`` / ``50k`` are random sets."""
    if kind == "worst":
        filters = prefix_length_filters(width)
        count, seed = len(filters), 99
    elif kind == "50k":
        filters = (random_filters(50_000 - 64, width=width, seed=width, host_fraction=1.0)
                   + random_filters(64, width=width, seed=width + 1, host_fraction=0.0))
        count, seed = 400, 99
    else:
        filters, count, seed = random_filters(1000, width=width, seed=5, host_fraction=1.0), 200, 1
    meters = probe_meters(filter_table(filters, width), filters, count, seed, width)
    worst = max(meters, key=lambda m: m.accesses)
    return {**worst.breakdown(), "total": worst.accesses}


TABLE2 = (("fnptr_bmp", "BMP function pointer", 1, 1),
          ("fnptr_hash", "index-hash function pointer", 1, 1),
          ("waldvogel", "IP address lookups (2 addresses)", 10, 14),
          ("port", "port number lookups", 2, 2),
          ("dag_edge", "DAG edge accesses", 6, 6),
          ("total", "**total**", 20, 24))
for _key, _label, _v4, _v6 in TABLE2:
    for _w, _fam, _p in ((IPV4_WIDTH, "v4", _v4), (IPV6_WIDTH, "v6", _v6)):
        row(f"E2.{_fam}.{_key}", f"{_label}, IP{_fam}", _p, exact(_p),
            lambda w=_w, k=_key: table2(w, "worst").get(k, 0))
row("E2.v6.worst_us", "worst IPv6 lookup at 60 ns/access (µs)", 1.4, rel(1.4, 0.05),
    lambda: memory_accesses_to_us(table2(IPV6_WIDTH, "worst")["total"]))
row("E2.v4.random1k", "worst lookup, 1k random IPv4 filters", None, atmost(20),
    lambda: table2(IPV4_WIDTH, "1k")["total"])
for _w, _fam, _bound in ((IPV4_WIDTH, "v4", 20), (IPV6_WIDTH, "v6", 24)):
    row(f"E2.{_fam}.random50k", f"worst lookup, 50k random IP{_fam} filters", None,
        atmost(_bound), lambda w=_w: table2(w, "50k")["total"], slow=True)
row("E2.v4.random_growth", "worst lookup, 50k minus 1k random IPv4 filters", None, atmost(4),
    lambda: table2(IPV4_WIDTH, "50k")["total"] - table2(IPV4_WIDTH, "1k")["total"], slow=True)


# ----------------------------------------------------------------------
# E3 — Table 3: overall packet processing time
# ----------------------------------------------------------------------
KERNELS = {
    "besteffort": (build_besteffort_kernel, 6460, "Unmodified NetBSD 1.2.1"),
    "plugin": (build_plugin_kernel, 6970, "+ plugin architecture (3 empty gates)"),
    "altq": (build_altq_kernel, 8160, "NetBSD + ALTQ + DRR"),
    "plugin_drr": (build_drr_plugin_kernel, 8110, "+ plugin architecture + DRR plugin"),
    "plugin_nocache": (functools.partial(build_plugin_kernel, use_flow_cache=False), None, ""),
}


@cached
def cycles(kernel):
    return run_table3_workload(KERNELS[kernel][0](), repetitions=3).avg_cycles


def overhead(kernel):
    return (cycles(kernel) / cycles("besteffort") - 1) * 100


for _k in ("besteffort", "plugin", "altq", "plugin_drr"):
    _, _p, _label = KERNELS[_k]
    row(f"E3.{_k}.cycles", f"{_label} (cycles)", _p,
        exact(_p) if _k == "besteffort" else rel(_p, 0.05), lambda k=_k: cycles(k))
for _k, _p, _tol in (("plugin", 8, (6, 10)), ("altq", 26, (15, 35)), ("plugin_drr", 26, (15, 35))):
    row(f"E3.{_k}.overhead", f"{KERNELS[_k][2]} (% over row 1)", _p, _tol,
        lambda k=_k: overhead(k))
row("E3.gate_overhead", "gate + flow-detection overhead (cycles)", 500, (400, 600),
    lambda: cycles("plugin") - cycles("besteffort"))
row("E3.drr_vs_altq", "plugin DRR / ALTQ DRR cycles", round(8110 / 8160, 4), (0.9, 1.0),
    lambda: cycles("plugin_drr") / cycles("altq"))
row("E3.besteffort.pps", "row 1 throughput (pkts/s)", 36800, rel(36800, 0.05),
    lambda: CPU_HZ / cycles("besteffort"))


# ----------------------------------------------------------------------
# E4 — flow-table performance
# ----------------------------------------------------------------------
def filled_flow_table(count, ipv6=False):
    table = FlowTable(gate_count=3, buckets=32768)
    packets = [flow.packet() for flow in synthetic_flows(count, seed=count, ipv6=ipv6)]
    for packet in packets:
        table.install(packet)
    return table, packets


def flow_accesses(packets, table):
    meter = MemoryMeter()
    for packet in packets:
        table.lookup(packet, meter)
    return meter.accesses / len(packets)


def e4_cached_us():
    table, packets = filled_flow_table(1024, ipv6=True)
    meter, cycle_meter = MemoryMeter(), CycleMeter()
    for packet in packets[:256]:
        table.lookup(packet, meter, cycle_meter)
    return cycles_to_us((cycle_meter.total + meter.accesses * Costs.MEMORY_ACCESS) / 256)


def e4_hit_accesses(occupancy):
    table, packets = filled_flow_table(occupancy)
    return flow_accesses(packets[:512], table)


def e4_label_hash():
    table = FlowTable(gate_count=1, buckets=32768, use_flow_label=True)
    flows = synthetic_flows(256, seed=5, ipv6=True)
    packets = [flow.packet(flow_label=i + 1) for i, flow in enumerate(flows)]
    for packet in packets:
        table.install(packet)
    cycle_meter = CycleMeter()
    for packet in packets:
        table.lookup(packet, cycles=cycle_meter)
    return cycle_meter.breakdown()["flow_hash"] / len(packets)


@cached
def e4_lru():
    table = FlowTable(gate_count=1, buckets=1024, initial_records=64, max_records=256)
    packets = [flow.packet() for flow in synthetic_flows(512, seed=42)]
    for _ in range(3):
        for packet in packets:
            if table.lookup(packet) is None:
                table.install(packet)
    return table.stats()


row("E4.cached_us", "cached IPv6 flow lookup (µs)", 1.3, atmost(1.3), e4_cached_us)
for _n in (128, 1024, 8192, 65536):
    row(f"E4.hit.{_n}", f"accesses per hit, {_n} cached flows", None,
        atmost(1.5 + 2 * max(1.0, _n / 32768)), lambda n=_n: e4_hit_accesses(n),
        slow=_n > 8192)
row("E4.miss", "accesses per miss", None, atmost(2.0),
    lambda: flow_accesses([f.packet() for f in synthetic_flows(512, seed=777)],
                          filled_flow_table(1024)[0]))
row("E4.label_hash", "flow-label hash (cycles; five-tuple fold 17)", None, atmost(16),
    e4_label_hash)
row("E4.lru.allocated", "records allocated under a 256 cap", None, atmost(256),
    lambda: e4_lru()["allocated"])
row("E4.lru.recycled", "records recycled (512-flow working set)", None, atleast(1),
    lambda: e4_lru()["recycled"])


# ----------------------------------------------------------------------
# E5 — classifier scaling: DAG vs linear; E5b — the DAG's memory
# ----------------------------------------------------------------------
@cached
def scaling(size, linear):
    filters = random_filters(size, seed=size, host_fraction=0.8)
    meters = probe_meters(filter_table(filters, linear=linear), filters, 100, seed=5)
    return mean(m.accesses for m in meters)


for _n in (16, 128, 1024, 8192):
    row(f"E5.dag.{_n}", f"DAG accesses, {_n} filters", None, atmost(20),
        lambda n=_n: scaling(n, False), slow=_n > 1024)
    row(f"E5.linear.{_n}", f"linear accesses, {_n} filters", None, atleast(_n / 2),
        lambda n=_n: scaling(n, True), slow=_n > 1024)
row("E5.dag_growth", "DAG accesses, 8192 / 16 filters", None, atmost(2),
    lambda: scaling(8192, False) / scaling(16, False), slow=True)
for _n, _gap in ((128, 5), (8192, 200)):
    row(f"E5.gap.{_n}", f"linear / DAG accesses at {_n} filters", None, atleast(_gap),
        lambda n=_n: scaling(n, True) / scaling(n, False), slow=_n > 1024)

HOSTS = 2000
COVERS = (0, 4, 16, 64)


@cached
def dag_nodes(limit):
    """DAG nodes over 2000 host filters after each of COVERS wildcard-
    source covering filters, up to ``limit``."""
    table = filter_table(random_filters(HOSTS, seed=1, host_fraction=1.0), engine="patricia")
    nodes = {0: table.node_count()}
    for i in range(1, limit + 1):
        table.install(FilterRecord(Filter.parse(f"*, {i}.0.0.0/8, UDP"), gate="paper"))
        if i in COVERS:
            nodes[i] = table.node_count()
    return nodes


@cached
def nodes_per_host_filter(count):
    filters = random_filters(count, seed=7, host_fraction=1.0)
    return filter_table(filters, engine="patricia").node_count() / count


for _c in COVERS:
    _limit = max(_c, 4)
    row(f"E5b.nodes.{_c}", f"DAG nodes, {_c} covering filters", None,
        atmost(8 * HOSTS) if _c == 0 else (None, None),
        lambda c=_c, m=_limit: dag_nodes(m)[c], slow=_c > 4)
    if _c:
        row(f"E5b.ratio.{_c}", f"× host-only nodes, {_c} covering filters", None,
            atleast(1 + _c / 2), lambda c=_c, m=_limit: dag_nodes(m)[c] / dag_nodes(m)[0],
            slow=_c > 4)
for _n in (500, 1000, 2000):
    row(f"E5b.per_filter.{_n}", f"nodes per filter, {_n} host filters", None, atmost(8),
        lambda n=_n: nodes_per_host_filter(n))
row("E5b.per_filter_spread", "nodes per filter, max / min over 500-2000", None, atmost(1.2),
    lambda: (max(map(nodes_per_host_filter, (500, 1000, 2000)))
             / min(map(nodes_per_host_filter, (500, 1000, 2000)))))


# ----------------------------------------------------------------------
# E6 — flow-cache locality
# ----------------------------------------------------------------------
def per_packet_cycles(train):
    kernel = build_plugin_kernel()
    schedule = bursty_arrivals(synthetic_flows(32, seed=train), burst_length=train,
                               bursts_per_flow=1, seed=train)
    total = 0
    for timed in schedule:
        meter = CycleMeter()
        kernel.process(timed.packet, meter)
        total += meter.total
    return total / len(schedule)


def hit_rate_at_train_50():
    kernel = build_plugin_kernel()
    schedule = bursty_arrivals(synthetic_flows(16, seed=9), burst_length=50,
                               bursts_per_flow=1, seed=9)
    for timed in schedule:
        kernel.process(timed.packet)
    stats = kernel.router.aiu.stats()
    return stats["hits"] / (stats["hits"] + stats["misses"])


_BASE = Costs.BEST_EFFORT_PATH
for _t, _tol in ((1, atleast(round(1.15 * _BASE))), (10, atmost(round(1.10 * _BASE))),
                 (100, atmost(round(1.10 * _BASE))), (500, atmost(round(1.09 * _BASE)))):
    row(f"E6.train.{_t}", f"cycles/pkt at train length {_t}", None, _tol,
        lambda t=_t: per_packet_cycles(t), slow=_t > 100)
row("E6.hit_rate", "flow-cache hit rate at train length 50 (1 − 1/50)", None,
    (0.97, 0.99), hit_rate_at_train_50)


# ----------------------------------------------------------------------
# E7 — weighted DRR fairness
# ----------------------------------------------------------------------
def udp(flow, size=1000):
    return make_udp(f"10.0.0.{flow}", "20.0.0.1", 5000 + flow, 53, payload_size=size - 28)


def jain_16_flows(instance):
    for flow in range(16):
        for _ in range(100):
            instance.process(udp(flow), PluginContext())
    served = Counter()
    for _ in range(800):
        packet = instance.dequeue(0.0)
        served[packet.src_port] += packet.length
    return jain_fairness(served.values())


@cached
def weighted_shares():
    drr = DrrPlugin().create_instance(quantum=500, limit=2000)
    weights = {1: 1.0, 2: 2.0, 3: 4.0, 4: 8.0}
    contexts = {}
    for flow, weight in weights.items():
        record = FilterRecord(Filter.parse(f"10.0.0.{flow}, *, UDP"), gate="g")
        drr.set_weight(record, weight)
        slot = GateSlot()
        slot.filter_record = record
        flow_record = FlowRecord(None, 0)
        flow_record.slots = [slot]
        contexts[flow] = PluginContext(slot=slot, flow=flow_record)
    for _ in range(1500):
        for flow in weights:
            drr.process(udp(flow), contexts[flow])
    served = Counter()
    for _ in range(3000):
        packet = drr.dequeue(0.0)
        served[packet.src_port - 5000] += packet.length
    total = sum(served.values())
    return {flow: served[flow] / total for flow in weights}


def byte_ratio_1500_vs_300():
    drr = DrrPlugin().create_instance(quantum=1500, limit=2000)
    for _ in range(1000):
        drr.process(udp(1, size=1500), PluginContext())
        drr.process(udp(2, size=300), PluginContext())
    served = Counter()
    for _ in range(1200):
        packet = drr.dequeue(0.0)
        served[packet.src_port - 5000] += packet.length
    return served[1] / served[2]


@cached
def altq_vs_drr_queues():
    altq = AltqWfq(nqueues=64, quantum=1000)
    drr = DrrPlugin().create_instance(quantum=1000)
    for flow in range(128):
        altq.enqueue(udp(flow))
        drr.process(udp(flow), PluginContext())
    return altq.collisions, drr.active_flows()


row("E7.drr_jain", "DRR Jain index, 16 equal flows", 1.0, atleast(0.999),
    lambda: jain_16_flows(DrrPlugin().create_instance(quantum=1000, limit=200)))
for _f, _w in ((1, 1), (2, 2), (3, 4), (4, 8)):
    row(f"E7.share.{_w}", f"byte share, weight {_w} of 1:2:4:8", round(_w / 15, 4),
        rel(_w / 15, 0.10), lambda f=_f: weighted_shares()[f])
row("E7.byte_ratio", "byte ratio, 1500 B vs 300 B flows", 1.0, (0.9, 1.1), byte_ratio_1500_vs_300)
row("E7.scfq_jain", "SCFQ Jain index in the same gate", 1.0, atleast(0.99),
    lambda: jain_16_flows(ScfqPlugin().create_instance(limit=200)))
row("E7.altq_collisions", "ALTQ (64 queues) collisions, 128 flows", None, atleast(1),
    lambda: altq_vs_drr_queues()[0])
row("E7.drr_queues", "plugin DRR distinct queues, 128 flows", None, exact(128),
    lambda: altq_vs_drr_queues()[1])


# ----------------------------------------------------------------------
# E8 — H-FSC
# ----------------------------------------------------------------------
LINK_BPS = 10_000_000


def backlog(sched, class_name, flow, count):
    leaf = sched.get_class(class_name)
    for _ in range(count):
        packet = udp(flow)
        if leaf.queue.push(packet):
            sched._backlog += 1
            if len(leaf.queue) == 1:
                sched._set_active(leaf, 0.0, packet.length)


def drain(sched, n, key="hfsc_class", wait=False):
    """Serve ``n`` link slots at link rate: bytes per class and each
    packet's (service time, class).  An empty dequeue ends the drain, or
    with ``wait`` idles one 1000 B packet time (CBQ's token waits)."""
    now, by_class, times = 0.0, Counter(), []
    for _ in range(n):
        packet = sched.dequeue(now)
        if packet is None:
            if not wait:
                break
            now += 1000 * 8 / LINK_BPS
            continue
        by_class[packet.annotations[key]] += packet.length
        times.append((now, packet.annotations[key]))
        now += packet.length * 8 / LINK_BPS
    return by_class, times


@cached
def link_sharing():
    sched = HfscPlugin().create_instance()
    sched.add_class("agency1", fsc=ServiceCurve.linear(5e6))
    sched.add_class("agency2", fsc=ServiceCurve.linear(5e6))
    sched.add_class("a1.web", parent="agency1", fsc=ServiceCurve.linear(3.75e6), qlimit=2000)
    sched.add_class("a1.ftp", parent="agency1", fsc=ServiceCurve.linear(1.25e6), qlimit=2000)
    sched.add_class("a2.all", parent="agency2", fsc=ServiceCurve.linear(5e6), qlimit=2000)
    for name, flow in (("a1.web", 1), ("a1.ftp", 2), ("a2.all", 3)):
        backlog(sched, name, flow, 1200)
    return drain(sched, 1000)[0]


def voice_and_bulk(with_rsc):
    """A 0.1 Mbit/s-share voice class, with or without a concave rsc, and
    a 9.9 Mbit/s bulk class."""
    sched = HfscPlugin().create_instance()
    rsc = ServiceCurve.two_piece(4e6, 0.002, 1e6) if with_rsc else None
    sched.add_class("voice", rsc=rsc, fsc=ServiceCurve.linear(0.1e6), qlimit=2000)
    sched.add_class("bulk", fsc=ServiceCurve.linear(9.9e6), qlimit=2000)
    return sched


def first_voice_ms(with_rsc):
    sched = voice_and_bulk(with_rsc)
    backlog(sched, "bulk", 2, 1000)
    backlog(sched, "voice", 1, 1)
    return 1000 * next(t for t, cls in drain(sched, 200)[1] if cls == "voice")


def voice_goodput_mbps():
    sched = voice_and_bulk(True)
    backlog(sched, "voice", 1, 1000)
    backlog(sched, "bulk", 2, 1000)
    by_class, times = drain(sched, 1000)
    return by_class["voice"] * 8 / times[-1][0] / 1e6


def cbq_voice_gap_ms():
    cbq = CbqPlugin().create_instance(link_bps=LINK_BPS)
    cbq.add_class("voice", rate_bps=1_000_000, qlimit=500, burst_bytes=1000)
    cbq.add_class("bulk", rate_bps=9_000_000, qlimit=2000)
    for name, flow, count in (("voice", 1, 100), ("bulk", 2, 1500)):
        cbq.default_class = cbq.get_class(name)
        for _ in range(count):
            cbq.process(udp(flow), PluginContext(now=0.0))
    voice = [t for t, cls in drain(cbq, 600, key="cbq_class", wait=True)[1] if cls == "voice"]
    return 1000 * mean(b - a for a, b in zip(voice, voice[1:]))


def hsf_second_flow_slots():
    sched = HsfPlugin().create_instance()
    sched.add_class("shared", fsc=ServiceCurve.linear(10e6), leaf_discipline="drr", default=True)
    ctx = PluginContext(now=0.0)
    for flow in (1, 2):
        for _ in range(300):
            sched.process(udp(flow), ctx)
    return sum(sched.dequeue(0.0).src_port == 5002 for _ in range(300))


row("E8.agency_ratio", "agency1 : agency2 bytes (configured 50/50)", None, rel(1.0, 0.15),
    lambda: (link_sharing()["a1.web"] + link_sharing()["a1.ftp"]) / link_sharing()["a2.all"])
row("E8.web_ftp_ratio", "web : ftp bytes inside agency1 (configured 3:1)", None,
    rel(3.0, 0.25), lambda: link_sharing()["a1.web"] / link_sharing()["a1.ftp"])
row("E8.voice_rsc_ms", "first voice service with the concave rsc (ms)", None, atmost(4),
    lambda: first_voice_ms(True))
row("E8.voice_no_rsc_ms", "first voice service without it (ms; ≥ one bulk packet)", None,
    atleast(0.8), lambda: first_voice_ms(False))
row("E8.voice_goodput", "voice goodput under 10:1 overload (Mbit/s; rsc m2 = 1)", None,
    atleast(0.9), voice_goodput_mbps)
row("E8.cbq_gap_ms", "CBQ voice inter-service gap at 1 Mbit/s (ms)", None, atleast(6),
    cbq_voice_gap_ms)
row("E8.hsf_slots", "HSF: flooded-behind flow's slots of 300 (DRR leaf)", None, atleast(120),
    hsf_second_flow_slots)


# ----------------------------------------------------------------------
# E9 — classification vs the [27] reference
# ----------------------------------------------------------------------
@cached
def classification_us(width):
    """(cached, uncached) modelled µs of one ip_options classification,
    512 filters spread over 3 gates."""
    aiu = AIU(DEFAULT_GATES, bmp_engine="bspl", flow_buckets=32768)
    gates = list(DEFAULT_GATES)
    for i, flt in enumerate(random_filters(512, width=width, seed=width, host_fraction=0.8)):
        aiu._table(gates[i % 3], width).install(FilterRecord(flt, gate=gates[i % 3]))
    flows = synthetic_flows(64, seed=13, ipv6=width == IPV6_WIDTH)
    packets = [flow.packet() for flow in flows]

    def mean_us(batch):
        total = 0
        for packet in batch:
            cycle_meter = CycleMeter()
            meter = MemoryMeter(cycle_meter=cycle_meter, label="classification")
            aiu.classify(packet, "ip_options", meter=meter, cycles=cycle_meter)
            total += cycle_meter.total
        return cycles_to_us(total / len(batch))

    uncached = mean_us(packets)
    return mean_us([packet.copy() for packet in packets]), uncached


for _w, _fam in ((IPV4_WIDTH, "v4"), (IPV6_WIDTH, "v6")):
    row(f"E9.cached.{_fam}", f"cached classification, IP{_fam} (µs)", 2.6, atmost(2.6),
        lambda w=_w: classification_us(w)[0])
    row(f"E9.uncached.{_fam}", f"uncached 3-gate classification, IP{_fam} (µs)", 2.6,
        atmost(3 * 2.6), lambda w=_w: classification_us(w)[1])


# ----------------------------------------------------------------------
# E10 — the §6.1 pmgr configuration sequence
# ----------------------------------------------------------------------
def e10_packets_through_drr():
    router = Router(name="edge")
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8", rate_bps=10_000_000)
    manager = PluginManager(router, output=lambda line: None)
    manager.run_script("modload drr\npmgr create drr drr0 interface=atm1 quantum=1500\n"
                       "pmgr scheduler atm1 drr0\npmgr bind drr0 - *, *, UDP, *, *, *\n")
    for _ in range(50):
        for flow in (1, 2, 3):
            router.receive(make_udp(f"10.0.0.{flow}", "20.0.0.1", 5000 + flow, 9000,
                                    payload_size=972, iif="atm0"))
    return manager.library.instance("drr0").packets_sent


row("E10.drr_packets", "packets the pmgr-bound DRR instance sent, of 150", None, exact(150),
    e10_packets_through_drr)


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
row("A1.nocache.overhead", "plugin kernel without the flow cache (% over row 1)", None,
    (None, None), lambda: overhead("plugin_nocache"))
row("A1.ratio", "overhead without / with the cache", None, atleast(2),
    lambda: overhead("plugin_nocache") / overhead("plugin"))


@cached
def engine_accesses(engine):
    filters = random_filters(4096, seed=11, host_fraction=0.8)
    accesses = [m.accesses for m in probe_meters(filter_table(filters, engine=engine),
                                                 filters, 200, seed=2)]
    return mean(accesses), max(accesses)


for _e, _bound in (("patricia", None), ("bspl", 20), ("cpe", 22)):
    row(f"A2.{_e}.mean", f"{_e} mean accesses, 4k filters", None, (None, None),
        lambda e=_e: engine_accesses(e)[0])
    row(f"A2.{_e}.worst", f"{_e} worst accesses, 4k filters", None, atmost(_bound),
        lambda e=_e: engine_accesses(e)[1])
row("A2.patricia_vs_bspl", "PATRICIA / BSPL mean accesses (\"slower\")", None, atleast(1),
    lambda: engine_accesses("patricia")[0] / engine_accesses("bspl")[0])


@cached
def gate_costs(count):
    """(first packet, mean cached packet) cycles with ``count`` gates."""
    gates = tuple(f"gate{i}" for i in range(count))
    kernel = build_plugin_kernel(filter_count=0, gates=gates)
    flow = table3_flows()[0]
    meters = [CycleMeter() for _ in range(51)]
    for meter in meters:
        kernel.process(flow.packet(), meter)
    return meters[0].total, mean(m.total for m in meters[1:])


def per_added_gate(index):
    return (gate_costs(8)[index] - gate_costs(1)[index]) / 7


row("A3.cached_per_gate", "cached packet, cycles per added gate", None, atmost(300),
    lambda: per_added_gate(1))
row("A3.first_per_gate", "first packet, cycles per added gate", None, (None, None),
    lambda: per_added_gate(0))
row("A3.first_over_cached", "first / cached cycles per added gate", None, atleast(2),
    lambda: per_added_gate(0) / per_added_gate(1))
row("A3.lookup_per_gate", "first − cached cycles per added gate (one filter lookup)", None,
    atleast(100), lambda: per_added_gate(0) - per_added_gate(1))


@cached
def collapse_accesses(collapse):
    rng = random.Random(21)
    specs = []
    for _ in range(512):
        octet, length = rng.randrange(256), rng.choice([8, 16, 24])
        specs.append(f"{octet}.{rng.randrange(256)}.0.0/{length}, *, UDP")
    filters = [Filter.parse(spec) for spec in specs]
    table = filter_table(filters, engine="patricia", collapse=collapse)
    rng = random.Random(4)
    total = 0
    for flt in rng.sample(filters, 150):
        low = flt.src.value | rng.getrandbits(32 - flt.src.length)
        src = ".".join(str(low >> s & 255) for s in (24, 16, 8, 0))
        meter = MemoryMeter()
        table.lookup(make_udp(src, "20.0.0.1", rng.randrange(65536), rng.randrange(65536)), meter)
        total += meter.accesses
    return total / 150


row("A4.plain", "mean accesses, plain DAG", None, (None, None),
    lambda: collapse_accesses(False))
row("A4.collapsed", "mean accesses, collapsed DAG", None, (None, None),
    lambda: collapse_accesses(True))
row("A4.saved", "accesses saved per lookup", None, atleast(1.0),
    lambda: collapse_accesses(False) - collapse_accesses(True))

ESP_SIZES = (64, 256, 1000, 4000, 8192)


@cached
def esp_cycles(plugin_class):
    sa = SecurityAssociation(spi=0x801, auth_key=b"a" * 16, encryption_key=b"e" * 16,
                             mode="tunnel", tunnel_src="192.0.2.1", tunnel_dst="192.0.2.2")
    instance = plugin_class().create_instance(direction="out", sa=sa)
    curve = {}
    for size in ESP_SIZES:
        meter = CycleMeter()
        packet = make_udp("10.1.0.5", "10.2.0.9", 4000, 80, payload_size=size - 28)
        instance.process(packet, PluginContext(cycles=meter))
        curve[size] = meter.total
    return curve


row("A5.sw.1000", "software ESP, 1000 B (cycles)", None, (None, None),
    lambda: esp_cycles(EspPlugin)[1000])
row("A5.sw.8192_us", "software ESP, 8 KB (µs on the P6/233)", None, (None, None),
    lambda: cycles_to_us(esp_cycles(EspPlugin)[8192]))
row("A5.hw.1000", "engine-driver ESP, 1000 B (cycles)", None, (None, None),
    lambda: esp_cycles(HwEspPlugin)[1000])
row("A5.hw_growth", "engine-driver cycles, 8 KB − 64 B (flat)", None, atmost(100),
    lambda: esp_cycles(HwEspPlugin)[8192] - esp_cycles(HwEspPlugin)[64])
row("A5.sw_growth", "software cycles, 8 KB / 64 B", None, atleast(10),
    lambda: esp_cycles(EspPlugin)[8192] / esp_cycles(EspPlugin)[64])
row("A5.min_sw_over_hw", "software / driver cycles, smallest over 64 B-8 KB", None,
    atleast(1.01), lambda: min(esp_cycles(EspPlugin)[s] / esp_cycles(HwEspPlugin)[s]
                               for s in ESP_SIZES))


# ----------------------------------------------------------------------
# Pinning, status and rendering
# ----------------------------------------------------------------------
STATUS = {
    "E1": "exact reproduction.",
    "E2": "exact reproduction.",
    "E3": lambda rows: "reproduced within {:.1f} % of the paper's cycles.".format(max(
        abs(rec["measured"] / rec["paper"] - 1) * 100
        for key, rec in rows.items() if key.endswith(".cycles"))),
    "E4": "reproduced.",
    "E5": "reproduced.",
    "E5b": "the paper's caveat, quantified.",
    "E6": "reproduced.",
    "E7": "reproduced.",
    "E8": "reproduced (the paper defers its own H-FSC numbers to [27]; "
          "these are the behavioural claims it cites).",
    "E9": "reproduced.",
    "E10": "reproduced (command syntax reconstructed).",
    "A1": "holds.", "A2": "holds.", "A3": "holds.", "A4": "holds.", "A5": "holds.",
}


def measured(row: Row):
    value = row.measure()
    return round(value, 4) if isinstance(value, float) else value


def record(row: Row, value) -> dict:
    return {"label": row.label, "paper": row.paper, "measured": value,
            "tolerance": list(row.tolerance), "slow": row.slow}


def holds(rec: dict) -> bool:
    lo, hi = rec["tolerance"]
    return (lo is None or rec["measured"] >= lo) and (hi is None or rec["measured"] <= hi)


def check(row: Row, pinned: dict) -> None:
    """Recompute ``row``; raise AssertionError naming it and both values
    unless it equals EXPERIMENTS.json and lies within its tolerance."""
    value = measured(row)
    want = pinned[row.id]
    assert value == want["measured"], (
        f"{row.id}: measured {value!r}, EXPERIMENTS.json pins {want['measured']!r}")
    rec = record(row, value)
    assert holds(rec), (
        f"{row.id}: measured {value!r} outside {accepted(rec)} (paper {row.paper!r})")
    assert rec == want, f"{row.id}: EXPERIMENTS.json has {want!r}, the row is {rec!r}"


def fmt(value) -> str:
    if value is None:
        return "–"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def accepted(rec: dict) -> str:
    lo, hi = rec["tolerance"]
    if lo is None and hi is None:
        return "(reported)"
    if lo == hi:
        return f"= {fmt(lo)}"
    if lo is None:
        return f"≤ {fmt(hi)}"
    if hi is None:
        return f"≥ {fmt(lo)}"
    return f"{fmt(lo)} – {fmt(hi)}"


def block(exp: str, rows: Dict[str, dict]) -> str:
    lines = ["| | paper | measured | holds if |", "|---|---|---|---|"]
    lines += [f"| {rec['label']} | {fmt(rec['paper'])} | {fmt(rec['measured'])} "
              f"| {accepted(rec)} |" for rec in rows.values()]
    bad = [key for key, rec in rows.items() if not holds(rec)]
    phrase = STATUS[exp]
    status = ("NOT reproduced — out of tolerance: " + ", ".join(bad) if bad
              else phrase(rows) if callable(phrase) else phrase)
    return "\n".join(lines) + f"\n\n**Status: {status}**\n"


def render(markdown: str, pinned: Dict[str, dict]) -> str:
    """EXPERIMENTS.md with every generated block redrawn from ``pinned``."""
    for exp in STATUS:
        rows = {key: rec for key, rec in pinned.items() if key.split(".")[0] == exp}
        pattern = re.compile(rf"(<!-- paper\.py {exp} -->\n).*?(<!-- /paper\.py {exp} -->)", re.S)
        markdown, found = pattern.subn(
            lambda m, text=block(exp, rows): m.group(1) + text + m.group(2), markdown)
        if found != 1:
            raise ValueError(f"EXPERIMENTS.md has {found} '<!-- paper.py {exp} -->' blocks, not 1")
    return markdown


def main() -> int:
    pinned = {row.id: record(row, measured(row)) for row in ROWS.values()}
    JSON_PATH.write_text(json.dumps(pinned, indent=1, ensure_ascii=False) + "\n",
                         encoding="utf-8")
    MD_PATH.write_text(render(MD_PATH.read_text(encoding="utf-8"), pinned), encoding="utf-8")
    bad = [key for key, rec in pinned.items() if not holds(rec)]
    print(f"{len(pinned)} rows -> {JSON_PATH.name}, {MD_PATH.name}; "
          f"out of tolerance: {', '.join(bad) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
