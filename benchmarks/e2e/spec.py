"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and per-layer metrics with the end-to-end metric each
should move.  ``BENCHMARK.json`` at the repo root is this file written
down for the driver (the self-tests keep the two equal).
"""

from __future__ import annotations

RUN_SECONDS = 15

#: name -> why the workload exists.
WORKLOADS = {
    "wire_fastpath": "wire bytes in and out at 46 B: the only workload that pays Packet.parse/serialize (net ~93% of the work)",
    "gate_chain": "64 warm flows, IMIX objects, stats+firewall gates, telemetry on: executor and gate dispatch dominate",
    "sched_drr": "gate_chain plus DRR on the output port: every packet queued and drained, the scheduler is ~65% of the work",
    "flow_churn": "16384 tuples against max_flows=1024 and 256 filters: every packet misses, walks the DAG, installs, evicts",
    "control_churn": "gate_chain traffic over 64 filters with a bind/add_route/unbind verb every 8 bursts: recompile stalls",
    "topo_ipsec": "4-hop ipsec_tunnel scenario, 1000 B datagrams, scalar receive and the topo pump: per-byte ESP work ~70%",
    "shard_wire": "descriptor rings into a 2-worker mp ShardedRouter: the only workload that crosses a process boundary",
}

#: (name, unit, better, bound).  Bounds are shares of the parent's
#: median; see README "Bounds" for how each was sized on the 2-core box.
END_TO_END = (
    ("pps", "1/s", "higher", 0.20),
    ("svc_p90_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ctl_op_p50_us", "us", "lower", 0.25),
    ("post_op_burst_us", "us", "lower", 0.25),
)

#: Driver-side span names under the root ``burst`` span.
SPAN_NAMES = ("net.parse", "core.receive_batch", "net.serialize", "mgr.bind",
              "mgr.add_route", "mgr.unbind", "shard.receive_wire", "topo.receive")

#: (name, unit, better, what it should move).
PER_LAYER = (
    ("net.parse_ns", "ns", "lower", "pps@wire_fastpath (~65% of it); nothing elsewhere"),
    ("net.serialize_ns", "ns", "lower", "pps@wire_fastpath (~30% of it); nothing elsewhere"),
    ("net.emit_ns", "ns", "lower", "pps everywhere, small"),
    ("net.route_lookup_ns", "ns", "lower", "pps@flow_churn, post_op_burst_us"),
    ("net.tuple_derivations_per_pkt", "count", "lower", "pps everywhere (exact: one fold per packet lifetime)"),
    ("net.bytes_per_pkt", "B", "lower", "describes the stream; moves nothing"),
    ("aiu.hit_lookup_ns", "ns", "lower", "pps@gate_chain, pps@wire_fastpath"),
    ("aiu.classify_miss_ns", "ns", "lower", "pps@flow_churn"),
    ("aiu.install_evict_ns", "ns", "lower", "pps@flow_churn"),
    ("aiu.dag_ns", "ns", "lower", "pps@flow_churn"),
    ("aiu.hit_ratio", "ratio", "higher", "pps on this workload (exact)"),
    ("aiu.evictions_per_pkt", "count", "lower", "pps@flow_churn (exact)"),
    ("aiu.compile_ms", "ms", "lower", "post_op_burst_us, setup_s@flow_churn"),
    ("aiu.create_filter_us", "us", "lower", "ctl_op_p50_us"),
    ("aiu.remove_filter_us", "us", "lower", "ctl_op_p50_us"),
    ("bmp.lookup_ns", "ns", "lower", "pps@flow_churn"),
    ("core.forward_ns", "ns", "lower", "pps everywhere: ~7% of wire_fastpath, ~all of the object workloads"),
    ("core.scalar_ns", "ns", "lower", "pps@topo_ipsec"),
    ("core.batch_vs_scalar_ratio", "ratio", "higher", "pps@topo_ipsec if the scalar walk moves to the batch executor"),
    ("core.gate_ns", "ns", "lower", "pps@gate_chain"),
    ("core.first_burst_ms", "ms", "lower", "setup_s"),
    ("core.recompile_ms", "ms", "lower", "post_op_burst_us, pps@control_churn"),
    ("core.alloc_blocks_per_pkt", "blocks", "lower", "pps everywhere via collector time"),
    ("gc.collections_per_kpkt", "count", "lower", "pps everywhere via collector time"),
    ("sched.drr_ns", "ns", "lower", "pps@sched_drr; nothing on gate_chain"),
    ("sched.enqueue_ns", "ns", "lower", "pps@sched_drr"),
    ("sched.dequeue_ns", "ns", "lower", "pps@sched_drr"),
    ("sched.queued_share", "share", "higher", "describes the workload (exact)"),
    ("security.esp_encrypt_ns_per_byte", "ns", "lower", "pps@topo_ipsec"),
    ("security.esp_decrypt_ns_per_byte", "ns", "lower", "pps@topo_ipsec"),
    ("telemetry.overhead_ratio", "ratio", "lower", "pps@gate_chain"),
    ("telemetry.snapshot_ms", "ms", "lower", "nothing timed; an operator's query cost"),
    ("shard.encode_ns", "ns", "lower", "pps@shard_wire (ring producers)"),
    ("shard.decode_ns", "ns", "lower", "pps@shard_wire (worker side)"),
    ("shard.dispatch_ns", "ns", "lower", "pps@shard_wire (parent side)"),
    ("shard.ipc_ns", "ns", "lower", "pps@shard_wire (pickle + pipe)"),
    ("shard.inline_pps", "1/s", "higher", "the rent the mp backend must beat"),
    ("shard.mp_vs_inline_ratio", "ratio", "higher", "pps@shard_wire"),
    ("shard.balance", "ratio", "lower", "pps@shard_wire (max/mean bucket, exact)"),
    ("topo.hop_overhead_ns", "ns", "lower", "pps@topo_ipsec"),
    ("topo.hops_per_pkt", "count", "lower", "pps@topo_ipsec (exact)"),
    ("topo.delivered_share", "share", "higher", "correctness of the pump (exact)"),
    ("mgr.bind_us", "us", "lower", "ctl_op_p50_us"),
    ("mgr.unbind_us", "us", "lower", "ctl_op_p50_us"),
    ("mgr.add_route_us", "us", "lower", "ctl_op_p50_us"),
    ("mgr.query_aiu_us", "us", "lower", "nothing timed; an operator's query cost"),
    ("sim.cycles_per_pkt", "cycles", "lower", "the paper's modelled cost for the same packets"),
    ("sim.share.driver", "share", "lower", "modelled share, beside trace/core wall-clock shares"),
    ("sim.share.classify", "share", "lower", "modelled share"),
    ("sim.share.gates", "share", "lower", "modelled share"),
    ("sim.share.route", "share", "lower", "modelled share"),
    ("sim.share.sched", "share", "lower", "modelled share"),
    ("sim.share.forward", "share", "lower", "modelled share"),
    ("driver.burst_p50_us", "us", "lower", "pps on this workload"),
    ("driver.burst_p99_us", "us", "lower", "diagnostic only: did not repeat within a tenth in sizing runs"),
    ("driver.pps_iqr_rel", "ratio", "lower", "how noisy this run was"),
    ("driver.speed_factor", "ratio", "higher", "the machine-speed reference during the run (1 = nominal, below 1 = slower box); end-to-end figures are scaled by it"),
    *((f"trace.{span}_share", "share", "lower",
       "wall-clock share of the traced cycles") for span in SPAN_NAMES),
    ("trace.driver_self_share", "share", "lower", "the benchmark's own share (and run_scenario's on topo_ipsec)"),
    ("trace.overhead_ratio", "ratio", "higher", "traced / untraced pps: what tracing costs"),
)

def units() -> dict:
    return {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _m in PER_LAYER
        ],
    }
