"""Hop-by-hop path tracing over a :class:`~repro.topo.topology.Topology`.

:class:`PathTracer` pushes one probe packet through the topology and
records, per hop, what each node actually did with it: the
classification outcome (which gates the flow record binds), the gates
that ran, the scheduler verdict, the modelled cycle total, and where the
packet went next.  The per-hop evidence is a real
:class:`~repro.telemetry.tracer.LifecycleTracer` span — the tracer
attaches a ``sample=1`` lifecycle tracer to each hop's processing
router just for the probe, so the probe runs the metered specification
path (packet-for-packet identical to the fast path) and the span's
stage deltas are the same ones ``pmgr show trace`` reports.

Tracing is *live*: the probe runs the real data path and mutates real
state (flow records, counters, scheduler queues) exactly like any other
packet.  Use a dedicated probe five-tuple when that matters.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple, Union

from ..core.faults import packet_digest
from ..net.addresses import IPAddress
from ..net.packet import Packet
from ..telemetry.tracer import LifecycleTracer

#: A probe spec: a Packet, a ⟨src, dst, proto, sport, dport⟩ five-tuple,
#: or a bare destination address/prefix string.
Probe = Union[Packet, Tuple, str]


class PathTrace:
    """One traced journey: the probe, its end-to-end disposition, and
    one record per hop."""

    def __init__(self, probe: dict, entry: Optional[str], disposition: str,
                 hops: List[dict]):
        self.probe = probe
        self.entry = entry
        self.disposition = disposition
        self.hops = hops

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "entry": self.entry,
            "disposition": self.disposition,
            "hops": self.hops,
        }

    def path(self) -> List[str]:
        """Just the node names, in visit order."""
        return [hop["node"] for hop in self.hops]

    def render(self) -> List[str]:
        probe = self.probe
        lines = [
            f"path {probe['src']}:{probe['sport']} -> "
            f"{probe['dst']}:{probe['dport']}/{probe['proto']} "
            f"entry={self.entry} hops={len(self.hops)} "
            f"disposition={self.disposition}"
        ]
        for i, hop in enumerate(self.hops, 1):
            gates = ",".join(hop["gates"]) or "-"
            nxt = ",".join(hop["next"]) if hop["next"] else "-"
            extras = ""
            if hop.get("decapsulated"):
                extras += " decapsulated"
            if hop.get("shard") is not None:
                extras += f" shard={hop['shard']}"
            lines.append(
                f"  {i}. {hop['node']} iif={hop['iif'] or '-'} "
                f"gates=[{gates}] sched={hop['scheduler'] or '-'} -> "
                f"{hop['disposition']} via {nxt} "
                f"({hop['cycles']} cycles){extras}"
            )
        return lines

    def __repr__(self) -> str:
        return (
            f"PathTrace({' -> '.join(self.path()) or '<no hops>'}, "
            f"{self.disposition!r})"
        )


class _HopRecorder:
    """The Topology pump observer: brackets each hop with a per-router
    lifecycle tracer and harvests the probe's span afterwards."""

    def __init__(self, topology):
        self.topology = topology
        self.hops: List[dict] = []
        self._saved: Optional[tuple] = None

    def _target(self, node, packet):
        if hasattr(node, "nshards"):
            index = packet.flow_fold32() % node.nshards
            return node.shards[index], index
        return node, None

    def before_hop(self, name: str, node, packet, at: float) -> None:
        target, shard = self._target(node, packet)
        previous = target._lifecycle
        tracer = LifecycleTracer(sample=1, capacity=8)
        target.attach_lifecycle_tracer(tracer)
        self._saved = (target, previous, tracer, shard)

    def after_hop(self, name: str, node, packet, disposition: str,
                  at: float, emitted: List[tuple]) -> None:
        target, previous, tracer, shard = self._saved
        self._saved = None
        if previous is None:
            target.detach_lifecycle_tracer()
        else:
            target.attach_lifecycle_tracer(previous)
        span = tracer.span_for(packet.packet_id)
        hop = {
            "node": name,
            "shard": shard,
            "time": at,
            "iif": packet.iif,
            "flow": packet_digest(packet),
            "disposition": disposition,
            "classification": self._classification(target, packet),
            "gates": [],
            "scheduler": None,
            "cycles": 0,
            "stages": [],
            "next": [
                f"{dst_node}:{dst_iface}"
                for dst_node, dst_iface, _pkt, _t in emitted
            ],
            "decapsulated": False,
        }
        if span is not None:
            self._fold_span(hop, span)
        if disposition == "consumed":
            # Tunnel decapsulation re-injected an inner packet through
            # the same node (nested receive, second span on the same
            # tracer): fold its walk into this hop so the trace shows
            # what the node did end to end.
            inner_ids = {
                p.packet_id for _n, _i, p, _t in emitted
                if p.packet_id != packet.packet_id
            }
            if len(inner_ids) == 1:
                inner = tracer.span_for(next(iter(inner_ids)))
                if inner is not None:
                    self._fold_span(hop, inner)
                    hop["disposition"] = inner.disposition or disposition
                    hop["decapsulated"] = True
        if disposition == "queued":
            hop["scheduler"] = "queued"
        self.hops.append(hop)

    @staticmethod
    def _fold_span(hop: dict, span) -> None:
        hop["cycles"] += span.total_cycles
        for stage, cycles, vtime in span.stages:
            hop["stages"].append(
                {"stage": stage, "cycles": cycles, "vtime": vtime}
            )
            if stage.startswith("gate:"):
                gate = stage[len("gate:"):]
                hop["gates"].append(gate)
                if gate == "packet_scheduling" and hop["scheduler"] is None:
                    hop["scheduler"] = "scheduled"

    @staticmethod
    def _classification(router, packet) -> dict:
        record = packet._fix
        if record is None:
            return {"classified": False, "bindings": []}
        bindings = []
        for gate in router.gates:
            slot = record.slot(router.aiu.gate_index(gate))
            if slot.instance is not None:
                filter_record = slot.filter_record
                bindings.append({
                    "gate": gate,
                    "filter": (
                        str(filter_record.filter)
                        if filter_record is not None else None
                    ),
                    "instance": type(slot.instance).__name__,
                })
        return {"classified": True, "bindings": bindings}


class PathTracer:
    """Walk a probe through a topology, one evidence record per hop."""

    def __init__(self, topology):
        self.topology = topology

    def trace(self, probe: Probe, entry: Optional[str] = None,
              now: float = 0.0) -> PathTrace:
        """Trace ``probe`` (a Packet, a ⟨src, dst, proto, sport, dport⟩
        five-tuple, or a destination address/prefix string) from the
        entry node (``entry=`` overrides the topology default for this
        trace only)."""
        packet = self._probe_packet(probe)
        # Captured before injection: encapsulating plugins rewrite the
        # packet in place mid-path, and the header should name the flow
        # the caller asked about.
        probe_dict = {
            "src": str(packet.src),
            "dst": str(packet.dst),
            "proto": packet.protocol,
            "sport": packet.src_port,
            "dport": packet.dst_port,
        }
        topo = self.topology
        recorder = _HopRecorder(topo)
        saved_entry = topo._entry
        if entry is not None:
            topo.set_entry(entry)
        try:
            disposition = topo.receive(packet, now=now, _observer=recorder)
        finally:
            topo._entry = saved_entry
        return PathTrace(
            probe_dict,
            entry if entry is not None else saved_entry,
            disposition,
            recorder.hops,
        )

    @staticmethod
    def _probe_packet(probe: Probe) -> Packet:
        if isinstance(probe, Packet):
            clone = copy.copy(probe)
            clone.annotations = dict(probe.annotations)
            clone.fix = None
            return clone
        if isinstance(probe, str):
            # A destination address or prefix: probe its network address
            # from a neutral source.
            dst = IPAddress.parse(probe.split("/")[0])
            src = IPAddress.parse(
                "::1" if dst.width != 32 else "127.0.0.1"
            )
            return Packet(src=src, dst=dst, protocol=17,
                          src_port=33434, dst_port=33434)
        src, dst, proto, sport, dport = probe
        if isinstance(src, str):
            src = IPAddress.parse(src)
        if isinstance(dst, str):
            dst = IPAddress.parse(dst)
        return Packet(src=src, dst=dst, protocol=int(proto),
                      src_port=int(sport), dst_port=int(dport))
