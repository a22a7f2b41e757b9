"""Multi-router topologies: compose Routers into a simulated network.

A :class:`Topology` names :class:`~repro.core.router.Router` (or inline
:class:`~repro.shard.sharded.ShardedRouter`) instances as *nodes* and
binds their interfaces together with point-to-point *links*.  A packet
injected at the entry node is forwarded hop by hop: whatever a node
emits on a linked interface is re-injected into the far end's input
interface, with the incoming-interface / arrival-time / flow-index
reset a real wire implies (``NetworkInterface.deliver``).  Forwarding
is run-to-completion — one transit queue drained until the network is
quiet — so a topology is driven exactly like a single router
(``receive`` / ``receive_batch``) and the existing harnesses
(:func:`repro.workloads.adversarial.run_scenario`, ``pmgr``) work
unmodified.

Key semantics:

* **Single-node equivalence** — entry injection hands the packet
  straight to the node's own ``receive``; a topology of one unlinked
  node is packet-for-packet identical to the bare router (golden-pinned
  by tests/topo/).
* **ECMP** — :meth:`Topology.ecmp` installs a bundle route
  (:meth:`~repro.net.routing.RoutingTable.add_ecmp`) and a synthetic
  bundle interface whose link tap selects the member edge by the
  deterministic five-tuple fold (never builtin ``hash()``), skipping
  members whose far-end node is down or quarantined — so quarantining a
  middle hop reroutes flows onto the healthy alternates.
* **Loop containment** — each packet may visit at most ``max_hops``
  nodes; one more and it is dropped with the topology-level
  ``dropped_loop`` disposition (TTL still decrements per hop as usual,
  so whichever bound is tighter wins).
* **Tunnel adoption** — when a hop CONSUMEs a packet and re-injects
  exactly one new packet (ESP tunnel decapsulation), the new packet is
  *adopted* as the continuation of the journey: it inherits the hop
  count and the end-to-end disposition follows it.  Adoption is
  per-packet and therefore scalar-precise; a batched *entry* call
  cannot attribute mid-batch consumption (transit hops are always
  pumped one packet at a time, so tunnels that start after the first
  hop work under both entries).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.aggregate import AggregateFlowTable, AggregateGovernor, fold_health
from ..core.errors import ConfigurationError
from ..core.router import Router
from ..net.interfaces import DEFAULT_MTU, DEFAULT_RATE_BPS, NetworkInterface
from ..sim.cost import NULL_METER

#: Topology-level disposition: the per-packet hop budget ran out.
DROPPED_LOOP = "dropped_loop"


class Edge:
    """One directed half of a link: (src node, src iface) -> (dst node,
    dst iface) with a propagation delay."""

    __slots__ = ("src_node", "src_iface", "dst_node", "dst_iface", "delay")

    def __init__(self, src_node: str, src_iface: str,
                 dst_node: str, dst_iface: str, delay: float = 0.0):
        self.src_node = src_node
        self.src_iface = src_iface
        self.dst_node = dst_node
        self.dst_iface = dst_iface
        self.delay = delay

    def __repr__(self) -> str:
        return (
            f"Edge({self.src_node}:{self.src_iface} -> "
            f"{self.dst_node}:{self.dst_iface})"
        )


class Link:
    """A bidirectional point-to-point topology link (two directed edges)."""

    __slots__ = ("forward", "reverse")

    def __init__(self, a_node: str, a_iface: str, b_node: str, b_iface: str,
                 delay: float = 0.0):
        self.forward = Edge(a_node, a_iface, b_node, b_iface, delay)
        self.reverse = Edge(b_node, b_iface, a_node, a_iface, delay)

    @property
    def delay(self) -> float:
        return self.forward.delay

    def to_dict(self) -> dict:
        f = self.forward
        return {
            "a": f"{f.src_node}:{f.src_iface}",
            "b": f"{f.dst_node}:{f.dst_iface}",
            "delay": f.delay,
        }

    def __repr__(self) -> str:
        f = self.forward
        return (
            f"Link({f.src_node}:{f.src_iface} <-> "
            f"{f.dst_node}:{f.dst_iface}, delay={f.delay})"
        )


class _EdgeTap:
    """Duck-types :class:`repro.net.interfaces.Link` for one interface:
    ``carry`` hands the emitted packet to the topology transit queue
    toward the edge's far end instead of a peer interface."""

    __slots__ = ("topology", "edge")

    def __init__(self, topology: "Topology", edge: Edge):
        self.topology = topology
        self.edge = edge

    def carry(self, sender, packet, departure: float) -> None:
        edge = self.edge
        self.topology._transit.append(
            (edge.dst_node, edge.dst_iface, packet, departure + edge.delay)
        )


class _BundleTap:
    """The ECMP bundle's link tap: pick the member edge by the packet's
    deterministic five-tuple fold over the *eligible* members — members
    whose far-end node is down or quarantined are skipped, so impairing
    one branch re-folds flows onto the healthy ones."""

    __slots__ = ("topology", "members")

    def __init__(self, topology: "Topology", members: List[Edge]):
        self.topology = topology
        self.members = members

    def carry(self, sender, packet, departure: float) -> None:
        topo = self.topology
        eligible = [
            e for e in self.members if not topo._node_impaired(e.dst_node)
        ]
        if not eligible:
            # Nowhere healthy to go: spread over all members anyway and
            # let the far end account the loss.
            eligible = self.members
        edge = eligible[packet.flow_fold32() % len(eligible)]
        topo._transit.append(
            (edge.dst_node, edge.dst_iface, packet, departure + edge.delay)
        )


class _TopoAIU:
    """The slice of the AIU surface cross-node harnesses read."""

    def __init__(self, topology: "Topology"):
        self.flow_table = AggregateFlowTable(topology.nodes.values)


class Topology:
    """A named multi-router network driven like a single router."""

    def __init__(self, name: str = "topo", max_hops: int = 16):
        if max_hops < 1:
            raise ConfigurationError("max_hops must be >= 1")
        self.name = name
        self.max_hops = max_hops
        #: name -> Router | ShardedRouter (insertion-ordered).
        self.nodes: Dict[str, object] = {}
        self.links: List[Link] = []
        #: (node, iface) -> outbound Edge; one link per interface.
        self._edges: Dict[Tuple[str, str], Edge] = {}
        self._ecmp: List[dict] = []
        self._down: set = set()
        self._entry: Optional[str] = None
        #: Topology-own counters (``dropped_loop``); node counters are
        #: aggregated on top by the :attr:`counters` property.
        self._local_counters: Counter = Counter()
        #: In-flight deliveries: (node, iface, packet, arrival_time).
        self._transit: Deque[Tuple[str, str, object, float]] = deque()
        self.aiu = _TopoAIU(self)
        self._overload = AggregateGovernor(self.nodes.values)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, router=None, shards: int = 0,
                 **router_kwargs):
        """Add a node: a fresh ``Router(**router_kwargs)``, a
        ``ShardedRouter`` of ``shards`` inline shards, or a router you
        built yourself (``router=``).  The first node added is the
        default entry."""
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node {name!r}")
        if router is None:
            if shards:
                from ..shard.sharded import ShardedRouter

                router = ShardedRouter(
                    nshards=shards, backend="inline", name=name,
                    **router_kwargs,
                )
            else:
                router = Router(name=name, **router_kwargs)
        if getattr(router, "_pool", None) is not None:
            raise ConfigurationError(
                "topology nodes need the inline shard backend (interface "
                "taps cannot cross a process boundary)"
            )
        self.nodes[name] = router
        if self._entry is None:
            self._entry = name
        return router

    def node(self, name: str):
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {name!r}; known: {sorted(self.nodes)}"
            ) from None

    @staticmethod
    def _node_routers(node) -> Sequence[Router]:
        """The plain Routers behind a node (shards, or the node itself)."""
        return node.shards if hasattr(node, "nshards") else (node,)

    def add_interface(self, node_name: str, iface: str,
                      address: Optional[str] = None,
                      prefix: Optional[str] = None,
                      mtu: int = DEFAULT_MTU,
                      rate_bps: float = DEFAULT_RATE_BPS) -> None:
        """Attach a port to a node (fanned out per shard for sharded
        nodes, keeping shards identically configured)."""
        node = self.node(node_name)
        for r in self._node_routers(node):
            r.add_interface(
                iface, address=address, prefix=prefix, mtu=mtu,
                rate_bps=rate_bps,
            )

    def link(self, a: str, a_iface: str, b: str, b_iface: str,
             delay: float = 0.0) -> Link:
        """Bind ``a``'s output interface to ``b``'s input interface and
        vice versa: whatever either node emits on its end is delivered
        into the far end's data path."""
        link = Link(a, a_iface, b, b_iface, delay)
        self._check_iface(a, a_iface)
        self._check_iface(b, b_iface)
        self._bind_edge(link.forward)
        self._bind_edge(link.reverse)
        self.links.append(link)
        return link

    def _check_iface(self, node_name: str, iface: str) -> None:
        node = self.node(node_name)
        if iface not in self._node_routers(node)[0].interfaces:
            raise ConfigurationError(
                f"node {node_name!r} has no interface {iface!r}"
            )

    def _bind_edge(self, edge: Edge) -> None:
        key = (edge.src_node, edge.src_iface)
        if key in self._edges:
            raise ConfigurationError(
                f"{edge.src_node}:{edge.src_iface} is already linked"
            )
        self._edges[key] = edge
        tap = _EdgeTap(self, edge)
        for r in self._node_routers(self.node(edge.src_node)):
            r.interfaces[edge.src_iface].link = tap

    def add_route(self, node_name: str, prefix, interface: str,
                  next_hop=None) -> None:
        self.node(node_name).routing_table.add(
            prefix, interface, next_hop=next_hop
        )

    def ecmp(self, node_name: str, prefix, interfaces: Sequence[str],
             next_hop=None):
        """Install an ECMP route on ``node_name`` over already-linked
        member ``interfaces``: a bundle route plus a synthetic bundle
        interface whose tap folds each flow's five-tuple over the
        healthy member edges."""
        node = self.node(node_name)
        members: List[Edge] = []
        for member in interfaces:
            edge = self._edges.get((node_name, member))
            if edge is None:
                raise ConfigurationError(
                    f"ECMP member {member!r} on {node_name!r} is not linked"
                )
            members.append(edge)
        first = self._node_routers(node)[0]
        mtu = min(first.interfaces[m].mtu for m in interfaces)
        rate = max(first.interfaces[m].rate_bps for m in interfaces)
        bundle = "ecmp:" + "+".join(interfaces)
        tap = _BundleTap(self, members)
        route = None
        for r in self._node_routers(node):
            route = r.routing_table.add_ecmp(prefix, interfaces,
                                             next_hop=next_hop)
            if bundle not in r.interfaces:
                iface = NetworkInterface(bundle, mtu=mtu, rate_bps=rate)
                iface.link = tap
                r.interfaces[bundle] = iface
                r._tx_busy[bundle] = False
        self._ecmp.append({
            "node": node_name,
            "prefix": str(prefix),
            "members": list(interfaces),
        })
        return route

    def set_entry(self, name: str) -> None:
        self.node(name)  # validates
        self._entry = name

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Administratively fail (or revive) a node: ECMP taps stop
        selecting edges toward it."""
        self.node(name)  # validates
        if down:
            self._down.add(name)
        else:
            self._down.discard(name)

    # ------------------------------------------------------------------
    # Impairment view (ECMP eligibility)
    # ------------------------------------------------------------------
    def _node_impaired(self, name: str) -> bool:
        if name in self._down:
            return True
        node = self.nodes[name]
        return any(
            bool(r._quarantined) for r in self._node_routers(node)
        )

    def _node_quarantined(self, name: str) -> List[str]:
        plugins: set = set()
        for r in self._node_routers(self.nodes[name]):
            plugins.update(d.plugin for d in r._quarantined.values())
        return sorted(plugins)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _entry_node(self):
        if self._entry is None:
            raise ConfigurationError("topology has no nodes")
        return self._entry, self.nodes[self._entry]

    def receive(self, packet, now: float = 0.0, cycles=NULL_METER,
                _observer=None) -> str:
        """Inject one packet at the entry node and forward it (and
        anything it spawns) to completion; returns the packet's final
        disposition at its last hop.  Entry injection delegates straight
        to the node's own ``receive`` — zero mutation, so a single-node
        topology is bit-identical to the bare router."""
        entry_name, entry = self._entry_node()
        hops: Dict[int, int] = {packet.packet_id: 1}
        final: Dict[int, str] = {}
        adoptions: Dict[int, int] = {}
        if _observer is not None:
            _observer.before_hop(entry_name, entry, packet, now)
        mark = len(self._transit)
        if hasattr(entry, "nshards") or cycles is NULL_METER:
            disposition = entry.receive(packet, now=now)
        else:
            disposition = entry.receive(packet, now=now, cycles=cycles)
        if _observer is not None:
            _observer.after_hop(
                entry_name, entry, packet, disposition, now,
                list(self._transit)[mark:],
            )
        final[packet.packet_id] = disposition
        self._adopt(packet, disposition, mark, hops, adoptions)
        self._drain(hops, final, adoptions, _observer)
        return self._final_for(packet.packet_id, final, adoptions)

    def receive_batch(self, packets: Sequence, now: float = 0.0,
                      cycles=NULL_METER) -> List[str]:
        """Batch entry: the whole batch runs through the entry node's own
        ``receive_batch`` (compiled loops and all), then transit drains
        run-to-completion.  Dispositions are end-to-end, in input order."""
        entry = self._entry_node()[1]
        hops: Dict[int, int] = {p.packet_id: 1 for p in packets}
        final: Dict[int, str] = {}
        adoptions: Dict[int, int] = {}
        if hasattr(entry, "nshards") or cycles is NULL_METER:
            dispositions = entry.receive_batch(packets, now=now)
        else:
            dispositions = entry.receive_batch(packets, now=now, cycles=cycles)
        for p, d in zip(packets, dispositions):
            final[p.packet_id] = d
        self._drain(hops, final, adoptions, None)
        return [
            self._final_for(p.packet_id, final, adoptions) for p in packets
        ]

    def _drain(self, hops: Dict[int, int], final: Dict[int, str],
               adoptions: Dict[int, int], observer) -> None:
        """Run-to-completion transit pump: deliver each in-flight packet
        into its target node and process it, until the network is quiet."""
        transit = self._transit
        while transit:
            node_name, iface_name, pkt, at = transit.popleft()
            count = hops.get(pkt.packet_id, 0) + 1
            hops[pkt.packet_id] = count
            if count > self.max_hops:
                self._local_counters[DROPPED_LOOP] += 1
                final[pkt.packet_id] = DROPPED_LOOP
                continue
            node = self.nodes[node_name]
            target, iface = self._rx_target(node, iface_name, pkt)
            # The real wire-crossing: iif / arrival-time / flow-index
            # reset plus RX accounting, then straight into the data path.
            iface.deliver(pkt, at)
            for arrived in iface.poll():
                if observer is not None:
                    observer.before_hop(node_name, node, arrived, at)
                mark = len(transit)
                disposition = target.receive(arrived, now=at)
                if observer is not None:
                    observer.after_hop(
                        node_name, node, arrived, disposition, at,
                        list(transit)[mark:],
                    )
                final[arrived.packet_id] = disposition
                self._adopt(arrived, disposition, mark, hops, adoptions)

    def _rx_target(self, node, iface_name: str, pkt):
        """The router that will process this delivery and its receiving
        interface — for sharded nodes, the shard the RSS fold dispatches
        the flow to (same rule as ``ShardedRouter.receive``)."""
        if hasattr(node, "nshards"):
            shard = node.shards[pkt.flow_fold32() % node.nshards]
            return shard, shard.interfaces[iface_name]
        return node, node.interfaces[iface_name]

    def _adopt(self, packet, disposition: str, mark: int,
               hops: Dict[int, int], adoptions: Dict[int, int]) -> None:
        """Tunnel adoption: a CONSUMED packet that re-injected exactly
        one new packet (ESP decapsulation) continues the journey as that
        inner packet — hop count inherited, end-to-end disposition
        follows it."""
        if disposition != "consumed":
            return
        fresh = [
            item for item in list(self._transit)[mark:]
            if item[2].packet_id not in hops
        ]
        if len(fresh) == 1:
            inner = fresh[0][2]
            hops[inner.packet_id] = hops.get(packet.packet_id, 1)
            adoptions[packet.packet_id] = inner.packet_id

    @staticmethod
    def _final_for(packet_id: int, final: Dict[int, str],
                   adoptions: Dict[int, int]) -> str:
        seen = set()
        while packet_id in adoptions and packet_id not in seen:
            seen.add(packet_id)
            packet_id = adoptions[packet_id]
        return final[packet_id]

    # ------------------------------------------------------------------
    # Aggregate introspection (the router-shaped surface harnesses read)
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Counter:
        """Summed disposition counters across nodes, plus the
        topology-level ``dropped_loop`` count."""
        total: Counter = Counter(self._local_counters)
        for node in self.nodes.values():
            total.update(node.counters)
        return total

    def health(self) -> dict:
        """Aggregated health: summed counters/flow-table, worst tier,
        per-node rows."""
        per_node = {name: node.health() for name, node in self.nodes.items()}
        fold = fold_health(
            per_node.values(), self._local_counters,
            ("active", "births", "evictions", "hits", "misses"),
        )
        return {
            "router": self.name,
            "entry": self._entry,
            "nodes": len(self.nodes),
            "links": len(self.links),
            "counters": fold["counters"],
            "quarantined": fold["quarantined"],
            "down": sorted(self._down),
            "flow_table": fold["flow_table"],
            "overload": fold["overload"],
            "per_node": per_node,
        }

    def describe(self) -> dict:
        """The ``pmgr show topology`` payload: nodes, links, ECMP
        bundles, entry, and impairment state."""
        nodes = []
        for name, node in self.nodes.items():
            sharded = hasattr(node, "nshards")
            nodes.append({
                "name": name,
                "kind": "sharded" if sharded else "router",
                "nshards": node.nshards if sharded else 1,
                "interfaces": sorted(self._node_routers(node)[0].interfaces),
                "down": name in self._down,
                "quarantined": self._node_quarantined(name),
            })
        return {
            "name": self.name,
            "entry": self._entry,
            "max_hops": self.max_hops,
            "nodes": nodes,
            "links": [link.to_dict() for link in self.links],
            "ecmp": [dict(e) for e in self._ecmp],
            "counters": {
                DROPPED_LOOP: self._local_counters[DROPPED_LOOP],
            },
        }

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={list(self.nodes)}, "
            f"links={len(self.links)}, entry={self._entry!r})"
        )
