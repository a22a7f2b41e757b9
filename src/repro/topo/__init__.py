"""Multi-router topologies: compose routers into a simulated network.

The package contributes two management topics to the
:mod:`repro.mgr.format` registry at import time — ``topology`` (the
composed network: nodes, links, ECMP bundles, loop-drop counters) and
``paths`` (hop-by-hop traces recorded by ``pmgr trace path`` /
:meth:`TopologyPluginLibrary.trace_path`).  Both are ``"frontend"``
topics: their query callables duck-type any library, so ``pmgr show
topology --json`` on a plain or sharded router renders the degenerate
single-node view instead of failing.
"""

from __future__ import annotations

from typing import List

from ..mgr.format import register_topic
from .control import TopologyPluginLibrary
from .topology import DROPPED_LOOP, Edge, Link, Topology
from .tracer import PathTrace, PathTracer

__all__ = [
    "DROPPED_LOOP",
    "Edge",
    "Link",
    "PathTrace",
    "PathTracer",
    "Topology",
    "TopologyPluginLibrary",
]


def _query_topology(library, **filters) -> dict:
    """The composed network, or a degenerate one-node view for a plain
    or sharded router library.  A sharded front asks its children like
    any other topic — under the mp backend the routers live in the
    workers — and merges their one-node answers."""
    topo = getattr(library, "topology", None)
    if topo is not None:
        return topo.describe()
    router = library.router
    sharded = hasattr(router, "nshards")
    if sharded:
        rows = [r["nodes"][0] for r in library._each("query", ("topology",), {})]
        interfaces = set().union(*(row["interfaces"] for row in rows))
        quarantined = set().union(*(row["quarantined"] for row in rows))
    else:
        interfaces = router.interfaces
        quarantined = {d.plugin for d in router._quarantined.values()}
    name = getattr(router, "name", "router")
    return {
        "name": name,
        "entry": name,
        "max_hops": 1,
        "nodes": [{
            "name": name,
            "kind": "sharded" if sharded else "router",
            "nshards": getattr(router, "nshards", 1),
            "interfaces": sorted(interfaces),
            "down": False,
            "quarantined": sorted(quarantined),
        }],
        "links": [],
        "ecmp": [],
        "counters": {"dropped_loop": 0},
    }


def _render_topology(data: dict) -> List[str]:
    lines = [
        f"topology {data['name']} entry={data['entry']} "
        f"nodes={len(data['nodes'])} links={len(data['links'])} "
        f"max_hops={data['max_hops']}"
    ]
    for node in data["nodes"]:
        kind = node["kind"]
        if kind == "sharded":
            kind = f"sharded/{node['nshards']}"
        line = (
            f"  node {node['name']} kind={kind} "
            f"ifaces={','.join(node['interfaces']) or '-'}"
        )
        if node.get("down"):
            line += " DOWN"
        if node.get("quarantined"):
            line += f" quarantined={','.join(node['quarantined'])}"
        lines.append(line)
    for link in data["links"]:
        line = f"  link {link['a']} <-> {link['b']}"
        if link.get("delay"):
            line += f" delay={link['delay']}"
        lines.append(line)
    for bundle in data["ecmp"]:
        lines.append(
            f"  ecmp {bundle['node']} {bundle['prefix']} -> "
            f"{'+'.join(bundle['members'])}"
        )
    dropped = data.get("counters", {}).get(DROPPED_LOOP, 0)
    if dropped:
        lines.append(f"  {DROPPED_LOOP}: {dropped}")
    return lines


def _query_paths(library, **filters) -> dict:
    """Traced paths remembered by the library (empty for libraries that
    do not trace — a plain router has no multi-hop path to walk)."""
    paths = getattr(library, "_paths", None)
    if paths is None:
        return {"paths": []}
    return {"paths": [trace.to_dict() for trace in paths]}


def _render_paths(data: dict) -> List[str]:
    if not data["paths"]:
        return ["no traced paths (pmgr: trace path <src> <dst>)"]
    lines: List[str] = []
    for entry in data["paths"]:
        trace = PathTrace(
            entry["probe"], entry["entry"],
            entry["disposition"], entry["hops"],
        )
        lines.extend(trace.render())
    return lines


register_topic(
    "topology", _query_topology, _render_topology,
    schema_version=1, merge="frontend",
)
register_topic(
    "paths", _query_paths, _render_paths,
    schema_version=1, merge="frontend",
)
