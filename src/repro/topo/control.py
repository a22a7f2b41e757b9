"""Control-plane fanout over a topology: the topology-specific residue
of :class:`~repro.mgr.fanout.Fanout`.

One child library per node (a sharded node's child is itself a fanout
over its shards), with one addition to the common call surface: every
configuration verb takes ``node=`` — omit it to broadcast to every
node, or name one node to target just that hop (``quarantine("esp",
node="gwb")``).  ``"frontend"`` topics (``health``, ``shards``,
``topology``, ``paths``) are answered here; everything else merges per
the topic registry.  ``PluginManager(Topology(...))`` selects this
library automatically, so ``pmgr`` scripts, ``show X [--json]``, and
``trace path`` drive a whole network like a single router.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..core.errors import ConfigurationError
from ..mgr.fanout import Fanout
from ..mgr.library import RouterPluginLibrary
from ..shard.control import ShardedPluginLibrary
from .topology import Topology
from .tracer import PathTrace, PathTracer


class TopologyPluginLibrary(Fanout):
    """The per-node fanout library over a Topology."""

    #: Traced paths kept for ``pmgr show paths`` (newest last).
    PATH_CAPACITY = 16

    def __init__(self, topology: Topology):
        if not isinstance(topology, Topology):
            raise ConfigurationError(
                "TopologyPluginLibrary wraps a repro.topo.Topology"
            )
        self.topology = topology
        super().__init__(topology, {
            name: (
                ShardedPluginLibrary(node)
                if hasattr(node, "nshards")
                else RouterPluginLibrary(node)
            )
            for name, node in topology.nodes.items()
        })
        self.tracer = PathTracer(topology)
        self._paths: Deque[PathTrace] = deque(maxlen=self.PATH_CAPACITY)

    def _targets(self, node: Optional[str]) -> List[Any]:
        if node is None:
            return list(self.libraries.values())
        try:
            return [self.libraries[node]]
        except KeyError:
            raise ConfigurationError(
                f"unknown node {node!r}; known: {sorted(self.libraries)}"
            ) from None

    def analyze(self, include_plugins: bool = True):
        raise ConfigurationError(
            "analyze one node at a time: PluginManager(topology.node(name))"
        )

    def trace_path(self, probe, entry: Optional[str] = None,
                   now: float = 0.0) -> PathTrace:
        """Trace a probe hop by hop and remember it for ``show paths``."""
        trace = self.tracer.trace(probe, entry=entry, now=now)
        self._paths.append(trace)
        return trace

    def _frontend_shards(self) -> dict:
        """Cross-topology shard breakdown: every node's shards, rows
        labelled ``node/shard``."""
        rows: List[dict] = []
        backends = set()
        for name, lib in self.libraries.items():
            data = lib.query("shards")
            backends.add(data["backend"])
            for row in data["shards"]:
                rows.append({**row, "shard": f"{name}/{row['shard']}"})
        return {
            "nshards": len(rows),
            "backend": "+".join(sorted(backends)) if backends else "topo",
            "shards": rows,
        }
