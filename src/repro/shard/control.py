"""Control-plane fanout over N shards: the shard-specific residue of
:class:`~repro.mgr.fanout.Fanout`.

Every configuration verb broadcasts to all shards — that is what keeps
the shards identically configured, the invariant the dispatch layer's
equivalence guarantee rests on — and every ``query()`` aggregates per
the topic registry; the ``shards`` topic exposes the per-shard
breakdown (``pmgr show shards --json``).  Inline, the children are one
:class:`~repro.mgr.library.RouterPluginLibrary` per shard router; on
the mp backend the same typed ``(verb, args, kwargs)`` call is one
broadcast-then-collect round trip to the workers, each of which applies
it to its own library.  ``PluginManager(ShardedRouter(...))`` selects
this library automatically.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.errors import ConfigurationError
from ..mgr.fanout import Fanout
from ..mgr.library import RouterPluginLibrary


class ShardedPluginLibrary(Fanout):
    """The fanout library over a ShardedRouter's shards."""

    def __init__(self, sharded):
        from .sharded import ShardedRouter  # local: avoid import cycle

        if not isinstance(sharded, ShardedRouter):
            raise ConfigurationError(
                "ShardedPluginLibrary wraps a ShardedRouter"
            )
        self.sharded = sharded
        super().__init__(
            sharded, [RouterPluginLibrary(r) for r in sharded.shards]
        )

    def _each(self, verb: str, args: tuple, kwargs: dict,
              node: Optional[str] = None) -> List[Any]:
        pool = self.sharded._pool
        if pool is None:
            return super()._each(verb, args, kwargs, node)
        self._targets(node)  # shards are not addressable one by one
        return pool.call(verb, args, kwargs)

    def analyze(self, include_plugins: bool = True):
        """Full sharded sweep: plugin lints once (fanout keeps shards
        identically configured), per-shard equivalence + codegen audits,
        and the RP404 query-mergeability audit.  Inline backend only —
        worker processes cannot ship live analysis objects back."""
        if not self.libraries or self.sharded._pool is not None:
            raise ConfigurationError(
                "analyze needs the inline backend (worker processes "
                "cannot ship live analysis objects back)"
            )
        from ..analysis import analyze_sharded

        report = analyze_sharded(
            self.sharded,
            libraries=self.libraries,
            include_plugins=include_plugins,
        )
        # Seed every shard's freshness cache — the sweep audited each
        # shard, so each shard's ``show aiu`` reports it instead of
        # "never"/"stale".
        for shard_library in self.libraries:
            shard_library._analysis_cache = (
                shard_library.router.aiu.plan_epoch,
                shard_library._config_revision,
                report,
            )
        return report

    def _frontend_shards(self) -> dict:
        """One row per shard, each the shard library's own one-shard
        ``shards`` answer renumbered."""
        rows = self._each("query", ("shards",), {})
        return {
            "nshards": self.sharded.nshards,
            "backend": self.sharded.backend,
            "shards": [
                {**row["shards"][0], "shard": i} for i, row in enumerate(rows)
            ],
        }
