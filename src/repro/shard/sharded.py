"""``ShardedRouter`` — an RSS front end over N shared-nothing Routers.

Two execution backends share one dispatch rule (deterministic five-tuple
fold, :mod:`repro.shard.dispatch`):

* ``inline`` — the worker Routers live in this process and batches run
  shard-by-shard on the caller's thread.  Deterministic and fully
  introspectable, this is the differential-testing backend: per-flow
  dispositions, ordering, flow stats, and telemetry are provably equal
  to a single router (tests/shard/).
* ``mp`` — each shard is a forked worker process
  (:class:`~repro.shard.mp.ShardWorkerPool`) fed batched descriptors
  over SPSC pipes.  This is the throughput backend: the per-shard data
  path is byte-for-byte the single-process one, so wall-clock scaling
  is bounded only by the parent's dispatch pipeline and the machine's
  cores (the ``shard_wire`` workload of benchmarks/e2e/run.py).

The front end also exposes the aggregate views the existing tooling
expects of a router — ``counters``, ``aiu.flow_table``, ``_overload``,
``health()`` — so harnesses like
:func:`repro.workloads.adversarial.run_scenario` drive a sharded router
unmodified (inline backend).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Sequence

from ..core.aggregate import AggregateFlowTable, AggregateGovernor, fold_health
from ..core.router import Router
from .dispatch import dispatch_packets, dispatch_wire, decode_packet, encode_packet
from .mp import ShardWorkerPool


class _AggregateAIU:
    """The slice of the AIU surface cross-shard harnesses touch.

    Reads aggregate; writes fan out, because a filter installed on one
    shard only would break the configured-identically invariant the
    dispatch equivalence rests on.  ``create_filter`` returns the tuple
    of per-shard records; passing that tuple back to ``remove_filter``
    removes the filter everywhere.
    """

    def __init__(self, sharded: "ShardedRouter"):
        self._sharded = sharded
        self.flow_table = AggregateFlowTable(lambda: sharded.shards)

    def create_filter(self, gate: str, flt, **kwargs) -> tuple:
        return tuple(
            r.aiu.create_filter(gate, flt, **kwargs)
            for r in self._sharded.shards
        )

    def remove_filter(self, records) -> None:
        for shard, record in zip(self._sharded.shards, records):
            shard.aiu.remove_filter(record)

    def filter_count(self) -> int:
        shards = self._sharded.shards
        return shards[0].aiu.filter_count() if shards else 0


class _FanoutRoutingTable:
    """Route changes broadcast to every shard (reads go to shard 0 —
    the fanout keeps all shard tables identical)."""

    def __init__(self, sharded: "ShardedRouter"):
        self._sharded = sharded

    def add(self, prefix, interface, **kwargs):
        results = [
            r.routing_table.add(prefix, interface, **kwargs)
            for r in self._sharded.shards
        ]
        return results[0] if results else None

    def remove(self, prefix) -> bool:
        removed = [r.routing_table.remove(prefix) for r in self._sharded.shards]
        return any(removed)

    def lookup(self, dst):
        return self._sharded.shards[0].routing_table.lookup(dst)


class ShardedRouter:
    """Flow-hash sharding front end over N worker Routers.

    ``factory(shard_index) -> Router`` builds each shard; every shard
    must be configured identically (the control fanout,
    :class:`~repro.shard.control.ShardedPluginLibrary`, keeps it that
    way for live changes).  With no factory, each shard is a bare
    ``Router(**router_kwargs)`` named ``{name}/{i}``.

    For the ``mp`` backend the factory runs *inside* each forked worker,
    so shard state never crosses a process boundary.
    """

    def __init__(
        self,
        nshards: int = 4,
        factory: Optional[Callable[[int], Router]] = None,
        backend: str = "inline",
        name: str = "sharded",
        batch_size: int = 256,
        window: int = 8,
        _null_path: bool = False,
        **router_kwargs,
    ):
        if nshards < 1:
            raise ValueError("nshards must be >= 1")
        if backend not in ("inline", "mp"):
            raise ValueError(f"unknown shard backend {backend!r}")
        if factory is None:
            def factory(index: int, _kw=router_kwargs, _name=name) -> Router:
                return Router(name=f"{_name}/{index}", **_kw)
        self.name = name
        self.nshards = nshards
        self.backend = backend
        self._factory = factory
        self.shards: List[Router] = []
        self._pool: Optional[ShardWorkerPool] = None
        if backend == "inline":
            self.shards = [factory(i) for i in range(nshards)]
        else:
            self._pool = ShardWorkerPool(
                nshards,
                factory,
                batch_size=batch_size,
                window=window,
                null_path=_null_path,
            )
        self.aiu = _AggregateAIU(self)
        self.routing_table = _FanoutRoutingTable(self)
        self._overload = AggregateGovernor(lambda: self.shards)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive(self, packet, now: float = 0.0) -> str:
        """Scalar entry: route one packet to its shard."""
        if self._pool is not None:
            return self._pool.process_wire([encode_packet(packet)], now=now)[0]
        shard = self.shards[packet.flow_fold32() % self.nshards]
        return shard.receive(packet, now=now)

    def receive_batch(self, packets: Sequence, now: float = 0.0) -> List[str]:
        """Batch entry: dispositions in input order."""
        if self._pool is not None:
            return self._pool.process_wire(
                [encode_packet(p) for p in packets], now=now
            )
        buckets, indices = dispatch_packets(packets, self.nshards)
        out: List[Optional[str]] = [None] * len(packets)
        for s, shard in enumerate(self.shards):
            bucket = buckets[s]
            if bucket:
                for i, d in zip(indices[s], shard.receive_batch(bucket, now=now)):
                    out[i] = d
        return out  # type: ignore[return-value]

    def receive_wire(self, descs: Sequence, now: float = 0.0) -> List[str]:
        """Descriptor entry (the RX-ring view, fold precomputed).

        The mp backend forwards descriptors untouched; inline decodes
        per shard — so both backends charge the decode cost to the shard
        side, mirroring where it runs on real parallel hardware.
        """
        if self._pool is not None:
            return self._pool.process_wire(descs, now=now)
        buckets, indices = dispatch_wire(descs, self.nshards)
        out: List[Optional[str]] = [None] * len(descs)
        for s, shard in enumerate(self.shards):
            bucket = buckets[s]
            if bucket:
                packets = [decode_packet(d) for d in bucket]
                for i, d in zip(indices[s], shard.receive_batch(packets, now=now)):
                    out[i] = d
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Aggregate introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Counter:
        """Summed disposition counters across shards (inline backend)."""
        total: Counter = Counter()
        for r in self.shards:
            total.update(r.counters)
        return total

    def health(self) -> dict:
        """Aggregated health: summed counters/flow-table, per-shard rows."""
        if self._pool is not None:
            per_shard = self._pool.health()
        else:
            per_shard = [r.health() for r in self.shards]
        return {
            "router": self.name,
            "nshards": self.nshards,
            "backend": self.backend,
            **fold_health(per_shard),
            "shards": per_shard,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down mp workers (no-op for the inline backend)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedRouter({self.name!r}, nshards={self.nshards}, "
            f"backend={self.backend!r})"
        )
