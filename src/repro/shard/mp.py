"""Multiprocessing backend: one forked worker Router per shard.

Topology is shared-nothing by construction: each worker process calls
the user's ``factory(shard_index)`` *after* the fork, so every shard
owns a private Router (AIU, flow table, fault domains, governor) with
no shared mutable memory.  The parent talks to each worker over a pair
of simplex pipes (SPSC: the parent is the only writer of the work
pipe, the worker the only writer of the result pipe).

Batch handoff is credit-windowed: at most ``window`` batches are in
flight per worker, and the parent drains results opportunistically
while it feeds, so neither side can fill an OS pipe buffer while the
other blocks (the classic send/send deadlock).  Batches are descriptor
lists (see :mod:`repro.shard.dispatch`) sized to the compiled batch
loops — the worker decodes and calls ``Router.receive_batch``, so the
per-shard data path is exactly the single-process one.

The control plane rides the same work pipe between batches as one
message kind: ``call`` carries a typed ``(verb, args, kwargs)`` from the
fanout (:class:`~repro.shard.control.ShardedPluginLibrary`), which the
worker checks against :data:`~repro.mgr.fanout.CALLS` and applies to its
own :class:`~repro.mgr.library.RouterPluginLibrary`; only ``query``
ships a payload back (the structured dict, for cross-shard merging).

Requires the ``fork`` start method (factory closures never cross a
pickle boundary); callers should check :func:`mp_available` first.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..mgr.fanout import CALLS, VERBS
from ..mgr.library import RouterPluginLibrary
from .dispatch import decode_packet, dispatch_wire


def mp_available() -> bool:
    """True when the fork-based backend can run here."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _worker_main(index: int, factory: Callable, work_r, result_w, null_path: bool):
    """Worker loop: decode -> receive_batch -> send dispositions.

    ``null_path`` short-circuits the router entirely (echo back a
    constant disposition per packet): the bench uses it to measure the
    parent-side dispatch pipeline capacity on machines without enough
    cores to demonstrate real parallel speedup.
    """
    router = factory(index)
    library = RouterPluginLibrary(router)
    receive_batch = router.receive_batch
    decode = decode_packet
    while True:
        msg = work_r.recv()
        tag = msg[0]
        if tag == "batch":
            now, descs = msg[1], msg[2]
            if null_path:
                result_w.send(["forwarded"] * len(descs))
            else:
                packets = [decode(d) for d in descs]
                result_w.send(receive_batch(packets, now=now))
        elif tag == "call":
            verb, args, kwargs = msg[1:]
            try:
                if verb not in CALLS:
                    raise ConfigurationError(f"unknown control verb {verb!r}")
                value = getattr(library, verb)(*args, **kwargs)
                # Handles (plugins, instances, governors) stay in the
                # worker; only the read's payload crosses the pipe.
                result_w.send(("ok", None if verb in VERBS else value))
            except Exception as exc:  # noqa: BLE001  # rp: ignore[RP206]
                result_w.send(("err", f"{type(exc).__name__}: {exc}"))
        elif tag == "health":
            result_w.send(("ok", router.health()))
        elif tag == "stop":
            break


class ShardWorkerPool:
    """N forked shard workers plus the parent-side dispatch pipeline."""

    def __init__(
        self,
        nshards: int,
        factory: Callable,
        batch_size: int = 256,
        window: int = 8,
        null_path: bool = False,
    ):
        if not mp_available():
            raise RuntimeError(
                "multiprocessing backend needs the 'fork' start method; "
                "use the inline backend here"
            )
        ctx = multiprocessing.get_context("fork")
        self.nshards = nshards
        self.batch_size = batch_size
        self.window = window
        self._work_w = []
        self._result_r = []
        self._procs = []
        self._closed = False
        for i in range(nshards):
            work_r, work_w = ctx.Pipe(duplex=False)
            result_r, result_w = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(i, factory, work_r, result_w, null_path),
                daemon=True,
            )
            proc.start()
            # Parent-side ends only; the worker holds the other two.
            work_r.close()
            result_w.close()
            self._work_w.append(work_w)
            self._result_r.append(result_r)
            self._procs.append(proc)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def process_wire(self, descs: Sequence, now: float = 0.0) -> List[str]:
        """Dispatch descriptors to the shards; dispositions in input order.

        The hot loop: RSS bucket (fold % n), then per shard a credit
        window of ``batch_size`` descriptor chunks with results drained
        as they complete.
        """
        n = self.nshards
        buckets, indices = dispatch_wire(descs, n)
        out: List[Optional[str]] = [None] * len(descs)
        size = self.batch_size
        window = self.window
        pos = [0] * n
        inflight = [deque() for _ in range(n)]
        pending_shards = set(range(n))
        while pending_shards:
            blocked = True
            for s in list(pending_shards):
                result_r = self._result_r[s]
                flight = inflight[s]
                while flight and result_r.poll():
                    idxs = flight.popleft()
                    for i, d in zip(idxs, result_r.recv()):
                        out[i] = d
                    blocked = False
                bucket = buckets[s]
                send = self._work_w[s].send
                while len(flight) < window and pos[s] < len(bucket):
                    p = pos[s]
                    send(("batch", now, bucket[p:p + size]))
                    flight.append(indices[s][p:p + size])
                    pos[s] += size
                    blocked = False
                if not flight and pos[s] >= len(bucket):
                    pending_shards.discard(s)
            if blocked and pending_shards:
                # Every shard is window-full: sleep until some result
                # lands instead of spinning.
                _conn_wait(
                    [self._result_r[s] for s in pending_shards if inflight[s]]
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _roundtrip(self, message: tuple) -> list:
        """Broadcast one control message; collect one reply per shard.

        Control messages ride the work pipes, so they are naturally
        ordered after any batches already submitted.
        """
        for w in self._work_w:
            w.send(message)
        # Drain every reply before raising: a partial read would leave
        # stale replies queued and desynchronize the next roundtrip.
        replies = [r.recv() for r in self._result_r]
        errors = [value for status, value in replies if status == "err"]
        if errors:
            raise RuntimeError(f"shard worker error: {errors[0]}")
        return [value for _, value in replies]

    def call(self, verb: str, args: tuple = (), kwargs: Optional[dict] = None) -> list:
        """Apply one typed library call on every shard: the per-shard
        ``query`` payloads, ``None`` per shard for every other verb."""
        return self._roundtrip(("call", verb, args, kwargs or {}))

    def health(self) -> list:
        return self._roundtrip(("health",))

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for w in self._work_w:
            try:
                w.send(("stop",))
                w.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        for r in self._result_r:
            try:
                r.close()
            except OSError:
                pass

    def __del__(self):  # pragma: no cover — belt and braces
        try:
            self.close()
        except Exception:  # rp: ignore[RP206] — a finalizer must never raise
            pass
