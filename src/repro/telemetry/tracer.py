"""Packet-lifecycle tracing: ring-buffered span records.

A :class:`LifecycleTracer` samples 1-in-N *flows* (same fold the flow
table hashes with, so all packets of a flow are sampled together) and
records one span per sampled packet: the stage sequence classify →
gates → route → schedule → emit with a modelled-cycle delta and a
virtual-time delta per stage, plus what each stage decided — which
instance saw the packet and its verdict, the route chosen, the cause of
a fault (:meth:`Span.render` narrates the walk like the paper's
Figure 3).

Sampling is decided in :meth:`Router.receive` with one attribute test;
non-sampled packets stay on the unmetered fast path untouched.  A
sampled packet runs the *metered* specification path against a
tracer-owned throwaway :class:`~repro.sim.cost.CycleMeter` — the two
paths are packet-for-packet equivalent (tests/perf/, chaos soak), so
sampling never changes dispositions, counters, or flow state, and the
caller's meter (if any) is never touched.

The ring is preallocated and written modulo capacity: memory is bounded
no matter how long the router runs (capacity test under the 10k-packet
chaos soak in tests/telemetry/).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.faults import packet_digest
from ..core.plugin import Verdict
from ..core.router import Disposition
from ..sim.cost import NULL_METER, CycleMeter


class Span:
    """One sampled packet's walk: ``stages`` is a list of
    ``(stage, cycle_delta, vtime_delta)`` tuples, ``details`` the
    parallel list of what each stage decided — the fields ``to_dict``
    adds to the stage (``instance``/``verdict``/``note`` at a gate,
    ``error`` on a fault, ``route``), or ``None``."""

    __slots__ = (
        "packet_id", "flow", "arrived", "started", "stages", "details",
        "disposition", "total_cycles", "queued_at", "done_time",
    )

    def __init__(self, packet, started: float):
        self.packet_id = packet.packet_id
        self.flow = packet_digest(packet)
        self.arrived = f"arrived on {packet.iif} ttl={packet.ttl}"
        self.started = started
        self.stages: List[Tuple[str, int, float]] = []
        self.details: List[Optional[dict]] = []
        self.disposition: Optional[str] = None
        self.total_cycles = 0
        self.queued_at: Optional[float] = None
        self.done_time: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "packet_id": self.packet_id,
            "flow": self.flow,
            "started": self.started,
            "disposition": self.disposition,
            "total_cycles": self.total_cycles,
            "done_time": self.done_time,
            "stages": [
                {"stage": stage, "cycles": cycles, "vtime": vtime, **(detail or {})}
                for (stage, cycles, vtime), detail in zip(self.stages, self.details)
            ],
        }

    def render(self) -> str:
        """The walk as text: one line per stage, who handled the packet
        and what they decided."""
        lines = [f"trace #{self.packet_id} {self.flow}", f"  rx: {self.arrived}"]
        for (stage, cycles, _vtime), detail in zip(self.stages, self.details):
            text, _, gate = stage.partition(":")
            detail = detail or {}
            if text in ("gate", "fault"):
                who = detail.get("instance") or "(no instance bound)"
                fault = f" FAULT {detail['error']}" if text == "fault" else ""
                note = f" [{detail['note']}]" if "note" in detail else ""
                verdict = detail.get("verdict", Verdict.CONTINUE)
                text = f"gate {gate.partition(':')[0]}: {who}{fault} -> {verdict}{note}"
            elif text == "route":
                text = f"route: {detail['route']}"
            lines.append(f"  {text} ({cycles} cycles)")
        lines.append(f"  done: {self.disposition} ({self.total_cycles} cycles)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span(#{self.packet_id}, {self.flow}, "
            f"{self.disposition}, cycles={self.total_cycles})"
        )


class LifecycleTracer:
    """Flow-sampled per-packet span recorder (1-in-``sample``)."""

    def __init__(self, sample: int = 1, capacity: int = 256):
        if sample < 1:
            raise ValueError("sample must be >= 1 (1 traces every flow)")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample = sample
        self.capacity = capacity
        self._ring: List[Optional[Span]] = [None] * capacity
        self._write = 0
        #: Spans closed over the tracer's lifetime (ring keeps the last
        #: ``capacity`` of them).
        self.recorded = 0
        #: Packets that entered tracing (spans opened).
        self.sampled = 0
        # packet_id -> [span, meter, cycle mark at last stage boundary];
        # bounded to ``capacity`` open spans (a queued packet whose
        # scheduler never emits it must not leak).
        self._open: Dict[int, list] = {}
        # True while a traced walk is on the stack.
        self._walking = False

    # ------------------------------------------------------------------
    # Sampling decision (hot path: called once per packet when attached)
    # ------------------------------------------------------------------
    def wants(self, packet) -> bool:
        """A sampled flow — or any packet entering the router while a
        traced walk is running: a nested re-injection (tunnel
        decapsulation re-running the inner datagram through the same
        router), which path tracers fold into the decapsulating hop's
        record."""
        return self._walking or packet.flow_fold32() % self.sample == 0

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def walk(self, receive, packet, now: float) -> str:
        """Run ``receive(packet, now, meter)`` — the router's metered
        specification walk — as one span, against a throwaway meter no
        caller ever sees.  A nested walk runs cycle-free (its gate
        sequence and disposition are real, its cycles are not split out
        of the outer span's)."""
        nested = self._walking
        meter = NULL_METER if nested else CycleMeter()
        self.sampled += 1
        span = Span(packet, now)
        self._open[packet.packet_id] = entry = [span, meter, 0]
        while len(self._open) > self.capacity:
            oldest = next(iter(self._open))
            stale = self._open.pop(oldest)
            self._close(stale[0])
        self._walking = True
        try:
            disposition = receive(packet, now, meter)
        finally:
            self._walking = nested
        if self._open.get(packet.packet_id) is not entry:
            return disposition      # force-closed mid-walk (capacity)
        span.disposition = disposition
        span.total_cycles = meter.total
        if meter.total > entry[2]:
            # Tail work after the last hook (route memo, driver tx, ...).
            # Keep a synchronously-recorded emit stage last.
            at = len(span.stages)
            if span.stages and span.stages[-1][0] == "emit":
                at -= 1
            span.stages.insert(at, ("forward", meter.total - entry[2], 0.0))
            span.details.insert(at, None)
            entry[2] = meter.total
        if disposition == Disposition.QUEUED and span.done_time is None:
            # Stays open until the scheduler emits it (on_emit).
            span.queued_at = now
            return disposition
        del self._open[packet.packet_id]
        if span.done_time is None:
            span.done_time = now
        self._close(span)
        return disposition

    def on_emit(self, packet, at: float) -> None:
        """Scheduler drained the packet onto the wire: close the span
        with the queue-wait virtual-time delta."""
        entry = self._open.get(packet.packet_id)
        if entry is None:
            return
        span = entry[0]
        wait = at - span.queued_at if span.queued_at is not None else 0.0
        span.stages.append(("emit", 0, wait))
        span.details.append(None)
        span.done_time = at
        if span.disposition is None:
            # The scheduler drained synchronously, inside the walk —
            # leave the span open so walk() can close it with the real
            # disposition and cycle total.
            return
        del self._open[packet.packet_id]
        self._close(span)

    def _close(self, span: Span) -> None:
        self._ring[self._write % self.capacity] = span
        self._write += 1
        self.recorded += 1

    def _stage(self, packet, stage: str, detail: Optional[dict] = None) -> None:
        entry = self._open.get(packet.packet_id)
        if entry is None:
            return      # a walk this tracer does not observe
        span, meter, mark = entry
        span.stages.append((stage, meter.total - mark, 0.0))
        span.details.append(detail)
        entry[2] = meter.total

    # ------------------------------------------------------------------
    # Hooks called by the metered gate macros
    # ------------------------------------------------------------------
    def on_gate(self, packet, gate: str, instance, verdict: str, note: str = "") -> None:
        detail = None
        if instance is not None:
            detail = {"instance": getattr(instance, "name", None), "verdict": verdict}
            if note:
                detail["note"] = note
        self._stage(packet, f"gate:{gate}", detail)

    def on_fault(self, packet, gate: str, instance, error: BaseException, verdict: str) -> None:
        cause = type(error).__name__
        self._stage(packet, f"fault:{gate}:{cause}", {
            "instance": getattr(instance, "name", None),
            "verdict": verdict,
            "error": f"{cause}: {error}",
        })

    def on_route(self, packet, route) -> None:
        if route is None:
            text = "no route"
        else:
            text = f"{route.prefix} dev {route.interface}" + (
                f" via {route.next_hop}" if route.next_hop else ""
            )
        self._stage(packet, "route", {"route": text})

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Closed spans, oldest first (at most ``capacity`` of them)."""
        if self._write <= self.capacity:
            return [s for s in self._ring[: self._write] if s is not None]
        split = self._write % self.capacity
        out = self._ring[split:] + self._ring[:split]
        return [s for s in out if s is not None]

    def open_spans(self) -> int:
        return len(self._open)

    def span_for(self, packet_id: int) -> Optional[Span]:
        """The most recent span for ``packet_id`` — a still-open span
        first (a queued packet whose emit has not fired), else the
        newest closed one.  Path tracers use this to harvest the span
        of the one packet they just pushed through a hop."""
        entry = self._open.get(packet_id)
        if entry is not None:
            return entry[0]
        for span in reversed(self.spans()):
            if span.packet_id == packet_id:
                return span
        return None

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "capacity": self.capacity,
            "sampled": self.sampled,
            "recorded": self.recorded,
            "open": self.open_spans(),
            "spans": [span.to_dict() for span in self.spans()],
        }

    def __len__(self) -> int:
        return min(self._write, self.capacity)

    def __repr__(self) -> str:
        return (
            f"LifecycleTracer(sample={self.sample}, capacity={self.capacity}, "
            f"recorded={self.recorded})"
        )
