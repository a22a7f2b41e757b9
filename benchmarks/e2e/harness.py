"""The measuring loop.  Closed loop, one client, one thread: the next
driver call is offered only when the previous one returned.

Why these statistics.  The box this was sized on is a shared 2-core VM
whose speed moves by 10-30 % for seconds to minutes, so a mean over a
run mostly reports which state the box was in.  Two defences:

* every duration of the end-to-end run is scaled, as it is taken, by the
  machine-speed reference of :mod:`speed` (figures read "at nominal
  speed");
* every figure is a median of like-for-like samples.  A workload's
  *cycle* is a fixed sequence of driver calls; a *place* is one call's
  position in it (on ``topo_ipsec``, one packet's position in the
  scenario, timed by the proxy around ``topo.receive``).  Each place's
  service time is its median over all the cycles run.

From the place medians:

* ``pps`` — the cycle's packets over the sum of the place medians.
  Places differ (a verb, a post-verb burst, a steady burst), so the
  median is taken per place and never across them.
* ``svc_p90_us`` — their 90th percentile: the slow tenth of a typical
  cycle.  A stall tied to a place (an eviction run, a recompile, a burst
  of large packets) stays; a co-tenant's burst does not.  The percentile
  over raw samples moved by a quarter between identical runs, more than
  the largest bound a metric may have, so it is only a per-layer
  diagnostic (``driver.burst_p99_us``).
* ``ctl_op_p50_us`` / ``post_op_burst_us`` — the median latency of each
  of the three verbs / of the driver call right after each, then the
  mean of the three medians.
* ``setup_s`` — set-up runs ``SETUP_REPEATS`` times; the median counts.
"""

from __future__ import annotations

import gc
import math
import resource
from array import array
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Callable, List, Sequence

import layers
from spec import SPAN_NAMES
from speed import UNSCALED, Speed
from tracing import NULL_TRACER, ROOT, Tracer

SETUP_REPEATS = 5
MIN_CYCLES = 3
CONTROL_SHARE = 0.25         # of --seconds, spent on the verb phase
MIN_VERB_CYCLES = 5


def percentile(values: Sequence, q: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]):
    return percentile(values, 0.25), median(values), percentile(values, 0.75)


class CycleTimes:
    """Service time of every driver call, by slot, over whole cycles."""

    def __init__(self, workload, speed=UNSCALED):
        self.workload = workload
        self.speed = workload.speed = speed
        self.slots = [array("d") for _ in range(workload.calls_per_cycle)]
        self.cycle_ns: List[int] = []        # raw wall time of each cycle's calls
        #: Per-cycle arrays of finer samples, where the workload times
        #: something smaller than its driver call (topo_ipsec: packets).
        self.fine: List[array] = []

    def run_cycle(self) -> None:
        workload = self.workload
        offer, check, current = workload.offer, workload.check, self.speed.current
        total = 0
        for slot, samples in enumerate(self.slots):
            factor = current()
            start = perf_counter_ns()
            out = offer(slot, NULL_TRACER)
            elapsed = perf_counter_ns() - start
            samples.append(elapsed * factor)
            total += elapsed
            check(slot, out)
        self.cycle_ns.append(total)
        if workload.svc_samples is not None:
            self.fine.append(workload.svc_samples)
        workload.reset()

    def run_for(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while len(self.cycle_ns) < MIN_CYCLES or perf_counter() < deadline:
            self.run_cycle()

    def place_medians(self) -> List[float]:
        by_place = zip(*self.fine) if self.fine else self.slots
        return [median(samples) for samples in by_place]

    def per_cycle_pps(self) -> List[float]:
        packets = self.workload.packets_per_cycle
        return [packets * 1e9 / ns for ns in self.cycle_ns]

    def all_calls(self) -> List[float]:
        return [ns for samples in self.slots for ns in samples]


def control_phase(workload, speed, seconds: float):
    """Verb cycles against the configured, warm system under test:
    each verb is timed, and so is the first driver call after it."""
    op_ns = [array("d") for _ in workload.verbs]
    post_ns = [array("d") for _ in workload.verbs]
    deadline = perf_counter() + seconds
    while len(op_ns[0]) < MIN_VERB_CYCLES or perf_counter() < deadline:
        for (_name, verb), ops, posts in zip(workload.verbs, op_ns, post_ns):
            factor = speed.current()
            start = perf_counter_ns()
            verb()
            ops.append((perf_counter_ns() - start) * factor)
            posts.append(workload.post_op(NULL_TRACER) * factor)
    return op_ns, post_ns


def mean_of_medians_us(samples_by_verb) -> float:
    return sum(median(s) for s in samples_by_verb) / len(samples_by_verb) / 1e3


def set_up(make: Callable, seed: int, repeats: int, speed=UNSCALED):
    """Build the workload ``repeats`` times (generate inputs, build and
    configure the system, warm it, check it against the oracle); the
    last one built is the one measured."""
    seconds = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        before = speed.measure()
        start = perf_counter()
        workload = make(seed)
        elapsed = perf_counter() - start
        seconds.append(elapsed * (before + speed.measure()) / 2)
    return workload, seconds


def freeze() -> None:
    """The collector stays on, as in production, but never walks the
    benchmark's own input arrays."""
    gc.collect()
    gc.freeze()


def run_end_to_end(make: Callable, seed: int, seconds: float) -> dict:
    speed = Speed()
    workload, setups = set_up(make, seed, SETUP_REPEATS, speed)
    try:
        freeze()
        times = CycleTimes(workload, speed)
        times.run_for(seconds * (1 - CONTROL_SHARE))
        op_ns, post_ns = control_phase(workload, speed, seconds * CONTROL_SHARE)
        workload.conserve()
    finally:
        workload.close()
    places = times.place_medians()
    return {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "input_digest": workload.input_digest,
        "metrics": {
            "pps": workload.packets_per_cycle * 1e9 / sum(places),
            "svc_p90_us": percentile(places, 0.9) / 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ctl_op_p50_us": mean_of_medians_us(op_ns),
            "post_op_burst_us": mean_of_medians_us(post_ns),
        },
        "detail": {
            "cycles": len(times.cycle_ns),
            "places": len(places),
            "verb_cycles": len(op_ns[0]),
            "speed_factor_quartiles": quartiles(speed.readings),
            "raw_pps_per_cycle_quartiles": quartiles(times.per_cycle_pps()),
            "setup_s_all": setups,
            "ctl_op_us_by_verb": {
                name: [v / 1e3 for v in quartiles(samples)]
                for (name, _verb), samples in zip(workload.verbs, op_ns)},
            "post_op_burst_us_by_verb": {
                name: [v / 1e3 for v in quartiles(samples)]
                for (name, _verb), samples in zip(workload.verbs, post_ns)},
        },
    }


def run_traced_cycle(workload, tracer: Tracer) -> None:
    offer, check = workload.offer, workload.check
    for slot in range(workload.calls_per_cycle):
        with tracer(ROOT):
            out = offer(slot, tracer)
        check(slot, out)
    workload.reset()


def run_layers(make: Callable, seed: int, seconds: float, trace_path: str) -> dict:
    """The traced run: untraced and traced cycles alternate for half of
    ``--seconds`` (their ratio is the tracing overhead), then the layer
    probes run on fixed operation counts.  Nothing here is scaled."""
    speed = Speed()
    workload, _setups = set_up(make, seed, 1)
    tracer = Tracer()
    traced_ns: List[int] = []
    try:
        freeze()
        times = CycleTimes(workload)
        deadline = perf_counter() + seconds / 2
        while len(traced_ns) < MIN_CYCLES or perf_counter() < deadline:
            speed.measure()
            times.run_cycle()
            first_root = len(tracer.spans)
            run_traced_cycle(workload, tracer)
            traced_ns.append(sum(
                end - start for _n, start, end, parent in tracer.spans[first_root:]
                if parent < 0))
        workload.conserve()
        metrics = layers.stream_probes(workload)
    finally:
        workload.close()
    metrics.update(layers.fixed_probes(seed))

    shares = tracer.shares()
    for name in SPAN_NAMES:
        metrics[f"trace.{name}_share"] = shares.get(name, 0.0)
    metrics["trace.driver_self_share"] = shares[ROOT]
    metrics["trace.overhead_ratio"] = median(times.cycle_ns) / median(traced_ns)
    calls = times.all_calls()
    metrics["driver.burst_p50_us"] = median(calls) / 1e3
    metrics["driver.burst_p99_us"] = percentile(calls, 0.99) / 1e3
    low, mid, high = quartiles(times.per_cycle_pps())
    metrics["driver.pps_iqr_rel"] = (high - low) / mid
    metrics["driver.speed_factor"] = median(speed.readings)
    tracer.write(trace_path, workload=workload.name, seed=seed)
    return {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "input_digest": workload.input_digest,
        "metrics": metrics,
        "detail": {
            "cycles": len(times.cycle_ns),
            "traced_cycles": len(traced_ns),
            "spans": len(tracer.spans),
            "share_sum": sum(shares.values()),
        },
    }
