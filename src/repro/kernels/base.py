"""Shared measurement harness for the Table 3 kernel configurations.

Each kernel exposes ``process(packet, cycles)``; the runner replays the
paper's workload (three interleaved 8 KB UDP flows, 100 packets each,
repeated) and reports average modelled cycles/µs per packet plus the
derived throughput — the exact columns of Table 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..sim.cost import CPU_HZ, CycleMeter, cycles_to_us
from ..workloads.flows import FlowSpec, round_robin_trains, table3_flows


@dataclass
class KernelResult:
    """One Table 3 row."""

    name: str
    avg_cycles: float
    packets: int
    wall_seconds: float = 0.0

    @property
    def avg_us(self) -> float:
        return cycles_to_us(self.avg_cycles)

    @property
    def throughput_pps(self) -> float:
        """Packets/second the P6/233 would sustain at this cycle cost."""
        return CPU_HZ / self.avg_cycles

    def overhead_vs(self, baseline: "KernelResult") -> float:
        """Relative overhead against a baseline row (paper's last column)."""
        return self.avg_cycles / baseline.avg_cycles - 1.0

    def row(self, baseline: Optional["KernelResult"] = None) -> str:
        overhead = (
            "-" if baseline is None or baseline is self
            else f"{self.overhead_vs(baseline) * 100:+.1f}%"
        )
        return (
            f"{self.name:<44} {self.avg_cycles:>8.0f} {self.avg_us:>8.2f} "
            f"{overhead:>8} {self.throughput_pps:>9.0f}"
        )


TABLE3_HEADER = (
    f"{'Kernel':<44} {'Cycles':>8} {'us':>8} {'Ovrhd':>8} {'pkts/s':>9}"
)


def run_table3_workload(
    kernel,
    flows: Optional[Sequence[FlowSpec]] = None,
    packets_per_flow: int = 100,
    repetitions: int = 10,
    warmup_packets: int = 3,
) -> KernelResult:
    """Replay the §7.3 measurement against one kernel.

    The paper sent 100 packets on each of 3 flows and repeated the run
    1000 times; repetitions here default lower because the *average* is
    stable after a handful of runs (the model is deterministic).
    """
    flows = list(flows or table3_flows())
    # Warm-up: the paper's numbers are steady-state averages, and with
    # repetitions >= 2 the cache-warming first packets amortize away; we
    # additionally prime the flow cache explicitly.
    for packet in round_robin_trains(flows, 1):
        kernel.process(packet, CycleMeter())
    total_cycles = 0
    total_packets = 0
    start = time.perf_counter()
    for _ in range(repetitions):
        for packet in round_robin_trains(flows, packets_per_flow):
            meter = CycleMeter()
            kernel.process(packet, meter)
            total_cycles += meter.total
            total_packets += 1
    wall = time.perf_counter() - start
    return KernelResult(
        name=kernel.name,
        avg_cycles=total_cycles / total_packets,
        packets=total_packets,
        wall_seconds=wall,
    )


def format_table3(results: Sequence[KernelResult]) -> str:
    baseline = results[0]
    lines = [TABLE3_HEADER]
    lines.extend(result.row(baseline) for result in results)
    return "\n".join(lines)
