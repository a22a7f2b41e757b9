"""Tests for the Table 3 result arithmetic."""

import pytest

from repro.kernels.base import KernelResult
from repro.sim.cost import CPU_HZ


class TestKernelResult:
    def test_avg_us(self):
        result = KernelResult("x", avg_cycles=6460, packets=100)
        assert result.avg_us == pytest.approx(27.73, abs=0.01)

    def test_throughput(self):
        result = KernelResult("x", avg_cycles=6460, packets=100)
        assert result.throughput_pps == pytest.approx(CPU_HZ / 6460)

    def test_overhead_vs(self):
        base = KernelResult("base", avg_cycles=6460, packets=1)
        other = KernelResult("plugin", avg_cycles=6970, packets=1)
        assert other.overhead_vs(base) == pytest.approx(0.0789, abs=0.001)
