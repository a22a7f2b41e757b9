"""Unit tests for the metrics registry: metric semantics, idempotent
creation, cross-type collisions, pull collectors, and the NullRegistry
off state."""

import pytest

from repro.core.router import Router
from repro.net.packet import make_udp
from repro.telemetry import (
    Counter,
    DEFAULT_SIZE_BOUNDS,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("x")
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8

    def test_histogram_buckets_preallocated(self):
        h = Histogram("x", bounds=(10, 20, 30))
        assert h.counts == [0, 0, 0, 0]  # 3 edges + overflow
        h.observe(5)
        h.observe(10)   # on-edge lands in its own bucket (bisect_left)
        h.observe(25)
        h.observe(99)   # overflow
        assert h.counts == [2, 0, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(139)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(MetricError):
            Histogram("x", bounds=(10, 10, 20))
        with pytest.raises(MetricError):
            Histogram("x", bounds=(20, 10))
        with pytest.raises(MetricError):
            Histogram("x", bounds=())

    def test_histogram_lut_matches_bisect(self):
        """The fast-path value->bucket table agrees with observe() for
        every integer in its domain (the AIU miss seam relies on it)."""
        h = Histogram("x", bounds=DEFAULT_SIZE_BOUNDS)
        assert h.bucket_lut is not None
        reference = Histogram("ref", bounds=DEFAULT_SIZE_BOUNDS)
        for size in range(len(h.bucket_lut)):
            before = reference.counts[h.bucket_lut[size]]
            reference.observe(size)
            assert reference.counts[h.bucket_lut[size]] == before + 1, size

    def test_histogram_lut_skipped_for_huge_bounds(self):
        h = Histogram("x", bounds=(1e9,))
        assert h.bucket_lut is None
        h.observe(5)
        assert h.counts == [1, 0]

    def test_direct_staging_folds_on_read(self):
        """The one-list-index hot seam: staged sizes land in the right
        buckets (and the sum) only when the histogram is next read, and
        staged and observe()d values mix freely."""
        h = Histogram("x", bounds=(10, 20, 30))
        direct = h.enable_direct()
        assert direct is h.enable_direct()          # idempotent
        assert len(direct) == len(h.bucket_lut)
        direct[5] += 1
        direct[10] += 1
        direct[25] += 2
        assert h._counts == [0, 0, 0, 0]            # nothing folded yet
        h.observe(99)                               # overflow, unstaged
        assert h.counts == [2, 0, 2, 1]             # read folds
        assert h.count == 5
        assert h.sum == pytest.approx(5 + 10 + 25 + 25 + 99)
        assert all(c == 0 for c in h.direct)        # staging drained
        direct[7] += 1                              # stage again
        assert h.to_dict()["count"] == 6

    def test_direct_staging_unavailable_for_huge_bounds(self):
        assert Histogram("x", bounds=(1e9,)).enable_direct() is None

    def test_to_dict_shape(self):
        h = Histogram("x", bounds=(64, 128))
        h.observe(100)
        d = h.to_dict()
        assert d == {
            "bounds": [64.0, 128.0],
            "counts": [0, 1, 0],
            "count": 1,
            "sum": 100,
        }


class TestRegistry:
    def test_idempotent_creation(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b

    def test_cross_type_collision(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")
        with pytest.raises(MetricError):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h", bounds=(10,)).observe(5)
        snap = reg.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 1

    def test_collectors_sample_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.add_collector(lambda: {"counters": {"pulled": state["n"]}})
        state["n"] = 42
        assert reg.snapshot()["counters"]["pulled"] == 42

    def test_bind_router_is_exclusive(self):
        reg = MetricsRegistry()
        r1 = Router(name="a")
        r1.add_interface("atm0", prefix="0.0.0.0/0")
        r1.attach_telemetry(reg)
        r2 = Router(name="b")
        r2.add_interface("atm0", prefix="0.0.0.0/0")
        with pytest.raises(MetricError):
            r2.attach_telemetry(reg)


class TestRouterWiring:
    def _router(self):
        router = Router(name="t")
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        return router

    def test_attach_detach_roundtrip(self):
        router = self._router()
        reg = router.attach_telemetry()
        assert router.telemetry is reg
        assert router._tm_gate_cells is reg.gate_dispatch_cells
        assert router.aiu._tm_size_hist is not None
        router.detach_telemetry()
        assert router.telemetry is None
        assert router._tm_gate_cells is None
        assert router.aiu._tm_size_hist is None

    def test_null_registry_means_detached(self):
        router = self._router()
        router.attach_telemetry()
        router.attach_telemetry(NULL_REGISTRY)
        assert router.telemetry is None

    def test_null_registry_handles_are_noops(self):
        reg = NullRegistry()
        reg.counter("x").inc()
        reg.gauge("x").set(5)
        reg.histogram("x").observe(1)
        assert reg.snapshot() == {
            "enabled": False, "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_counters_flow_through_snapshot(self):
        router = self._router()
        router.attach_telemetry()
        for i in range(10):
            router.receive(
                make_udp("10.0.0.1", "20.0.0.1", 1000 + i, 9000, iif="atm0")
            )
        snap = router.telemetry.snapshot()
        assert snap["counters"]["router.rx"] == 10
        assert snap["counters"]["flow.misses"] == 10
        assert snap["counters"]["flow.births"] == 10
        hist = snap["histograms"]["aiu.miss_packet_size_bytes"]
        assert hist["count"] == 10
        assert snap["gauges"]["flow.active"] == 10
