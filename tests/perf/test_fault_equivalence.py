"""Fault-path equivalence of the generated un-metered executor.

The fault-containment layer lives in the metered gate macro and in the
generated loops; this suite pins that a faulting workload — captures,
quarantine trips, degradation, half-open probes — is observed
identically on the metered specification path and un-metered: same
dispositions, same counters, same FaultRecord signatures, same health
snapshots.
"""

import pytest

from repro.core import (
    DEGRADE_BYPASS,
    FaultPolicy,
    GATE_IP_SECURITY,
    Plugin,
    PluginInstance,
    Router,
    TYPE_IP_SECURITY,
    Verdict,
)
from repro.core.gates import DEFAULT_GATES
from repro.net.packet import make_udp
from repro.sim.cost import CycleMeter


class _EveryNthFaults(PluginInstance):
    """Deterministically faults on every n-th call."""

    def __init__(self, plugin, every=3, **config):
        super().__init__(plugin, **config)
        self.every = every
        self.calls = 0

    def process(self, packet, ctx):
        self.calls += 1
        if self.calls % self.every == 0:
            raise RuntimeError(f"fault at call {self.calls}")
        return Verdict.CONTINUE


class _FaultyPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "faulty"
    instance_class = _EveryNthFaults


def _build(name, policy):
    router = Router(name=name, gates=DEFAULT_GATES)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    plugin = _FaultyPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance(every=3)
    plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
    router.faults.set_policy("faulty", policy)
    return router, instance


def _workload():
    # A flow mix with cache hits and misses; `now` advances 1ms per
    # packet so windows, cool-downs, and probes all exercise.
    out = []
    for i in range(120):
        out.append(
            (
                make_udp(
                    "10.0.0.1", f"20.0.0.{i % 5 + 1}", 5000 + i % 7, 9000,
                    iif="atm0",
                ),
                i * 0.001,
            )
        )
    return out


def _observed(router):
    return {
        "counters": dict(router.counters),
        "health": router.faults.health(),
        "signatures": [r.signature() for r in router.faults.records()],
    }


@pytest.mark.parametrize(
    "policy",
    [
        FaultPolicy(threshold=2, window=0.01, action="drop", cooldown=0.02),
        FaultPolicy(threshold=2, window=0.01, action=DEGRADE_BYPASS, cooldown=0.02),
        FaultPolicy(threshold=1000, window=1.0),  # capture only, never trips
    ],
    ids=["drop", "bypass", "capture-only"],
)
def test_fault_equivalence_fast_vs_metered(policy):
    metered, spec_inst = _build("spec", policy)
    fast, fast_inst = _build("fast", policy)

    spec_disp = [
        metered.receive(p, now=now, cycles=CycleMeter())
        for p, now in _workload()
    ]
    fast_disp = [fast.receive(p, now=now) for p, now in _workload()]

    assert fast_disp == spec_disp
    assert spec_inst.calls == fast_inst.calls
    assert _observed(fast) == _observed(metered)
    # The workload really did trip/capture: this is not a vacuous pass.
    assert metered.counters["plugin_faults"] > 0
    if policy.threshold == 2:
        assert metered.counters["plugin_quarantines"] > 0
        assert metered.counters["plugin_reinstatements"] > 0


def test_fault_equivalence_batch():
    policy = FaultPolicy(threshold=2, window=0.01, cooldown=0.02)
    sequential, _ = _build("seq", policy)
    batched, _ = _build("batch", policy)

    # Batches share one `now`; mirror that in the sequential run.
    expected = []
    packets = [p for p, _ in _workload()]
    for start in range(0, len(packets), 8):
        now = start * 0.001
        for p in packets[start:start + 8]:
            expected.append(sequential.receive(p, now=now, cycles=CycleMeter()))
    got = []
    packets = [p for p, _ in _workload()]
    for start in range(0, len(packets), 8):
        got.extend(batched.receive_batch(packets[start:start + 8], now=start * 0.001))

    assert got == expected
    assert _observed(batched) == _observed(sequential)


def test_healthy_path_charges_no_containment_cycles():
    """Fault containment must be invisible to the cost model: a healthy
    walk charges the same modelled cycles whether or not fault domains
    have ever been consulted."""
    plain = Router(name="plain", gates=DEFAULT_GATES)
    plain.add_interface("atm0", prefix="10.0.0.0/8")
    plain.add_interface("atm1", prefix="20.0.0.0/8")

    exercised = Router(name="exercised", gates=DEFAULT_GATES)
    exercised.add_interface("atm0", prefix="10.0.0.0/8")
    exercised.add_interface("atm1", prefix="20.0.0.0/8")
    exercised.faults.set_policy("anything", FaultPolicy(threshold=5))

    def run(router):
        meter = CycleMeter()
        router.receive(
            make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0"),
            cycles=meter,
        )
        return meter.total

    assert run(plain) == run(exercised)
