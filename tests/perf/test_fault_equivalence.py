"""Fault-path equivalence of the generated un-metered executor.

The fault-containment layer lives in the metered gate macro and in the
generated loops; a faulting workload — captures, quarantine trips,
degradation, half-open probes — must be observed identically on the
metered specification path and un-metered: same dispositions, counters,
FaultRecord signatures and health (the oracle's world compares them,
tests/oracle/).  ``now`` advances 1 ms per packet (per batch of 8 on the
batched entry) so windows, cool-downs and probes all exercise.
"""

import pytest

from repro.core import (
    DEGRADE_BYPASS,
    FaultPolicy,
    GATE_IP_SECURITY,
    Plugin,
    PluginInstance,
    TYPE_IP_SECURITY,
    Verdict,
)
from repro.net.packet import make_udp
from repro.sim.cost import CycleMeter
from tests.oracle.harness import World, build_router


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


def _world(policy, fronts, instances):
    def configure(router):
        plugin = _FaultyPlugin()
        router.pcu.load(plugin)
        instances[router.name] = plugin.create_instance(every=3)
        plugin.register_instance(instances[router.name], "*, *, UDP", gate=GATE_IP_SECURITY)
        router.faults.set_policy("faulty", policy)

    return World(lambda name: build_router(name, configure), fronts=fronts)


def _packet(i):
    return make_udp("10.0.0.1", f"20.0.0.{i % 5 + 1}", 5000 + i % 7, 9000, iif="atm0")


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
    instances = {}
    world = _world(policy, ("receive", "batch1", "topology"), instances)
    for i in range(120):
        world.send(lambda i=i: [_packet(i)], advance=0.001)
    world.check()
    assert not world.parked
    assert {inst.calls for inst in instances.values()} == {instances["spec"].calls}
    # The workload really did trip/capture: this is not a vacuous pass.
    spec = world.router("spec")
    assert spec.counters["plugin_faults"] > 0
    if policy.threshold == 2:
        assert spec.counters["plugin_quarantines"] > 0
        assert spec.counters["plugin_reinstatements"] > 0


def test_fault_equivalence_batch():
    world = _world(FaultPolicy(threshold=2, window=0.01, cooldown=0.02), ("batch8",), {})
    for start in range(0, 120, 8):
        world.send(lambda start=start: [_packet(i) for i in range(start, start + 8)],
                   advance=0.008)
    world.check()
    assert not world.parked
    assert world.router("spec").counters["plugin_quarantines"] > 0


def test_healthy_path_charges_no_containment_cycles():
    """Fault containment must be invisible to the cost model: a healthy
    walk charges the same modelled cycles whether or not fault domains
    have ever been consulted."""
    plain, exercised = build_router("plain"), build_router("exercised")
    exercised.faults.set_policy("anything", FaultPolicy(threshold=5))

    def run(router):
        meter = CycleMeter()
        router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0"), cycles=meter)
        return meter.total

    assert run(plain) == run(exercised)
