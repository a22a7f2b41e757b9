"""The chaos soak (docs/ROBUSTNESS.md): a seeded fault storm through two
identically configured routers — one on the metered specification path,
one on the generated un-metered loops.

Acceptance criteria pinned here:

* the router never raises, whatever the plugins do;
* every injected fault reconciles to exactly one FaultRecord;
* quarantined plugins degrade per their policy (drop / bypass / unload);
* un-metered and metered dispositions agree packet-for-packet, and
  so do counters, fault totals, and FaultRecord signatures.

Run standalone via ``scripts/chaos_check.sh`` (``-m chaos``).
"""

import pytest

from repro.core import (
    DEGRADE_BYPASS,
    DEGRADE_DROP,
    DEGRADE_UNLOAD,
    FaultPolicy,
    GATE_IP_OPTIONS,
    GATE_IP_SECURITY,
    GATE_PACKET_SCHEDULING,
    Router,
    STATE_UNLOADED,
)
from repro.net.packet import make_udp
from repro.sim import ChaosPlugin
from repro.sim.cost import CycleMeter
from repro.stats import StatisticsPlugin

PACKETS = 10_000
FAULT_RATE = 0.05

#: (name, gate, action, chaos config) — three plugins, three policies.
STORM = [
    ("chaos-a", GATE_IP_OPTIONS, DEGRADE_DROP,
     dict(fault_rate=FAULT_RATE, seed=11)),
    ("chaos-b", GATE_IP_SECURITY, DEGRADE_BYPASS,
     dict(fault_rate=FAULT_RATE, corrupt_rate=0.02, seed=22)),
    ("chaos-c", GATE_PACKET_SCHEDULING, DEGRADE_UNLOAD,
     dict(fault_rate=FAULT_RATE, delay_rate=0.01, seed=33)),
]


def _build(name, max_flows=None):
    """One router + three chaos plugins; returns (router, instances)."""
    router = Router(name=name, flow_buckets=512, max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    instances = {}
    for plugin_name, gate, action, config in STORM:
        inner = StatisticsPlugin() if gate == GATE_IP_OPTIONS else None
        plugin = ChaosPlugin(inner=inner, name=plugin_name)
        router.pcu.load(plugin)
        instance = plugin.create_instance(**config)
        plugin.register_instance(instance, "*, *, UDP", gate=gate)
        router.faults.set_policy(
            plugin_name,
            FaultPolicy(
                threshold=3, window=0.1, action=action,
                cooldown=0.05, ring_size=PACKETS,
            ),
        )
        instances[plugin_name] = instance
    return router, instances


def _workload():
    """Deterministic flow mix: 40 flows revisited plus periodic fresh
    flows, one packet per simulated millisecond."""
    for i in range(PACKETS):
        if i % 97 == 0:
            pkt = make_udp(
                "10.0.3.1", "20.0.3.1", 10_000 + i % 5000, 9000, iif="atm0"
            )
        else:
            pkt = make_udp(
                f"10.0.0.{i % 8 + 1}", f"20.0.0.{i % 5 + 1}",
                5000 + i % 40, 9000, iif="atm0",
            )
        yield pkt, i * 0.001


def _observed(router):
    return {
        "counters": dict(router.counters),
        "fault_totals": {
            name: dom.total for name, dom in router.faults.domains().items()
        },
        "signatures": [r.signature() for r in router.faults.records()],
        "health": router.faults.health(),
    }


@pytest.mark.chaos
def test_chaos_soak():
    metered, spec_instances = _build("spec")
    fast, fast_instances = _build("fast")

    spec_disp = [
        metered.receive(p, now=now, cycles=CycleMeter())
        for p, now in _workload()
    ]
    fast_disp = [fast.receive(p, now=now) for p, now in _workload()]

    # -- never raises, packet-for-packet agreement ---------------------
    assert len(spec_disp) == len(fast_disp) == PACKETS
    assert fast_disp == spec_disp
    assert _observed(fast) == _observed(metered)

    for router, instances in ((metered, spec_instances), (fast, fast_instances)):
        # -- every injected fault reconciles to exactly one record -----
        injected = sum(i.injected_faults for i in instances.values())
        assert injected > 0
        assert injected == router.counters["plugin_faults"]
        assert injected == router.faults.total_faults()
        assert injected == len(router.faults.records())  # ring kept all
        for name, instance in instances.items():
            assert instance.injected_faults == router.faults.domain(name).total

        # -- the storm was a storm: trips, probes, re-trips ------------
        assert router.counters["plugin_quarantines"] >= 3
        assert router.counters["plugin_reinstatements"] >= 1
        health = router.faults.health()
        for name, _, _, _ in (s[:4] for s in STORM):
            assert health[name]["quarantine_count"] >= 1

        # -- degradation per policy ------------------------------------
        assert router.faults.domain("chaos-a").dropped > 0
        assert router.faults.domain("chaos-b").bypassed > 0
        dom_c = router.faults.domain("chaos-c")
        assert dom_c.state == STATE_UNLOADED
        assert not router.pcu.is_loaded("chaos-c")
        assert router.aiu._gate_filter_counts[GATE_PACKET_SCHEDULING] == 0
        # The unloaded instance was never called again after unload.
        c_calls = instances["chaos-c"].packets_processed
        router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0"),
                       now=999.0)
        assert instances["chaos-c"].packets_processed == c_calls


@pytest.mark.chaos
def test_chaos_soak_batched():
    for max_flows in (512, None):
        _soak_batched(max_flows)


def _soak_batched(max_flows):
    """The same storm through ``receive_batch``: mid-batch faults must
    be charged, quarantine, and resume without diverging from the
    metered walk.  Fault windows and cooldowns are time-based, so the
    metered reference quantizes every packet's clock to its batch's
    start time — after that the comparison is packet-identical.

    A bounded flow table keeps the batches on the packet layout; the
    unbounded run sweeps them through lanes, where each batch's first
    sweep fault leaves through ``_resume`` — several faults per batch on
    average, and the fault ring still agrees entry for entry."""
    batch_size = 64
    spec, _ = _build("spec-ref", max_flows=max_flows)
    batched, batch_instances = _build("batched", max_flows=max_flows)

    workload = list(_workload())
    spec_disp = []
    batched_disp = []
    for start in range(0, PACKETS, batch_size):
        chunk = workload[start:start + batch_size]
        t0 = chunk[0][1]
        spec_disp.extend(
            spec.receive(p, now=t0, cycles=CycleMeter()) for p, _t in chunk
        )
    fresh = list(_workload())  # routers mutate packets; never share them
    for start in range(0, PACKETS, batch_size):
        chunk = fresh[start:start + batch_size]
        batched_disp.extend(
            batched.receive_batch([p for p, _t in chunk], now=chunk[0][1])
        )

    assert len(batched_disp) == PACKETS
    assert batched_disp == spec_disp
    assert _observed(batched) == _observed(spec)
    # The storm really crossed the generated loops, and faults were
    # injected mid-batch (then handled, not raised).
    assert ("lanes" in batched._loops) == (max_flows is None)
    assert sum(i.injected_faults for i in batch_instances.values()) > 0
    assert batched.counters["plugin_quarantines"] >= 3


@pytest.mark.chaos
def test_chaos_soak_is_deterministic():
    """Same seeds, same storm: a re-run reproduces dispositions and
    fault signatures exactly."""
    first, _ = _build("first")
    second, _ = _build("second")
    d1 = [first.receive(p, now=now) for p, now in _workload()]
    d2 = [second.receive(p, now=now) for p, now in _workload()]
    assert d1 == d2
    assert [r.signature() for r in first.faults.records()] == [
        r.signature() for r in second.faults.records()
    ]
