"""The chaos soak (docs/ROBUSTNESS.md): a seeded fault storm through two
identically configured routers — one on the metered specification path,
one on the generated un-metered loops.

Acceptance criteria pinned here:

* the router never raises, whatever the plugins do;
* every injected fault reconciles to exactly one FaultRecord;
* quarantined plugins degrade per their policy (drop / bypass / unload);
* un-metered and metered dispositions agree packet-for-packet, and
  so do counters, fault totals, FaultRecord signatures and health (the
  oracle's world, tests/oracle/harness.py, compares them).

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
    STATE_UNLOADED,
)
from repro.net.packet import make_udp
from repro.sim import ChaosPlugin
from repro.stats import StatisticsPlugin
from tests.oracle.harness import World, build_router

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


def _configure(router):
    """Three chaos plugins, three policies; instances by plugin name."""
    for plugin_name, gate, action, config in STORM:
        inner = StatisticsPlugin() if gate == GATE_IP_OPTIONS else None
        plugin = ChaosPlugin(inner=inner, name=plugin_name)
        router.pcu.load(plugin)
        instance = plugin.create_instance(**config)
        plugin.register_instance(instance, "*, *, UDP", gate=gate)
        router.faults.set_policy(plugin_name, FaultPolicy(
            threshold=3, window=0.1, action=action, cooldown=0.05, ring_size=PACKETS))


def _packet(i):
    """Deterministic flow mix: 40 flows revisited plus periodic fresh
    flows."""
    if i % 97 == 0:
        return make_udp("10.0.3.1", "20.0.3.1", 10_000 + i % 5000, 9000, iif="atm0")
    return make_udp(f"10.0.0.{i % 8 + 1}", f"20.0.0.{i % 5 + 1}", 5000 + i % 40, 9000,
                    iif="atm0")


def _storm(fronts, batch=1, max_flows=None):
    """The storm through ``fronts`` and the spec, one simulated
    millisecond per packet (a batch shares its first packet's clock)."""
    world = World(lambda name: build_router(name, _configure, flow_buckets=512,
                                            max_flows=max_flows), fronts=fronts)
    instances = {name: [p.instances[0] for p in r.pcu.plugins()]
                 for name, r in ((n, world.router(n)) for n in world.fronts)}
    for start in range(0, PACKETS, batch):
        world.send(lambda start=start: [_packet(i) for i in range(start, start + batch)],
                   advance=batch * 0.001)
    world.check()
    assert not world.parked
    return world, instances


@pytest.mark.chaos
def test_chaos_soak():
    world, instances = _storm(("receive",))
    for name, router in ((n, world.router(n)) for n in ("spec", "receive")):
        injected = sum(i.injected_faults for i in instances[name])
        # -- every injected fault reconciles to exactly one record ------
        assert 0 < injected == router.counters["plugin_faults"]
        assert injected == router.faults.total_faults() == len(router.faults.records())
        for instance in instances[name]:
            assert instance.injected_faults == router.faults.domain(instance.plugin.name).total
        # -- the storm was a storm: trips, probes, re-trips -------------
        assert router.counters["plugin_quarantines"] >= 3
        assert router.counters["plugin_reinstatements"] >= 1
        health = router.faults.health()
        assert all(health[plugin]["quarantine_count"] >= 1 for plugin, *_ in STORM)
        # -- degradation per policy -------------------------------------
        assert router.faults.domain("chaos-a").dropped > 0
        assert router.faults.domain("chaos-b").bypassed > 0
        assert router.faults.domain("chaos-c").state == STATE_UNLOADED
        assert not router.pcu.is_loaded("chaos-c")
        assert router.aiu._gate_filter_counts[GATE_PACKET_SCHEDULING] == 0
        # The unloaded instance is never called again after unload.
        chaos_c = next(i for i in instances[name] if i.plugin.name == "chaos-c")
        calls = chaos_c.packets_processed
        router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="atm0"), now=999.0)
        assert chaos_c.packets_processed == calls


@pytest.mark.chaos
def test_chaos_soak_batched():
    """The same storm through ``receive_batch``: mid-batch faults must
    be charged, quarantine, and resume without diverging from the
    metered walk.  A bounded flow table keeps the batches on the packet
    layout; the unbounded run sweeps them through lanes, where each
    batch's first sweep fault leaves through ``_resume`` — several
    faults per batch on average, and the fault ring still agrees entry
    for entry."""
    for max_flows in (512, None):
        world, instances = _storm(("batch64",), batch=64, max_flows=max_flows)
        batched = world.router("batch64")
        assert ("lanes" in batched._loops) == (max_flows is None)
        assert sum(i.injected_faults for i in instances["batch64"]) > 0
        assert batched.counters["plugin_quarantines"] >= 3


@pytest.mark.chaos
def test_chaos_soak_is_deterministic():
    """Same seeds, same storm: a re-run reproduces dispositions and
    fault signatures exactly."""
    first, second = build_router("first", _configure), build_router("second", _configure)
    d1 = [first.receive(_packet(i), now=i * 0.001) for i in range(PACKETS)]
    d2 = [second.receive(_packet(i), now=i * 0.001) for i in range(PACKETS)]
    assert d1 == d2
    assert [r.signature() for r in first.faults.records()] == [
        r.signature() for r in second.faults.records()]
