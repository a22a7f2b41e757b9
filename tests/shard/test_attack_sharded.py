"""Adversarial soak through the sharded front end: a SYN flood against
a 4-shard inline ShardedRouter with per-shard governors and bounded
per-shard flow tables.

The sharded router's aggregate views (``aiu.flow_table``, ``_overload``,
``counters``) let :func:`repro.workloads.adversarial.run_scenario` drive
it unmodified.  Invariants pinned (the same ones the single-router soak
in tests/sim/test_attack_soak.py pins, restated cross-shard):

* total occupancy never exceeds the summed per-shard capacity;
* established flows keep >= 90% of their delivery through the storm
  (RSS spreads both attack and background flows, so no shard melts);
* every shard's governor walks back to NORMAL in the recovery window,
  so the aggregate worst-tier does too;
* the ungoverned control arm still gets wrecked — sharding alone is not
  overload protection.
"""

import pytest

from repro import Router, ShardedRouter
from repro.core import TIER_NORMAL
from repro.workloads import run_scenario, scenario

SEED = 7
NSHARDS = 4
#: 48 records x 4 shards vs 64 established flows: the same 3x headroom
#: the single-router soak gives 32 flows in a 96-record table.
FLOWS_PER_SHARD = 48

GOV = dict(sample_interval=16, escalate_after=2, shed_after=2, recover_after=2)


def _shard_factory(governed=True):
    def factory(index: int) -> Router:
        router = Router(max_flows=FLOWS_PER_SHARD, name=f"soak/{index}")
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("eth0", prefix="20.0.0.0/8")
        router.routing_table.add("0.0.0.0/0", "eth0")
        if governed:
            router.attach_overload_governor(**GOV)
        return router
    return factory


@pytest.mark.shard
@pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batched"])
def test_syn_flood_through_sharded_front_end(batch_size):
    # 64 background flows so RSS lands established traffic on every
    # shard (32 flows happen to hash onto only three of four shards
    # with this seed — see test_idle_shard_keeps_last_tier).
    sc = scenario("syn_flood", seed=SEED, background_flows=64)
    sharded = ShardedRouter(nshards=NSHARDS, factory=_shard_factory(),
                            backend="inline")
    report = run_scenario(sharded, sc, batch_size=batch_size)
    assert report["max_active"] <= NSHARDS * FLOWS_PER_SHARD
    attack = report["phases"]["attack"]
    assert attack["background_hit_ratio"] >= 0.9
    assert attack["shed"] > 0  # the governors actually fought back
    assert report["tier_after_recovery"] == TIER_NORMAL
    assert sharded._overload.tier == TIER_NORMAL  # worst shard recovered
    for shard in sharded.shards:
        assert shard._overload.tier == TIER_NORMAL
        assert shard.aiu.flow_table.active <= FLOWS_PER_SHARD
    # The storm reached every shard (random five-tuples spread by RSS).
    assert all(s.counters["rx"] > 0 for s in sharded.shards)


@pytest.mark.shard
def test_idle_shard_keeps_last_tier():
    """Aggregate-tier semantics: a shard that stops receiving traffic
    after the attack cannot sample its way back to NORMAL, and the
    aggregate worst-tier view truthfully reports it.  With seed 7 all
    32 default background flows hash onto shards 0-2, so shard 3 sees
    only attack SYNs and then silence."""
    sc = scenario("syn_flood", seed=SEED)  # default 32 background flows
    sharded = ShardedRouter(nshards=NSHARDS, factory=_shard_factory(),
                            backend="inline")
    run_scenario(sharded, sc)
    tiers = [s._overload.tier for s in sharded.shards]
    assert tiers[:3] == [TIER_NORMAL] * 3
    assert tiers[3] != TIER_NORMAL  # no recovery traffic ever reached it
    assert sharded._overload.tier == tiers[3]  # worst tier wins


@pytest.mark.shard
def test_sharding_alone_is_not_overload_protection():
    """Control arm: 4 ungoverned shards still lose the established
    flows' fast path — the soak measures the governors, not the RSS."""
    sc = scenario("syn_flood", seed=SEED, background_flows=64)
    sharded = ShardedRouter(nshards=NSHARDS,
                            factory=_shard_factory(governed=False),
                            backend="inline")
    report = run_scenario(sharded, sc)
    assert sc.check(report) != []
    assert report["phases"]["attack"]["background_hit_ratio"] < 0.9


@pytest.mark.shard
def test_filter_churn_control_ops_fan_out():
    """The filter_churn scenario's mid-attack control ops (filter and
    route add/remove) hit the aggregate router surface; under RSS they
    must target every shard for the workload to stay meaningful."""
    single = _shard_factory()(0)
    expected = run_scenario(single, scenario("filter_churn", seed=SEED))
    sharded = ShardedRouter(nshards=1, factory=_shard_factory(),
                            backend="inline")
    # Fresh scenario: the churn closures keep per-run filter handles.
    got = run_scenario(sharded, scenario("filter_churn", seed=SEED))
    assert got["phases"].keys() == expected["phases"].keys()
    assert got["max_active"] <= FLOWS_PER_SHARD
