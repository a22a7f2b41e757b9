"""Attack soaks (docs/ROBUSTNESS.md "Overload protection"): seeded
adversarial workloads from ``repro.workloads.adversarial`` driven through
a governed router.

Acceptance criteria pinned here:

* flow-table occupancy never exceeds capacity, attack or no attack;
* established flows retain >= 90% of their delivery and cached fast
  path through a SYN flood / cache-thrash storm;
* the governor walks back to NORMAL within the recovery window;
* the same storms demonstrably wreck an ungoverned router (the attack
  is real — the checks are not vacuous);
* a legitimate flash crowd is *served*, not shed;
* a governor on healthy traffic is bit-identical to no governor at all.

Run alone with ``-m attack``; part of tier-1.
"""

import random

import pytest

from repro.core import Router, TIER_NORMAL
from repro.net.packet import make_udp
from repro.sim.cost import CycleMeter
from repro.workloads import scenario, run_scenario, scenario_names

SEED = 7
MAX_FLOWS = 96

#: Soak-speed governor: tight sampling so detection latency is small
#: relative to the scenarios' few-thousand-packet phases.
GOV = dict(sample_interval=64, escalate_after=2, shed_after=2, recover_after=2)


def _build(governed=True, max_flows=MAX_FLOWS, **config):
    router = Router(max_flows=max_flows)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("eth0", prefix="20.0.0.0/8")
    router.routing_table.add("0.0.0.0/0", "eth0")
    if governed:
        router.attach_overload_governor(**{**GOV, **config})
    return router


@pytest.mark.attack
@pytest.mark.parametrize("batch_size", [0, 64], ids=["scalar", "batched"])
@pytest.mark.parametrize("name", ["syn_flood", "cache_thrash"])
def test_floods_are_survived(name, batch_size):
    """The headline soak: bounded memory, >= 90% established-flow
    retention, full recovery — scalar and batched entry points."""
    sc = scenario(name, seed=SEED)
    router = _build()
    report = run_scenario(router, sc, batch_size=batch_size)
    assert sc.check(report) == []
    assert report["max_active"] <= MAX_FLOWS
    attack = report["phases"]["attack"]
    assert attack["background_hit_ratio"] >= 0.9
    assert attack["shed"] > 0  # the governor actually fought back
    assert report["tier_after_recovery"] == TIER_NORMAL
    gov = router._overload
    assert gov.tier == TIER_NORMAL
    assert gov.escalations >= 1 and gov.deescalations >= 1


@pytest.mark.attack
@pytest.mark.parametrize("name", ["syn_flood", "cache_thrash"])
def test_floods_wreck_an_ungoverned_router(name):
    """The control arm: without the governor the same storm destroys
    established flows' fast path — proving the soak measures something."""
    sc = scenario(name, seed=SEED)
    report = run_scenario(_build(governed=False), sc)
    violations = sc.check(report)
    assert violations, "storm had no effect; soak parameters are too soft"
    assert report["phases"]["attack"]["background_hit_ratio"] < 0.9


@pytest.mark.attack
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_scenario_holds_under_governor(name):
    """Registry-wide invariance sweep, one seed per scenario."""
    sc = scenario(name, seed=SEED)
    report = run_scenario(_build(), sc)
    assert sc.check(report) == []


@pytest.mark.attack
def test_flash_crowd_is_served_not_shed():
    """Legitimate overload: crowd flows repeat, so persistence admits
    them — the governor may apply pressure but must not drop."""
    sc = scenario("flash_crowd", seed=SEED)
    router = _build()
    report = run_scenario(router, sc)
    assert sc.check(report) == []
    assert report["phases"]["attack"]["shed"] == 0
    crowd = report["phases"]["attack"]
    assert crowd["attack_forwarded"] == crowd["attack_sent"]


@pytest.mark.attack
def test_scenarios_are_deterministic_and_replayable():
    """Same seed, same storm; a scenario can be replayed against any
    number of routers (packets are cloned per run)."""
    sc = scenario("syn_flood", seed=SEED)
    first = run_scenario(_build(), sc)
    second = run_scenario(_build(), sc)
    assert first == second
    assert scenario("syn_flood", seed=SEED + 1).attack != sc.attack


@pytest.mark.attack
def test_memory_budget_bounds_unbounded_table():
    """An unbounded flow table under a governor memory budget: degraded
    admission stops growth and idle reclaim walks it back down."""
    budget = 128
    sc = scenario("cache_thrash", seed=SEED)
    governed = _build(max_flows=None, memory_budget=budget, idle_reclaim=0.01)
    report = run_scenario(governed, sc)
    unbounded = run_scenario(_build(governed=False, max_flows=None), sc)
    # Detection latency admits a brief overshoot, after which the budget
    # holds; an ungoverned unbounded table just swallows the storm.
    assert report["max_active"] <= budget + 4 * GOV["sample_interval"]
    assert report["max_active"] < unbounded["max_active"]
    assert governed.aiu.flow_table.active <= budget
    assert report["tier_after_recovery"] == TIER_NORMAL


def _healthy_workload():
    """2000 packets over 30 stable flows — the cache-friendly traffic
    the governor must be invisible on."""
    rng = random.Random(3)
    for i in range(2000):
        flow = rng.randrange(30)
        yield make_udp(
            f"10.0.0.{flow + 1}", f"20.0.0.{flow % 10 + 1}",
            5000 + flow, 9000, iif="atm0",
        ), i * 0.001


@pytest.mark.attack
@pytest.mark.parametrize("metered", [False, True], ids=["fast", "metered"])
def test_governor_is_invisible_on_healthy_traffic(metered):
    """Bit-identical dispositions, counters, flow-table accounting and
    modelled cycles with the governor attached vs absent — on both the
    unmetered fast path and the metered specification path."""
    plain, governed = _build(governed=False), _build()
    runs = {}
    for label, router in (("plain", plain), ("governed", governed)):
        dispositions, cycles = [], []
        for packet, now in _healthy_workload():
            if metered:
                meter = CycleMeter()
                dispositions.append(router.receive(packet, now=now, cycles=meter))
                cycles.append(meter.total)
            else:
                dispositions.append(router.receive(packet, now=now))
        runs[label] = (dispositions, cycles, dict(router.counters),
                       router.aiu.flow_table.stats())
    assert runs["plain"] == runs["governed"]
    gov = governed._overload
    assert gov.tier == TIER_NORMAL and gov.samples > 0
    assert gov.shed_total == 0 and gov.bypassed == 0


@pytest.mark.attack
def test_governor_is_invisible_on_healthy_batches():
    """Same invariance through receive_batch (compiled loops stay in
    play at NORMAL: loop_for only bails out when degraded)."""
    from repro.core.batch import loop_for

    plain, governed = _build(governed=False), _build()
    runs = {}
    for label, router in (("plain", plain), ("governed", governed)):
        assert loop_for(router) is not None
        dispositions = []
        pending = []
        for packet, now in _healthy_workload():
            pending.append((packet, now))
            if len(pending) == 50:
                dispositions.extend(
                    router.receive_batch([p for p, _ in pending],
                                         now=pending[0][1])
                )
                pending = []
        runs[label] = (dispositions, dict(router.counters),
                       router.aiu.flow_table.stats())
    assert runs["plain"] == runs["governed"]
    assert governed._overload.tier == TIER_NORMAL


@pytest.mark.attack
def test_health_surfaces_overload_state():
    """Router.health() reports flow-table occupancy and governor tier."""
    router = _build()
    sc = scenario("syn_flood", seed=SEED)
    for t, packet, _ in sc.warmup[:200]:
        router.receive(packet, now=t)
    health = router.health()
    ft = health["flow_table"]
    assert ft["active"] > 0 and ft["max_records"] == MAX_FLOWS
    assert 0.0 < ft["occupancy"] <= 1.0
    assert health["overload"]["enabled"] is True
    assert health["overload"]["tier"] == TIER_NORMAL
    bare = _build(governed=False).health()
    assert bare["overload"] == {"enabled": False, "tier": TIER_NORMAL}
