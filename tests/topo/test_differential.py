"""Differential proof: a topology adds *composition*, never semantics.

Equality claims pinned here (docs/TOPOLOGY.md):

* a single unlinked node driven through ``Topology.receive`` is
  packet-for-packet the bare router — dispositions, counters, flow
  stats — over an existing adversarial workload (modelled cycles and
  the rest are the oracle's ``topology`` front, tests/oracle/);
* a packet through an N-hop chain produces, at every hop, exactly the
  dispositions/counters/cycles of that hop's router run standalone on
  the same deliveries (scalar and batched entry, and with the middle
  hop sharded);
* ECMP member selection is the deterministic five-tuple fold — never
  builtin ``hash()`` — so a flow repins to the same member forever;
* a forwarding loop is cut at ``max_hops`` with the topology-level
  ``dropped_loop`` disposition.

Run alone with ``-m topo``; part of tier-1.
"""

import random

import pytest

from repro import Router, Topology
from repro.net.packet import make_udp
from repro.topo import DROPPED_LOOP
from repro.workloads import run_scenario, scenario
from tests.oracle.harness import World

pytestmark = pytest.mark.topo

SEED = 7


def _stream(count, seed=SEED, dst_net="20.7.0"):
    rng = random.Random(seed)
    return [
        make_udp(
            f"10.7.{rng.randrange(4)}.{rng.randrange(1, 40)}",
            f"{dst_net}.{rng.randrange(1, 40)}",
            rng.randrange(1024, 65536),
            9000,
            iif="lan0",
        )
        for _ in range(count)
    ]


def _clone(packet):
    import copy

    fresh = copy.copy(packet)
    fresh.annotations = dict(packet.annotations)
    fresh.fix = None
    return fresh


def _chain(shards_mid=0):
    """3-hop chain r1 -> r2 -> r3; returns the topology."""
    topo = Topology("chain", max_hops=8)
    topo.add_node("r1")
    topo.add_node("r2", shards=shards_mid)
    topo.add_node("r3")
    topo.add_interface("r1", "lan0", prefix="10.7.0.0/16")
    topo.add_interface("r1", "up0")
    topo.add_interface("r2", "dn0")
    topo.add_interface("r2", "up0")
    topo.add_interface("r3", "dn0")
    topo.add_interface("r3", "lan0", prefix="20.7.0.0/16")
    topo.link("r1", "up0", "r2", "dn0")
    topo.link("r2", "up0", "r3", "dn0")
    for name in ("r1", "r2"):
        topo.add_route(name, "20.7.0.0/16", "up0")
    topo.add_route("r3", "20.7.0.0/16", "lan0")
    return topo


class _CaptureTap:
    """Duck-typed Link: collects (packet, departure) instead of carrying.

    The same protocol the topology's edge taps speak, so a standalone
    router's egress can be harvested without sinking the packet."""

    def __init__(self):
        self.sent = []

    def carry(self, sender, packet, departure):
        self.sent.append((packet, departure))

    def take(self):
        out, self.sent = self.sent, []
        return out


def _standalone_hop(prefix_iface, capture=()):
    """One chain hop as a standalone router, same config as in _chain."""
    router = Router(name="solo")
    for iface, prefix in prefix_iface:
        router.add_interface(iface, prefix=prefix)
    taps = {}
    for iface in capture:
        taps[iface] = router.interface(iface).link = _CaptureTap()
    return router, taps


def _bare_and_solo():
    bare = Router(name="bare")
    bare.add_interface("atm0", prefix="0.0.0.0/0")
    topo = Topology("solo")
    node = topo.add_node("only")
    topo.add_interface("only", "atm0", prefix="0.0.0.0/0")
    return bare, topo, node


class TestSingleNodeEquivalence:
    def _scenario_bit_equal(self, name, batch):
        sc = scenario(name, seed=SEED, warmup_packets=200, attack_packets=600,
                      recovery_packets=200)
        bare, topo, node = _bare_and_solo()
        report_bare = run_scenario(bare, sc, batch_size=batch)
        report_topo = run_scenario(topo, sc, batch_size=batch)
        assert report_topo["phases"] == report_bare["phases"]
        assert report_topo["max_active"] == report_bare["max_active"]
        assert dict(node.counters) == dict(bare.counters)
        assert node.aiu.flow_table.stats() == bare.aiu.flow_table.stats()

    def test_attack_scenario_bit_equal(self):
        """The acceptance bar: one unlinked node behaves exactly like
        the bare router on an existing adversarial workload."""
        self._scenario_bit_equal("syn_flood", 0)

    def test_batched_entry_bit_equal(self):
        self._scenario_bit_equal("cache_thrash", 32)

    def test_entry_meter_matches_bare_router(self):
        """A meter passed to Topology.receive charges exactly what the
        bare router charges for the entry hop (the oracle's ``topology``
        front is metered and held to the spec's cycles)."""
        world = World(fronts=("topology",))
        world.run(lambda: _stream(50, dst_net="20.0.7"))
        assert not world.parked and world.spec.meter.total > 0


class TestChainDifferential:
    @pytest.mark.parametrize("batch", [0, 32])
    def test_chain_equals_standalone_hops(self, batch):
        """Every hop of the chain accounts exactly like the same router
        run standalone on the deliveries the previous hop produced."""
        packets = _stream(300)
        topo = _chain()

        # Standalone replicas, wired by hand: each hop's egress carries
        # into a capture tap instead of a downstream node.
        solo1, taps1 = _standalone_hop(
            [("lan0", "10.7.0.0/16"), ("up0", None)], capture=("up0",))
        solo2, taps2 = _standalone_hop(
            [("dn0", None), ("up0", None)], capture=("up0",))
        solo3, _ = _standalone_hop([("dn0", None), ("lan0", "20.7.0.0/16")])
        solo1.routing_table.add("20.7.0.0/16", "up0")
        solo2.routing_table.add("20.7.0.0/16", "up0")
        solo3.routing_table.add("20.7.0.0/16", "lan0")

        if batch:
            clones = [_clone(p) for p in packets]
            topo_dispositions = []
            for i in range(0, len(clones), batch):
                topo_dispositions.extend(topo.receive_batch(clones[i:i + batch]))
        else:
            topo_dispositions = [topo.receive(_clone(p)) for p in packets]

        solo_dispositions = []
        for packet in packets:
            d1 = solo1.receive(_clone(packet))
            emitted1 = taps1["up0"].take()
            assert d1 == "forwarded" and len(emitted1) == 1
            hop2_in, departed1 = emitted1[0]
            solo2.interface("dn0").deliver(hop2_in, departed1)
            (arrived2,) = solo2.interface("dn0").poll()
            d2 = solo2.receive(arrived2, now=arrived2.arrival_time)
            emitted2 = taps2["up0"].take()
            assert d2 == "forwarded" and len(emitted2) == 1
            hop3_in, departed2 = emitted2[0]
            solo3.interface("dn0").deliver(hop3_in, departed2)
            (arrived3,) = solo3.interface("dn0").poll()
            solo_dispositions.append(
                solo3.receive(arrived3, now=arrived3.arrival_time))

        assert topo_dispositions == solo_dispositions
        for name, solo in (("r1", solo1), ("r2", solo2), ("r3", solo3)):
            node = topo.node(name)
            assert dict(node.counters) == dict(solo.counters), name
            for attr in ("active", "hits", "misses", "births", "evictions"):
                assert getattr(node.aiu.flow_table, attr) == getattr(
                    solo.aiu.flow_table, attr
                ), (name, attr)

    def test_chain_with_sharded_middle_hop(self):
        """The middle hop sharded 3-ways forwards identically — same
        end-to-end dispositions and the same summed accounting."""
        packets = _stream(300)
        plain = _chain(shards_mid=0)
        sharded = _chain(shards_mid=3)
        d_plain = [plain.receive(_clone(p)) for p in packets]
        d_sharded = [sharded.receive(_clone(p)) for p in packets]
        assert d_plain == d_sharded
        assert dict(plain.node("r2").counters) == dict(
            sharded.node("r2").counters
        )
        assert (
            plain.aiu.flow_table.active == sharded.aiu.flow_table.active
        )
        assert dict(plain.counters) == dict(sharded.counters)


class TestEcmpAndLoops:
    def _diamond(self):
        topo = Topology("diamond", max_hops=8)
        for name in ("in", "left", "right", "out"):
            topo.add_node(name)
        topo.add_interface("in", "lan0", prefix="10.8.0.0/16")
        topo.add_interface("in", "up1")
        topo.add_interface("in", "up2")
        for name in ("left", "right"):
            topo.add_interface(name, "dn0")
            topo.add_interface(name, "out0")
            topo.add_route(name, "20.8.0.0/16", "out0")
        topo.add_interface("out", "in1")
        topo.add_interface("out", "in2")
        topo.add_interface("out", "lan0", prefix="20.8.0.0/16")
        topo.link("in", "up1", "left", "dn0")
        topo.link("in", "up2", "right", "dn0")
        topo.link("left", "out0", "out", "in1")
        topo.link("right", "out0", "out", "in2")
        topo.ecmp("in", "20.8.0.0/16", ["up1", "up2"])
        topo.add_route("out", "20.8.0.0/16", "lan0")
        return topo

    def test_ecmp_deterministic_and_spreads(self):
        topo = self._diamond()
        packets = _stream(200, dst_net="20.8.0")
        for packet in packets:
            assert topo.receive(_clone(packet)) == "forwarded"
        left_rx = topo.node("left").counters["rx"]
        right_rx = topo.node("right").counters["rx"]
        assert left_rx + right_rx == len(packets)
        assert left_rx > 0 and right_rx > 0  # the fold spreads flows

        # Determinism: replaying the identical stream doubles each
        # member's count exactly — a flow never migrates.
        for packet in packets:
            topo.receive(_clone(packet))
        assert topo.node("left").counters["rx"] == 2 * left_rx
        assert topo.node("right").counters["rx"] == 2 * right_rx

    def test_ecmp_route_never_uses_builtin_hash(self):
        """Same stream, two processes' worth of hash randomization can't
        be simulated here — instead pin the fold itself: the member index
        is flow_fold32 % members, bit-stable by construction."""
        topo = self._diamond()
        packet = make_udp("10.8.0.1", "20.8.0.1", 5000, 9000, iif="lan0")
        expected = ["left", "right"][packet.flow_fold32() % 2]
        topo.receive(_clone(packet))
        assert topo.node(expected).counters["rx"] == 1

    def test_node_down_refolds_onto_the_other_member_and_back(self):
        from repro import PluginManager

        topo = self._diamond()
        packets = _stream(64, dst_net="20.8.0")

        def burst():
            before = {n: topo.node(n).counters["rx"] for n in ("left", "right")}
            for packet in packets:
                assert topo.receive(_clone(packet)) == "forwarded"
            return {n: topo.node(n).counters["rx"] - before[n] for n in before}

        spread = burst()
        assert spread["left"] > 0 and spread["right"] > 0
        topo.set_node_down("left")
        assert burst() == {"left": 0, "right": 64}
        assert topo.health()["down"] == ["left"]
        lines = []
        PluginManager(topo, output=lines.append).run_command("show topology")
        (left,) = [line for line in lines if line.startswith("  node left ")]
        assert left.endswith(" DOWN")
        # Nowhere healthy to go: the fold spreads over all members again.
        topo.set_node_down("right")
        assert burst() == spread
        topo.set_node_down("left", down=False)
        topo.set_node_down("right", down=False)
        assert topo.health()["down"] == []
        assert burst() == spread

    def test_forwarding_loop_dropped(self):
        topo = Topology("loop", max_hops=4)
        topo.add_node("a")
        topo.add_node("b")
        topo.add_interface("a", "lan0", prefix="10.9.0.0/16")
        topo.add_interface("a", "x0")
        topo.add_interface("b", "x0")
        topo.link("a", "x0", "b", "x0")
        # Both sides route the destination at each other: a loop.
        topo.add_route("a", "20.9.0.0/16", "x0")
        topo.add_route("b", "20.9.0.0/16", "x0")
        packet = make_udp("10.9.0.1", "20.9.0.1", 5000, 9000,
                          iif="lan0", ttl=64)
        disposition = topo.receive(packet)
        assert disposition == DROPPED_LOOP
        assert topo.counters[DROPPED_LOOP] == 1
        assert topo.describe()["counters"][DROPPED_LOOP] == 1

    def test_ttl_cuts_before_max_hops_when_tighter(self):
        topo = Topology("loop", max_hops=64)
        topo.add_node("a")
        topo.add_node("b")
        topo.add_interface("a", "lan0", prefix="10.9.0.0/16")
        topo.add_interface("a", "x0")
        topo.add_interface("b", "x0")
        topo.link("a", "x0", "b", "x0")
        topo.add_route("a", "20.9.0.0/16", "x0")
        topo.add_route("b", "20.9.0.0/16", "x0")
        packet = make_udp("10.9.0.1", "20.9.0.1", 5000, 9000,
                          iif="lan0", ttl=5)
        assert topo.receive(packet) == "dropped_ttl"
        assert topo.counters[DROPPED_LOOP] == 0
