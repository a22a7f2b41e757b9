"""Differential proof: an N-shard inline ShardedRouter is observationally
equal to one Router over any workload (docs/PERFORMANCE.md, "Sharded
data path").

The oracle's world (tests/oracle/harness.py) holds the N-shard front to
the metered single router on dispositions in input order, summed
counters, emitted bytes and aggregate flow-table accounting; the cases
here drive it with a pmgr configuration and pin, besides, per-flow
ordering (dispatch buckets preserve arrival order, a flow never splits
across shards), the wire descriptors, merged telemetry histograms, and
quarantine propagating to every shard and aggregating back.

Run alone with ``-m shard``; part of tier-1.
"""

import json
import random

import pytest

from repro import PluginManager, Router, ShardedRouter
from repro.aiu.filters import flow_key_of
from repro.mgr.format import render_topic
from repro.net.packet import make_tcp, make_udp
from repro.shard import decode_packet, dispatch_packets, encode_packet
from tests.oracle.harness import World

SEED = 11
NSHARDS = 4

CONFIG = """
modload firewall
create firewall fw0 action=deny
bind fw0 ip_security <*, *, UDP, *, 53, *>
route 10.0.0.0/8 eth1
route 0.0.0.0/0 eth0
telemetry on
"""


def _factory(index: int) -> Router:
    router = Router(name=f"shard/{index}")
    router.add_interface("eth0")
    router.add_interface("eth1")
    return router


def _single() -> PluginManager:
    manager = PluginManager(_factory(0))
    manager.run_script(CONFIG)
    return manager


def _sharded(nshards: int = NSHARDS) -> PluginManager:
    manager = PluginManager(
        ShardedRouter(nshards=nshards, factory=_factory, backend="inline")
    )
    manager.run_script(CONFIG)
    return manager


def _world(*fronts) -> World:
    world = World(_factory, fronts=fronts)
    assert world.verb("run_script", CONFIG) is None
    return world


def _packets(count: int = 600, flows: int = 40, seed: int = SEED):
    """Seeded mixed UDP/TCP stream over a fixed flow population; callers
    get fresh Packet objects every call (the data path mutates TTLs)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        flow = rng.randrange(flows)
        make = make_udp if flow % 3 else make_tcp
        out.append(
            make(
                f"192.168.{flow % 16}.{flow + 1}",
                f"10.{flow % 5}.0.{flow % 9 + 1}",
                2000 + flow,
                53 if flow % 4 == 0 else 80,
                iif="eth0",
            )
        )
    return out


@pytest.mark.shard
@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_dispositions_equal_across_shard_counts(nshards):
    """The headline differential: 1 router vs N shards, scalar and
    batched, in bursts of 128 on a 0.1 ms clock."""
    world = _world(f"sharded{nshards}")
    packets = _packets()
    for start in range(0, len(packets), 128):
        world.send(lambda start=start: _packets()[start:start + 128], advance=128e-4)
    world.check()
    assert not world.parked


@pytest.mark.shard
def test_wire_descriptors_roundtrip_and_match():
    """encode -> decode is lossless for the data path, and receive_wire
    equals receive_batch over the same stream."""
    for packet in _packets(50):
        twin = decode_packet(encode_packet(packet))
        assert (twin.src, twin.dst, twin.protocol, twin.src_port,
                twin.dst_port, twin.iif, twin.payload, twin.ttl) == (
            packet.src, packet.dst, packet.protocol, packet.src_port,
            packet.dst_port, packet.iif, packet.payload, packet.ttl)
        assert twin.flow_fold32() == packet.flow_fold32()
        assert flow_key_of(twin) == flow_key_of(packet)
    sharded = _sharded()
    descs = [encode_packet(p) for p in _packets()]
    wire = sharded.router.receive_wire(descs, now=0.0)
    assert wire == _sharded().router.receive_batch(_packets(), now=0.0)


@pytest.mark.shard
def test_flows_never_split_and_stay_ordered():
    """RSS invariant: every packet of a flow lands in one bucket, and
    bucket order is arrival order (indices strictly increasing)."""
    pkts = _packets(400)
    buckets, indices = dispatch_packets(pkts, NSHARDS)
    assert sum(len(b) for b in buckets) == len(pkts)
    flow_home = {}
    for shard, bucket in enumerate(buckets):
        assert indices[shard] == sorted(indices[shard])
        for packet in bucket:
            key = (packet.src, packet.dst, packet.protocol,
                   packet.src_port, packet.dst_port)
            assert flow_home.setdefault(key, shard) == shard
    # The fold rides the descriptor, so wire dispatch agrees exactly.
    from repro.shard import dispatch_wire

    wire_buckets, wire_indices = dispatch_wire(
        [encode_packet(p) for p in pkts], NSHARDS
    )
    assert wire_indices == indices


@pytest.mark.shard
def test_flow_stats_aggregate_to_single_router():
    world = _world("sharded").run(_packets)
    assert not world.parked
    assert world.router("spec").aiu.flow_table.hits > 0


@pytest.mark.shard
def test_telemetry_aggregates_to_single_router():
    """Summed counters and merged histograms equal the single router's
    registry snapshot (docs/OBSERVABILITY.md, cross-shard semantics)."""
    single, sharded = _single(), _sharded()
    single.router.receive_batch(_packets(), now=0.0)
    sharded.router.receive_batch(_packets(), now=0.0)
    expected = single.library.query("telemetry")
    merged = sharded.library.query("telemetry")
    assert merged["counters"] == expected["counters"]
    assert merged["gauges"]["flow.active"] == expected["gauges"]["flow.active"]
    for name, hist in expected["histograms"].items():
        twin = merged["histograms"][name]
        assert twin["counts"] == hist["counts"]
        assert twin["count"] == hist["count"]
        assert twin["sum"] == pytest.approx(hist["sum"])


@pytest.mark.shard
def test_mid_run_filter_install_fans_out():
    """A bind issued between batches reaches every shard: dispositions
    flip identically on the sharded and single routers."""
    world = _world("sharded4").run(_packets)
    world.verb("run_script", "create firewall fw1 action=deny\n"
                             "bind fw1 ip_security <*, *, TCP, *, 80, *>\n")
    world.run(lambda: _packets(seed=SEED + 1))
    assert not world.parked
    assert "dropped_by_plugin" in world.fronts["sharded4"].dispositions[-1]
    per_shard = world.fronts["sharded4"].library.query("shards")["shards"]
    assert all(row["filters"] == 2 for row in per_shard)


@pytest.mark.shard
def test_quarantine_fans_out_and_aggregates():
    sharded = _sharded()
    sharded.run_command("quarantine firewall bypass")
    for shard in sharded.router.shards:
        assert shard.health()["quarantined"] == ["firewall"]
    health = sharded.router.health()
    assert health["quarantined"] == ["firewall"]
    assert all(row["quarantined"] == ["firewall"]
               for row in sharded.library.query("shards")["shards"])
    # Quarantined shards bypass the plugin: DNS packets now forward.
    dispo = sharded.router.receive_batch(_packets(), now=0.0)
    assert "dropped_by_plugin" not in set(dispo)
    sharded.run_command("reinstate firewall")
    assert sharded.router.health()["quarantined"] == []


@pytest.mark.shard
def test_shards_topic_json_and_text_roundtrip():
    """``pmgr show shards --json`` is the aggregation's structured twin,
    and the single router reports itself as the one-shard case."""
    sharded = _sharded()
    sharded.router.receive_batch(_packets(), now=0.0)
    data = sharded.library.query("shards")
    assert json.loads(json.dumps(data)) == data
    assert data["nshards"] == NSHARDS and data["backend"] == "inline"
    assert sum(row["rx"] for row in data["shards"]) == 600
    assert [row["shard"] for row in data["shards"]] == list(range(NSHARDS))
    lines = render_topic("shards", data)
    assert len(lines) == 1 + NSHARDS
    single = _single()
    degenerate = single.library.query("shards")
    assert degenerate["nshards"] == 1
    assert degenerate["backend"] == "local"
    assert degenerate["shards"][0]["shard"] == 0
