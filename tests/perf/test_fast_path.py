"""Behavioral equivalence of the wall-clock fast path.

The metered data path (`Router._receive`) is the specification; the fast
path and `receive_batch` are specializations that must produce the same
dispositions, counters, flow-table statistics, and plugin callbacks (the
oracle's world compares them, tests/oracle/).  Pinned here besides: the
two cache-coherence hazards the fast path introduces, LRU recycling
under a capped record pool, and the active-gate plan going stale across
filter installs/removals.
"""

import random

from repro.core.gates import GATE_IP_SECURITY
from repro.core.plugin import Plugin, PluginInstance, TYPE_IP_SECURITY, Verdict
from repro.net.packet import make_udp
from tests.oracle.harness import World, build_router


class _PortFilterInstance(PluginInstance):
    """Drops packets to one destination port; forwards the rest."""

    def process(self, packet, ctx):
        self.packets_processed += 1
        return Verdict.DROP if packet.dst_port == 7777 else Verdict.CONTINUE


class _PortFilterPlugin(Plugin):
    plugin_type = TYPE_IP_SECURITY
    name = "port-filter"
    instance_class = _PortFilterInstance


def _install_port_filter(router):
    plugin = _PortFilterPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
    return instance


def _mixed_workload():
    """Every disposition class: cache hits, misses, TTL expiry, no-route
    drops, and plugin drops."""
    packets = [make_udp("10.0.0.1", f"20.0.1.{i % 5 + 1}", 5000 + i % 5, 9000, iif="atm0")
               for i in range(20)]
    packets += [make_udp("10.0.2.1", "20.0.2.1", 6000 + i, 9000, iif="atm0") for i in range(10)]
    packets += [make_udp("10.0.3.1", "20.0.3.1", 7000 + i, 9000, iif="atm0", ttl=1)
                for i in range(3)]
    packets += [make_udp("10.0.4.1", "40.0.0.1", 7100 + i, 9000, iif="atm0") for i in range(3)]
    packets += [make_udp("10.0.5.1", "20.0.5.1", 7200 + i, 7777, iif="atm0") for i in range(4)]
    random.Random(42).shuffle(packets)
    return packets


def test_fast_path_matches_metered_path():
    """Same workload, metered vs unmetered: identical observable state,
    the plugin called as often."""
    instances = {}

    def configure(router):
        instances[router.name] = _install_port_filter(router)

    world = World(lambda name: build_router(name, configure), fronts=("receive",))
    world.run(_mixed_workload)
    assert not world.parked
    assert instances["receive"].packets_processed == instances["spec"].packets_processed > 0


def test_receive_batch_matches_sequential_receive():
    """receive_batch is semantically a loop over receive()."""
    world = World(lambda name: build_router(name, _install_port_filter),
                  fronts=("receive", "batch7"))
    world.run(_mixed_workload)
    assert not world.parked


def test_lru_recycle_storm_stats():
    """A capped record pool under a flow storm: LRU recycling keeps the
    table consistent and the hit/miss/recycled stats exact."""
    router = build_router("storm", max_flows=8)
    table = router.aiu.flow_table

    def flow_packet(i):
        return make_udp("10.0.0.1", "20.0.0.1", 1024 + i, 9000, iif="atm0")

    for i in range(32):                      # 32 fresh flows through 8 records
        assert router.receive(flow_packet(i)) == "forwarded"
    assert table.stats() == {
        "active": 8, "allocated": 8, "hits": 0, "misses": 32, "recycled": 24,
        "births": 32, "evictions": 24,
    }

    for i in range(24, 32):                  # the 8 survivors: all hits
        router.receive(flow_packet(i))
    assert table.hits == 8 and table.misses == 32 and table.recycled == 24

    for i in range(8):                       # long-evicted flows: recycle again
        router.receive(flow_packet(i))
    assert table.stats() == {
        "active": 8, "allocated": 8, "hits": 8, "misses": 40, "recycled": 32,
        "births": 40, "evictions": 32,
    }
    # The intrusive chains stayed coherent: exactly the 8 survivors are
    # reachable, each via its own bucket walk.
    assert sum(1 for _ in table) == 8
    for i in range(8):
        assert table.lookup(flow_packet(i)) is not None


def test_gate_plan_tracks_filter_changes():
    """Flows cached before create_filter re-classify after it, and the
    fast path stops calling the plugin after remove_filter."""
    router = build_router("plan")

    packet = lambda: make_udp("10.0.0.9", "20.0.0.9", 5500, 9000, iif="atm0")
    assert router.receive(packet()) == "forwarded"      # flow cached, no filters

    plugin = _PortFilterPlugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    record = plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)

    # The pre-existing cached flow must re-classify against the new
    # filter: the very next packet goes through the plugin.
    assert router.receive(packet()) == "forwarded"
    assert instance.packets_processed == 1

    assert router.aiu.remove_filter(record)
    assert router.receive(packet()) == "forwarded"
    assert instance.packets_processed == 1              # not called any more
