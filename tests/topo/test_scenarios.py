"""Seeded multi-hop attack scenarios and topology control-plane fanout.

Every registered topo scenario (IPsec tunnel spoofing, hop-by-hop v6
options, H-FSC aggregation shaping, quarantine reroute) must hold its
delivery invariants when driven through the unmodified ``run_scenario``
harness — scalar and batched — and ``TopologyPluginLibrary`` must fan
control-plane commands across nodes (broadcast by default, one node via
``node=``) while aggregating queries through the topic registry.
"""

import pytest

from repro import PathTracer, Topology, TopologyPluginLibrary
from repro.core.errors import ConfigurationError
from repro.mgr.format import strip_schema
from repro.workloads import (
    build_topo_scenario,
    run_scenario,
    topo_scenario_names,
)

pytestmark = pytest.mark.topo

SEED = 3


@pytest.mark.parametrize("name", topo_scenario_names())
@pytest.mark.parametrize("batch", [0, 32])
def test_scenario_holds_invariants(name, batch):
    topo, sc = build_topo_scenario(name, seed=SEED)
    kwargs = {"batch_size": batch} if batch else {}
    report = run_scenario(topo, sc, **kwargs)
    sc.check(report)


def test_spoofed_esp_loops_between_the_gateways_until_max_hops():
    """Pins today's behaviour, not the intended one: gwb's connected
    192.0.2.0/24 (wan0) sends an unmatched ESP packet back to gwa, so it
    bounces until ``max_hops``.  Giving it a real drop at gwb flips this
    test on purpose."""
    topo, sc = build_topo_scenario("ipsec_tunnel", seed=SEED)
    spoofed = next(p for _t, p, attack in sc.attack if attack)
    trace = PathTracer(topo).trace(spoofed)
    assert trace.path() == ["e1"] + ["gwa", "gwb"] * 3 + ["gwa"]
    assert trace.disposition == "dropped_loop"


def test_registry_has_the_four_issue_scenarios():
    names = set(topo_scenario_names())
    assert {"ipsec_tunnel", "v6_options",
            "hfsc_aggregation", "quarantine_reroute"} <= names


class TestLibraryFanout:
    def _topo(self):
        topo = Topology("fan")
        topo.add_node("a")
        topo.add_node("b", shards=2)
        topo.add_interface("a", "lan0", prefix="10.3.0.0/16")
        topo.add_interface("a", "up0")
        topo.add_interface("b", "dn0")
        topo.add_interface("b", "lan0", prefix="20.3.0.0/16")
        topo.link("a", "up0", "b", "dn0")
        topo.add_route("a", "20.3.0.0/16", "up0")
        topo.add_route("b", "20.3.0.0/16", "lan0")
        return topo

    def test_broadcast_lands_on_every_node(self):
        topo = self._topo()
        lib = TopologyPluginLibrary(topo)
        lib.modload("stats")
        lib.create_instance("stats", "s0")
        lib.bind("s0", "*, *", gate="ip_options")
        for name in ("a", "b"):
            for router in topo._node_routers(topo.node(name)):
                assert router.pcu.is_loaded("stats"), name

    def test_node_targets_one(self):
        topo = self._topo()
        lib = TopologyPluginLibrary(topo)
        lib.modload("stats", node="a")
        assert topo.node("a").pcu.is_loaded("stats")
        for shard in topo.node("b").shards:
            assert not shard.pcu.is_loaded("stats")

    def test_unknown_node_rejected(self):
        lib = TopologyPluginLibrary(self._topo())
        with pytest.raises(ConfigurationError, match="nope"):
            lib.modload("stats", node="nope")

    def test_non_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyPluginLibrary(object())

    def test_query_sums_flows_across_nodes(self):
        topo = self._topo()
        lib = TopologyPluginLibrary(topo)
        from repro.net.packet import make_udp

        for i in range(20):
            topo.receive(
                make_udp(f"10.3.0.{i + 1}", "20.3.0.1", 4000 + i, 9000,
                         iif="lan0")
            )
        data = lib.query("flows")
        assert data["schema"]["topic"] == "flows"
        body = strip_schema(data)
        # Every packet traverses both nodes: the summed view counts each
        # node's flow table once.
        assert body["active"] == 2 * 20

    def test_frontend_shards_rows_are_node_labelled(self):
        lib = TopologyPluginLibrary(self._topo())
        body = strip_schema(lib.query("shards"))
        labels = {row["shard"] for row in body["shards"]}
        assert labels == {"a/0", "b/0", "b/1"}
        assert body["nshards"] == 3
        assert body["backend"] == "inline+local"

    def test_unknown_topic_raises(self):
        lib = TopologyPluginLibrary(self._topo())
        with pytest.raises(ConfigurationError, match="no_such_topic"):
            lib.query("no_such_topic")

    def test_health_aggregates_per_node(self):
        topo = self._topo()
        lib = TopologyPluginLibrary(topo)
        body = strip_schema(lib.query("health"))
        assert set(body["per_node"]) == {"a", "b"}

    def test_run_script_fans_out(self):
        topo = self._topo()
        lib = TopologyPluginLibrary(topo)
        lib.run_script(
            "modload stats\ncreate stats s0\nbind s0 ip_options *, *\n")
        for name in ("a", "b"):
            for router in topo._node_routers(topo.node(name)):
                assert router.pcu.is_loaded("stats"), name
