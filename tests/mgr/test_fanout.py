"""One control plane on every front: the verb table, driven row by row.

Every row of ``repro.mgr.fanout.VERBS`` is applied as a typed library
call to a single router, two inline shards, two mp shards, a two-node
topology and a topology with one sharded node; the configuration each
front then reports must be the single router's.  (Generated verb
histories on the in-process fronts are the oracle's, tests/oracle/; the
mp front, whose workers the oracle does not fork, is driven here.)
Also pins the table's completeness (a verb is one
``RouterPluginLibrary`` method plus one row) and that only topologies
address a ``node=``.
"""

import pytest

from repro import PluginManager, Router, ShardedRouter, Topology
from repro.core.errors import ConfigurationError
from repro.mgr import RouterPluginLibrary
from repro.mgr.fanout import CALLS, VERBS, Fanout
from repro.net.packet import make_udp
from repro.shard import mp_available
from tests.oracle.harness import configuration


def _factory(index: int = 0) -> Router:
    router = Router(name=f"node/{index}")
    router.add_interface("eth0", prefix="10.0.0.0/8")
    router.add_interface("eth1", prefix="20.0.0.0/8")
    return router


#: (verb, args, kwargs) — the typed calls, in an order that leaves a
#: non-trivial configuration behind.
CONFIG_CALLS = [
    ("modload", ("firewall",), {}),
    ("modload", ("stats",), {}),
    ("modload", ("drr",), {}),
    ("modload", ("red",), {}),
    ("modunload", ("red",), {}),
    ("create_instance", ("firewall", "fw0"), {"action": "deny"}),
    ("create_instance", ("firewall", "fw1"), {}),
    ("create_instance", ("stats", "s0"), {}),
    ("create_instance", ("drr", "drr0"), {"interface": "eth1", "quantum": 1500}),
    ("bind", ("fw0", "*, *, UDP, *, 53, *"), {"gate": "ip_security", "priority": 7}),
    ("bind", ("fw1", "*, *, TCP"), {"gate": "ip_security"}),
    ("unbind", ("fw1",), {}),
    ("free_instance", ("fw1",), {}),
    ("set_scheduler", ("eth1", "drr0"), {}),
    ("add_route", ("30.0.0.0/8", "eth1"), {}),
    ("add_mroute", ("232.1.1.1", ["eth1"]), {"source": "10.0.0.0/8"}),
    ("send_message", ("stats", "set_collector"),
     {"instance": "s0", "collector": "sizes"}),
    ("quarantine", ("stats",), {"action": "bypass"}),
    ("reinstate", ("stats",), {}),
    ("quarantine", ("drr",), {}),
    ("set_fault_policy", ("firewall",), {"threshold": 3, "action": "drop"}),
    ("enable_telemetry", (), {}),
    ("disable_telemetry", (), {}),
    ("enable_overload", (), {"sample_interval": 8}),
    ("disable_overload", (), {}),
    ("enable_overload", (), {"sample_interval": 16}),
    ("start_trace", (), {"sample": 2, "capacity": 16}),
    ("stop_trace", (), {}),
    ("start_trace", (), {"sample": 4}),
    ("run_script", ("modload fifo\ncreate fifo q0\nbind q0 - 10.*, *, UDP\n",), {}),
]


def _single():
    yield _factory()


def _inline():
    yield ShardedRouter(nshards=2, factory=_factory, backend="inline")


def _mp():
    if not mp_available():
        pytest.skip("needs fork start method")
    with ShardedRouter(nshards=2, factory=_factory, backend="mp") as front:
        yield front


def _topology():
    topo = Topology(name="pair")
    topo.add_node("a", router=_factory(0))
    topo.add_node("b", router=_factory(1))
    yield topo


def _topology_sharded_node():
    topo = Topology(name="mixed")
    topo.add_node("a", router=_factory(0))
    topo.add_node("b", router=ShardedRouter(
        nshards=2, factory=_factory, backend="inline"))
    yield topo


FRONTS = {
    "single": _single,
    "inline": _inline,
    "mp": _mp,
    "topology": _topology,
    "topology_sharded_node": _topology_sharded_node,
}


def _configure(front):
    library = PluginManager(front).library
    for verb, args, kwargs in CONFIG_CALLS:
        getattr(library, verb)(*args, **kwargs)
    return library


@pytest.fixture(params=sorted(FRONTS))
def front(request):
    yield from FRONTS[request.param]()


def test_config_calls_drive_every_verb():
    assert {verb for verb, _, _ in CONFIG_CALLS} == set(VERBS)


def test_every_front_reports_the_single_router_configuration(front):
    expected = configuration(_configure(_factory()))
    assert expected["filters"][0]["priority"] == 7
    assert expected["faults"]["drr"][:2] == ("quarantined", "drop")
    assert expected["faults"]["firewall"][:3] == ("healthy", "drop", 3)
    assert configuration(_configure(front)) == expected


def test_a_verb_is_one_library_method_and_one_row():
    assert len(set(VERBS)) == len(VERBS)
    assert CALLS == VERBS + ("query",)
    fronts = [type(PluginManager(front).library)
              for front in (ShardedRouter(nshards=1), Topology())]
    for verb in VERBS:
        assert callable(getattr(RouterPluginLibrary, verb)), verb
        assert callable(getattr(Fanout, verb)), verb
        assert not any(verb in vars(front) for front in fronts), verb


def test_only_topologies_address_a_node():
    sharded = PluginManager(
        ShardedRouter(nshards=2, factory=_factory, backend="inline")).library
    with pytest.raises(ConfigurationError, match="node="):
        sharded.modload("firewall", node="a")
    assert sharded.query("plugins")["plugins"] == []

    topo = next(_topology_sharded_node())
    library = PluginManager(topo).library
    library.modload("firewall", node="b")
    assert not topo.node("a").pcu.is_loaded("firewall")
    assert all(s.pcu.is_loaded("firewall") for s in topo.node("b").shards)
    with pytest.raises(ConfigurationError, match="unknown node"):
        library.modload("firewall", node="nope")


def test_fanout_ships_values_not_live_handles():
    from repro.telemetry import MetricsRegistry

    library = PluginManager(
        ShardedRouter(nshards=2, factory=_factory, backend="inline")).library
    with pytest.raises(ConfigurationError, match="plain values"):
        library.enable_telemetry(MetricsRegistry())
    assert library.query("telemetry")["enabled"] is False


# ----------------------------------------------------------------------
# pmgr over every front: commands that used to bypass the library
# ----------------------------------------------------------------------
def _routers(front) -> list:
    """The plain routers behind a front (none are reachable under mp)."""
    if hasattr(front, "nodes"):
        return [r for node in front.nodes.values() for r in _routers(node)]
    return list(front.shards) if hasattr(front, "shards") else [front]


#: The §6.1 sequence (examples/quickstart.py) on this suite's interface
#: names, plus the two commands that never reached the library.
PAPER_SCRIPT = """
modload drr
pmgr create drr drr0 interface=eth1 quantum=1500
pmgr scheduler eth1 drr0
pmgr bind drr0 - 10.0.0.1, 20.0.0.1, UDP, 5001, 9000, *
pmgr bind drr0 - *, *, UDP, *, *, *
mroute 232.1.1.1 eth0,eth1 10.0.0.0/8 eth0
modload stats
create stats s0
msg stats set_collector instance=s0 collector=sizes
"""


def test_paper_script_with_mroute_and_msg_runs_on_every_front(front):
    lines = []
    manager = PluginManager(front, output=lines.append)
    assert manager.run_script(PAPER_SCRIPT) == 9
    assert "mroute (10.0.0.0/8, 232.1.1.1) -> ['eth0', 'eth1']" in lines
    assert lines[-1].startswith("msg set_collector -> ")
    filters = manager.library.query("filters")["filters"]
    assert [f["instance"] for f in filters] == ["drr0", "drr0"]
    routers = _routers(front)
    assert routers or front.backend == "mp"
    for router in routers:
        assert len(router.multicast_table) == 1
        (plugin,) = [p for p in router.pcu.plugins() if p.name == "stats"]
        assert [i.collector_name for i in plugin.instances] == ["sizes"]


def test_status_commands_answer_from_query(front):
    lines = []
    manager = PluginManager(front, output=lines.append)
    manager.run_script("overload status\ntelemetry status\n")
    assert lines == ["overload governor disabled", "telemetry disabled"]
    manager.run_script("telemetry on\noverload on sample_interval=8\n")
    del lines[:]
    manager.run_script("overload status\ntelemetry status\n")
    assert lines == ["overload governor enabled tier=normal",
                     "telemetry enabled"]


def test_faults_policy_is_not_multiplied_by_the_front(front):
    """Policy fields are configuration — the same on every child by
    fanout — so a front reports the value, not children x the value; the
    quarantine deadline is the latest child's, not the sum."""
    library = PluginManager(front).library
    library.modload("firewall")
    library.set_fault_policy("firewall", threshold=3, window=2.5, cooldown=4.0)

    def policy():
        snap = library.query("faults")["plugins"]["firewall"]
        return [snap[key] for key in
                ("threshold", "window", "cooldown", "quarantined_until")]

    assert policy() == [3, 2.5, 4.0, 0.0]
    for router in _routers(front):          # none reachable under mp
        router.faults.quarantine("firewall", now=6.0)
        assert policy() == [3, 2.5, 4.0, 10.0]


def test_show_aiu_sums_compile_counters_over_the_front(front):
    """What a verb recompiled (per filter table) and what the plan flips
    compiled or reused (per router) merge by the topic's key-wise sum."""
    lines = []
    manager = PluginManager(front, output=lines.append)
    manager.run_script(
        "modload firewall\ncreate firewall fw0 action=allow\n"
        "bind fw0 ip_security 10.*, *, UDP\n")

    def packet():
        return make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="eth0")

    routers = _routers(front)
    for router in routers:
        assert router.receive(packet()) == "forwarded"
    if not routers:             # mp: the fold picks the one worker that compiles
        assert front.receive(packet()) == "forwarded"
    compiled = len(routers) or 1
    data = manager.library.query("aiu")
    assert data["loops"] == {"compiles": compiled, "reuses": 0}
    assert data["gates"]["ip_security"]["tables"]["32"] == {
        "compiles": compiled, "nodes_compiled": 7 * compiled,
        "nodes_compiled_last": 7 * compiled}
    del lines[:]
    manager.run_command("show aiu")
    assert (f"ip_security/32 compile: compiles={compiled} nodes={7 * compiled} "
            f"last={7 * compiled}") in lines
    assert f"loops: compiles={compiled} reuses=0" in lines


def test_show_trace_names_the_instance_over_the_front(front):
    """Which instance saw a traced packet, and its verdict, survive
    every merge (single, 2-shard inline and mp, per topology node)."""
    manager = PluginManager(front, output=[].append)
    manager.run_script(
        "modload firewall\ncreate firewall fw0 action=deny\n"
        "bind fw0 ip_security 10.*, *, UDP\ntrace on sample=1\n")
    packet = make_udp("10.0.0.1", "20.0.0.1", 5000, 9000, iif="eth0")
    assert front.receive(packet) == "dropped_by_plugin"
    (span,) = manager.library.query("trace")["spans"]
    assert span["stages"][-1] == {
        "stage": "gate:ip_security", "cycles": span["stages"][-1]["cycles"],
        "vtime": 0.0, "instance": "fw0", "verdict": "drop"}


def test_show_topology_answers_on_every_front(front):
    """Interfaces and quarantined plugins come from the children — an mp
    front holds no router of its own to read them from — so the inline
    and the mp front give the same node rows."""
    lines = []
    manager = PluginManager(front, output=lines.append)
    manager.run_script("modload stats\ncreate stats s0\nquarantine stats\n")
    nodes = manager.library.query("topology")["nodes"]
    for node in nodes:
        assert node["interfaces"] == ["eth0", "eth1"]
        assert node["quarantined"] == ["stats"]
    fronts = getattr(front, "nodes", {"": front}).values()
    assert [node["nshards"] for node in nodes] == [
        getattr(router, "nshards", 1) for router in fronts]
    manager.run_command("show topology")
    assert any("quarantined=stats" in line for line in lines)
