"""Multiprocessing backend: forked shard workers must be bit-equal to
the inline backend (which test_differential.py proves equal to a single
router), and the control protocol must survive worker-side errors.

Kept deliberately small — fork + pipe plumbing, not throughput (that is
the ``shard_wire`` workload's job, benchmarks/e2e/run.py).  Skipped
where the ``fork`` start method is unavailable.
"""

import random

import pytest

from repro import PluginManager, Router, ShardedRouter
from repro.net.packet import make_udp
from repro.shard import encode_packet, mp_available

pytestmark = [
    pytest.mark.shard,
    pytest.mark.skipif(not mp_available(), reason="needs fork start method"),
]

CONFIG = """
modload firewall
create firewall fw0 action=deny
bind fw0 ip_security <*, *, UDP, *, 53, *>
route 10.0.0.0/8 eth1
route 0.0.0.0/0 eth0
telemetry on
"""


def _factory(index: int) -> Router:
    router = Router(name=f"mp/{index}")
    router.add_interface("eth0")
    router.add_interface("eth1")
    return router


def _descs(count: int = 400, seed: int = 5):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        flow = rng.randrange(30)
        out.append(encode_packet(make_udp(
            f"172.16.{flow}.{flow + 1}", f"10.0.0.{flow % 7 + 1}",
            3000 + flow, 53 if flow % 5 == 0 else 443, iif="eth0",
        )))
    return out


def test_mp_equals_inline():
    """Same descriptors, same dispositions, same aggregated state."""
    descs = _descs()
    with ShardedRouter(nshards=4, factory=_factory, backend="mp",
                       batch_size=64, window=4) as mp_router:
        manager = PluginManager(mp_router)
        manager.run_script(CONFIG)
        mp_dispo = mp_router.receive_wire(descs, now=0.5)
        mp_shards = manager.library.query("shards")
        mp_tel = manager.library.query("telemetry")
        mp_health = mp_router.health()

    inline = PluginManager(
        ShardedRouter(nshards=4, factory=_factory, backend="inline")
    )
    inline.run_script(CONFIG)
    assert mp_dispo == inline.router.receive_wire(descs, now=0.5)
    inline_shards = inline.library.query("shards")
    assert [r["rx"] for r in mp_shards["shards"]] == [
        r["rx"] for r in inline_shards["shards"]]
    assert mp_tel["counters"] == inline.library.query("telemetry")["counters"]
    assert mp_health["counters"] == inline.router.health()["counters"]
    assert mp_shards["backend"] == "mp"


def test_mp_batches_pipeline_through_credit_window():
    """More in-flight batches than the window allows: every disposition
    still lands, in input order (the scatter map survives pipelining)."""
    descs = _descs(2000)
    with ShardedRouter(nshards=2, factory=_factory, backend="mp",
                       batch_size=32, window=2) as mp_router:
        PluginManager(mp_router).run_script(CONFIG)
        dispo = mp_router.receive_wire(descs, now=0.0)
    assert len(dispo) == len(descs)
    assert None not in dispo
    inline = PluginManager(
        ShardedRouter(nshards=2, factory=_factory, backend="inline")
    )
    inline.run_script(CONFIG)
    assert dispo == inline.router.receive_wire(descs, now=0.0)


def test_mp_null_path_measures_dispatch_only():
    """The bench's dispatch-capacity arm: null-path workers echo one
    disposition per descriptor without touching a router."""
    descs = _descs(300)
    with ShardedRouter(nshards=4, factory=_factory, backend="mp",
                       _null_path=True) as mp_router:
        dispo = mp_router.receive_wire(descs, now=0.0)
    assert dispo == ["forwarded"] * len(descs)


def test_mp_control_errors_surface_in_parent():
    """A bad fanout command raises in the parent and does not wedge or
    kill the workers."""
    with ShardedRouter(nshards=2, factory=_factory, backend="mp") as mp_router:
        manager = PluginManager(mp_router)
        with pytest.raises(Exception):
            manager.run_command("modload not_a_plugin")
        manager.run_script(CONFIG)
        dispo = mp_router.receive_wire(_descs(100), now=0.0)
        assert len(dispo) == 100 and None not in dispo


def _fw0_config(library, **filters):
    return {"config": dict(library.instance("fw0").config)}


@pytest.fixture()
def fw0_config_topic():
    """A topic answering with instance fw0's config as the library holds
    it; registered before the fork so the workers answer it too."""
    from repro import register_topic
    from repro.mgr import format as fmt

    register_topic("fw0config", _fw0_config, lambda data: [str(data)],
                   merge="shard0")
    yield "fw0config"
    fmt._REGISTRY.pop("fw0config", None)


def test_mp_typed_calls_arrive_as_inline(fw0_config_topic):
    """Arguments the old script-line rendering could not carry — bind's
    priority, a string that reads as a number — reach mp workers exactly
    as they reach inline shards; shard rows are numbered per worker."""
    def configured(front):
        library = PluginManager(front).library
        library.modload("firewall")
        library.create_instance("firewall", "fw0", action="deny",
                                label="1e3", strict="true")
        library.bind("fw0", "*, *, UDP, *, 53, *", gate="ip_security",
                     priority=7)
        library.set_fault_policy("firewall", threshold=2, action="bypass")
        return (
            library.query("filters")["filters"],
            library.query(fw0_config_topic)["config"],
            library.query("faults")["plugins"]["firewall"]["action"],
            [row["shard"] for row in library.query("shards")["shards"]],
        )

    with ShardedRouter(nshards=2, factory=_factory, backend="mp") as mp_router:
        mp_view = configured(mp_router)
    inline_view = configured(
        ShardedRouter(nshards=2, factory=_factory, backend="inline"))
    assert mp_view == inline_view
    filters, config, action, shard_ids = mp_view
    assert filters[0]["priority"] == 7
    assert config == {"label": "1e3", "strict": "true"}
    assert action == "bypass"
    assert shard_ids == [0, 1]


def test_mp_unknown_verb_is_an_error_and_the_pool_stays_in_sync():
    """The worker checks the verb against the table before ``getattr``;
    every worker still replies, so the next round trip lines up."""
    with ShardedRouter(nshards=2, factory=_factory, backend="mp") as mp_router:
        pool = mp_router._pool
        with pytest.raises(RuntimeError, match="unknown control verb"):
            pool.call("instances")
        with pytest.raises(RuntimeError, match="unknown control verb"):
            pool.call("__class__")
        assert pool.call("modload", ("firewall",)) == [None, None]
        answers = pool.call("query", ("plugins",))
        assert [[p["name"] for p in a["plugins"]] for a in answers] == [
            ["firewall"], ["firewall"]]
