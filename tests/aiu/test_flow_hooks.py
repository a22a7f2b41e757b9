"""§4's per-flow callbacks are optional, and a flow pays only for the ones
its plugins have: a filter record carries its binding's creation hook,
and eviction calls nothing unless a bound class overrides
``on_flow_removed``.  A hook that raises runs inside its plugin's fault
domain, like ``process``: the fault is charged, and the batch or verb
goes on."""

import pytest

from repro.aiu.aiu import AIU
from repro.aiu.flow_table import FlowTable
from repro.core.plugin import PluginInstance
from repro.core.router import Router
from repro.net.packet import make_udp
from repro.sched.drr import DrrPlugin
from repro.security.firewall import FirewallInstance, FirewallPlugin
from repro.sim.cost import CycleMeter
from repro.sim.events import EventLoop


def _router(**kwargs):
    router = Router(**kwargs)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def _flows(count, first=0):
    return [make_udp(f"10.0.{i // 250}.{i % 250 + 1}", "20.0.0.1", 5000 + i % 7, 9000,
                     iif="atm0") for i in range(first, first + count)]


def _send(router, packets, batched):
    if batched:
        return router.receive_batch(packets)
    return [router.receive(packet) for packet in packets]


class FaultyRemoval(FirewallInstance):
    """A firewall whose removal hook raises on its ``fail_at``-th call."""

    def __init__(self, plugin, fail_at=1, **config):
        super().__init__(plugin, **config)
        self.fail_at = fail_at
        self.removals = 0

    def on_flow_removed(self, flow, slot):
        self.removals += 1
        if self.removals == self.fail_at:
            raise RuntimeError("removal hook fault")


class FaultyCreation(FirewallInstance):
    """A firewall whose creation hook raises for the flows in ``fail``
    (indices into the order it is called in)."""

    def __init__(self, plugin, fail=(), **config):
        super().__init__(plugin, **config)
        self.fail = set(fail)
        self.created = 0

    def on_flow_created(self, flow, slot):
        self.created += 1
        if self.created - 1 in self.fail:
            raise RuntimeError("creation hook fault")


def _pool_is_whole(table):
    """Every pool record is either cached or on the free list."""
    return table.active + len(table._free) == table.allocated


@pytest.mark.parametrize("batched", [False, True], ids=["receive", "receive_batch"])
def test_a_firewall_only_churn_calls_no_hook(batched, monkeypatch):
    calls = []
    for owner, name in ((PluginInstance, "on_flow_created"),
                        (PluginInstance, "on_flow_removed"),
                        (AIU, "_notify_flow_removed")):
        def counting(self, *args, _real=getattr(owner, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(owner, name, counting)
    router = _router(max_flows=16)
    plugin = FirewallPlugin()
    router.pcu.load(plugin)
    plugin.register_instance(plugin.create_instance(action="allow"), "*, *, UDP",
                             gate="ip_security")
    packets = _flows(64)
    if batched:
        router.receive_batch(packets)
    else:
        for packet in packets:
            router.receive(packet)
    table = router.aiu.flow_table
    assert table.births == 64 and table.evictions == 48
    assert calls == []


@pytest.mark.parametrize("batched", [False, True], ids=["receive", "receive_batch"])
def test_a_raising_removal_hook_leaves_no_flow_bound_to_the_removed_filter(batched):
    """``remove_filter`` unlinks every flow derived from the filter before
    it calls a hook: the third call raises, is charged, and the verb
    hears the other seven; once an unrelated filter re-activates the
    gate, no packet meets the removed deny filter again."""
    router = _router()
    plugin = FirewallPlugin()
    router.pcu.load(plugin)
    deny = FaultyRemoval(plugin, fail_at=3, action="deny")
    record = plugin.register_instance(deny, "*, *, UDP", gate="ip_security")
    assert _send(router, _flows(10), batched) == ["dropped_by_plugin"] * 10
    assert router.aiu.remove_filter(record)
    table = router.aiu.flow_table
    assert (len(table), deny.removals, _pool_is_whole(table)) == (0, 10, True)
    assert [(f.gate, f.error) for f in router.faults.records()] == [
        ("on_flow_removed", "removal hook fault")]
    plugin.register_instance(plugin.create_instance(action="allow"), "11.0.0.0/8, *, *",
                             gate="ip_security")
    assert _send(router, _flows(10), batched) == ["forwarded"] * 10


@pytest.mark.parametrize("batched", [False, True], ids=["receive", "receive_batch"])
def test_a_raising_removal_hook_on_a_bounded_victim_leaks_no_pool_record(batched):
    router = _router(max_flows=4)
    plugin = FirewallPlugin()
    router.pcu.load(plugin)
    plugin.register_instance(FaultyRemoval(plugin, action="allow"), "*, *, UDP",
                             gate="ip_security")
    _send(router, _flows(4), batched)
    assert _send(router, _flows(1, first=4), batched) == ["forwarded"]
    table = router.aiu.flow_table
    assert (len(table), table.evictions, _pool_is_whole(table)) == (4, 1, True)
    assert router.counters["plugin_faults"] == 1
    assert router.faults.records()[0].gate == "on_flow_removed"


def test_on_remove_is_set_exactly_while_a_removal_hook_is_bound():
    router = _router()
    table = router.aiu.flow_table
    assert table.on_remove is None
    firewall, drr_plugin = FirewallPlugin(), DrrPlugin()
    router.pcu.load(firewall)
    router.pcu.load(drr_plugin)
    firewall.register_instance(firewall.create_instance(action="allow"), "*, *, UDP",
                               gate="ip_security")
    assert table.on_remove is None
    drr = drr_plugin.create_instance(interface="atm1")
    first = drr_plugin.register_instance(drr, "*, *, UDP", gate="packet_scheduling")
    assert table.on_remove == router.aiu._notify_flow_removed
    second = drr_plugin.register_instance(drr, "10.0.0.0/8, *, UDP",
                                          gate="packet_scheduling")
    router.aiu.remove_filter(first)
    assert table.on_remove is not None            # one binding left
    router.aiu.remove_filter(second)
    assert table.on_remove is None
    record = firewall.register_instance(firewall.create_instance(), "*, *, TCP",
                                        gate="ip_security")
    router.aiu.bind(record, drr)
    assert table.on_remove is not None
    drr_plugin.deregister_instance(drr)
    assert table.on_remove is None


@pytest.mark.parametrize("verb", ["remove_filter", "deregister_instance", "rebind"])
def test_unbinding_a_drr_drops_its_queued_flows(verb):
    """The verb unbinds the last filter of the only instance with a
    removal hook, so the hook goes, but only after the verb's purge: the
    DRR still hears every flow it held queued packets for."""
    router = _router(loop=EventLoop())          # the loop holds the drain back
    plugin = DrrPlugin()
    router.pcu.load(plugin)
    drr = plugin.create_instance(interface="atm1")
    record = plugin.register_instance(drr, "*, *, UDP", gate="packet_scheduling")
    assert router.receive_batch(_flows(6)) == ["queued"] * 6
    assert drr.backlog() == 6
    if verb == "remove_filter":
        router.aiu.remove_filter(record)
    elif verb == "deregister_instance":
        plugin.deregister_instance(drr)
    else:
        router.aiu.bind(record, FirewallPlugin().create_instance(action="allow"))
    assert drr.backlog() == 0 and drr.active_flows() == 0


def test_hooks_are_decided_by_the_class_when_a_filter_is_bound():
    class Counting(PluginInstance):
        created = 0

        def on_flow_created(self, flow, slot):
            self.created += 1

    class Duck:                                  # no PluginInstance base
        def __init__(self):
            self.created = 0

        def process(self, packet, ctx):
            return "continue"

        def on_flow_created(self, flow, slot):
            self.created += 1

    router = _router()
    aiu = router.aiu
    plain = PluginInstance(FirewallPlugin())
    plain.on_flow_created = lambda flow, slot: pytest.fail("an instance attribute is no hook")
    counting, duck = Counting(FirewallPlugin()), Duck()
    records = [aiu.create_filter("ip_security", "*, *, UDP, *, 9000", instance=counting),
               aiu.create_filter("ip_options", "*, *, UDP", instance=duck),
               aiu.create_filter("packet_scheduling", "*, *, UDP", instance=plain)]
    assert [r.on_flow_created is not None for r in records] == [True, True, False]
    router.receive_batch(_flows(3))
    router.receive(_flows(1, first=3)[0])
    assert counting.created == duck.created == 4


def test_a_purge_releases_every_flow_before_a_raising_on_remove():
    """The flow table's own contract, for any ``on_remove``: a purge
    releases every flow it names before it calls back, so a callback that
    raises escapes a table with no stale flow and no lost pool record."""
    table = FlowTable(gate_count=1)
    for packet in _flows(5):
        table.install(packet, 0.0)

    def raising(flow):
        raise RuntimeError("on_remove fault")

    table.on_remove = raising
    with pytest.raises(RuntimeError, match="on_remove fault"):
        table.purge(list(table))
    assert (len(table), _pool_is_whole(table)) == (0, True)


def _creation_run(front, fail, use_flow_cache=True):
    """Twelve new flows through one front, with the creation hook of the
    firewall bound at ip_security raising on the flows in ``fail``."""
    router = _router(use_flow_cache=use_flow_cache)
    plugin = FirewallPlugin()
    router.pcu.load(plugin)
    plugin.instance_class = FaultyCreation      # a tracked instance can be quarantined
    plugin.register_instance(plugin.create_instance(fail=fail, action="allow"),
                             "*, *, UDP", gate="ip_security")
    packets = _flows(12)
    if front == "metered":
        out = [router.receive(packet, cycles=CycleMeter()) for packet in packets]
    else:
        out = _send(router, packets, front == "receive_batch")
    faults = [f.signature() for f in router.faults.records()]
    return out, dict(router.counters), faults, len(router.aiu.flow_table)


@pytest.mark.parametrize("front,use_flow_cache", [
    ("receive", True), ("receive_batch", True), ("receive", False), ("receive_batch", False),
], ids=["receive", "receive_batch", "receive-cache-off", "receive_batch-cache-off"])
@pytest.mark.parametrize("fail", [(0,), (1, 4), tuple(range(12))],
                         ids=["first", "mid-batch", "trips-quarantine"])
def test_a_raising_creation_hook_is_a_fault_at_its_gate(front, use_flow_cache, fail):
    """The creation hook raises: the fault is charged at the hook's gate
    once the flow is set up, the batch completes, and every front agrees
    with the metered walk on dispositions, counters, the fault ring and
    the flow table — also when the third fault trips the breaker, and
    with the flow cache off (the loops call ``AIU.classify``)."""
    out, counters, faults, flows = _creation_run(front, fail, use_flow_cache)
    assert (out, counters, faults, flows) == _creation_run("metered", fail, use_flow_cache)
    assert [f[4] for f in faults] == ["ip_security"] * len(fail)
    assert counters["plugin_faults"] == len(fail) and flows == (12 if use_flow_cache else 0)
    if len(fail) < 3:
        assert out == ["forwarded"] * 12
    else:                   # the third fault quarantines: later packets drop
        assert counters["plugin_quarantines"] == 1
        assert out == ["forwarded"] * 2 + ["dropped_by_plugin"] * 10
