"""Every data-path root of the plugin contract runs inside its plugin's
fault domain, on every front: a raising implementation of each root
``analysis.hotpath.ROOT_METHODS`` lists ends in fault records, one per
raise, never in an exception.  A raising removal hook reached through
each control verb that drops flows from its filter records' indexes is
charged the same way: the verb completes and its flows are gone."""

import pytest

from repro.analysis.hotpath import ROOT_METHODS
from repro.core import GATE_PACKET_SCHEDULING, Router
from repro.daemons import RSVPDaemon
from repro.net.packet import make_udp
from repro.sched.drr import DrrInstance, DrrPlugin
from repro.security.firewall import FirewallInstance, FirewallPlugin
from repro.sim.cost import CycleMeter
from tests.daemons.test_daemons import _chain

#: The roots a scheduler bound at the output port runs; the rest run at
#: ``ip_security``.
SCHEDULER_ROOTS = ("enqueue", "dequeue", "pass_through")

#: front -> (router kwargs, send a list of packets, the layouts it runs).
#: A bounded table evicts in the data path (``on_flow_removed``) and
#: keeps ``receive_batch`` in the ``packet`` layout.
FRONTS = {
    "receive": ({"max_flows": 8}, lambda r, ps: [r.receive(p) for p in ps], {"packet"}),
    "batch_packet": ({"max_flows": 8}, lambda r, ps: r.receive_batch(ps), {"packet"}),
    "batch_lanes": ({}, lambda r, ps: r.receive_batch(ps), {"lanes"}),
    "metered": ({"max_flows": 8},
                lambda r, ps: [r.receive(p, cycles=CycleMeter()) for p in ps], set()),
}

#: (root, front) pairs where the front never calls the root.
UNREACHED = {
    ("pass_through", "metered"),    # the spec runs process + dequeue instead
    ("on_batch_start", "metered"),  # one metered packet is no batch
    ("on_flow_removed", "batch_lanes"),     # an unbounded table evicts nothing
}


def _raising(base, root):
    """A ``base`` subclass whose ``root`` counts its calls and raises."""

    def root_method(self, *args):
        self.raised += 1
        raise RuntimeError(f"{root} fault")

    return type(f"Raising_{root}", (base,), {root: root_method, "raised": 0})


def _router(**kwargs):
    router = Router(flow_buckets=64, **kwargs)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def _flows(count):
    return [make_udp(f"10.0.0.{i + 1}", "20.0.0.1", 5000, 9000, iif="atm0")
            for i in range(count)]


def _bind(router, root, base):
    """Load a plugin whose instance raises in ``root`` and bind it where
    that root runs; returns the instance.  A scheduler's router also
    binds a plain firewall, so the batch has a pre-routing gate to sweep
    (``lanes``)."""
    if root in SCHEDULER_ROOTS:
        firewall = FirewallPlugin()
        router.pcu.load(firewall)
        firewall.register_instance(firewall.create_instance(action="allow"), "*, *, UDP",
                                   gate="ip_security")
        plugin = DrrPlugin()
        plugin.instance_class = _raising(DrrInstance, root)
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        router.set_scheduler("atm1", instance)
    else:
        plugin = FirewallPlugin()
        plugin.instance_class = _raising(base, root)
        router.pcu.load(plugin)
        instance = plugin.create_instance(action="allow")
        plugin.register_instance(instance, "*, *, UDP", gate="ip_security")
    return instance


@pytest.mark.parametrize("front", sorted(FRONTS))
@pytest.mark.parametrize("root", ROOT_METHODS)
def test_a_raising_root_ends_in_fault_records_on_every_front(root, front):
    kwargs, send, layouts = FRONTS[front]
    router = _router(**kwargs)
    instance = _bind(router, root, FirewallInstance)
    send(router, _flows(16))
    assert (instance.raised > 0) == ((root, front) not in UNREACHED)
    faults = router.faults.records()
    assert len(faults) == router.counters["plugin_faults"] == instance.raised
    assert all(f.error == f"{root} fault" for f in faults)
    assert layouts <= set(router._loops)


# ----------------------------------------------------------------------
# A raising removal hook behind each index-driven verb
# ----------------------------------------------------------------------
def _unbind(router, plugin, instance, record):
    assert plugin.deregister_instance(instance)


def _remove_filter(router, plugin, instance, record):
    assert router.aiu.remove_filter(record)


def _unload(router, plugin, instance, record):
    router.pcu.unload(plugin.name)


@pytest.mark.parametrize("verb", [_unbind, _remove_filter, _unload])
def test_a_raising_removal_hook_is_a_fault_behind_each_verb(verb):
    router = _router()
    plugin = FirewallPlugin()
    plugin.instance_class = _raising(FirewallInstance, "on_flow_removed")
    router.pcu.load(plugin)
    instance = plugin.create_instance(action="allow")
    record = plugin.register_instance(instance, "10.0.0.0/29, *, UDP", gate="ip_security")
    router.receive_batch(_flows(12))
    table = router.aiu.flow_table
    assert len(record.flows) == 7 and len(table) == 12
    verb(router, plugin, instance, record)
    assert len(table) == 5 and instance.raised == 7
    assert all(f.gate == "on_flow_removed" for f in router.faults.records())
    assert router.counters["plugin_faults"] == 7
    assert record.flows == {} and not router.aiu.filters()


def test_a_raising_removal_hook_is_a_fault_behind_an_rsvp_sweep():
    topo, _ = _chain()
    router = topo.routers["b"]
    plugin = DrrPlugin()
    plugin.instance_class = _raising(DrrInstance, "on_flow_removed")
    router.pcu.load(plugin)
    drr = plugin.create_instance(interface="bc0")
    router.set_scheduler("bc0", drr)
    daemon = RSVPDaemon(router, topo.neighbors_of("b"), hold_time=30.0)
    daemons = {name: RSVPDaemon(topo.routers[name], topo.neighbors_of(name), hold_time=30.0)
               for name in "ac"}
    daemons["b"] = daemon
    for i in range(3):
        daemons["a"].send_path(f"s{i}", sender=f"10.1.0.{i + 1}", dst="10.3.0.9",
                               now=topo.loop.now)
        topo.run()
        daemons["c"].send_resv(f"s{i}", f"10.1.0.{i + 1}, 10.3.0.9, UDP, 4000, 5000",
                               rate_bps=1e6, now=topo.loop.now)
        topo.run()
    for i in range(3):
        router.receive(make_udp(f"10.1.0.{i + 1}", "10.3.0.9", 4000, 5000, iif="ba0"),
                       now=topo.loop.now)
    records = [state.filter_record for state in daemon.resv_state.values()]
    bound = {flow for record in records for flow in record.flows}
    assert len(bound) == 3 and all(record.instance is drr for record in records)
    assert daemon.sweep(now=topo.loop.now + 100.0) == 6
    assert drr.raised == 3
    assert [f.gate for f in router.faults.records()] == ["on_flow_removed"] * 3
    assert not bound & set(router.aiu.flow_table)
    assert router.aiu.filter_count(GATE_PACKET_SCHEDULING) == 0
