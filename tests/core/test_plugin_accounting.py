"""Packet accounting at the plugin boundary: every in-tree ``process``
counts itself (``packets_processed += 1`` as its first statement), so one
packet adds exactly one on every path into the plugin — a direct call,
``receive``, ``receive_batch`` in either generated layout, and the
metered walk — including the early returns: a non-ESP packet into
ESP-in, a non-AH packet into AH-in, a non-TCP packet into tcpmon, a
hop-by-hop drop and an L4 blackhole."""

import pytest

from repro.core import GATE_IP_OPTIONS, GATE_IP_SECURITY, GATE_ROUTING, Router
from repro.core.gates import GATES_WITH_L4_ROUTING
from repro.core.plugin import PluginContext
from repro.core.routing_plugin import L4RoutingPlugin
from repro.net.headers import OPT_JUMBO, OptionTLV
from repro.net.packet import make_udp
from repro.options import HopByHopPlugin, JumboPlugin, RouterAlertPlugin
from repro.security import (
    AhPlugin,
    EspPlugin,
    FirewallPlugin,
    HwEspPlugin,
    SADatabase,
    SecurityAssociation,
)
from repro.sim.cost import CycleMeter
from repro.stats import StatisticsPlugin, TcpMonitorPlugin

_ESP = dict(auth_key=b"a" * 16, encryption_key=b"e" * 16,
            mode="tunnel", tunnel_src="192.0.2.1", tunnel_dst="192.0.2.2")


def _sadb(**keys):
    sadb = SADatabase()
    sadb.add(SecurityAssociation(spi=0x300, **keys))
    return sadb


def _v4():
    return make_udp("10.0.0.1", "20.0.0.1", 5000, 53, payload_size=64, iif="atm0")


def _v6(option):
    return make_udp("2001:db8::1", "2001:db8::2", 5000, 53, payload_size=64,
                    iif="atm0", hop_options=[option])


#: instance class -> (plugin class, instance config, gate, packet).
CASES = {
    "HopByHopInstance": (HopByHopPlugin, {}, GATE_IP_OPTIONS,
                         lambda: _v6(OptionTLV(0x40 | 0x1E, b""))),     # drop
    "RouterAlertInstance": (RouterAlertPlugin, {}, GATE_IP_OPTIONS, _v4),
    "JumboInstance": (JumboPlugin, {}, GATE_IP_OPTIONS,
                      lambda: _v6(OptionTLV(OPT_JUMBO, b"\x00"))),      # malformed
    "StatisticsInstance": (StatisticsPlugin, {}, GATE_IP_SECURITY, _v4),
    "TcpMonitorInstance": (TcpMonitorPlugin, {}, GATE_IP_SECURITY, _v4),  # non-TCP
    "L4RouteInstance": (L4RoutingPlugin, {"interface": "atm1"}, GATE_ROUTING, _v4),
    "L4BlackholeInstance": (L4RoutingPlugin, {"action": "blackhole"}, GATE_ROUTING, _v4),
    "FirewallInstance": (FirewallPlugin, {"action": "deny"}, GATE_IP_SECURITY, _v4),
    "AhOutboundInstance": (
        AhPlugin, {"direction": "out",
                   "sa": lambda: SecurityAssociation(spi=0x300, auth_key=b"k" * 16)},
        GATE_IP_SECURITY, _v4),
    "AhInboundInstance": (
        AhPlugin, {"direction": "in", "sadb": lambda: _sadb(auth_key=b"k" * 16)},
        GATE_IP_SECURITY, _v4),                                          # non-AH
    "EspOutboundInstance": (
        EspPlugin, {"direction": "out", "sa": lambda: SecurityAssociation(spi=0x300, **_ESP)},
        GATE_IP_SECURITY, _v4),
    "EspInboundInstance": (
        EspPlugin, {"direction": "in", "sadb": lambda: _sadb(**_ESP)},
        GATE_IP_SECURITY, _v4),                                          # non-ESP
    "HwEspOutboundInstance": (
        HwEspPlugin, {"direction": "out", "sa": lambda: SecurityAssociation(spi=0x300, **_ESP)},
        GATE_IP_SECURITY, _v4),
    "HwEspInboundInstance": (
        HwEspPlugin, {"direction": "in", "sadb": lambda: _sadb(**_ESP)},
        GATE_IP_SECURITY, _v4),                                          # non-ESP
}


def _instance(name, router=None):
    plugin_cls, config, gate, _ = CASES[name]
    plugin = plugin_cls()
    if router is not None:
        router.pcu.load(plugin)
    config = {k: v() if callable(v) else v for k, v in config.items()}
    instance = plugin.create_instance(**config)
    assert type(instance).__name__ == name
    if router is not None:
        plugin.register_instance(instance, "*, *, UDP", gate=gate)
        if gate == GATE_ROUTING:
            # An active pre-routing gate, so receive_batch can pick lanes.
            firewall = FirewallPlugin()
            router.pcu.load(firewall)
            firewall.register_instance(
                firewall.create_instance(action="allow"), "*, *, UDP", gate=GATE_IP_SECURITY)
    return instance


def _router(**kwargs):
    router = Router(gates=GATES_WITH_L4_ROUTING, flow_buckets=64, **kwargs)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


#: path -> (router kwargs, send one packet, the layout that must have run).
PATHS = {
    "receive": ({}, lambda r, p: r.receive(p), {"packet"}),
    "batch_packet": ({"max_flows": 8}, lambda r, p: r.receive_batch([p])[0], {"packet"}),
    "batch_lanes": ({}, lambda r, p: r.receive_batch([p])[0], {"lanes"}),
    "metered": ({}, lambda r, p: r.receive(p, cycles=CycleMeter()), set()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_direct_call_counts_once(name):
    instance = _instance(name)
    instance.process(CASES[name][3](), PluginContext())
    assert instance.packets_processed == 1


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_router_path_counts_once(name, path):
    kwargs, send, layouts = PATHS[path]
    router = _router(**kwargs)
    instance = _instance(name, router)
    send(router, CASES[name][3]())
    assert instance.packets_processed == 1
    assert set(router._loops) == layouts
