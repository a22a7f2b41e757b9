"""Multi-hop topology scenarios for the adversarial harness.

Each builder composes a :class:`~repro.topo.Topology` of several routers
*and* the three-phase :class:`~repro.workloads.adversarial.AttackScenario`
that exercises it — the pair runs through the unmodified
:func:`~repro.workloads.adversarial.run_scenario` driver because a
topology is driven exactly like a single router.

Built-in scenarios (:func:`topo_scenario_names`):

``ipsec_tunnel``
    4 hops: edge → ESP-encrypting gateway → decrypting gateway → edge.
    Site-to-site flows are tunnelled mid-path; tunnel adoption carries
    the end-to-end disposition across the decapsulation.  The attack is
    spoofed ESP at the tunnel endpoint — none of it may be delivered.
``v6_options``
    3 hops, every hop running the RFC 2460 hop-by-hop option walker.
    Background flows carry a benign (skip-action) unknown option; the
    attack carries a drop-action option and must die at the first hop.
``hfsc_aggregation``
    Edge → aggregation → core, with an H-FSC scheduler shaping the
    aggregation uplink.  A bulk crowd (legitimate overload) competes
    with the established flows; both must be served, via the queue.
``quarantine_reroute``
    Entry → ECMP {left, right} → exit.  Mid-attack the left transit
    node's plugin is quarantined through the topology control plane;
    the ECMP tap's health view re-folds every flow onto the right node
    and established flows keep delivering throughout.

All randomness comes from ``random.Random(seed)``; same seed, same
scenario, bit for bit.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from ..core import GATE_IP_OPTIONS, GATE_IP_SECURITY
from ..net.headers import PROTO_ESP, OptionTLV
from ..net.packet import Packet
from ..net.addresses import IPAddress
from ..topo import Topology, TopologyPluginLibrary
from .adversarial import AttackScenario, _background_stream, _mix
from .flows import FlowSpec

#: Topology scenario registry: name -> builder(seed=..., **params)
#: -> (Topology, AttackScenario).
TOPO_SCENARIOS: Dict[str, Callable] = {}


def topo_scenario(name: str) -> Callable:
    """Register a topology scenario builder under ``name``."""

    def register(builder: Callable) -> Callable:
        TOPO_SCENARIOS[name] = builder
        return builder

    return register


def build(name: str, seed: int = 1, **params) -> Tuple[Topology, AttackScenario]:
    """Build a registered topology scenario by name (deterministic)."""
    try:
        builder = TOPO_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown topology scenario {name!r}; "
            f"known: {topo_scenario_names()}"
        ) from None
    return builder(seed=seed, **params)


def topo_scenario_names() -> List[str]:
    return sorted(TOPO_SCENARIOS)


def _delivery_check(
    name: str,
    min_delivery: float = 0.99,
    max_attack_delivery: float = 1.0,
) -> Callable[[dict], List[str]]:
    """Topology invariance check: established flows deliver end to end
    in every phase; hostile traffic delivers at most
    ``max_attack_delivery`` (0.0 = must all die in the network).

    The single-router ``_retention_check`` reasons about one flow
    table's miss deltas; a multi-hop path re-classifies at every node,
    so here the invariant is end-to-end *delivery*, which the topology
    dispositions (adoption-chased) report exactly."""

    def check(report: dict) -> List[str]:
        violations = []
        for phase in ("warmup", "attack", "recovery"):
            stats = report["phases"][phase]
            if stats["background_sent"]:
                delivered = (
                    stats["background_forwarded"] / stats["background_sent"]
                )
                if delivered < min_delivery:
                    violations.append(
                        f"{name}: only {delivered:.3f} of established-flow "
                        f"packets delivered end-to-end during {phase} "
                        f"(need >= {min_delivery})"
                    )
        att = report["phases"]["attack"]
        if att["attack_sent"]:
            delivered = att["attack_forwarded"] / att["attack_sent"]
            if delivered > max_attack_delivery:
                violations.append(
                    f"{name}: {delivered:.3f} of hostile packets crossed "
                    f"the network (allowed <= {max_attack_delivery})"
                )
        return violations

    return check


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
@topo_scenario("ipsec_tunnel")
def ipsec_tunnel(
    seed: int = 1,
    background_flows: int = 16,
    warmup_packets: int = 300,
    attack_packets: int = 900,
    recovery_packets: int = 300,
    mix: float = 0.5,
    rate_pps: float = 20_000.0,
) -> Tuple[Topology, AttackScenario]:
    """Site-to-site IPsec over 4 hops: ``e1 -> gwa -> gwb -> e2``.

    ``gwa`` encrypts and tunnels everything 10.1/16 -> 10.2/16 toward
    the far endpoint; ``gwb`` authenticates, decapsulates and forwards
    the inner packet on to ``e2``.  The attack is spoofed ESP (random
    sources, the real tunnel endpoint as destination): it matches no
    inbound SA filter and must be dropped, while the tunnelled
    background flows keep delivering."""
    from ..security import EspPlugin, SADatabase, SecurityAssociation

    sa_args = dict(
        auth_key=b"authentication-k",
        encryption_key=b"encryption-key!!",
        mode="tunnel",
        tunnel_src="192.0.2.1",
        tunnel_dst="192.0.2.2",
    )

    topo = Topology("ipsec_tunnel", max_hops=8)
    topo.add_node("e1")
    topo.add_node("gwa")
    topo.add_node("gwb")
    topo.add_node("e2")
    topo.add_interface("e1", "lan0", prefix="10.1.0.0/16")
    topo.add_interface("e1", "up0")
    topo.add_interface("gwa", "dn0")
    topo.add_interface("gwa", "wan0", prefix="192.0.2.0/24")
    topo.add_interface("gwb", "wan0", prefix="192.0.2.0/24")
    topo.add_interface("gwb", "dn0")
    topo.add_interface("e2", "up0")
    topo.add_interface("e2", "lan0", prefix="10.2.0.0/16")
    topo.link("e1", "up0", "gwa", "dn0")
    topo.link("gwa", "wan0", "gwb", "wan0")
    topo.link("gwb", "dn0", "e2", "up0")
    topo.add_route("e1", "10.2.0.0/16", "up0")
    topo.add_route("e1", "192.0.2.0/24", "up0")
    topo.add_route("gwa", "10.2.0.0/16", "wan0")
    topo.add_route("gwa", "192.0.2.0/24", "wan0")
    topo.add_route("gwb", "10.2.0.0/16", "dn0")
    # gwb has no static 192.0.2/24 route, but its wan0 prefix is a
    # connected one: ESP that matches no inbound SA filter is sent back
    # to gwa, bounces between the gateways and ends as dropped_loop at
    # max_hops (e1, then gwa/gwb alternating: 8 receives, not 3).
    topo.add_route("e2", "10.2.0.0/16", "lan0")

    esp_out = EspPlugin()
    topo.node("gwa").pcu.load(esp_out)
    outbound = esp_out.create_instance(
        direction="out", sa=SecurityAssociation(spi=0x1001, **sa_args)
    )
    esp_out.register_instance(
        outbound, "10.1.0.0/16, 10.2.0.0/16", gate=GATE_IP_SECURITY
    )

    sadb = SADatabase()
    sadb.add(SecurityAssociation(spi=0x1001, **sa_args))
    esp_in = EspPlugin()
    topo.node("gwb").pcu.load(esp_in)
    inbound = esp_in.create_instance(direction="in", sadb=sadb)
    esp_in.register_instance(
        inbound, f"192.0.2.1, 192.0.2.2, {PROTO_ESP}", gate=GATE_IP_SECURITY
    )

    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.1.{i // 250}.{i % 250 + 1}",
            dst=f"10.2.0.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif="lan0",
        )
        for i in range(background_flows)
    ]

    def spoofed_esp(r: random.Random) -> Packet:
        return Packet(
            src=IPAddress.parse(
                f"66.{r.randrange(256)}.{r.randrange(256)}"
                f".{r.randrange(1, 255)}"
            ),
            dst=IPAddress.parse("192.0.2.2"),
            protocol=PROTO_ESP,
            payload=bytes(r.randrange(256) for _ in range(32)),
            iif="lan0",
        )

    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t = warm[-1][0] + gap
    storm = _mix(flows, spoofed_esp, attack_packets, mix, t, gap, rng)
    t = storm[-1][0] + gap
    calm = _background_stream(flows, recovery_packets, t, gap, rng)
    return topo, AttackScenario(
        name="ipsec_tunnel",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=_delivery_check(
            "ipsec_tunnel", min_delivery=1.0, max_attack_delivery=0.0
        ),
    )


@topo_scenario("v6_options")
def v6_options(
    seed: int = 1,
    background_flows: int = 16,
    warmup_packets: int = 300,
    attack_packets: int = 900,
    recovery_packets: int = 300,
    mix: float = 0.5,
    rate_pps: float = 20_000.0,
) -> Tuple[Topology, AttackScenario]:
    """IPv6 end-to-end through 3 hops, each walking hop-by-hop options.

    Background flows carry a benign unknown option (action bits 00 =
    skip); the attack carries a drop-action option (action bits 01) and
    must be dropped by the first hop's option walker."""
    from ..options import HopByHopPlugin

    topo = Topology("v6_options", max_hops=8)
    for name in ("r1", "r2", "r3"):
        topo.add_node(name)
    topo.add_interface("r1", "lan0", prefix="2001:db8:1::/48")
    topo.add_interface("r1", "up0")
    topo.add_interface("r2", "dn0")
    topo.add_interface("r2", "up0")
    topo.add_interface("r3", "dn0")
    topo.add_interface("r3", "lan0", prefix="2001:db8:2::/48")
    topo.link("r1", "up0", "r2", "dn0")
    topo.link("r2", "up0", "r3", "dn0")
    topo.add_route("r1", "2001:db8:2::/48", "up0")
    topo.add_route("r2", "2001:db8:2::/48", "up0")
    topo.add_route("r3", "2001:db8:2::/48", "lan0")

    for name in ("r1", "r2", "r3"):
        plugin = HopByHopPlugin()
        topo.node(name).pcu.load(plugin)
        walker = plugin.create_instance()
        plugin.register_instance(walker, "*, *", gate=GATE_IP_OPTIONS)

    rng = random.Random(seed)
    benign = OptionTLV(0x1e)        # action 00: skip if unrecognized
    hostile_option = OptionTLV(0x5e)  # action 01: drop if unrecognized
    flows = [
        FlowSpec(
            src=f"2001:db8:1::{i + 1:x}",
            dst=f"2001:db8:2::{i % 40 + 1:x}",
            src_port=5000 + i,
            dst_port=9000,
            iif="lan0",
        )
        for i in range(background_flows)
    ]

    def background_packet(spec: FlowSpec) -> Packet:
        return spec.packet(hop_options=[benign])

    def poison(r: random.Random) -> Packet:
        spec = FlowSpec(
            src=f"2001:db8:66::{r.randrange(1, 1 << 16):x}",
            dst=f"2001:db8:2::{r.randrange(1, 40):x}",
            src_port=r.randrange(1024, 65536),
            dst_port=9000,
            iif="lan0",
        )
        return spec.packet(hop_options=[hostile_option])

    gap = 1.0 / rate_pps

    def stream(packets: int, start: float) -> List[Tuple[float, Packet, bool]]:
        out = []
        now = start
        for _ in range(packets):
            out.append((now, background_packet(rng.choice(flows)), False))
            now += gap
        return out

    warm = stream(warmup_packets, 0.0)
    t = warm[-1][0] + gap
    storm = []
    for _ in range(attack_packets):
        if rng.random() < mix:
            storm.append((t, poison(rng), True))
        else:
            storm.append((t, background_packet(rng.choice(flows)), False))
        t += gap
    calm = stream(recovery_packets, t + gap)
    return topo, AttackScenario(
        name="v6_options",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=_delivery_check(
            "v6_options", min_delivery=1.0, max_attack_delivery=0.0
        ),
    )


@topo_scenario("hfsc_aggregation")
def hfsc_aggregation(
    seed: int = 1,
    background_flows: int = 12,
    warmup_packets: int = 300,
    crowd_packets: int = 900,
    recovery_packets: int = 300,
    rate_pps: float = 20_000.0,
    uplink_bps: float = 50e6,
) -> Tuple[Topology, AttackScenario]:
    """Edge → aggregation → core with H-FSC shaping the aggregation
    uplink (two classes: the established flows ride ``gold``, the crowd
    rides ``bulk``).  The crowd is *legitimate* overload: both classes
    must be served end to end — bulk through the queue, gold unharmed."""
    from ..sched import HfscPlugin, ServiceCurve

    topo = Topology("hfsc_aggregation", max_hops=8)
    topo.add_node("edge")
    topo.add_node("agg")
    topo.add_node("core")
    topo.add_interface("edge", "lan0", prefix="10.5.0.0/16")
    topo.add_interface("edge", "up0")
    topo.add_interface("agg", "dn0")
    topo.add_interface("agg", "up0", rate_bps=uplink_bps)
    topo.add_interface("core", "dn0")
    topo.add_interface("core", "lan0", prefix="20.5.0.0/16")
    topo.link("edge", "up0", "agg", "dn0")
    topo.link("agg", "up0", "core", "dn0")
    topo.add_route("edge", "20.5.0.0/16", "up0")
    topo.add_route("agg", "20.5.0.0/16", "up0")
    topo.add_route("core", "20.5.0.0/16", "lan0")

    hfsc = HfscPlugin()
    agg = topo.node("agg")
    agg.pcu.load(hfsc)
    shaper = hfsc.create_instance()
    shaper.add_class("gold", fsc=ServiceCurve.linear(uplink_bps * 0.7))
    shaper.add_class(
        "bulk", fsc=ServiceCurve.linear(uplink_bps * 0.3), default=True
    )
    agg.set_scheduler("up0", shaper)

    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.5.{i // 250}.{i % 250 + 1}",
            dst=f"20.5.0.{i % 20 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif="lan0",
        )
        for i in range(background_flows)
    ]

    def gold(spec: FlowSpec) -> Packet:
        packet = spec.packet()
        packet.annotations["hfsc_class"] = "gold"
        return packet

    def bulk(r: random.Random) -> Packet:
        spec = FlowSpec(
            src=f"10.5.{200 + r.randrange(40)}.{r.randrange(1, 255)}",
            dst=f"20.5.1.{r.randrange(1, 255)}",
            src_port=r.randrange(1024, 65536),
            dst_port=8000,
            size=1400,
            iif="lan0",
        )
        return spec.packet()

    gap = 1.0 / rate_pps

    def stream(packets: int, start: float) -> List[Tuple[float, Packet, bool]]:
        out = []
        now = start
        for _ in range(packets):
            out.append((now, gold(rng.choice(flows)), False))
            now += gap
        return out

    warm = stream(warmup_packets, 0.0)
    t = warm[-1][0] + gap
    storm = []
    for _ in range(crowd_packets):
        if rng.random() < 0.3:
            storm.append((t, gold(rng.choice(flows)), False))
        else:
            storm.append((t, bulk(rng), True))
        t += gap
    calm = stream(recovery_packets, t + gap)
    return topo, AttackScenario(
        name="hfsc_aggregation",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        check=_delivery_check(
            # The crowd is legitimate: it must be served too.
            "hfsc_aggregation", min_delivery=1.0, max_attack_delivery=1.0
        ),
    )


@topo_scenario("quarantine_reroute")
def quarantine_reroute(
    seed: int = 1,
    background_flows: int = 24,
    warmup_packets: int = 300,
    attack_packets: int = 900,
    recovery_packets: int = 300,
    rate_pps: float = 20_000.0,
) -> Tuple[Topology, AttackScenario]:
    """ECMP resilience: ``ingress -> {left, right} -> egress``.

    The flows spread over both transit nodes by the five-tuple fold.
    Mid-attack the control plane quarantines the left node's monitoring
    plugin through the topology library; the ECMP tap's health view
    excludes the impaired node, every flow re-folds onto ``right``, and
    the established flows must keep delivering end to end.  Near the
    attack's end the plugin is reinstated and traffic re-spreads."""
    from ..stats.plugin import StatisticsPlugin

    topo = Topology("quarantine_reroute", max_hops=8)
    topo.add_node("ingress")
    topo.add_node("left")
    topo.add_node("right")
    topo.add_node("egress")
    topo.add_interface("ingress", "lan0", prefix="10.6.0.0/16")
    topo.add_interface("ingress", "up1")
    topo.add_interface("ingress", "up2")
    topo.add_interface("left", "dn0")
    topo.add_interface("left", "out0")
    topo.add_interface("right", "dn0")
    topo.add_interface("right", "out0")
    topo.add_interface("egress", "in1")
    topo.add_interface("egress", "in2")
    topo.add_interface("egress", "lan0", prefix="20.6.0.0/16")
    topo.link("ingress", "up1", "left", "dn0")
    topo.link("ingress", "up2", "right", "dn0")
    topo.link("left", "out0", "egress", "in1")
    topo.link("right", "out0", "egress", "in2")
    topo.ecmp("ingress", "20.6.0.0/16", ["up1", "up2"])
    topo.add_route("left", "20.6.0.0/16", "out0")
    topo.add_route("right", "20.6.0.0/16", "out0")
    topo.add_route("egress", "20.6.0.0/16", "lan0")

    library = TopologyPluginLibrary(topo)
    for name in ("left", "right"):
        plugin = StatisticsPlugin()
        topo.node(name).pcu.load(plugin)
        monitor = plugin.create_instance()
        plugin.register_instance(monitor, "*, *", gate=GATE_IP_OPTIONS)

    rng = random.Random(seed)
    flows = [
        FlowSpec(
            src=f"10.6.{i // 250}.{i % 250 + 1}",
            dst=f"20.6.0.{i % 40 + 1}",
            src_port=5000 + i,
            dst_port=9000,
            iif="lan0",
        )
        for i in range(background_flows)
    ]
    gap = 1.0 / rate_pps
    warm = _background_stream(flows, warmup_packets, 0.0, gap, rng)
    t0 = warm[-1][0] + gap
    storm = _background_stream(flows, attack_packets, t0, gap, rng)
    # Benign traffic under control-plane impairment: keep the packets
    # tagged background so delivery accounting covers all of them.
    storm = [(t, p, False) for (t, p, _a) in storm]
    calm = _background_stream(
        flows, recovery_packets, storm[-1][0] + gap, gap, rng
    )

    def impair(_router) -> None:
        library.quarantine("stats", node="left")

    def recover(_router) -> None:
        library.reinstate("stats", node="left")

    quarter = attack_packets // 4
    ops = [
        (t0 + quarter * gap, impair),
        (t0 + 3 * quarter * gap, recover),
    ]
    return topo, AttackScenario(
        name="quarantine_reroute",
        warmup=warm,
        attack=storm,
        recovery=calm,
        background=flows,
        control_ops=ops,
        check=_delivery_check("quarantine_reroute", min_delivery=1.0),
    )
