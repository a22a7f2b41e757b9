#!/usr/bin/env python3
"""A filtering border router with L4 policy routing — two more of the
paper's applications in one script:

* §2: "our framework is also very well suited to Application Layer
  Gateways (ALGs), and to security devices like Firewalls ... quickly
  and efficiently classify packets into flows, and apply different
  policies to different flows";
* §8 future work, implemented here: "By unifying routing and packet
  classification, we get QoS-based routing/Level 4 switching for free."

Policy:
  - default-deny inbound, allow established web (TCP/80, 443) and DNS;
  - video traffic (UDP dport 4000) leaves on the premium path (atm2),
    everything else on the default path (atm1) — same destination,
    different route, chosen on ports.

Run:  python examples/firewall_l4.py
"""

from repro.core import (
    GATE_IP_SECURITY,
    GATE_ROUTING,
    GATES_WITH_L4_ROUTING,
    Router,
)
from repro.core.routing_plugin import L4RoutingPlugin
from repro.net.packet import make_tcp, make_udp
from repro.security import FirewallPlugin


def main() -> None:
    router = Router(name="border", gates=GATES_WITH_L4_ROUTING)
    router.add_interface("outside0", prefix="0.0.0.0/0")
    router.add_interface("atm1", prefix="10.0.0.0/8")    # default path
    router.add_interface("atm2")                         # premium path

    # --- firewall policy at the security gate -------------------------
    firewall = FirewallPlugin()
    router.pcu.load(firewall)
    allow = firewall.create_instance(action="allow", name="allow")
    deny = firewall.create_instance(action="deny", name="default-deny")
    # Default deny for anything inbound headed at the protected net...
    firewall.register_instance(deny, "*, 10.0.0.0/8", gate=GATE_IP_SECURITY)
    # ...with per-service allows (more specific filters win).
    for service in ("TCP, *, 80", "TCP, *, 443", "UDP, *, 53", "UDP, *, 4000"):
        firewall.register_instance(
            allow, f"*, 10.0.0.0/8, {service}", gate=GATE_IP_SECURITY
        )

    # --- L4 switching at the routing gate ------------------------------
    l4 = L4RoutingPlugin()
    router.pcu.load(l4)
    premium = l4.create_instance(action="forward", interface="atm2")
    l4.register_instance(premium, "*, 10.0.0.0/8, UDP, *, 4000", gate=GATE_ROUTING)

    # --- traffic --------------------------------------------------------
    cases = [
        ("web",   make_tcp("198.51.100.7", "10.0.0.5", 33000, 80, iif="outside0")),
        ("https", make_tcp("198.51.100.7", "10.0.0.5", 33001, 443, iif="outside0")),
        ("dns",   make_udp("198.51.100.9", "10.0.0.5", 5353, 53, iif="outside0")),
        ("video", make_udp("198.51.100.9", "10.0.0.5", 9000, 4000, iif="outside0")),
        ("telnet", make_tcp("198.51.100.7", "10.0.0.5", 33002, 23, iif="outside0")),
        ("scan",  make_udp("203.0.113.1", "10.0.0.5", 1, 31337, iif="outside0")),
    ]
    print(f"{'traffic':<8} {'disposition':<20} {'egress':<8}")
    before = {name: router.interface(name).tx_packets for name in ("atm1", "atm2")}
    for label, packet in cases:
        disposition = router.receive(packet)
        egress = "-"
        for name in ("atm1", "atm2"):
            if router.interface(name).tx_packets > before[name]:
                egress = name
                before[name] = router.interface(name).tx_packets
        print(f"{label:<8} {disposition:<20} {egress:<8}")

    print(f"\nfirewall: {allow.allowed} allowed, {deny.denied} denied")
    print(f"video took the premium path (atm2) purely on its destination port —")
    print("route lookups skipped for L4-routed flows: see EXPERIMENTS.md")


if __name__ == "__main__":
    main()
