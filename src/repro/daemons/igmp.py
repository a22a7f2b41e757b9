"""An IGMP-lite group-membership daemon.

Downstream hosts send join/leave reports (modelled as ICMP-protocol
control packets with a JSON body, like the other daemons); the daemon
maintains the router's multicast table: an interface is added to a
group's downstream list on join and aged out when reports stop.

This is the membership half of the intro's "multicast" bullet; the
forwarding half lives in :mod:`repro.core.multicast`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.router import Router
from ..net.addresses import IPAddress
from ..net.packet import Packet
from .common import decode, expired

#: Protocol number 2 is IGMP.
PROTO_IGMP = 2
DEFAULT_MEMBERSHIP_TIMEOUT = 260.0      # RFC 2236 group membership interval


@dataclass
class Membership:
    group: IPAddress
    iface: str
    reported_at: float = 0.0
    reporters: set = field(default_factory=set)


class IGMPDaemon:
    """Tracks (group, downstream interface) memberships."""

    def __init__(
        self,
        router: Router,
        timeout: float = DEFAULT_MEMBERSHIP_TIMEOUT,
    ):
        self.router = router
        self.timeout = timeout
        self._members: Dict[Tuple[IPAddress, str], Membership] = {}
        self._routes: Dict[IPAddress, object] = {}
        self.reports = 0
        self.malformed = 0
        router.register_protocol_handler(PROTO_IGMP, self._on_packet)

    # ------------------------------------------------------------------
    # Wire handling
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet, router: Router, now: float) -> None:
        message = decode(packet) or {}
        try:
            op = message["op"]
            group = IPAddress.parse(message["group"])
        except (ValueError, KeyError, TypeError):
            self.malformed += 1
            return
        if not group.is_multicast:
            self.malformed += 1
            return
        if op == "join":
            self.join(group, packet.iif, reporter=str(packet.src), now=now)
        elif op == "leave":
            self.leave(group, packet.iif, reporter=str(packet.src))
        else:
            self.malformed += 1

    # ------------------------------------------------------------------
    # Membership maintenance
    # ------------------------------------------------------------------
    def join(self, group, iface: str, reporter: str = "", now: float = 0.0) -> None:
        if isinstance(group, str):
            group = IPAddress.parse(group)
        self.reports += 1
        key = (group, iface)
        member = self._members.get(key)
        if member is None:
            member = Membership(group=group, iface=iface)
            self._members[key] = member
        member.reported_at = now
        if reporter:
            member.reporters.add(reporter)
        self._sync_route(group)

    def leave(self, group, iface: str, reporter: str = "") -> None:
        if isinstance(group, str):
            group = IPAddress.parse(group)
        key = (group, iface)
        member = self._members.get(key)
        if member is None:
            return
        if reporter:
            member.reporters.discard(reporter)
            if member.reporters:
                return  # other hosts on the segment still want it
        del self._members[key]
        self._sync_route(group)

    def expire(self, now: float) -> int:
        """Age out interfaces whose last report is too old."""
        stale = expired(self._members, now, self.timeout, "reported_at")
        for group in {member.group for member in stale}:
            self._sync_route(group)
        return len(stale)

    # ------------------------------------------------------------------
    def _sync_route(self, group: IPAddress) -> None:
        """Rebuild the multicast-table entry from current memberships."""
        old = self._routes.pop(group, None)
        if old is not None:
            self.router.multicast_table.remove(old)
        interfaces = sorted(
            iface for (g, iface) in self._members if g == group
        )
        if interfaces:
            self._routes[group] = self.router.multicast_table.add(
                group, interfaces
            )

    def interfaces_for(self, group) -> list:
        if isinstance(group, str):
            group = IPAddress.parse(group)
        route = self._routes.get(group)
        return list(route.out_interfaces) if route is not None else []

    def __len__(self) -> int:
        return len(self._members)
