"""A ``routed``-style distance-vector daemon (RIP-lite).

The paper's control plane includes "the route daemon" linked against the
Router Plugin Library.  This one advertises the router's routing table
to its neighbors periodically (split horizon), learns routes with
hop-count metrics, and expires unrefreshed routes — enough to populate
multi-router topologies for the daemon and VPN experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.router import Router
from ..net.addresses import IPAddress
from ..net.headers import PROTO_UDP
from ..net.packet import Packet
from .common import decode, expired, send

RIP_PORT = 520
INFINITY_METRIC = 16
DEFAULT_PERIOD = 30.0
DEFAULT_EXPIRE = 180.0


@dataclass
class LearnedRoute:
    prefix: str
    metric: int
    neighbor: str          # address it was learned from
    iface: str
    refreshed_at: float


class RouteDaemon:
    """One router's distance-vector agent."""

    def __init__(
        self,
        router: Router,
        neighbors: Optional[Dict[str, IPAddress]] = None,
        period: float = DEFAULT_PERIOD,
        expire_after: float = DEFAULT_EXPIRE,
    ):
        self.router = router
        self.neighbors = dict(neighbors or {})
        self.period = period
        self.expire_after = expire_after
        self.learned: Dict[str, LearnedRoute] = {}
        self.updates_sent = 0
        self.updates_received = 0
        self.malformed = 0
        router.register_protocol_handler(PROTO_UDP, self._on_udp)

    # ------------------------------------------------------------------
    # Advertisement
    # ------------------------------------------------------------------
    def _vector_for(self, out_iface: str) -> list:
        """Routing vector with split horizon on ``out_iface``."""
        vector = []
        for route in self.router.routing_table.routes():
            learned = self.learned.get(str(route.prefix))
            if learned is not None and learned.iface == out_iface:
                continue  # split horizon: don't echo back
            vector.append({"prefix": str(route.prefix), "metric": route.metric})
        return vector

    def advertise(self, now: float = 0.0) -> int:
        """Send the routing vector to every neighbor; returns count."""
        sent = 0
        for iface, neighbor in self.neighbors.items():
            message = {"op": "update", "routes": self._vector_for(iface)}
            send(self.router, neighbor, message, PROTO_UDP, now, iface=iface,
                 src_port=RIP_PORT, dst_port=RIP_PORT)
            sent += 1
            self.updates_sent += 1
        return sent

    def start(self, loop, jitter: float = 0.0) -> None:
        """Periodic advertisement on the event loop."""

        def tick():
            self.advertise(loop.now)
            self.expire(loop.now)
            loop.schedule(self.period, tick)

        loop.schedule(jitter, tick)

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _on_udp(self, packet: Packet, router: Router, now: float) -> None:
        if packet.dst_port != RIP_PORT:
            return  # not for us
        self.updates_received += 1
        message = decode(packet)
        try:
            if message is None:
                raise ValueError("not a JSON object")
            routes = message["routes"] if message.get("op") == "update" else []
            entries = [(e["prefix"], int(e["metric"])) for e in routes]
        except (ValueError, KeyError, TypeError):
            self.malformed += 1
            return
        neighbor = str(packet.src)
        iface = packet.iif
        for prefix, metric in entries:
            self._learn(prefix, metric, neighbor, iface, now)

    def _learn(self, prefix: str, metric: int, neighbor: str, iface: str, now: float) -> None:
        candidate = min(metric + 1, INFINITY_METRIC)
        existing = self.learned.get(prefix)
        if existing is not None and existing.neighbor == neighbor:
            # Updates from the incumbent next hop always apply.
            existing.metric = candidate
            existing.refreshed_at = now
            if candidate >= INFINITY_METRIC:
                self.router.routing_table.remove(prefix)
                del self.learned[prefix]
            else:
                self.router.routing_table.add(
                    prefix, iface, next_hop=neighbor, metric=candidate
                )
            return
        if candidate >= INFINITY_METRIC:
            return
        # Is it better than what we have?
        local = self._local_metric(prefix)
        if local is not None and local <= candidate:
            return
        self.learned[prefix] = LearnedRoute(prefix, candidate, neighbor, iface, now)
        self.router.routing_table.add(prefix, iface, next_hop=neighbor, metric=candidate)

    def _local_metric(self, prefix: str) -> Optional[int]:
        for route in self.router.routing_table.routes():
            if str(route.prefix) == prefix:
                return route.metric
        return None

    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Drop learned routes that have not been refreshed."""
        stale = expired(self.learned, now, self.expire_after, "refreshed_at")
        for route in stale:
            self.router.routing_table.remove(route.prefix)
        return len(stale)
