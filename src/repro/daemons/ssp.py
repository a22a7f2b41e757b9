"""The SSP daemon — the paper's State Setup Protocol (ref [1], a
simplified, sender-oriented RSVP; the paper's authors implemented SSP
for their system while porting RSVP).

A SETUP message carries a flow filter and a rate.  Each SSP daemon along
the path to the destination installs the reservation — a filter at the
scheduling gate bound to the output interface's DRR scheduler plus a
weight reservation — and forwards the SETUP to the next SSP hop.
TEARDOWN walks the same path removing state.  Reservations are soft
state: :meth:`expire` drops entries not refreshed within the timeout.

Messages are JSON in the packet payload (the paper's wire encoding is
unspecified; the daemon logic is what matters architecturally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.router import Router
from ..net.addresses import IPAddress
from ..net.headers import PROTO_SSP
from ..net.packet import Packet
from ..sched.drr import DrrInstance
from .common import decode, expired, reserve, send

DEFAULT_TIMEOUT = 30.0


class SSPError(RuntimeError):
    """Reservation setup failure."""


@dataclass
class Reservation:
    """Per-router SSP state for one flow."""

    flow_id: str
    flowspec: str
    rate_bps: float
    filter_record: object
    scheduler: DrrInstance
    refreshed_at: float = 0.0
    extra: dict = field(default_factory=dict)


class SSPDaemon:
    """One router's SSP agent."""

    def __init__(
        self,
        router: Router,
        neighbors: Optional[Dict[str, IPAddress]] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.router = router
        self.neighbors = dict(neighbors or {})
        self.timeout = timeout
        self.reservations: Dict[str, Reservation] = {}
        self.messages_seen = 0
        self.malformed = 0
        router.register_protocol_handler(PROTO_SSP, self._on_packet)

    # ------------------------------------------------------------------
    # Sender API (ingress router)
    # ------------------------------------------------------------------
    def request(
        self, flow_id: str, flowspec: str, rate_bps: float, dst: str, now: float = 0.0
    ) -> None:
        """Initiate a reservation from this router toward ``dst``."""
        message = {
            "op": "setup",
            "flow_id": flow_id,
            "flowspec": flowspec,
            "rate_bps": rate_bps,
            "dst": dst,
        }
        self._handle(message, now)

    def teardown(self, flow_id: str, now: float = 0.0) -> None:
        reservation = self.reservations.get(flow_id)
        if reservation is None:
            return
        message = {"op": "teardown", "flow_id": flow_id, "dst": reservation.extra["dst"]}
        self._handle(message, now)

    def refresh(self, flow_id: str, now: float) -> None:
        """Re-send the SETUP to keep soft state alive along the path."""
        reservation = self.reservations.get(flow_id)
        if reservation is not None:
            self.request(flow_id, reservation.flowspec, reservation.rate_bps,
                         reservation.extra["dst"], now)

    # ------------------------------------------------------------------
    # Wire handling
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet, router: Router, now: float) -> None:
        self.messages_seen += 1
        # Garbage on the control port must not take the daemon down.
        message = decode(packet) or {}
        try:
            self._handle(message, now)
        except (KeyError, SSPError):
            self.malformed += 1

    def _handle(self, message: dict, now: float) -> None:
        if message["op"] == "setup":
            self._setup(message, now)
        elif message["op"] == "teardown":
            self._teardown(message, now)
        else:
            raise SSPError(f"unknown SSP op {message['op']!r}")

    # ------------------------------------------------------------------
    # State installation
    # ------------------------------------------------------------------
    def _setup(self, message: dict, now: float) -> None:
        route = self.router.routing_table.lookup(message["dst"])
        if route is None:
            raise SSPError(f"{self.router.name}: no route toward {message['dst']}")
        flow_id = message["flow_id"]
        existing = self.reservations.get(flow_id)
        if existing is not None:
            existing.refreshed_at = now
        else:
            record = reserve(
                self.router, route.interface, message["flowspec"], message["rate_bps"],
                SSPError,
            )
            self.reservations[flow_id] = Reservation(
                flow_id=flow_id,
                flowspec=message["flowspec"],
                rate_bps=message["rate_bps"],
                filter_record=record,
                scheduler=record.instance,
                refreshed_at=now,
                extra={"dst": message["dst"]},
            )
        self._forward(message, route.interface, now)

    def _teardown(self, message: dict, now: float) -> None:
        reservation = self.reservations.pop(message["flow_id"], None)
        if reservation is not None:
            self.router.aiu.remove_filter(reservation.filter_record)
        route = self.router.routing_table.lookup(message["dst"])
        if route is not None:
            self._forward(message, route.interface, now)

    def _forward(self, message: dict, oif: str, now: float) -> None:
        """Send the message to the next SSP hop, if one exists."""
        neighbor = self.neighbors.get(oif)
        if neighbor is not None:        # else destination side: path ends here
            send(self.router, neighbor, message, PROTO_SSP, now, iface=oif)

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def expire(self, now: float) -> int:
        """Drop reservations not refreshed within the timeout; their
        filters go in one AIU removal."""
        stale = expired(self.reservations, now, self.timeout, "refreshed_at")
        self.router.aiu.remove_filters([r.filter_record for r in stale])
        return len(stale)
