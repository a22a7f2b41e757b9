"""An RSVP-lite daemon (the paper was "in the process of porting an RSVP
implementation"; we implement the protocol's router-side core).

Receiver-oriented, per RFC 2205's shape:

* **PATH** messages travel downstream from the sender; each router
  records path state (session → previous RSVP hop) and forwards.
* **RESV** messages travel upstream along the recorded path; each router
  installs the reservation (scheduling-gate filter + DRR weight) and
  forwards toward the sender.
* Both kinds are **soft state** with periodic refresh; ``sweep`` expires
  anything not refreshed within the hold time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.router import Router
from ..net.addresses import IPAddress
from ..net.headers import PROTO_RSVP
from ..net.packet import Packet
from .common import decode, expired, reserve, send

DEFAULT_HOLD = 90.0


class RSVPError(RuntimeError):
    """Path/reservation processing failure."""


@dataclass
class PathState:
    session: str
    sender: str
    dst: str
    prev_hop: Optional[str]          # address of the upstream RSVP hop
    in_iface: Optional[str]
    refreshed_at: float = 0.0


@dataclass
class ResvState:
    session: str
    flowspec: str
    rate_bps: float
    filter_record: object
    refreshed_at: float = 0.0


class RSVPDaemon:
    """One router's RSVP agent."""

    def __init__(
        self,
        router: Router,
        neighbors: Optional[Dict[str, IPAddress]] = None,
        hold_time: float = DEFAULT_HOLD,
    ):
        self.router = router
        self.neighbors = dict(neighbors or {})
        self.hold_time = hold_time
        self.path_state: Dict[str, PathState] = {}
        self.resv_state: Dict[str, ResvState] = {}
        self.malformed = 0
        router.register_protocol_handler(PROTO_RSVP, self._on_packet)

    # ------------------------------------------------------------------
    # Endpoint API
    # ------------------------------------------------------------------
    def send_path(self, session: str, sender: str, dst: str, now: float = 0.0) -> None:
        """Originate a PATH at the sender-side router."""
        self._handle_path(
            {"op": "path", "session": session, "sender": sender, "dst": dst,
             "prev_hop": None},
            in_iface=None,
            now=now,
        )

    def send_resv(self, session: str, flowspec: str, rate_bps: float, now: float = 0.0) -> None:
        """Originate a RESV at the receiver-side router."""
        self._handle_resv(
            {"op": "resv", "session": session, "flowspec": flowspec, "rate_bps": rate_bps},
            now=now,
        )

    # ------------------------------------------------------------------
    # Wire handling
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet, router: Router, now: float) -> None:
        message = decode(packet) or {}
        op = message.get("op")
        try:
            if op == "path":
                self._handle_path(message, in_iface=packet.iif, now=now)
            elif op == "resv":
                self._handle_resv(message, now=now)
            else:
                self.malformed += 1
        except (KeyError, RSVPError):
            self.malformed += 1

    # ------------------------------------------------------------------
    # PATH downstream
    # ------------------------------------------------------------------
    def _handle_path(self, message: dict, in_iface: Optional[str], now: float) -> None:
        session = message["session"]
        state = self.path_state.get(session)
        if state is None:
            state = PathState(
                session=session,
                sender=message["sender"],
                dst=message["dst"],
                prev_hop=message.get("prev_hop"),
                in_iface=in_iface,
            )
            self.path_state[session] = state
        state.prev_hop = message.get("prev_hop")
        state.in_iface = in_iface
        state.refreshed_at = now
        # Forward downstream with ourselves as the previous hop.
        route = self.router.routing_table.lookup(message["dst"])
        if route is None:
            return
        neighbor = self.neighbors.get(route.interface)
        if neighbor is None:
            return  # we are the egress; the receiver reserves from here
        my_address = self.router.source_address(neighbor.width, route.interface) or neighbor
        onward = dict(message)
        onward["prev_hop"] = str(my_address)
        send(self.router, neighbor, onward, PROTO_RSVP, now)

    # ------------------------------------------------------------------
    # RESV upstream
    # ------------------------------------------------------------------
    def _handle_resv(self, message: dict, now: float) -> None:
        session = message["session"]
        path = self.path_state.get(session)
        if path is None:
            raise RSVPError(f"{self.router.name}: RESV for unknown session {session!r}")
        state = self.resv_state.get(session)
        if state is None:
            route = self.router.routing_table.lookup(path.dst)
            if route is None:
                raise RSVPError(f"{self.router.name}: no route for session {session!r}")
            record = reserve(
                self.router, route.interface, message["flowspec"], message["rate_bps"],
                RSVPError,
            )
            state = ResvState(
                session=session,
                flowspec=message["flowspec"],
                rate_bps=message["rate_bps"],
                filter_record=record,
            )
            self.resv_state[session] = state
        state.refreshed_at = now
        if path.prev_hop is not None:
            send(self.router, IPAddress.parse(path.prev_hop), message, PROTO_RSVP, now)

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def sweep(self, now: float) -> int:
        """Expire path and reservation state past the hold time; the
        expired reservations' filters go in one AIU removal."""
        resv = expired(self.resv_state, now, self.hold_time, "refreshed_at")
        self.router.aiu.remove_filters([state.filter_record for state in resv])
        return len(resv) + len(expired(self.path_state, now, self.hold_time, "refreshed_at"))
