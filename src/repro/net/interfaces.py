"""Simulated network interfaces and point-to-point links.

This replaces the paper's ATM hardware: an interface has an MTU and a link
rate, models serialization delay when transmitting, and hands packets to
the peer interface across a :class:`Link` with a propagation delay.

The router core pulls received packets with :meth:`NetworkInterface.poll`;
a discrete-event driver (see :mod:`repro.sim`) can instead register a
delivery callback to be woken exactly at arrival times.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from .packet import Packet

DEFAULT_MTU = 9180            # the paper's ATM MTU
DEFAULT_RATE_BPS = 155_520_000  # OC-3, typical for 1998 ATM gear

_seq = itertools.count()


class InterfaceError(RuntimeError):
    """Raised on interface misuse (e.g. oversized frame, no peer)."""


class NetworkInterface:
    """One router port: an MTU, a transmit rate, and RX/TX accounting."""

    def __init__(
        self,
        name: str,
        mtu: int = DEFAULT_MTU,
        rate_bps: float = DEFAULT_RATE_BPS,
    ):
        self.name = name
        self.mtu = mtu
        self.rate_bps = float(rate_bps)
        self.link: Optional["Link"] = None
        # Pending arrivals: (arrival_time, seq, packet).
        self._inbox: List[Tuple[float, int, Packet]] = []
        self._next_free = 0.0  # when the transmitter finishes its last frame
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_drops = 0
        self.on_deliver: Optional[Callable[[float, Packet], None]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, other: "NetworkInterface", delay: float = 0.0) -> "Link":
        """Create a bidirectional link between this interface and ``other``."""
        link = Link(self, other, delay)
        self.link = link
        other.link = link
        return link

    @property
    def peer(self) -> Optional["NetworkInterface"]:
        if self.link is None:
            return None
        return self.link.other_end(self)

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------
    @property
    def next_free(self) -> float:
        """When the transmitter finishes the frame it is clocking out."""
        return self._next_free

    def serialization_delay(self, packet: Packet) -> float:
        """Seconds needed to clock the packet onto the wire."""
        return packet.length * 8 / self.rate_bps

    def output(self, packet: Packet, now: float = 0.0) -> float:
        """Transmit a packet; returns the time it fully leaves the wire.

        If no link is attached the interface behaves as a sink (the packet
        is counted as transmitted and discarded) which is convenient for
        single-router benchmarks.
        """
        length = packet.length
        if length > self.mtu:
            self.tx_drops += 1
            raise InterfaceError(
                f"{self.name}: packet of {length} B exceeds MTU {self.mtu}"
            )
        start = max(now, self._next_free)
        done = start + length * 8 / self.rate_bps
        self._next_free = done
        self.tx_packets += 1
        self.tx_bytes += length
        packet.departure_time = done
        if self.link is not None:
            self.link.carry(self, packet, done)
        return done

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def arrive(self, packet: Packet, at_time: float) -> None:
        """The wire crossing: the packet arrived here at ``at_time`` (a
        fresh mbuf: flow indices never cross the wire, and the flow key
        holds the iif), counted on RX.  Nothing on a wire changes the
        five-tuple, so its fold, the label fold and the length stay."""
        packet.iif = self.name
        packet.arrival_time = at_time
        packet._fix = None
        packet._flow_key = None
        self.rx_packets += 1
        self.rx_bytes += packet.length

    def deliver(self, packet: Packet, at_time: float) -> None:
        """Called by the link when a packet arrives at this interface:
        :meth:`arrive`, then the delivery callback or the RX queue."""
        self.arrive(packet, at_time)
        if self.on_deliver is not None:
            self.on_deliver(at_time, packet)
        else:
            heapq.heappush(self._inbox, (at_time, next(_seq), packet))

    def inject(self, packet: Packet, at_time: float = 0.0) -> None:
        """Place a packet directly into the RX queue (traffic generators)."""
        self.deliver(packet, at_time)

    def poll(self, now: Optional[float] = None) -> List[Packet]:
        """Drain packets that have arrived by ``now`` (all, if None)."""
        out: List[Packet] = []
        while self._inbox and (now is None or self._inbox[0][0] <= now):
            _t, _s, packet = heapq.heappop(self._inbox)
            out.append(packet)
        return out

    @property
    def pending_rx(self) -> int:
        return len(self._inbox)

    def __repr__(self) -> str:
        return f"NetworkInterface({self.name!r}, mtu={self.mtu}, rate={self.rate_bps:g}bps)"


class Link:
    """A full-duplex point-to-point link with a fixed propagation delay."""

    def __init__(self, a: NetworkInterface, b: NetworkInterface, delay: float = 0.0):
        self.a = a
        self.b = b
        self.delay = delay

    def other_end(self, iface: NetworkInterface) -> NetworkInterface:
        if iface is self.a:
            return self.b
        if iface is self.b:
            return self.a
        raise InterfaceError("interface is not on this link")

    def carry(self, sender: NetworkInterface, packet: Packet, departure: float) -> None:
        receiver = self.other_end(sender)
        receiver.deliver(packet, departure + self.delay)

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name}, delay={self.delay})"
