"""IPv4 fragmentation and reassembly.

The paper sidesteps fragmentation ("The ATM MTU was 9180, so there was
no fragmentation"), but a router library needs it: IPv4 packets larger
than the output MTU are fragmented (unless DF), IPv6 packets are never
fragmented in the network (the router answers Packet Too Big instead).

Fragments are modelled as packets whose fragmentation fields ride in
``annotations['frag']``; the payload is the corresponding byte slice.
Fragment boundaries fall on 8-byte multiples, per RFC 791.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .headers import FragInfo, IPv4Header
from .packet import Packet

_ident = itertools.count(1)

IPV4_HEADER = IPv4Header.HEADER_LEN


class FragmentationError(ValueError):
    """Cannot fragment (DF set, IPv6, or absurd MTU)."""


def fragment_v4(packet: Packet, mtu: int, df: bool = False) -> List[Packet]:
    """Split an IPv4 packet into MTU-sized fragments.

    The transport header travels only in the first fragment (as on the
    wire); per-fragment payloads are the raw byte slices of the original
    transport payload.
    """
    if packet.is_ipv6:
        raise FragmentationError("IPv6 packets are never fragmented in the network")
    if packet.length <= mtu:
        return [packet]
    if df:
        raise FragmentationError("DF set on an oversized packet")
    chunk = mtu - IPV4_HEADER
    chunk -= chunk % 8
    if chunk <= 0:
        raise FragmentationError(f"MTU {mtu} cannot carry any payload")
    # The fragmentable part: transport header + payload, as raw bytes.
    body = packet.serialize()[IPV4_HEADER:]
    ident = next(_ident)
    fragments: List[Packet] = []
    offset = 0
    while offset < len(body):
        piece = body[offset : offset + chunk]
        frag = Packet(
            src=packet.src,
            dst=packet.dst,
            protocol=packet.protocol,
            # Ports are classification metadata: only the first fragment
            # carries the transport header, so later fragments have none
            # (the classic fragment/classifier interaction).
            src_port=packet.src_port if offset == 0 else 0,
            dst_port=packet.dst_port if offset == 0 else 0,
            iif=packet.iif,
            payload=piece,
            ttl=packet.ttl,
            tos=packet.tos,
        )
        more = offset + chunk < len(body)
        frag.annotations["frag"] = FragInfo(ident, offset, more)
        frag.annotations["frag_raw"] = piece
        fragments.append(frag)
        offset += chunk
    return fragments


class Reassembler:
    """End-host reassembly of fragmented v4 packets (for tests/hosts)."""

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout
        # (src, dst, ident) -> {offset: bytes}, plus bookkeeping.
        self._partial: Dict[Tuple, Dict[int, bytes]] = {}
        self._seen_last: Dict[Tuple, int] = {}
        self._started: Dict[Tuple, float] = {}
        self.completed = 0
        self.timed_out = 0

    def add(self, fragment: Packet, now: float = 0.0) -> Optional[Packet]:
        """Feed one fragment; returns the reassembled packet when done."""
        info: Optional[FragInfo] = fragment.annotations.get("frag")
        if info is None:
            return fragment  # not a fragment
        key = (fragment.src.value, fragment.dst.value, info.ident)
        pieces = self._partial.setdefault(key, {})
        self._started.setdefault(key, now)
        pieces[info.offset] = fragment.annotations["frag_raw"]
        if not info.more_fragments:
            self._seen_last[key] = info.offset + len(
                fragment.annotations["frag_raw"]
            )
        total = self._seen_last.get(key)
        if total is None:
            return None
        have = sum(len(piece) for piece in pieces.values())
        if have < total:
            return None
        body = b"".join(pieces[offset] for offset in sorted(pieces))
        del self._partial[key], self._seen_last[key], self._started[key]
        self.completed += 1
        # Rebuild the original datagram from header info + body bytes.
        header = IPv4Header(
            src=fragment.src,
            dst=fragment.dst,
            protocol=fragment.protocol,
            total_length=IPV4_HEADER + len(body),
            ttl=fragment.ttl,
            tos=fragment.tos,
        )
        return Packet.parse(header.serialize() + body, iif=fragment.iif)

    def expire(self, now: float) -> int:
        stale = [k for k, started in self._started.items()
                 if now - started > self.timeout]
        for key in stale:
            self._partial.pop(key, None)
            self._seen_last.pop(key, None)
            self._started.pop(key, None)
            self.timed_out += 1
        return len(stale)

    @property
    def pending(self) -> int:
        return len(self._partial)
