"""The Internet checksum (RFC 1071) used by IPv4/UDP/TCP headers."""

from __future__ import annotations

import struct


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is padded with a zero byte, per RFC 1071.  The
    16-bit words are summed at C speed; folding the carries back in is
    the sum modulo 0xFFFF (2**16 = 1 mod 0xFFFF), and the complement of
    a folded ``r`` is ``0xFFFF - r``.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = sum(struct.unpack_from("!%dH" % (len(data) // 2), data))
    if not total:
        return 0xFFFF
    return -total % 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0
