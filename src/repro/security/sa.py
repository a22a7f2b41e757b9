"""Security associations and the SA database (RFC 1825 model).

An SA names one direction of protection: SPI, mode (transport/tunnel),
authentication algorithm/key, optional encryption key, and the replay
window state.  The SADB indexes SAs by SPI for inbound processing and by
name for configuration.

Cryptography: authentication uses stdlib HMAC (real); the ESP cipher is
a SHAKE-256 XOF keystream (simulation grade) — **not for production**
(documented substitution in DESIGN.md: the paper's IPsec plugins are
exercised architecturally).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Dict, Optional

AUTH_ALGORITHMS = ("hmac-md5", "hmac-sha1", "hmac-sha256")
ICV_BYTES = 12          # RFC 2402-style truncated ICV


class SecurityError(RuntimeError):
    """Authentication failure, replay, or unknown SA."""


class ReplayWindow:
    """The standard 64-bit sliding anti-replay window."""

    SIZE = 64

    def __init__(self):
        self.highest = 0
        self._bitmap = 0

    def check_and_update(self, sequence: int) -> bool:
        """True if the sequence number is fresh; records it."""
        if sequence == 0:
            return False
        if sequence > self.highest:
            shift = sequence - self.highest
            self._bitmap = ((self._bitmap << shift) | 1) & ((1 << self.SIZE) - 1)
            self.highest = sequence
            return True
        offset = self.highest - sequence
        if offset >= self.SIZE:
            return False
        if self._bitmap & (1 << offset):
            return False
        self._bitmap |= 1 << offset
        return True


@dataclass
class SecurityAssociation:
    """One unidirectional SA."""

    spi: int
    auth_key: bytes
    auth_algorithm: str = "hmac-sha1"
    encryption_key: Optional[bytes] = None
    mode: str = "transport"                  # or "tunnel"
    tunnel_src: Optional[str] = None
    tunnel_dst: Optional[str] = None
    sequence: int = 0
    replay: ReplayWindow = field(default_factory=ReplayWindow)

    def __post_init__(self) -> None:
        if self.auth_algorithm not in AUTH_ALGORITHMS:
            raise SecurityError(f"unknown auth algorithm {self.auth_algorithm!r}")
        # hashlib's name for the HMAC digest: "md5", "sha1" or "sha256".
        self._digest = self.auth_algorithm[len("hmac-"):]
        if self.mode not in ("transport", "tunnel"):
            raise SecurityError(f"unknown mode {self.mode!r}")
        if self.mode == "tunnel" and not (self.tunnel_src and self.tunnel_dst):
            raise SecurityError("tunnel mode needs tunnel_src and tunnel_dst")

    # ------------------------------------------------------------------
    def next_sequence(self) -> int:
        self.sequence += 1
        return self.sequence

    def icv(self, data: bytes) -> bytes:
        """Truncated HMAC over the authenticated data."""
        return hmac.digest(self.auth_key, data, self._digest)[:ICV_BYTES]

    def verify(self, data: bytes, icv: bytes) -> bool:
        return hmac.compare_digest(self.icv(data), icv)

    # ------------------------------------------------------------------
    def keystream(self, sequence: int, length: int) -> bytes:
        """SHAKE-256 XOF keystream (simulation-grade cipher): one digest
        of ``key ‖ seq8`` read out to ``length`` bytes."""
        if self.encryption_key is None:
            raise SecurityError(f"SA {self.spi:#x} has no encryption key")
        return hashlib.shake_256(
            self.encryption_key + sequence.to_bytes(8, "big")
        ).digest(length)

    def encrypt(self, sequence: int, plaintext: bytes) -> bytes:
        stream = self.keystream(sequence, len(plaintext))
        # XOR as two big integers: byte-identical to a per-byte loop.
        return (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(len(plaintext), "big")

    decrypt = encrypt  # XOR keystream is symmetric


class SADatabase:
    """SPI-indexed store of security associations."""

    def __init__(self):
        self._by_spi: Dict[int, SecurityAssociation] = {}

    def add(self, sa: SecurityAssociation) -> SecurityAssociation:
        if sa.spi in self._by_spi:
            raise SecurityError(f"duplicate SPI {sa.spi:#x}")
        self._by_spi[sa.spi] = sa
        return sa

    def get(self, spi: int) -> SecurityAssociation:
        sa = self._by_spi.get(spi)
        if sa is None:
            raise SecurityError(f"no SA for SPI {spi:#x}")
        return sa

    def remove(self, spi: int) -> bool:
        return self._by_spi.pop(spi, None) is not None

    def __len__(self) -> int:
        return len(self._by_spi)

    def __contains__(self, spi: int) -> bool:
        return spi in self._by_spi
