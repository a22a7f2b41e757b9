"""IP addresses and prefixes as plain integers with explicit bit widths.

The classifier (:mod:`repro.aiu`) and the best-matching-prefix engines
(:mod:`repro.bmp`) need cheap bit-level operations on addresses: extract
the top *k* bits, compare under a mask, enumerate prefix lengths.  We
therefore represent an address as ``(int value, int width)`` wrapped in a
small immutable class, and a prefix as ``(value, prefix_len, width)``.

Both IPv4 (width 32) and IPv6 (width 128) are supported.  Parsing accepts
the paper's wildcard notation too: ``129.*.*.*`` or ``129.*`` denote the
prefix ``129.0.0.0/8`` and a bare ``*`` is the zero-length prefix that
matches everything.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

IPV4_WIDTH = 32
IPV6_WIDTH = 128


class AddressError(ValueError):
    """Raised for malformed address or prefix strings."""


def _parse_ipv4_int(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"bad IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _parse_ipv6_int(text: str) -> int:
    """Parse an IPv6 address (supports ``::`` compression) to an int."""
    if text.count("::") > 1:
        raise AddressError(f"multiple '::' in {text!r}")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise AddressError(f"'::' expands to nothing in {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise AddressError(f"bad IPv6 group count in {text!r}")
    value = 0
    for group in groups:
        if group == "" or len(group) > 4:
            raise AddressError(f"bad IPv6 group {group!r} in {text!r}")
        try:
            word = int(group, 16)
        except ValueError as exc:
            raise AddressError(f"bad IPv6 group {group!r} in {text!r}") from exc
        value = (value << 16) | word
    return value


def _format_ipv4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _format_ipv6(value: int) -> str:
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    # Find the longest run of zero groups (length >= 2) to compress.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, g in enumerate(groups):
        if g == 0:
            if run_start < 0:
                run_start, run_len = i, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len >= 2:
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
        return f"{head}::{tail}"
    return ":".join(f"{g:x}" for g in groups)


class IPAddress:
    """An IPv4 or IPv6 address: an integer value plus a bit width.

    Immutable by contract: ``Packet.serialize`` takes a ``src`` that is
    still the parsed object for the parsed address, and the ESP tunnel
    endpoints are one shared object on every packet.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        if width not in (IPV4_WIDTH, IPV6_WIDTH):
            raise AddressError(f"unsupported address width {width}")
        if not 0 <= value < (1 << width):
            raise AddressError(f"address value out of range for /{width}")
        self.value = value
        self.width = width

    @classmethod
    def parse(cls, text: str) -> "IPAddress":
        """Parse either an IPv4 dotted quad or an IPv6 address."""
        if ":" in text:
            return cls(_parse_ipv6_int(text), IPV6_WIDTH)
        return cls(_parse_ipv4_int(text), IPV4_WIDTH)

    @classmethod
    def v4(cls, text_or_int) -> "IPAddress":
        if isinstance(text_or_int, int):
            return cls(text_or_int, IPV4_WIDTH)
        return cls(_parse_ipv4_int(text_or_int), IPV4_WIDTH)

    @classmethod
    def v6(cls, text_or_int) -> "IPAddress":
        if isinstance(text_or_int, int):
            return cls(text_or_int, IPV6_WIDTH)
        return cls(_parse_ipv6_int(text_or_int), IPV6_WIDTH)

    @property
    def is_ipv6(self) -> bool:
        return self.width == IPV6_WIDTH

    @property
    def is_multicast(self) -> bool:
        """224.0.0.0/4 for IPv4, ff00::/8 for IPv6."""
        if self.width == IPV4_WIDTH:
            return (self.value >> 28) == 0xE
        return (self.value >> 120) == 0xFF

    def top_bits(self, n: int) -> int:
        """Return the top ``n`` bits of the address as an integer."""
        if n == 0:
            return 0
        return self.value >> (self.width - n)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.width // 8, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPAddress":
        return cls(int.from_bytes(data, "big"), len(data) * 8)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IPAddress)
            and self.value == other.value
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.value, self.width))

    def __lt__(self, other: "IPAddress") -> bool:
        return (self.width, self.value) < (other.width, other.value)

    def __str__(self) -> str:
        if self.width == IPV4_WIDTH:
            return _format_ipv4(self.value)
        return _format_ipv6(self.value)

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


class Prefix:
    """An address prefix ``value/prefix_len`` over a ``width``-bit space.

    The stored ``value`` is canonical: bits below the prefix are zero.
    A zero-length prefix matches every address (the paper's ``*``).
    """

    __slots__ = ("value", "length", "width")

    def __init__(self, value: int, length: int, width: int):
        if width not in (IPV4_WIDTH, IPV6_WIDTH):
            raise AddressError(f"unsupported prefix width {width}")
        if not 0 <= length <= width:
            raise AddressError(f"prefix length {length} out of range for /{width}")
        mask = self.mask_for(length, width)
        self.value = value & mask
        self.length = length
        self.width = width

    @staticmethod
    def mask_for(length: int, width: int) -> int:
        if length == 0:
            return 0
        return ((1 << length) - 1) << (width - length)

    @classmethod
    def parse(cls, text: str, width: Optional[int] = None) -> "Prefix":
        """Parse ``a.b.c.d/len``, the paper's ``129.*.*.*`` style, or ``*``.

        ``width`` forces the address family for the bare-``*`` form (it
        defaults to IPv4 when the family cannot be inferred).
        """
        text = text.strip()
        if text == "*":
            return cls(0, 0, width or IPV4_WIDTH)
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            addr = IPAddress.parse(addr_text)
            try:
                length = int(len_text)
            except ValueError as exc:
                raise AddressError(f"bad prefix length in {text!r}") from exc
            return cls(addr.value, length, addr.width)
        if ":" in text:
            addr = IPAddress.parse(text)
            return cls(addr.value, addr.width, addr.width)
        # IPv4 with possible '*' octets: 129.*.*.* or the shorthand 129.*
        parts = text.split(".")
        if "*" in parts:
            star = parts.index("*")
            if any(p != "*" for p in parts[star:]):
                raise AddressError(f"non-contiguous wildcard octets in {text!r}")
            octets = parts[:star]
            if len(octets) > 4:
                raise AddressError(f"too many octets in {text!r}")
            value = 0
            for octet_text in octets:
                octet = int(octet_text)
                if octet > 255:
                    raise AddressError(f"octet out of range in {text!r}")
                value = (value << 8) | octet
            length = 8 * len(octets)
            return cls(value << (IPV4_WIDTH - length), length, IPV4_WIDTH)
        addr = IPAddress.parse(text)
        return cls(addr.value, addr.width, addr.width)

    @classmethod
    def host(cls, addr: IPAddress) -> "Prefix":
        """The fully-specified /width prefix for one address."""
        return cls(addr.value, addr.width, addr.width)

    @classmethod
    def default(cls, width: int = IPV4_WIDTH) -> "Prefix":
        return cls(0, 0, width)

    @property
    def mask(self) -> int:
        return self.mask_for(self.length, self.width)

    @property
    def is_wildcard(self) -> bool:
        return self.length == 0

    @property
    def is_host(self) -> bool:
        return self.length == self.width

    def matches(self, addr) -> bool:
        """True if ``addr`` (IPAddress or raw int) falls inside this prefix."""
        value = addr.value if isinstance(addr, IPAddress) else addr
        return (value & self.mask) == self.value

    def covers(self, other: "Prefix") -> bool:
        """True if every address in ``other`` is also in ``self``."""
        return (
            self.width == other.width
            and self.length <= other.length
            and (other.value & self.mask) == self.value
        )

    def key_bits(self) -> int:
        """The prefix's significant top bits, right-aligned."""
        if self.length == 0:
            return 0
        return self.value >> (self.width - self.length)

    def enumerate_parents(self) -> Iterator["Prefix"]:
        """Yield every strictly shorter prefix of this prefix, longest first."""
        for length in range(self.length - 1, -1, -1):
            yield Prefix(self.value, length, self.width)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Prefix)
            and self.value == other.value
            and self.length == other.length
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length, self.width))

    def __lt__(self, other: "Prefix") -> bool:
        return (self.width, self.length, self.value) < (
            other.width,
            other.length,
            other.value,
        )

    def __str__(self) -> str:
        if self.length == 0:
            return "*"
        return f"{IPAddress(self.value, self.width)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"


def parse_host(text: str) -> IPAddress:
    """Convenience: parse a host address (no prefix syntax allowed)."""
    if "/" in text or "*" in text:
        raise AddressError(f"{text!r} is a prefix, not a host address")
    return IPAddress.parse(text)


def common_prefix_len(a: IPAddress, b: IPAddress) -> int:
    """Number of leading bits shared by two same-width addresses."""
    if a.width != b.width:
        raise AddressError("addresses from different families")
    diff = a.value ^ b.value
    if diff == 0:
        return a.width
    return a.width - diff.bit_length()


def prefix_range(prefix: Prefix) -> Tuple[int, int]:
    """Return the (low, high) inclusive integer range covered by a prefix."""
    low = prefix.value
    high = prefix.value | ((1 << (prefix.width - prefix.length)) - 1)
    return low, high
