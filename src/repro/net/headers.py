"""Wire-format headers: IPv4, IPv6 (+ extension headers), UDP, TCP.

The router core mostly works on the parsed :class:`repro.net.packet.Packet`
object, but every header here round-trips to real wire bytes so that the
security plugins (which authenticate byte ranges) and the option plugins
(which walk TLVs) operate on genuine encodings, as they would in NetBSD.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from .addresses import IPAddress, IPV4_WIDTH, IPV6_WIDTH
from .checksum import internet_checksum

# IP protocol numbers (the subset the router cares about).
PROTO_HOPOPTS = 0
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_IPV6 = 41
PROTO_ROUTING = 43
PROTO_FRAGMENT = 44
PROTO_ESP = 50
PROTO_AH = 51
PROTO_ICMPV6 = 58
PROTO_NONE = 59
PROTO_DSTOPTS = 60
PROTO_OSPF = 89
PROTO_SSP = 253          # "use for experimentation" range, our SSP daemon
PROTO_RSVP = 46

PROTOCOL_NAMES = {
    PROTO_HOPOPTS: "HOPOPTS",
    PROTO_ICMP: "ICMP",
    PROTO_TCP: "TCP",
    PROTO_UDP: "UDP",
    PROTO_IPV6: "IPV6",
    PROTO_ROUTING: "ROUTING",
    PROTO_FRAGMENT: "FRAGMENT",
    PROTO_ESP: "ESP",
    PROTO_AH: "AH",
    PROTO_ICMPV6: "ICMPV6",
    PROTO_NONE: "NONE",
    PROTO_DSTOPTS: "DSTOPTS",
    PROTO_OSPF: "OSPF",
    PROTO_SSP: "SSP",
    PROTO_RSVP: "RSVP",
}

PROTOCOL_NUMBERS = {name: num for num, name in PROTOCOL_NAMES.items()}


class HeaderError(ValueError):
    """Raised when a header fails to parse or validate."""


# The wire formats, each compiled once.  The header classes below and the
# flat codec in :mod:`repro.net.packet` pack and unpack through these same
# objects, so a format string exists in exactly one place.
IPV4_STRUCT = struct.Struct("!BBHHHBBHII")      # addresses as 32-bit ints
IPV4_READ_STRUCT = struct.Struct("!HHHHHHIIHH")  # the same header as checksum words + the port pair
IPV4_HOP_STRUCT = struct.Struct("!8sHH")        # a hop's rewrite: 8 bytes kept, TTL/proto, checksum
IPV6_STRUCT = struct.Struct("!IHBB16s16s")
IPV6_HOP_STRUCT = struct.Struct("!7sB")         # a hop's rewrite: 7 bytes kept, hop limit
UDP_STRUCT = struct.Struct("!HHHH")
TCP_STRUCT = struct.Struct("!HHIIBBHHH")
PORTS_STRUCT = struct.Struct("!HH")             # the port pair UDP and TCP both lead with

# IPv4 flags/fragment-offset word (RFC 791).
IPV4_MF = 0x2000
IPV4_OFFSET_MASK = 0x1FFF


@dataclass
class IPv4Header:
    """An IPv4 header (RFC 791), options unsupported (ihl == 5)."""

    src: IPAddress
    dst: IPAddress
    protocol: int
    total_length: int = 20
    ttl: int = 64
    tos: int = 0
    identification: int = 0
    flags: int = 0
    fragment_offset: int = 0

    HEADER_LEN = 20

    def __post_init__(self) -> None:
        if self.src.width != IPV4_WIDTH or self.dst.width != IPV4_WIDTH:
            raise HeaderError("IPv4 header requires 32-bit addresses")

    def _pack(self, checksum: int) -> bytes:
        return IPV4_STRUCT.pack(
            (4 << 4) | 5,
            self.tos,
            self.total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            checksum,
            self.src.value,
            self.dst.value,
        )

    def serialize(self) -> bytes:
        return self._pack(internet_checksum(self._pack(0)))

    @classmethod
    def parse(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.HEADER_LEN:
            raise HeaderError("short IPv4 header")
        (
            ver_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = IPV4_STRUCT.unpack_from(data)
        if ver_ihl >> 4 != 4:
            raise HeaderError("not an IPv4 packet")
        if (ver_ihl & 0xF) != 5:
            raise HeaderError("IPv4 options unsupported")
        if internet_checksum(data[: cls.HEADER_LEN]) != 0:
            raise HeaderError("bad IPv4 header checksum")
        return cls(
            src=IPAddress(src, IPV4_WIDTH),
            dst=IPAddress(dst, IPV4_WIDTH),
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            tos=tos,
            identification=identification,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & IPV4_OFFSET_MASK,
        )


@dataclass(frozen=True)
class FragInfo:
    """The IPv4 fragmentation fields of one fragment, as carried in
    ``Packet.annotations['frag']``."""

    ident: int
    offset: int          # in bytes (a multiple of 8)
    more_fragments: bool

    @property
    def is_first(self) -> bool:
        return self.offset == 0


@dataclass
class IPv6Header:
    """The fixed 40-byte IPv6 header (RFC 2460)."""

    src: IPAddress
    dst: IPAddress
    next_header: int
    payload_length: int = 0
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    HEADER_LEN = 40

    def __post_init__(self) -> None:
        if self.src.width != IPV6_WIDTH or self.dst.width != IPV6_WIDTH:
            raise HeaderError("IPv6 header requires 128-bit addresses")
        if not 0 <= self.flow_label < (1 << 20):
            raise HeaderError("flow label out of range")

    def serialize(self) -> bytes:
        first = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return IPV6_STRUCT.pack(
            first,
            self.payload_length,
            self.next_header,
            self.hop_limit,
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )

    @classmethod
    def parse(cls, data: bytes) -> "IPv6Header":
        if len(data) < cls.HEADER_LEN:
            raise HeaderError("short IPv6 header")
        first, payload_length, next_header, hop_limit, src, dst = (
            IPV6_STRUCT.unpack_from(data)
        )
        if first >> 28 != 6:
            raise HeaderError("not an IPv6 packet")
        return cls(
            src=IPAddress.from_bytes(src),
            dst=IPAddress.from_bytes(dst),
            next_header=next_header,
            payload_length=payload_length,
            hop_limit=hop_limit,
            traffic_class=(first >> 20) & 0xFF,
            flow_label=first & 0xFFFFF,
        )


# IPv6 option TLV types (RFC 2460 §4.2, RFC 2711, RFC 2675).
OPT_PAD1 = 0x00
OPT_PADN = 0x01
OPT_JUMBO = 0xC2
OPT_ROUTER_ALERT = 0x05


@dataclass
class OptionTLV:
    """One TLV inside a hop-by-hop or destination options header."""

    opt_type: int
    data: bytes = b""

    @property
    def action_bits(self) -> int:
        """Top two bits: what to do when the option is unrecognized."""
        return self.opt_type >> 6


@dataclass
class OptionsHeader:
    """A hop-by-hop or destination options extension header."""

    next_header: int
    options: List[OptionTLV] = field(default_factory=list)

    def serialize(self) -> bytes:
        body = bytearray()
        for opt in self.options:
            if opt.opt_type == OPT_PAD1:
                body.append(OPT_PAD1)
            else:
                body.append(opt.opt_type)
                body.append(len(opt.data))
                body.extend(opt.data)
        # Total header length must be a multiple of 8 bytes, including the
        # 2-byte (next_header, hdr_ext_len) prelude.
        total = 2 + len(body)
        pad = (8 - total % 8) % 8
        if pad == 1:
            body.append(OPT_PAD1)
        elif pad > 1:
            body.append(OPT_PADN)
            body.append(pad - 2)
            body.extend(b"\x00" * (pad - 2))
        hdr_ext_len = (2 + len(body)) // 8 - 1
        return bytes([self.next_header, hdr_ext_len]) + bytes(body)

    @classmethod
    def parse(cls, data: bytes) -> Tuple["OptionsHeader", int]:
        """Parse from ``data``; return (header, bytes consumed)."""
        if len(data) < 2:
            raise HeaderError("short options header")
        next_header = data[0]
        length = (data[1] + 1) * 8
        if len(data) < length:
            raise HeaderError("truncated options header")
        options: List[OptionTLV] = []
        i = 2
        while i < length:
            opt_type = data[i]
            if opt_type == OPT_PAD1:
                i += 1
                continue
            if i + 1 >= length:
                raise HeaderError("truncated option TLV")
            opt_len = data[i + 1]
            if i + 2 + opt_len > length:
                raise HeaderError("option TLV overruns header")
            payload = bytes(data[i + 2 : i + 2 + opt_len])
            if opt_type != OPT_PADN:
                options.append(OptionTLV(opt_type, payload))
            i += 2 + opt_len
        return cls(next_header, options), length


@dataclass
class UDPHeader:
    """A UDP header (RFC 768); checksum computed over the pseudo-header."""

    src_port: int
    dst_port: int
    length: int = 8

    HEADER_LEN = 8

    def serialize(self, checksum: int = 0) -> bytes:
        return UDP_STRUCT.pack(self.src_port, self.dst_port, self.length, checksum)

    @classmethod
    def parse(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.HEADER_LEN:
            raise HeaderError("short UDP header")
        src_port, dst_port, length, _checksum = UDP_STRUCT.unpack_from(data)
        return cls(src_port, dst_port, length)


# TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20


@dataclass
class TCPHeader:
    """A TCP header (RFC 793), options unsupported (data offset 5)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = TCP_ACK
    window: int = 65535

    HEADER_LEN = 20

    def serialize(self, checksum: int = 0) -> bytes:
        return TCP_STRUCT.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,
            self.flags,
            self.window,
            checksum,
            0,
        )

    @classmethod
    def parse(cls, data: bytes) -> "TCPHeader":
        if len(data) < cls.HEADER_LEN:
            raise HeaderError("short TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_byte,
            flags,
            window,
            _checksum,
            _urgent,
        ) = TCP_STRUCT.unpack_from(data)
        if offset_byte >> 4 != 5:
            raise HeaderError("TCP options unsupported")
        return cls(src_port, dst_port, seq, ack, flags, window)


@dataclass
class AHHeader:
    """IPsec Authentication Header (RFC 1826/4302)."""

    next_header: int
    spi: int
    sequence: int
    icv: bytes = b""

    def serialize(self) -> bytes:
        # payload len is in 32-bit words minus 2 (RFC 4302 §2.2).
        payload_words = (12 + len(self.icv)) // 4 - 2
        return (
            struct.pack("!BBHII", self.next_header, payload_words, 0, self.spi, self.sequence)
            + self.icv
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["AHHeader", int]:
        if len(data) < 12:
            raise HeaderError("short AH header")
        next_header, payload_words, _res, spi, sequence = struct.unpack(
            "!BBHII", data[:12]
        )
        total = (payload_words + 2) * 4
        if len(data) < total:
            raise HeaderError("truncated AH header")
        return cls(next_header, spi, sequence, bytes(data[12:total])), total


@dataclass
class ESPHeader:
    """IPsec ESP prelude (RFC 1827/4303): SPI + sequence, opaque body."""

    spi: int
    sequence: int
    body: bytes = b""

    def serialize(self) -> bytes:
        return struct.pack("!II", self.spi, self.sequence) + self.body

    @classmethod
    def parse(cls, data: bytes) -> "ESPHeader":
        if len(data) < 8:
            raise HeaderError("short ESP header")
        spi, sequence = struct.unpack("!II", data[:8])
        return cls(spi, sequence, bytes(data[8:]))


def protocol_name(number: int) -> str:
    """Human-readable name for an IP protocol number."""
    return PROTOCOL_NAMES.get(number, str(number))


def protocol_number(name_or_number) -> int:
    """Accept 'TCP', 'udp', 6, or '6' and return the protocol number."""
    if isinstance(name_or_number, int):
        return name_or_number
    text = str(name_or_number).strip()
    if text.isdigit():
        return int(text)
    try:
        return PROTOCOL_NUMBERS[text.upper()]
    except KeyError as exc:
        raise HeaderError(f"unknown protocol {name_or_number!r}") from exc
