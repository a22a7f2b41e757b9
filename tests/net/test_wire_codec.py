"""The flat wire codec behind ``Packet.parse`` / ``Packet.serialize``.

The header dataclasses in :mod:`repro.net.headers` are the reference:
the codec must produce and accept exactly the bytes they compose, and
reject exactly what they reject — plus datagrams shorter than their own
length fields.
"""

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import IPAddress, IPV4_WIDTH, IPV6_WIDTH
from repro.net.checksum import internet_checksum
from repro.net.fragment import FragInfo, Reassembler, fragment_v4
from repro.net.headers import (
    HeaderError,
    IPv4Header,
    IPv6Header,
    OPT_ROUTER_ALERT,
    OptionsHeader,
    OptionTLV,
    PROTO_ESP,
    PROTO_HOPOPTS,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import PARSE_STATS, Packet, make_tcp, make_udp
from repro.shard import decode_packet, encode_packet


# ----------------------------------------------------------------------
# The reference codec: compose / read a datagram header class by header
# class, the way Packet.serialize / Packet.parse did before the flat pass.
# ----------------------------------------------------------------------
def compose(pkt: Packet) -> bytes:
    payload = bytes(pkt.payload)
    if pkt.protocol == PROTO_UDP:
        transport = UDPHeader(pkt.src_port, pkt.dst_port, 8 + len(payload)).serialize()
    elif pkt.protocol == PROTO_TCP:
        transport = TCPHeader(pkt.src_port, pkt.dst_port).serialize()
    else:
        transport = b""
    body = transport + payload
    if not pkt.is_ipv6:
        return IPv4Header(
            pkt.src, pkt.dst, pkt.protocol, total_length=20 + len(body),
            ttl=pkt.ttl, tos=pkt.tos,
        ).serialize() + body
    ext, next_header = b"", pkt.protocol
    if pkt.hop_options:
        ext = OptionsHeader(pkt.protocol, pkt.hop_options).serialize()
        next_header = PROTO_HOPOPTS
    return IPv6Header(
        pkt.src, pkt.dst, next_header, payload_length=len(ext) + len(body),
        hop_limit=pkt.ttl, traffic_class=pkt.tos, flow_label=pkt.flow_label,
    ).serialize() + ext + body


def read(wire: bytes) -> dict:
    if wire[0] >> 4 == 4:
        ip = IPv4Header.parse(wire)
        fields = dict(src=ip.src, dst=ip.dst, ttl=ip.ttl, tos=ip.tos,
                      flow_label=0, hop_options=[])
        protocol, body = ip.protocol, wire[20:ip.total_length]
    else:
        ip6 = IPv6Header.parse(wire)
        fields = dict(src=ip6.src, dst=ip6.dst, ttl=ip6.hop_limit,
                      tos=ip6.traffic_class, flow_label=ip6.flow_label,
                      hop_options=[])
        protocol, body = ip6.next_header, wire[40:40 + ip6.payload_length]
        if protocol == PROTO_HOPOPTS:
            opts, consumed = OptionsHeader.parse(body)
            fields["hop_options"] = opts.options
            protocol, body = opts.next_header, body[consumed:]
    fields.update(protocol=protocol, src_port=0, dst_port=0, annotations={})
    if protocol == PROTO_UDP:
        udp = UDPHeader.parse(body)
        fields.update(src_port=udp.src_port, dst_port=udp.dst_port)
        body = body[8:]
    elif protocol == PROTO_TCP:
        tcp = TCPHeader.parse(body)
        fields.update(src_port=tcp.src_port, dst_port=tcp.dst_port,
                      annotations={"tcp_seq": tcp.seq, "tcp_flags": tcp.flags})
        body = body[20:]
    fields["payload"] = body
    return fields


options = st.lists(
    st.builds(
        OptionTLV,
        st.sampled_from([OPT_ROUTER_ALERT, 0x1E, 0x3E]),
        st.binary(max_size=6),
    ),
    max_size=3,
)


@st.composite
def packets(draw):
    v6 = draw(st.booleans())
    width = IPV6_WIDTH if v6 else IPV4_WIDTH
    address = st.builds(IPAddress, st.integers(0, (1 << width) - 1), st.just(width))
    protocol = draw(st.sampled_from([PROTO_UDP, PROTO_TCP, PROTO_ICMP, PROTO_ESP]))
    ports = st.integers(0, 65535) if protocol in (PROTO_UDP, PROTO_TCP) else st.just(0)
    return Packet(
        src=draw(address),
        dst=draw(address),
        protocol=protocol,
        src_port=draw(ports),
        dst_port=draw(ports),
        payload=draw(st.binary(max_size=1500)),
        ttl=draw(st.integers(0, 255)),
        tos=draw(st.integers(0, 255)),
        flow_label=draw(st.integers(0, 0xFFFFF)) if v6 else 0,
        hop_options=draw(options) if v6 else [],
    )


@given(packets())
def test_codec_matches_the_header_classes(pkt):
    wire = pkt.serialize()
    assert wire == compose(pkt)
    assert len(wire) == pkt.length
    parsed = Packet.parse(wire, iif="atm3")
    assert parsed.iif == "atm3"
    for name, want in read(wire).items():
        assert getattr(parsed, name) == want, name
    assert parsed.length == len(wire)


# ----------------------------------------------------------------------
# Every rejection, through the Packet entry points.
# ----------------------------------------------------------------------
V4_UDP = make_udp("10.0.0.1", "10.0.0.2", 5000, 53, payload_size=32).serialize()
V4_TCP = make_tcp("10.0.0.1", "10.0.0.2", 5000, 80, payload_size=32).serialize()
V6_UDP = make_udp("2001:db8::1", "2001:db8::2", 5000, 53, payload_size=32).serialize()
A4, B4 = IPAddress.parse("10.0.0.1"), IPAddress.parse("10.0.0.2")
B6 = IPAddress.parse("2001:db8::2")


def _patched(wire: bytes, index: int, value: int) -> bytes:
    return wire[:index] + bytes([value]) + wire[index + 1:]


def _v4(protocol: int, total_length: int, body: bytes) -> bytes:
    return IPv4Header(A4, B4, protocol, total_length=total_length).serialize() + body


@pytest.mark.parametrize("wire, message", [
    (b"", "empty datagram"),
    (_patched(V4_UDP, 0, 0x55), "unknown IP version 5"),
    (V4_UDP[:19], "short IPv4 header"),
    (V6_UDP[:39], "short IPv6 header"),
    (_v4(PROTO_UDP, 24, b"\x00" * 4), "short UDP header"),
    (_v4(PROTO_TCP, 36, b"\x00" * 16), "short TCP header"),
    (_patched(V4_UDP, 0, 0x46), "IPv4 options unsupported"),
    (_patched(V4_UDP, 8, 63), "bad IPv4 header checksum"),
    (_patched(V4_TCP, 20 + 12, 0x60), "TCP options unsupported"),
    (V4_UDP[:-1], "truncated datagram"),
    (_v4(PROTO_ICMP, 10, b""), "truncated datagram"),
    (V6_UDP[:-1], "truncated datagram"),
], ids=[
    "empty", "version", "short-v4", "short-v6", "short-udp", "short-tcp", "ihl",
    "checksum", "tcp-offset", "cut-v4", "total-length-under-20", "cut-v6",
])
def test_parse_rejects(wire, message):
    with pytest.raises(HeaderError, match=message):
        Packet.parse(wire)


def test_truncated_datagram_is_not_a_short_packet():
    wire = make_udp("10.0.0.1", "10.0.0.2", 1, 2, payload_size=3000).serialize()
    assert len(wire) == 3028
    with pytest.raises(HeaderError, match="truncated datagram"):
        Packet.parse(wire[:100])


@pytest.mark.parametrize("wire", [V4_UDP, V4_TCP, V6_UDP])
def test_link_padding_past_the_datagram_is_ignored(wire):
    padded = Packet.parse(wire + b"\xAA" * 6)
    assert padded.length == len(wire)
    assert padded.serialize() == wire


def _mutated(**changes) -> Packet:
    pkt = make_udp("10.0.0.1", "10.0.0.2", 1, 2)
    for name, value in changes.items():
        setattr(pkt, name, value)
    return pkt


@pytest.mark.parametrize("pkt, message", [
    (_mutated(dst=B6), "IPv4 header requires 32-bit addresses"),
    (_mutated(src=B6), "IPv6 header requires 128-bit addresses"),
    (_mutated(src=B6, dst=B6, flow_label=1 << 20), "flow label out of range"),
    (_mutated(src=B6, dst=B6, flow_label=-1), "flow label out of range"),
    (_mutated(hop_options=[OptionTLV(OPT_ROUTER_ALERT, b"\x00\x00")]),
     "hop-by-hop options only exist in IPv6"),
], ids=["v6-dst-on-v4", "v4-dst-on-v6", "label-high", "label-negative", "v4-options"])
def test_serialize_rejects(pkt, message):
    with pytest.raises(HeaderError, match=message):
        pkt.serialize()


# ----------------------------------------------------------------------
# Cache contract: parse leaves length and fold warm, payload zero-copy.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wire", [V4_UDP, V4_TCP, V6_UDP])
def test_parse_warms_the_caches_once(wire):
    data = wire + b"\x00" * 4           # link padding: length is the header's
    before = PARSE_STATS.tuple_derivations
    pkt = Packet.parse(data)
    assert PARSE_STATS.tuple_derivations == before + 1
    assert pkt._length == len(wire)
    assert pkt._length_payload == len(pkt.payload)
    assert pkt._flow_fold is not None
    fold = pkt._flow_fold
    assert pkt.flow_fold32() == fold and pkt.length == len(wire)
    assert PARSE_STATS.tuple_derivations == before + 1
    assert isinstance(pkt.payload, memoryview) and pkt.payload.obj is data
    # The warm fold is the one a cold packet derives.
    pkt.fix = None
    assert pkt.flow_fold32() == fold


# ----------------------------------------------------------------------
# The word-sum checksum against the RFC 1071 byte loop.
# ----------------------------------------------------------------------
def checksum_loop(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@given(st.binary(max_size=257))
def test_checksum_matches_the_loop(data):
    assert internet_checksum(data) == checksum_loop(data)
    assert internet_checksum(memoryview(data)) == checksum_loop(data)


@pytest.mark.parametrize("data", [
    b"", b"\x00" * 20, b"\xFF" * 20, b"\xFF", b"\xFF\xFF\x00\x01",
    bytes(range(256)) * 256,            # 64 KiB
    b"\xFF" * 65535,
])
def test_checksum_edges(data):
    assert internet_checksum(data) == checksum_loop(data)


def test_checksum_rfc1071_vector():
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == 0x220D


# ----------------------------------------------------------------------
# The shared slot-store constructor against the dataclass constructor.
# ----------------------------------------------------------------------
SLOTS = [name for name in Packet.__slots__ if name != "packet_id"]


def _slots(pkt: Packet) -> dict:
    return {name: getattr(pkt, name) for name in SLOTS}


@given(packets())
def test_copy_and_descriptor_roundtrip_equal_the_constructor(pkt):
    pkt.arrival_time = 1.5
    pkt.annotations["note"] = 1
    want = Packet(
        src=pkt.src, dst=pkt.dst, protocol=pkt.protocol,
        src_port=pkt.src_port, dst_port=pkt.dst_port, iif=pkt.iif,
        payload=pkt.payload, ttl=pkt.ttl, tos=pkt.tos,
        flow_label=pkt.flow_label, hop_options=list(pkt.hop_options),
    )
    dup = pkt.copy()
    assert _slots(dup) == _slots(want)
    assert dup.packet_id not in (pkt.packet_id, want.packet_id)
    assert dup.hop_options is not pkt.hop_options

    pkt.hop_options = []                # descriptors carry no TLVs
    want.hop_options = []
    want.arrival_time = pkt.arrival_time
    want._flow_fold = pkt.flow_fold32()
    decoded = decode_packet(encode_packet(pkt))
    assert _slots(decoded) == _slots(want)
    assert decoded.packet_id == pkt.packet_id


# ----------------------------------------------------------------------
# Fragments are fragments on the wire too.
# ----------------------------------------------------------------------
def test_fragments_serialize_to_their_length():
    fragments = fragment_v4(make_udp("10.0.0.1", "10.0.0.2", 7, 9, payload_size=3000), 1500)
    assert [f.length for f in fragments] == [1500, 1500, 68]
    for frag in fragments:
        wire = frag.serialize()
        assert len(wire) == frag.length
        header = IPv4Header.parse(wire)
        info = frag.annotations["frag"]
        assert header.identification == info.ident
        assert header.fragment_offset * 8 == info.offset
        assert header.flags == (1 if info.more_fragments else 0)
        assert wire[20:] == frag.payload


def test_fragments_parse_back_as_fragments():
    fragments = fragment_v4(make_udp("10.0.0.1", "10.0.0.2", 7, 9, payload_size=3000), 1500)
    for frag in fragments:
        parsed = Packet.parse(frag.serialize())
        assert parsed.annotations["frag"] == frag.annotations["frag"]
        assert isinstance(parsed.annotations["frag"], FragInfo)
        assert parsed.annotations["frag_raw"] == frag.annotations["frag_raw"]
        assert parsed.five_tuple() == frag.five_tuple()
        assert parsed.payload == frag.payload
        assert parsed.length == frag.length
    assert fragments[0].src_port == 7 and fragments[1].src_port == 0


@pytest.mark.parametrize("make", [make_udp, make_tcp])
def test_fragments_reassemble_across_the_wire(make):
    original = make("10.0.0.1", "10.0.0.2", 7, 9, payload_size=3000, ttl=9, tos=0x28)
    original.payload = bytes(range(256)) * 11 + bytes(184)
    reassembler = Reassembler()
    result = None
    for frag in reversed(fragment_v4(original, 576)):
        assert result is None
        result = reassembler.add(Packet.parse(frag.serialize(), iif="atm0"))
    assert result.serialize() == original.serialize()
    assert result.iif == "atm0"
