"""The flat wire codec behind ``Packet.parse`` / ``Packet.serialize``.

The header dataclasses in :mod:`repro.net.headers` are the reference:
the codec must produce and accept exactly the bytes they compose, and
reject exactly what they reject — plus datagrams shorter than their own
length fields.  A packet from ``parse`` serializes by patching its
receive buffer; that path is held to the same reference, through a
constructor-built twin that has no buffer to patch.
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro import Topology
from repro.core.plugin import PluginContext
from repro.net.addresses import IPAddress, IPV4_WIDTH, IPV6_WIDTH
from repro.net.checksum import internet_checksum
from repro.net.fragment import FragInfo, Reassembler, fragment_v4
from repro.net.headers import (
    ESPHeader,
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
    TCP_ACK,
    TCP_PSH,
    TCPHeader,
    UDPHeader,
)
from repro.net.icmp import QUOTE_BYTES, time_exceeded
from repro.net.packet import PARSE_STATS, Packet, make_tcp, make_udp
from repro.security import EspPlugin, SecurityAssociation
from repro.security.sa import ICV_BYTES
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
# A packet from parse keeps its receive buffer and serialize patches it;
# the patch must be what a constructor-built twin (the header classes'
# reading of the same bytes, no buffer) packs in full.
# ----------------------------------------------------------------------
def _emit(pkt: Packet):
    try:
        return pkt.serialize()
    except HeaderError as exc:
        return str(exc)


def _distinct(value):
    """An equal object that is not the same object (where that exists)."""
    if isinstance(value, IPAddress):
        return IPAddress(value.value, value.width)
    if isinstance(value, list):
        return list(value)
    return bytes(value) if isinstance(value, memoryview) else value


def _changed(value):
    if isinstance(value, IPAddress):
        return IPAddress(value.value ^ 1, value.width)
    if isinstance(value, list):
        return value + [OptionTLV(OPT_ROUTER_ALERT, b"\x00\x00")]
    return bytes(value) + b"\x00" if isinstance(value, memoryview) else value ^ 1


@given(packets())
def test_a_parsed_packet_serializes_as_its_constructor_built_twin(pkt):
    wire = pkt.serialize()
    for ttl in (pkt.ttl, max(pkt.ttl - 1, 0), 0, 255):
        parsed = Packet.parse(wire)
        twin = Packet(**read(wire))
        parsed.ttl = twin.ttl = ttl
        parsed.fix = None               # what NetworkInterface.deliver does per hop
        for same in (parsed, copy.copy(parsed), parsed.copy()):
            assert same.serialize() == twin.serialize()
    if not pkt.hop_options:             # nothing to pack: the input itself
        assert Packet.parse(wire).serialize() is wire


WRITES = [
    "src", "dst", "protocol", "src_port", "dst_port", "tos", "flow_label",
    "payload", "hop_options", "hop_options.append", "annotations['frag']",
]


@given(packets(), st.sampled_from(WRITES), st.booleans())
def test_a_written_field_is_repacked(pkt, write, equal):
    wire = pkt.serialize()
    parsed, twin = Packet.parse(wire), Packet(**read(wire))
    parsed.ttl = twin.ttl = max(pkt.ttl - 1, 0)
    if hasattr(parsed, write):
        value = getattr(parsed, write)
        value = _distinct(value) if equal else _changed(value)
    for target in (parsed, twin):
        if hasattr(parsed, write):
            setattr(target, write, value)
        elif write == "hop_options.append":
            target.hop_options.append(OptionTLV(OPT_ROUTER_ALERT, b"\x00\x00"))
        else:
            target.annotations["frag"] = FragInfo(7, 0, True)
    assert _emit(parsed) == _emit(twin)


def _foreign(protocol: int, transport: bytes, **header) -> bytes:
    """A datagram no Packet packs: IPv4 and transport fields it does not model."""
    body = transport + b"payload!"
    return IPv4Header(
        A4, B4, protocol, total_length=20 + len(body), **header
    ).serialize() + body


def _differing(a: bytes, b: bytes) -> set:
    assert len(a) == len(b)
    return {i for i in range(len(a)) if a[i] != b[i]}


FOREIGN = {
    "udp": lambda **header: _foreign(
        PROTO_UDP, UDPHeader(5000, 53, 16).serialize(checksum=0xBEEF), **header),
    "tcp": lambda **header: _foreign(
        PROTO_TCP, TCPHeader(5000, 80, seq=123456, ack=654321,
                             flags=TCP_PSH | TCP_ACK, window=1000).serialize(),
        **header),
}


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_an_untouched_forward_keeps_the_bytes_the_packet_does_not_model(kind):
    wire = FOREIGN[kind](identification=0x1234, flags=2)        # DF
    pkt = Packet.parse(wire, "atm0")
    pkt.ttl -= 1
    out = pkt.serialize()
    assert {8} <= _differing(out, wire) <= {8, 10, 11}
    assert Packet.parse(out).ttl == 63 and IPv4Header.parse(out).flags == 2
    # The ICMP quote and the ESP tunnel's inner datagram are those bytes.
    assert time_exceeded(pkt, A4).payload == out[:QUOTE_BYTES]
    sa = SecurityAssociation(
        spi=9, auth_key=b"a" * 16, encryption_key=b"e" * 16, mode="tunnel",
        tunnel_src="192.0.2.1", tunnel_dst="192.0.2.2")
    EspPlugin().create_instance(direction="out", sa=sa).process(pkt, PluginContext())
    assert sa.decrypt(1, ESPHeader.parse(pkt.payload).body[:-ICV_BYTES]) == out
    # A written modelled field re-packs from the fields alone, as before.
    marked = Packet.parse(wire)
    marked.tos = 0x28
    header = IPv4Header.parse(marked.serialize())
    assert (header.tos, header.identification, header.flags) == (0x28, 0, 0)


@pytest.mark.parametrize("padding", [b"", b"\xAA" * 6], ids=["exact", "padded"])
@pytest.mark.parametrize("received", [0x0000, 0xFFFF])
def test_checksum_patch_edges(received, padding):
    """Both encodings of a zero checksum, the largest TTL step, and link
    padding: the patched header verifies and ends at ``total_length``."""
    ident = int.from_bytes(FOREIGN["udp"](ttl=255)[10:12], "big")   # sums the rest to zero
    wire = FOREIGN["udp"](ttl=255, identification=ident)
    assert wire[10:12] == b"\x00\x00"
    wire = wire[:10] + received.to_bytes(2, "big") + wire[12:]
    pkt = Packet.parse(wire + padding)
    assert pkt.serialize() == wire
    pkt.ttl = 0
    out = pkt.serialize()
    assert _differing(out, wire) <= {8, 10, 11}
    assert IPv4Header.parse(out).ttl == 0 and Packet.parse(out).ttl == 0


@pytest.mark.parametrize("buffer", [bytearray, memoryview])
def test_a_mutable_or_foreign_buffer_is_packed_not_handed_back(buffer):
    for wire in (V4_UDP, V6_UDP):
        pkt = Packet.parse(buffer(wire))
        pkt.ttl -= 1
        twin = Packet(**read(wire))
        twin.ttl -= 1
        out = pkt.serialize()
        assert out == twin.serialize() and type(out) is bytes


def test_four_hops_end_in_one_patch():
    """``fix = None`` on every delivery keeps the buffer: after a 4-hop
    walk the packet still serializes as its input, four hops older."""
    topo = Topology("chain")
    for hop in range(4):
        topo.add_node(f"r{hop}")
        topo.add_interface(f"r{hop}", "dn0")
        topo.add_interface(f"r{hop}", "up0")
        topo.add_route(f"r{hop}", "10.0.0.0/8", "up0")
        if hop:
            topo.link(f"r{hop - 1}", "up0", f"r{hop}", "dn0")
    sent = []
    topo.node("r3").interface("up0").link = SimpleNamespace(
        carry=lambda sender, packet, departure: sent.append(packet))
    wire = FOREIGN["tcp"](identification=0x1234, flags=2)
    pkt = Packet.parse(wire, "dn0")
    assert topo.receive(pkt) == "forwarded"
    assert sent == [pkt] and pkt.ttl == 60
    out = pkt.serialize()
    assert {8} <= _differing(out, wire) <= {8, 10, 11}
    assert IPv4Header.parse(out).identification == 0x1234


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
