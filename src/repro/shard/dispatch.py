"""RSS-style deterministic flow-hash dispatch and the shard handoff codec.

Shard selection reuses the data path's deterministic five-tuple fold
(:func:`repro.net.packet.fold_five_tuple`, cached per packet lifetime as
``Packet.flow_fold32``) — **never** builtin ``hash()``, which is
process-seeded (``PYTHONHASHSEED``) and would send the same flow to
different shards in different processes.  Because the fold is a pure
function of the five-tuple, every packet of a flow lands on the same
shard in arrival order, which is what gives the sharded router per-flow
disposition and ordering equivalence with a single router (RP209 lints
this module against ``hash()`` regressions).

The handoff codec is pickle-light by construction: a packet encodes to a
flat tuple of ints / interned strings / ``bytes`` (no ``IPAddress`` or
``memoryview`` objects, both of which are either slow or impossible to
pickle), so a batch of descriptors crosses a ``multiprocessing`` pipe as
one cheap C-pickle.  The fold is computed on the encode side and carried
in the descriptor — exactly like a NIC writing the RSS hash into the RX
descriptor — so the dispatcher's per-packet work is one modulo and one
list append, and the decode side never re-derives the tuple
(``PARSE_STATS.tuple_derivations`` stays one-per-lifetime).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..net.packet import Packet, packet_from_fields

#: Descriptor layout (all picklable primitives) — the field order of
#: :func:`repro.net.packet.packet_from_fields`:
#: (src_value, dst_value, width, protocol, src_port, dst_port, iif,
#:  payload_bytes, ttl, tos, flow_label, fold, packet_id, arrival_time)
WireDescriptor = Tuple


def encode_packet(packet: Packet) -> WireDescriptor:
    """Packet -> primitive descriptor tuple (the RX-ring view).

    Computes the five-tuple fold if the packet has not folded yet (one
    derivation per lifetime, same contract as the data path) and carries
    it in the descriptor so dispatchers and decoders never re-derive.
    """
    payload = packet.payload
    return (
        packet.src.value,
        packet.dst.value,
        packet.src.width,
        packet.protocol,
        packet.src_port,
        packet.dst_port,
        packet.iif,
        payload if type(payload) is bytes else bytes(payload),
        packet.ttl,
        packet.tos,
        packet.flow_label,
        packet.flow_fold32(),
        packet.packet_id,
        packet.arrival_time,
    )


#: Descriptor tuple -> Packet.  The descriptor *is* the flat field tuple
#: of :func:`repro.net.packet.packet_from_fields`, so decoding is that
#: one slot-store constructor (~0.47 us — small enough that per-shard
#: decode parallelizes away).  The carried fold is installed into the
#: packet's hash cache, mirroring a NIC-computed RSS hash: the
#: five-tuple is never folded twice.
decode_packet = packet_from_fields


def dispatch_wire(
    descs: Sequence[WireDescriptor], nshards: int
) -> Tuple[List[list], List[List[int]]]:
    """Bucket descriptors per shard, preserving arrival order.

    Returns ``(buckets, indices)`` where ``indices[s][k]`` is the
    position of ``buckets[s][k]`` in the input, so dispositions scatter
    back to input order.  The fold rides at descriptor slot 11; the
    per-packet cost is one modulo and two appends.
    """
    buckets: List[list] = [[] for _ in range(nshards)]
    indices: List[List[int]] = [[] for _ in range(nshards)]
    appends = [b.append for b in buckets]
    iappends = [ix.append for ix in indices]
    for i, desc in enumerate(descs):
        s = desc[11] % nshards
        appends[s](desc)
        iappends[s](i)
    return buckets, indices


def dispatch_packets(
    packets: Sequence[Packet], nshards: int
) -> Tuple[List[list], List[List[int]]]:
    """In-process twin of :func:`dispatch_wire` over live Packet objects."""
    buckets: List[list] = [[] for _ in range(nshards)]
    indices: List[List[int]] = [[] for _ in range(nshards)]
    appends = [b.append for b in buckets]
    iappends = [ix.append for ix in indices]
    for i, packet in enumerate(packets):
        s = packet.flow_fold32() % nshards
        appends[s](packet)
        iappends[s](i)
    return buckets, indices
