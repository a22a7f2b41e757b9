"""Seed-driven input generators.  Everything a router sees comes from here.

Each generator draws from one ``random.Random`` in a fixed order, so the
same seed gives the same inputs and a shorter stream is a prefix of a
longer one (the oracle twin regenerates the first bursts instead of
copying packets, which routers mutate in flight).
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import List, Sequence, Tuple

from repro.net.addresses import IPAddress
from repro.net.headers import PROTO_UDP
from repro.net.packet import Packet, fold_five_tuple

BURST = 256
SMALL = 46                                  # smallest datagram the codec round-trips with a payload
IMIX = ((46, 576, 1500), (7, 4, 1))         # sizes, weights
FLOWS = 64
CHURN_FLOWS = 16384
CHURN_NETS = 256                            # disjoint /24 source nets, one filter each

# One payload object per size: packets of a size share it, so pool
# memory is the Packet objects and not 30k copies of zeros.
_PAYLOADS = {}

Flow = Tuple[IPAddress, IPAddress, int, int]


def _payload(size: int) -> bytes:
    body = _PAYLOADS.get(size)
    if body is None:
        body = _PAYLOADS[size] = bytes(size - 28)
    return body


def udp(flow: Flow, size: int, iif: str = "atm0") -> Packet:
    src, dst, sport, dport = flow
    return Packet(src=src, dst=dst, protocol=PROTO_UDP, src_port=sport,
                  dst_port=dport, iif=iif, payload=_payload(size))


def flows(rng: random.Random, count: int = FLOWS, shards: int = 1) -> List[Flow]:
    """``count`` distinct five-tuples 10/8 -> 20/8.  Sources stay below
    10.200/16, which the control verbs' filter owns, so no verb ever
    reclassifies measured traffic.

    With ``shards`` > 1 each RSS shard (five-tuple fold modulo shards)
    gets exactly its share.  Sizing runs: pps on a 2-worker pool moved
    by 25 % with the luck of the split (27/37 against 36/28), which says
    nothing about the code."""
    seen = set()
    room = [count // shards] * shards
    out: List[Flow] = []
    while len(out) < count:
        src = IPAddress.parse(
            f"10.{rng.randrange(200)}.{rng.randrange(256)}.{rng.randrange(1, 255)}")
        dst = IPAddress.parse(
            f"20.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}")
        flow = (src, dst, rng.randrange(1024, 65536), rng.randrange(1024, 65536))
        shard = fold_five_tuple(src.value, dst.value, PROTO_UDP, *flow[2:]) % shards
        key = (src.value, dst.value) + flow[2:]
        if key in seen or not room[shard]:
            continue
        seen.add(key)
        room[shard] -= 1
        out.append(flow)
    return out


def filter_specs(count: int) -> List[str]:
    """``count`` pairwise-disjoint /24 source filters (no DAG replication)."""
    return [f"10.{i % 16}.{i // 16}.0/24, 20.*, UDP" for i in range(count)]


def filtered_flows(rng: random.Random, count: int, nets: int) -> List[Flow]:
    """``count`` distinct five-tuples, flow ``i`` inside filter ``i % nets``
    of :func:`filter_specs`, so every miss walks the DAG to a match."""
    dst = IPAddress.parse(f"20.{rng.randrange(256)}.{rng.randrange(256)}.1")
    out: List[Flow] = []
    for i in range(count):
        net = i % nets
        src = IPAddress.parse(f"10.{net % 16}.{net // 16}.{rng.randrange(1, 255)}")
        # src_port = 1024 + i keeps tuples distinct whatever the draw.
        out.append((src, dst, 1024 + i, rng.randrange(1024, 65536)))
    return out


def bursts(rng: random.Random, flow_list: Sequence[Flow], count: int,
           imix: bool, iif: str = "atm0") -> List[List[Packet]]:
    """``count`` bursts of BURST packets, round-robin over the flows."""
    nflows = len(flow_list)
    total = count * BURST
    if imix:
        sizes = rng.choices(IMIX[0], IMIX[1], k=total)
    else:
        sizes = [SMALL] * total
    packets = [udp(flow_list[i % nflows], sizes[i], iif) for i in range(total)]
    return [packets[at:at + BURST] for at in range(0, total, BURST)]


def digest(packets) -> str:
    """Fingerprint of a generated packet stream (identity + size)."""
    h = hashlib.sha256()
    pack = struct.Struct("!IIBHHH").pack
    for p in packets:
        h.update(pack(p.src.value, p.dst.value, p.protocol, p.src_port,
                      p.dst_port, p.length))
    return h.hexdigest()[:16]
