"""Synthetic filter-set generators for classifier experiments.

The paper notes (§7.2) that "appropriate data sets of real-world filter
patterns are not available" — true then and now for this reproduction —
so, like the paper, we use synthetic sets with controllable shape:
prefix-length mixes modelled on routing tables, a tunable fraction of
fully-specified (host-to-host) filters, and port specs drawn from a
laminar catalogue so DAG installation never hits the ambiguous-overlap
case (the linear oracle handles any overlap; the catalogue keeps the two
tables comparable).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..aiu.filters import Filter, PortSpec
from ..net.addresses import IPV4_WIDTH, IPV6_WIDTH, Prefix

#: Nested/disjoint port specs (any two are laminar).
PORT_CATALOGUE = (
    PortSpec.wildcard(),
    PortSpec(0, 1023),
    PortSpec(1024, 65535),
    PortSpec.exact(22),
    PortSpec.exact(53),
    PortSpec.exact(80),
    PortSpec.exact(443),
    PortSpec.exact(8080),
    PortSpec(5000, 5999),
)

#: Typical IPv4 prefix-length weights (mass around /16../24, some hosts).
V4_LENGTH_WEIGHTS = {8: 2, 12: 2, 16: 8, 20: 6, 24: 12, 28: 3, 32: 8}
V6_LENGTH_WEIGHTS = {16: 1, 32: 6, 48: 12, 56: 4, 64: 10, 128: 8}

PROTOCOLS = (6, 17, None)


def _random_prefix(rng: random.Random, width: int, length: int) -> Prefix:
    value = rng.getrandbits(width)
    return Prefix(value, length, width)


def _weighted_length(rng: random.Random, weights: dict) -> int:
    lengths = list(weights)
    totals = list(weights.values())
    return rng.choices(lengths, weights=totals, k=1)[0]


def random_filters(
    count: int,
    width: int = IPV4_WIDTH,
    seed: int = 1,
    host_fraction: float = 0.5,
    with_ports: bool = True,
) -> List[Filter]:
    """``count`` laminar-safe filters for one address family.

    ``host_fraction`` of them are fully specified end-to-end flow filters
    (the common case for per-application reservations); the rest use
    random prefixes with routing-table-like length distributions.

    The returned set is duplicate-free (no two filters share the same
    five-tuple of src/dst/protocol/sport/dport): a duplicate draw is
    redrawn, so a set installed at one gate never carries RP103-style
    binding conflicts by construction.  Collision-free seeds consume
    exactly the same RNG stream as before deduplication, so existing
    seeded experiments are bit-identical.  Raises :class:`ValueError`
    when ``count`` exceeds what the requested shape can produce (e.g.
    narrow weights with ``with_ports=False``).
    """
    rng = random.Random(seed)
    weights = V4_LENGTH_WEIGHTS if width == IPV4_WIDTH else V6_LENGTH_WEIGHTS
    filters: List[Filter] = []
    seen = set()
    max_attempts = 64
    for index in range(count):
        for attempt in range(max_attempts):
            if rng.random() < host_fraction:
                src = _random_prefix(rng, width, width)
                dst = _random_prefix(rng, width, width)
                protocol = rng.choice((6, 17))
                sport: PortSpec = PortSpec.exact(rng.randrange(1024, 65536))
                dport = PortSpec.exact(rng.randrange(1, 1024))
            else:
                src = _random_prefix(rng, width, _weighted_length(rng, weights))
                dst = _random_prefix(rng, width, _weighted_length(rng, weights))
                protocol = rng.choice(PROTOCOLS)
                sport = rng.choice(PORT_CATALOGUE) if with_ports else PortSpec.wildcard()
                dport = rng.choice(PORT_CATALOGUE) if with_ports else PortSpec.wildcard()
            key = (src, dst, protocol, sport, dport)
            if key not in seen:
                seen.add(key)
                break
        else:
            raise ValueError(
                f"could not draw {count} distinct filters "
                f"(exhausted after {len(filters)}; relax the shape parameters)"
            )
        filters.append(
            Filter(src=src, dst=dst, protocol=protocol, sport=sport, dport=dport)
        )
    return filters


def prefix_length_filters(width: int = IPV4_WIDTH, seed: int = 1) -> List[Filter]:
    """Table 2's worst case: one filter per src length 2..``width`` (any
    dst), then one per dst length from the longest src.

    BSPL's length search tree is balanced, so D distinct lengths cost
    ⌈log₂(D+1)⌉ probes; ``width - 1`` lengths make it perfect, so every
    lookup probes log₂(width) per address (5 and 7: the paper's
    2·log₂W row; all ``width`` lengths would give 6 and 8).  Length n is
    n−1 ones then a zero under a random mask: the prefixes are disjoint,
    so set pruning replicates nothing and the DAG stays linear in size.
    """
    rng = random.Random(seed)
    masks = rng.getrandbits(width), rng.getrandbits(width)

    def stair(n: int, mask: int) -> Prefix:
        return Prefix((((1 << (n - 1)) - 1) << (width - n + 1)) ^ mask, n, width)

    lengths = range(2, width + 1)
    host = stair(width, masks[0])
    pairs = [(stair(n, masks[0]), Prefix(0, 0, width)) for n in lengths]
    pairs += [(host, stair(n, masks[1])) for n in lengths]
    return [
        Filter(src=s, dst=d, protocol=17, sport=PortSpec.exact(5000), dport=PortSpec.exact(53))
        for s, d in pairs
    ]


def matching_probe(flt: Filter, rng: random.Random):
    """A (src, dst, protocol, sport, dport) tuple matching the filter —
    used to generate lookup traffic that actually hits installed filters."""
    width = flt.src.width if not flt.src.is_wildcard else (
        flt.dst.width if not flt.dst.is_wildcard else IPV4_WIDTH
    )

    def pick_addr(prefix: Prefix) -> int:
        host_bits = width - prefix.length
        return prefix.value | (rng.getrandbits(host_bits) if host_bits else 0)

    def pick_port(spec: PortSpec) -> int:
        return rng.randint(spec.low, spec.high)

    protocol = flt.protocol if flt.protocol is not None else rng.choice((6, 17))
    return (
        pick_addr(flt.src),
        pick_addr(flt.dst),
        protocol,
        pick_port(flt.sport),
        pick_port(flt.dport),
    )


def table3_filters(count: int = 16, seed: int = 7) -> List[Filter]:
    """The 16 installed filters of the Table 3 measurement."""
    return random_filters(count, seed=seed, host_fraction=0.75)
