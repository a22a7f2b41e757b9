"""Boundary probes: the points where a compiled lookup and the metered
walk could part.

``DagFilterTable.lookup_fast`` flattens port labels into segments and
address labels into per-length dicts, and ``BMPEngine.lookup_entry_fast``
probes per-length tables by shift; a memoised compile can also outlive
the record it names.  Each of those goes wrong, if at all, at an edge:
the first and last address a prefix covers and the two just outside
it, a port interval's endpoints and their outside neighbours, an
installed protocol against an absent one, a named interface against an
absent one.  This module enumerates those points once; the oracle sends
them as its ``edges`` traffic, and the classifier's property tests
probe tables with them directly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.aiu.filters import PORT_MAX
from repro.net.addresses import IPAddress, prefix_range
from repro.net.packet import Packet

#: An interface no test or workload installs: probes the wildcard-iif
#: edge against the unknown-interface case.
ABSENT_IIF = "edge0"
#: A protocol number no filter uses (RFC 3692 experimental): probes the
#: wildcard-protocol edge.
ABSENT_PROTO = 254


def _span(prefix, width: int) -> Tuple[int, int]:
    """First and last address a prefix covers in a ``width``-bit space (a
    wildcard covers all of it, whatever family it was parsed in)."""
    if prefix.is_wildcard:
        return 0, (1 << width) - 1
    return prefix_range(prefix)


def addr_candidates(prefixes: Iterable, width: int) -> List[int]:
    """First and last covered address of each prefix and the two just
    outside it (clipped to the address space)."""
    out = set()
    top = (1 << width) - 1
    for prefix in prefixes:
        low, high = _span(prefix, width)
        out.update((low, high))
        if low > 0:
            out.add(low - 1)
        if high < top:
            out.add(high + 1)
    return sorted(out)


def port_candidates(specs: Iterable) -> List[int]:
    """Each port interval's endpoints and the values just outside it."""
    out = set()
    for spec in specs:
        out.update((spec.low, spec.high))
        if spec.low > 0:
            out.add(spec.low - 1)
        if spec.high < PORT_MAX:
            out.add(spec.high + 1)
    return sorted(out)


def filter_probes(flt, width: int, limit: int = 256) -> List[Packet]:
    """Boundary probes anchored on one filter: each field through its
    candidates while the others hold in-range values, plus the src x dst
    cross product (address levels interact through the per-length
    tables' probing order)."""
    src_c = addr_candidates([flt.src], width)
    dst_c = addr_candidates([flt.dst], width)
    proto_c = [flt.protocol if flt.protocol is not None else 6, ABSENT_PROTO]
    iif_c = [flt.iif if flt.iif is not None else "atm0", None, ABSENT_IIF]
    base = (_span(flt.src, width)[0], _span(flt.dst, width)[0], proto_c[0],
            flt.sport.low, flt.dport.low, iif_c[0])
    combos: List[Tuple[int, int, int, int, int, Optional[str]]] = [
        (src, dst, *base[2:]) for src in src_c for dst in dst_c]
    combos += [(*base[:3], sport, *base[4:]) for sport in port_candidates([flt.sport])]
    combos += [(*base[:4], dport, base[5]) for dport in port_candidates([flt.dport])]
    combos += [(*base[:2], proto, *base[3:]) for proto in proto_c]
    combos += [(*base[:5], iif) for iif in iif_c]
    return [Packet(src=IPAddress(src, width), dst=IPAddress(dst, width), protocol=proto,
                   src_port=sport, dst_port=dport, iif=iif)
            for src, dst, proto, sport, dport, iif in combos[:limit]]


def route_probes(prefixes: Iterable, width: int) -> List[int]:
    """Destination values at every route prefix's boundaries, plus both
    ends of the address space: where a per-length table keyed with the
    wrong shift answers for the wrong prefix."""
    out = set(addr_candidates(prefixes, width))
    out.update((0, (1 << width) - 1))
    return sorted(out)
