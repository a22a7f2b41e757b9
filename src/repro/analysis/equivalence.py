"""Compiled/interpreted equivalence verifier (RP3xx) — no traffic needed.

PR 3 gave the DAG classifier and every BMP engine a compiled fast path
(``lookup_fast``) that must return *the identical record* as the
interpreted, metered walk.  The differential fuzz tests check this with
random traffic; this verifier checks it **statically**, by enumerating
the boundary points where the two implementations could plausibly
disagree — prefix-range edges (first/last covered address and the
addresses just outside), port-interval endpoints (low/high and the
values just outside), the installed protocol values plus an absent one,
and installed/absent incoming interfaces — and asserting agreement at
each.  Off-by-one bugs in interval flattening, shift arithmetic in the
per-length tables, stale-epoch compilations or a stale per-node memo all
surface as exact probe-point divergences, so the boundary set is the
right test basis.

Probing charges nothing: the interpreted walk runs with the null meter
and the compiled walk is cost-free by construction, so the verifier is
safe to run against live tables from the control path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..aiu.filters import PORT_MAX
from ..net.addresses import IPAddress, prefix_range
from ..net.packet import Packet
from ..sim.cost import NULL_METER
from .diagnostics import AnalysisReport, Diagnostic

#: Interface name that no test or workload installs; probes the
#: wildcard-iif edge against the "unknown interface" case.
_ABSENT_IIF = "rp-verify0"
#: Protocol number no built-in filter uses (253/254 are RFC 3692
#: experimental values); probes the wildcard-protocol edge.
_ABSENT_PROTO = 254


def _addr_candidates(prefixes: Iterable, width: int) -> List[int]:
    """Boundary addresses for one prefix: first/last covered and the two
    just outside (clipped to the address space)."""
    out: Set[int] = set()
    top = (1 << width) - 1
    for prefix in prefixes:
        low, high = prefix_range(prefix)
        out.update((low, high))
        if low > 0:
            out.add(low - 1)
        if high < top:
            out.add(high + 1)
    return sorted(out)


def _port_candidates(specs: Iterable) -> List[int]:
    out: Set[int] = set()
    for spec in specs:
        out.update((spec.low, spec.high))
        if spec.low > 0:
            out.add(spec.low - 1)
        if spec.high < PORT_MAX:
            out.add(spec.high + 1)
    return sorted(out)


def _record_probes(record, width: int, max_per_record: int) -> List[Packet]:
    """Boundary probes anchored on one record: vary each field through
    its boundary candidates while holding the others at in-range values,
    plus the src x dst boundary cross product (address levels interact
    through per-length table probing order)."""
    flt = record.filter
    src_c = _addr_candidates([flt.src], width)
    dst_c = _addr_candidates([flt.dst], width)
    sport_c = _port_candidates([flt.sport])
    dport_c = _port_candidates([flt.dport])
    proto_c = [flt.protocol if flt.protocol is not None else 6, _ABSENT_PROTO]
    iif_c = [flt.iif if flt.iif is not None else "atm0", None, _ABSENT_IIF]
    base = (
        prefix_range(flt.src)[0],
        prefix_range(flt.dst)[0],
        proto_c[0],
        flt.sport.low,
        flt.dport.low,
        iif_c[0],
    )
    combos: List[Tuple[int, int, int, int, int, Optional[str]]] = []
    for src in src_c:
        for dst in dst_c:
            combos.append((src, dst, base[2], base[3], base[4], base[5]))
    for sport in sport_c:
        combos.append((base[0], base[1], base[2], sport, base[4], base[5]))
    for dport in dport_c:
        combos.append((base[0], base[1], base[2], base[3], dport, base[5]))
    for proto in proto_c:
        combos.append((base[0], base[1], proto, base[3], base[4], base[5]))
    for iif in iif_c:
        combos.append((base[0], base[1], base[2], base[3], base[4], iif))
    packets = []
    for src, dst, proto, sport, dport, iif in combos[:max_per_record]:
        packets.append(
            Packet(
                src=IPAddress(src, width),
                dst=IPAddress(dst, width),
                protocol=proto,
                src_port=sport,
                dst_port=dport,
                iif=iif,
            )
        )
    return packets


def _describe(packet: Packet) -> str:
    return (
        f"<src={packet.src} dst={packet.dst} proto={packet.protocol} "
        f"sport={packet.src_port} dport={packet.dst_port} iif={packet.iif}>"
    )


def verify_table(
    table, width: Optional[int] = None, subject: str = "filter table",
    max_probes: int = 50000,
) -> List[Diagnostic]:
    """Assert ``lookup_fast`` == ``lookup`` at every boundary probe of a
    filter table (DAG or linear); RP301 diagnostics on divergence."""
    width = width if width is not None else getattr(table, "width", 32)
    diagnostics: List[Diagnostic] = []
    probes = 0
    for record in table.records():
        if probes >= max_probes:
            break
        per_record = min(256, max_probes - probes)
        for packet in _record_probes(record, width, per_record):
            probes += 1
            interpreted = table.lookup(packet, NULL_METER)
            compiled = table.lookup_fast(packet)
            if compiled is not interpreted:
                diagnostics.append(
                    Diagnostic(
                        "RP301",
                        f"compiled walk returned "
                        f"{compiled.filter if compiled else None} but the "
                        f"interpreted walk returned "
                        f"{interpreted.filter if interpreted else None} for "
                        f"probe {_describe(packet)}",
                        subject=subject,
                        hint="a node's memo is stale or mis-flattened (RP505 "
                        "compares every memo with a fresh compile); report "
                        "the divergence",
                    )
                )
                if len(diagnostics) >= 16:
                    return diagnostics
    return diagnostics


def verify_engine(engine, subject: str = "bmp engine") -> List[Diagnostic]:
    """Assert a BMP engine's compiled per-length tables agree with its
    interpreted lookup at every prefix boundary; RP302 on divergence."""
    diagnostics: List[Diagnostic] = []
    entries = list(engine.entries())
    candidates = _addr_candidates((prefix for prefix, _ in entries), engine.width)
    top = (1 << engine.width) - 1
    candidates.extend(c for c in (0, top) if c not in candidates)
    for addr in candidates:
        interpreted = engine.lookup_entry(addr, NULL_METER)
        compiled = engine.lookup_entry_fast(addr)
        if interpreted != compiled:
            diagnostics.append(
                Diagnostic(
                    "RP302",
                    f"compiled lookup returned {compiled!r} but the "
                    f"interpreted lookup returned {interpreted!r} for address "
                    f"{IPAddress(addr, engine.width)}",
                    subject=subject,
                    hint="the per-length fast tables are stale or "
                    "mis-keyed; check the engine's mutation_epoch plumbing",
                )
            )
            if len(diagnostics) >= 16:
                return diagnostics
    return diagnostics


def verify_aiu(aiu) -> AnalysisReport:
    """Verify every filter table of an AIU (all gates, both families)."""
    report = AnalysisReport()
    for (gate, width), table in sorted(
        aiu._tables.items(), key=lambda item: (item[0][0], item[0][1])
    ):
        report.extend(
            verify_table(table, width, subject=f"{gate}/{width}-bit table")
        )
    return report


def routing_engines(router, subject_prefix: str = "") -> Iterator[Tuple[str, object]]:
    """``(subject, engine)`` for every BMP-backed engine of a router's
    routing table, in width order."""
    for width, engine in sorted(getattr(router.routing_table, "_engines", {}).items()):
        if hasattr(engine, "entries") and hasattr(engine, "lookup_entry_fast"):
            yield f"{subject_prefix}routing/{width}-bit engine", engine
