"""The O(n) linear filter table — the baseline the paper beats.

§5.1.2: "most of these existing techniques require O(n) time, n being
the number of filters".  This classifier scans every installed filter,
charging one memory access per record touched, and picks the most
specific match using the same ordering as the DAG table — so the two are
interchangeable in the AIU and directly comparable in benchmarks
(experiment E5).

Unlike the DAG table it handles arbitrarily overlapping port ranges,
which tests exploit as the correctness oracle.
"""

from __future__ import annotations

from typing import List, Optional

from ..net.packet import Packet
from ..sim.cost import NULL_METER
from .records import FilterRecord


class LinearFilterTable:
    """Brute-force most-specific-match over a list of filter records."""

    compiles = nodes_compiled = nodes_compiled_last = 0     # nothing to compile

    def __init__(self, width: int = 32):
        self.width = width
        self._records: List[FilterRecord] = []

    def install(self, record: FilterRecord) -> None:
        self._records.append(record)

    def remove(self, record: FilterRecord) -> bool:
        if record in self._records:
            self._records.remove(record)
            record.active = False
            return True
        return False

    def lookup(self, packet: Packet, meter=NULL_METER) -> Optional[FilterRecord]:
        best: Optional[FilterRecord] = None
        for record in self._records:
            meter.access(1, "linear_scan")
            if record.filter.matches(packet):
                if best is None or record.sort_key() > best.sort_key():
                    best = record
        return best

    def lookup_fast(self, packet: Packet) -> Optional[FilterRecord]:
        """Meter-free scan — same result as :meth:`lookup`, no charges."""
        best: Optional[FilterRecord] = None
        for record in self._records:
            if record.filter.matches(packet):
                if best is None or record.sort_key() > best.sort_key():
                    best = record
        return best

    def ensure_compiled(self) -> None:
        """Nothing to compile; present so the AIU can pre-warm any table."""

    def lookup_all(self, packet: Packet) -> List[FilterRecord]:
        matches = [r for r in self._records if r.filter.matches(packet)]
        return sorted(matches, key=lambda r: r.sort_key(), reverse=True)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[FilterRecord]:
        return list(self._records)
