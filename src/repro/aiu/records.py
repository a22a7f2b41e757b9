"""Filter and flow records — the AIU's two kinds of state.

A :class:`FilterRecord` is the paper's "filter record ... contain[ing],
in addition to a pointer to the correct plugin instance, an opaque
pointer that can be filled in by the plugin to point to some private
data" (hard state, §5.1.1).

A :class:`FlowRecord` is one row of the flow table (§5.2): the six-tuple,
a pair of pointers per gate (plugin instance + per-flow soft state), the
filter record each binding was derived from, and the free-list/LRU
linkage.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Set, Tuple

from .filters import Filter, FlowKey

_record_seq = itertools.count(1)


class FilterRecord:
    """One installed filter, bound (or bindable) to a plugin instance."""

    __slots__ = (
        "filter",
        "gate",
        "instance",
        "private",
        "priority",
        "seq",
        "_key",
        "active",
        "leaves",
        "via",
        "flows",
    )

    def __init__(
        self,
        flt: Filter,
        gate: str,
        instance: object = None,
        priority: int = 0,
    ):
        self.filter = flt
        self.gate = gate
        self.instance = instance
        self.private: object = None      # plugin-owned hard state
        self.priority = priority
        self.seq = next(_record_seq)
        # specificity/priority/seq never change after construction, so
        # the sort key is computed once (leaf collapse in the compiled
        # DAG and hot lookups compare it millions of times).
        self._key = (flt.specificity(), priority, self.seq)
        self.active = True
        # DAG bookkeeping: leaf nodes holding this record and the
        # (node, label) via-list entries, for O(1) removal.
        self.leaves: List[object] = []
        self.via: List[Tuple[object, object]] = []
        # Flow-table entries derived from this filter, purged on removal.
        self.flows: Set["FlowRecord"] = set()

    def sort_key(self) -> tuple:
        """Most-specific-filter ordering: specificity, then priority, then
        recency (the latest installed wins exact ties)."""
        return self._key

    def __repr__(self) -> str:
        bound = type(self.instance).__name__ if self.instance is not None else "unbound"
        return f"FilterRecord({self.filter} @ {self.gate}, {bound})"


class GateSlot:
    """One gate's pair of pointers in a flow record (§5.2 item 1)."""

    __slots__ = ("instance", "private", "filter_record")

    def __init__(self):
        self.instance: object = None
        self.private: object = None      # per-flow soft state (e.g. DRR queue)
        self.filter_record: Optional[FilterRecord] = None

    def __repr__(self) -> str:
        name = type(self.instance).__name__ if self.instance is not None else "-"
        return f"GateSlot({name})"


class FlowRecord:
    """One flow-table row; doubles as the FIX handle stored in packets."""

    __slots__ = (
        "key",
        "slots",
        "created",
        "last_used",
        "packets",
        "bytes",
        "bucket",
        "lru_prev",
        "lru_next",
        "hash_prev",
        "hash_next",
        "route",
        "route_version",
    )

    def __init__(self, key: FlowKey, gate_count: int, now: float = 0.0):
        self.key = key
        self.slots: List[GateSlot] = [GateSlot() for _ in range(gate_count)]
        self.created = now
        self.last_used = now
        self.packets = 0
        self.bytes = 0
        self.bucket: Optional[int] = None
        self.lru_prev: Optional["FlowRecord"] = None
        self.lru_next: Optional["FlowRecord"] = None
        # Intrusive hash-chain linkage: collision chains are threaded
        # through the records themselves, so unlinking on evict is O(1)
        # pointer surgery instead of an O(chain) list.remove.
        self.hash_prev: Optional["FlowRecord"] = None
        self.hash_next: Optional["FlowRecord"] = None
        # Per-flow route memo for the fast path, revalidated against
        # RoutingTable.version (the metered path always does the real
        # lookup, whose modelled ROUTE_LOOKUP cost is the spec).
        self.route: Optional[object] = None
        self.route_version: int = -1

    def reinit(self, key: FlowKey, gate_count: int, now: float) -> None:
        """Reset a recycled record for a new flow (free-list reuse, §5.2).

        Gate slots are lazy: a fresh record starts with ``[None] *
        gate_count`` and :meth:`slot` materializes a GateSlot on first
        access — a flow that never matches a filter allocates none.  A
        recycled record keeps its materialized GateSlots, scrubbed in
        place rather than reallocated — flow births are the hot part of
        the miss path.
        """
        self.key = key
        slots = self.slots
        if len(slots) == gate_count:
            for slot in slots:
                if slot is not None:
                    slot.instance = None
                    slot.private = None
                    slot.filter_record = None
        else:
            self.slots = [None] * gate_count
        self.created = now
        self.last_used = now
        self.packets = 0
        self.bytes = 0
        self.bucket = None
        self.lru_prev = None
        self.lru_next = None
        self.hash_prev = None
        self.hash_next = None
        self.route = None
        self.route_version = -1

    def slot(self, gate_index: int) -> GateSlot:
        slots = self.slots
        entry = slots[gate_index]
        if entry is None:
            entry = slots[gate_index] = GateSlot()
        return entry

    def touch(self, now: float, size: int = 0) -> None:
        self.last_used = now
        self.packets += 1
        self.bytes += size

    def __repr__(self) -> str:
        return f"FlowRecord({self.key}, pkts={self.packets})"
