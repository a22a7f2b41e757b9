"""The Association Identification Unit (AIU) — §5.

"The AIU implements a packet classifier, fast flow detection, and
provides the binding between plugin instances and filters."

It owns one filter table per (gate, address family) and a single flow
table.  The data-path contract mirrors §3.2 exactly:

* ``classify(packet, gate)`` — called by the *first* gate a packet hits.
  A flow-table hit returns the cached instance; a miss performs one
  filter-table lookup **per gate** and creates a single flow entry
  covering all gates, then stores the flow index (FIX) in the packet.
* ``instance_for(packet, gate)`` — the gate macro for subsequent gates:
  an indirect fetch through the packet's FIX, no classification at all.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..net.addresses import IPV4_WIDTH, IPV6_WIDTH
from ..net.packet import Packet
from ..sim.cost import NULL_METER
from .dag import DagFilterTable
from .filters import Filter, flow_key_of
from .flow_table import DEFAULT_BUCKETS, FlowTable, INITIAL_RECORDS
from .linear import LinearFilterTable
from .records import FilterRecord, FlowRecord, overrides

TABLE_KINDS = {"dag": DagFilterTable, "linear": LinearFilterTable}


def _raise_hook_fault(instance, gate, exc, packet, now):
    """A bare AIU's hook-fault sink: no fault domain, so it propagates."""
    raise exc


class GateError(KeyError):
    """Raised when a gate name is unknown to the AIU."""


class AIU:
    """Packet classifier + flow cache + filter/instance binding."""

    def __init__(
        self,
        gates: Sequence[str],
        table_kind: str = "dag",
        bmp_engine: str = "patricia",
        flow_buckets: int = DEFAULT_BUCKETS,
        initial_records: int = INITIAL_RECORDS,
        max_records: Optional[int] = None,
        use_flow_cache: bool = True,
    ):
        if not gates:
            raise ValueError("AIU needs at least one gate")
        try:
            self._table_factory = TABLE_KINDS[table_kind]
        except KeyError as exc:
            raise ValueError(f"unknown table kind {table_kind!r}") from exc
        self.table_kind = table_kind
        self.bmp_engine = bmp_engine
        self.gates: Tuple[str, ...] = tuple(gates)
        self._gate_index: Dict[str, int] = {g: i for i, g in enumerate(self.gates)}
        if len(self._gate_index) != len(self.gates):
            raise ValueError("duplicate gate names")
        # (gate name, address width) -> filter table; created lazily.
        self._tables: Dict[Tuple[str, int], object] = {}
        self.flow_table = FlowTable(
            gate_count=len(self.gates),
            buckets=flow_buckets,
            initial_records=initial_records,
            max_records=max_records,
        )
        self.filter_lookups = 0
        # Ablation knob: with the cache off, every packet takes the full
        # n-gate filter classification (ablation A1, benchmarks/paper.py).
        self.use_flow_cache = use_flow_cache
        # Fast-path plan support: how many filters are installed at each
        # gate, the live records bound to each instance, and an epoch
        # counter bumped on any filter add/remove/re-bind so the router
        # can cache its active-gate plan and hooks (see Router).
        self._gate_filter_counts: Dict[str, int] = {g: 0 for g in self.gates}
        self._instance_records: Dict[object, Dict[FilterRecord, None]] = {}
        # §4's per-flow callbacks are optional and cost only where a
        # class overrides them: eviction notifies (``flow_table.on_remove``)
        # only while this many bound instances override ``on_flow_removed``.
        self._removal_hooks = 0
        # Where a raising flow hook is charged, as (instance, gate, exc,
        # packet, now); the router points it at FaultManager.on_fault.
        self.on_hook_fault = _raise_hook_fault
        self.plan_epoch = 0
        # Per-gate classification counters: [lookups, compiled, matches].
        # ``lookups`` counts slow-path filter-table lookups at the gate,
        # ``compiled`` how many of those took the compiled (unmetered)
        # walk, ``matches`` how many returned a filter record.
        self._gate_class_stats: Dict[str, List[int]] = {
            g: [0, 0, 0] for g in self.gates
        }
        # Telemetry (docs/OBSERVABILITY.md): packet-size histogram fed on
        # the classification miss path; None unless a registry is
        # attached, so the off state costs one None test per miss.
        # ``_tm_size_counts`` is the histogram's size-indexed staging
        # list (Histogram.enable_direct) — the seam's one list-index
        # increment; ``_tm_size_hist`` backs the rare out-of-range sizes.
        self._tm_size_hist = None
        self._tm_size_counts = None
        # Per-width classification plan: only gates that actually have a
        # table for the family, with gate index / stats / table resolved
        # once (rebuilt whenever a table is created; tables are never
        # destroyed).  The slow path iterates this instead of probing
        # ``_tables`` with a fresh tuple key per gate per packet.
        self._width_plans: Dict[int, Tuple[Tuple[str, int, List[int], object], ...]] = {}

    # ------------------------------------------------------------------
    # Gate bookkeeping
    # ------------------------------------------------------------------
    def gate_index(self, gate: str) -> int:
        try:
            return self._gate_index[gate]
        except KeyError as exc:
            raise GateError(f"unknown gate {gate!r}; known: {self.gates}") from exc

    def _table(self, gate: str, width: int):
        key = (gate, width)
        table = self._tables.get(key)
        if table is None:
            if self._table_factory is DagFilterTable:
                table = DagFilterTable(width=width, bmp_engine=self.bmp_engine)
            else:
                table = self._table_factory(width=width)
            self._tables[key] = table
            self._rebuild_width_plans()
        return table

    def _rebuild_width_plans(self) -> None:
        rows: Dict[int, List[Tuple[int, str, object]]] = {}
        for (gate, width), table in self._tables.items():
            rows.setdefault(width, []).append((self._gate_index[gate], gate, table))
        self._width_plans = {
            width: tuple(
                (gate, index, self._gate_class_stats[gate], table)
                for index, gate, table in sorted(entries)
            )
            for width, entries in rows.items()
        }

    def _tables_for_filter(self, gate: str, flt: Filter) -> List[object]:
        family = flt.family
        if family == 4:
            return [self._table(gate, IPV4_WIDTH)]
        if family == 6:
            return [self._table(gate, IPV6_WIDTH)]
        # Address-wildcard filters match both families (§3's filter model
        # is family-agnostic when no prefix is given).
        return [self._table(gate, IPV4_WIDTH), self._table(gate, IPV6_WIDTH)]

    # ------------------------------------------------------------------
    # Control path: filters and bindings (§3.1 steps 3 and 4)
    # ------------------------------------------------------------------
    def create_filter(
        self,
        gate: str,
        flt,
        instance: object = None,
        priority: int = 0,
    ) -> FilterRecord:
        """Install a filter at a gate, optionally bound to an instance.

        ``flt`` may be a :class:`Filter` or the paper's string notation.
        """
        self.gate_index(gate)
        if isinstance(flt, str):
            flt = Filter.parse(flt)
        record = FilterRecord(flt, gate, instance, priority)
        installed = []
        try:
            for table in self._tables_for_filter(gate, flt):
                table.install(record)
                installed.append(table)
        except Exception:
            for table in installed:
                table.remove(record)
            raise
        self._gate_filter_counts[gate] += 1
        self._index_binding(record, instance, True)
        self.plan_epoch += 1
        # Live reconfiguration: cached flows the new filter could claim
        # must re-classify, or they would keep their old bindings until
        # cache expiry.
        self._drop_flows(self._claimed(flt))
        return record

    def _claimed(self, flt: Filter) -> List[FlowRecord]:
        """The cached flows ``flt`` matches, most recent first: the
        control path's one walk of the flow table.  ``Filter.matches``
        over each flow's key, inlined, with the filter's family, masks,
        protocol, port bounds and iif read once (a wildcard prefix has
        mask and value 0)."""
        family = flt.family
        width = None if family is None else (IPV6_WIDTH if family == 6 else IPV4_WIDTH)
        smask, svalue = flt.src.mask, flt.src.value
        dmask, dvalue = flt.dst.mask, flt.dst.value
        protocol, iif = flt.protocol, flt.iif
        slow, shigh = flt.sport.low, flt.sport.high
        dlow, dhigh = flt.dport.low, flt.dport.high
        claimed = []
        for flow in self.flow_table:
            key = flow.key
            if ((width is None or key.src_width == width)
                    and key.src & smask == svalue
                    and key.dst & dmask == dvalue
                    and (protocol is None or key.protocol == protocol)
                    and slow <= key.sport <= shigh
                    and dlow <= key.dport <= dhigh
                    and (iif is None or key.iif == iif)):
                claimed.append(flow)
        return claimed

    def _index_binding(self, record: FilterRecord, instance: object, bound: bool) -> None:
        """Enter (``bound``) or drop ``record`` under ``instance``; an
        instance is a key of the index while it has a record."""
        if instance is None:
            return
        records = self._instance_records.setdefault(instance, {})
        if bound:
            records[record] = None
        else:
            del records[record]
        if len(records) == bound:       # its first record came, or its last went
            if not records:
                del self._instance_records[instance]
            if overrides(type(instance), "on_flow_removed"):
                self._removal_hooks += 1 if records else -1

    def _drop_flows(self, flows: Iterable[FlowRecord]) -> int:
        """A verb's one ``FlowTable.purge``, *then* the removal hook from
        the counts the verb left: an instance that just lost its last
        filter still hears the flows this purge drops.  The purge unlinks
        every flow before it calls a hook, so a hook that raises escapes
        a table that is already consistent."""
        table = self.flow_table
        try:
            return table.purge(flows)
        finally:
            table.on_remove = self._notify_flow_removed if self._removal_hooks else None

    def _drop_bound(self, records: Iterable[FilterRecord]) -> int:
        """Drop the cached flows bound through any of ``records``, each
        once, read from the records' flow indexes: no flow-table walk."""
        flows: Dict[FlowRecord, None] = {}
        for record in records:
            flows.update(record.flows)
        return self._drop_flows(flows)

    def bind(self, record: FilterRecord, instance: object) -> None:
        """Bind (or rebind) a filter record to a plugin instance.

        Cached flows derived from this filter are invalidated so the next
        packet re-classifies against the new binding, and the epoch moves
        so the router re-derives its batch-start hooks.
        """
        if record.active:
            self._index_binding(record, record.instance, False)
            self._index_binding(record, instance, True)
            self.plan_epoch += 1
        record.attach(instance)
        self._drop_bound((record,))

    def remove_filter(self, record: FilterRecord) -> bool:
        """Remove a filter and purge flow-table entries derived from it."""
        return self.remove_filters((record,)) > 0

    def remove_filters(self, records: Iterable[FilterRecord]) -> int:
        """Remove filters, then drop every cached flow bound through any
        of them in one purge.  Returns the filters removed."""
        removed = [record for record in records if self._unlink(record)]
        if removed:
            self._drop_bound(removed)
        return len(removed)

    def _unlink(self, record: FilterRecord) -> bool:
        """Take a record out of its tables and counts; no flow is touched."""
        removed = False
        for table in self._tables_for_filter(record.gate, record.filter):
            removed = table.remove(record) or removed
        if removed:
            record.active = False
            self._gate_filter_counts[record.gate] -= 1
            self._index_binding(record, record.instance, False)
            self.plan_epoch += 1
        return removed

    def purge(self, owned: Callable[[object], bool]) -> Tuple[int, int]:
        """Remove *every* AIU reference to the instances ``owned``
        accepts: unlink their filter records, then drop, in one purge,
        each cached flow bound through one of them.  Returns (filters
        removed, flows invalidated).

        A slot's instance is always its filter record's (the AIU binds
        slots only through records, and a rebind drops the record's
        flows), so those records' indexes hold every cached flow that
        could still reach the instances.  Each bound slot is left intact,
        so its instance hears ``on_flow_removed`` as on any filter removal.
        """
        records = [record for instance, bound in self._instance_records.items()
                   if owned(instance) for record in bound]
        for record in records:
            self._unlink(record)
        return len(records), self._drop_bound(records)

    def purge_instance(self, instance: object) -> int:
        """:meth:`purge` of one instance; returns the flows invalidated."""
        return self.purge(lambda candidate: candidate is instance)[1]

    def filters(self, gate: Optional[str] = None) -> List[FilterRecord]:
        # A family-wildcard filter appears in both per-family tables;
        # dedup by identity with an insertion-ordered dict (the previous
        # `record not in seen` list scan was O(n²) over 50k filters).
        seen: Dict[int, FilterRecord] = {}
        for (table_gate, _w), table in self._tables.items():
            if gate is not None and table_gate != gate:
                continue
            for record in table.records():
                seen.setdefault(id(record), record)
        return list(seen.values())

    def filter_count(self, gate: Optional[str] = None) -> int:
        return len(self.filters(gate))

    # ------------------------------------------------------------------
    # Data path (§3.2)
    # ------------------------------------------------------------------
    def classify(
        self,
        packet: Packet,
        gate: str,
        meter=NULL_METER,
        cycles=NULL_METER,
        now: float = 0.0,
    ) -> Tuple[Optional[object], FlowRecord]:
        """Full AIU call made by the first gate a packet encounters.

        Returns ``(plugin_instance_or_None, flow_record)`` and stores the
        flow index in ``packet.fix``.
        """
        index = self.gate_index(gate)
        if self.use_flow_cache:
            record = self.flow_table.lookup(packet, meter, cycles, now)
            if record is None:
                record = self._classify_uncached(packet, meter, now)
        else:
            record = self._classify_uncached(packet, meter, now, install=False)
        packet.fix = record
        return record.slot(index).instance, record

    def _classify_uncached(
        self, packet: Packet, meter, now: float, install: bool = True
    ) -> FlowRecord:
        """The slow path: n filter-table lookups, one new flow entry."""
        width = IPV6_WIDTH if packet.is_ipv6 else IPV4_WIDTH
        if install:
            record = self.flow_table.install(packet, now)
            counts = self._tm_size_counts
            if counts is not None:
                # The packet-size histogram seam: one staged list-index
                # increment (Histogram.enable_direct), folded into
                # buckets lazily on the control path.  The raw length
                # read skips the property frame — parsed packets carry
                # the length cache from the wire header.  Never touches
                # ``meter``: telemetry charges zero modelled cycles
                # (tests/telemetry/).
                size = packet._length
                if size < 0:
                    size = packet.length
                if size < len(counts):
                    counts[size] += 1
                else:
                    self._tm_size_hist.observe(size)
        else:
            record = FlowRecord(flow_key_of(packet), len(self.gates), now)
        # The compiled walk is only legal when nothing observes the
        # lookup: NULL_METER means no meter (the router additionally
        # never routes metered/traced packets here with NULL_METER, see
        # Router._run_gate), so zero modelled cost is unobservable.
        fast = meter is NULL_METER
        faults = None
        for gate, index, stats, table in self._width_plans.get(width, ()):
            self.filter_lookups += 1
            stats[0] += 1
            if fast:
                stats[1] += 1
                filter_record = table.lookup_fast(packet)
            else:
                filter_record = table.lookup(packet, meter)
            if filter_record is None:
                continue
            stats[2] += 1
            slot = record.slot(index)
            slot.instance = filter_record.instance
            slot.filter_record = filter_record
            if install:
                filter_record.flows[record] = None
            created = filter_record.on_flow_created
            if created is not None:
                try:
                    created(record, slot)
                except Exception as exc:
                    faults = (faults or []) + [(filter_record.instance, gate, exc)]
        # Charged once every gate's slot is set: a fault that unloads its
        # plugin then purges a whole flow, never a half-built one.
        for instance, gate, exc in faults or ():
            self.on_hook_fault(instance, gate, exc, packet, now)
        return record

    def ensure_compiled(self) -> None:
        """Pre-warm every filter table's compiled form (an int compare
        per table when nothing changed).  Called by the router before a
        batch so flow misses inside the batch never pay compile latency."""
        for table in self._tables.values():
            table.ensure_compiled()

    def classification_stats(self) -> Dict[str, dict]:
        """Per-gate slow-path counters and, per filter table (by address
        width), what its recompiles cost (``pmgr show aiu``)."""
        out: Dict[str, dict] = {}
        for gate in self.gates:
            lookups, compiled, matches = self._gate_class_stats[gate]
            out[gate] = {
                "filters": self._gate_filter_counts[gate],
                "lookups": lookups,
                "compiled": compiled,
                "matches": matches,
                "tables": {},
            }
        for (gate, width), table in self._tables.items():
            out[gate]["tables"][str(width)] = {
                "compiles": table.compiles,
                "nodes_compiled": table.nodes_compiled,
                "nodes_compiled_last": table.nodes_compiled_last,
            }
        return out

    def instance_for(
        self, packet: Packet, gate: str, cycles=NULL_METER
    ) -> Optional[object]:
        """The gate macro for gates after the first: FIX indirection only."""
        record: Optional[FlowRecord] = packet.fix
        if record is None:
            instance, _record = self.classify(packet, gate, cycles=cycles)
            return instance
        return record.slot(self.gate_index(gate)).instance

    # ------------------------------------------------------------------
    # Flow-removal notification plumbing (§4 optional callbacks)
    # ------------------------------------------------------------------
    def _notify_flow_removed(self, record: FlowRecord) -> None:
        """Each bound instance's removal hook; one that raises is charged
        (at the flow's last packet time) and the others still run."""
        for slot in record.slots:
            if slot is not None and slot.instance is not None:
                callback = getattr(slot.instance, "on_flow_removed", None)
                if callback is not None:
                    try:
                        callback(record, slot)
                    except Exception as exc:
                        self.on_hook_fault(slot.instance, "on_flow_removed", exc, None,
                                           record.last_used)

    def stats(self) -> dict:
        data = self.flow_table.stats()
        data["filter_lookups"] = self.filter_lookups
        data["filters"] = self.filter_count()
        return data
