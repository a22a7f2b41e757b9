"""The flow table (§5.2): a hash cache of fully-specified flows.

Faithful to the paper's implementation notes:

* the hash index is computed from the five-tuple with a cheap fold that
  the paper costs at **17 cycles**;
* the bucket array is allocated up front (default **32768** buckets) and
  collisions chain on singly linked lists;
* **1024** flow records are pre-allocated on a free list, and the pool
  grows exponentially (1024, 2048, 4096, ...) as demand rises;
* an optional cap stops allocation, after which the **oldest records are
  recycled** (LRU);
* each record stores the six-tuple, a pair of pointers per gate (plugin
  instance + per-flow soft state), and the filter record each binding
  derives from.

Cost accounting: a lookup charges ``Costs.FLOW_HASH`` cycles for the
hash, one memory access for the bucket head, and one per chain node
walked.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from ..net.packet import Packet
from ..sim.cost import Costs, NULL_METER
from .filters import FlowKey, flow_key_of
from .records import FilterRecord, FlowRecord

DEFAULT_BUCKETS = 32768
INITIAL_RECORDS = 1024


class FlowTable:
    """Hash-based flow cache with free-list allocation and LRU recycling."""

    def __init__(
        self,
        gate_count: int,
        buckets: int = DEFAULT_BUCKETS,
        initial_records: int = INITIAL_RECORDS,
        max_records: Optional[int] = None,
        use_flow_label: bool = False,
    ):
        if buckets & (buckets - 1):
            raise ValueError("bucket count must be a power of two")
        # §7.3 measured with "IPv6 flow label NOT used"; enabling this
        # hashes (src, flow label) instead of folding the five-tuple —
        # the cheaper hash IPv6 makes possible.  Chain entries are still
        # confirmed against the full five-tuple, so correctness does not
        # depend on senders choosing unique labels.
        self.use_flow_label = use_flow_label
        self.gate_count = gate_count
        self._mask = buckets - 1
        # Bucket heads; collision chains are intrusive (hash_prev /
        # hash_next threaded through the FlowRecords themselves).
        self._buckets: List[Optional[FlowRecord]] = [None] * buckets
        self.max_records = max_records
        self._allocated = 0
        self._next_growth = initial_records
        self._free: List[FlowRecord] = []
        self._grow_pool()
        # LRU list: most recently used at the head.
        self._lru_head: Optional[FlowRecord] = None
        self._lru_tail: Optional[FlowRecord] = None
        self.active = 0
        self.hits = 0
        self.misses = 0
        self.recycled = 0
        # Flow lifecycle counters (telemetry pulls these; same plain-int
        # cost class as ``active`` above, so they are kept unconditionally).
        self.births = 0
        self.evictions = 0
        #: Called with (record) just before a record is evicted/removed,
        #: so plugins can tear down per-flow soft state (§4: "functions
        #: which are called by the AIU on removal of an entry").
        self.on_remove: Optional[Callable[[FlowRecord], None]] = None

    # ------------------------------------------------------------------
    # Record pool
    # ------------------------------------------------------------------
    def _grow_pool(self) -> None:
        """Add ``next_growth`` records (exponential growth per §5.2).

        Pool records are blank shells: ``reinit`` assigns every field
        before first use, so running ``__init__`` here would be pure
        waste on the allocation path.  Gate slots are NOT preallocated —
        exponential growth overshoots demand, and ``reinit`` builds the
        slot list on a record's first use (then scrubs it in place on
        every recycle).
        """
        grow = self._next_growth
        if self.max_records is not None:
            grow = max(0, min(grow, self.max_records - self._allocated))
        free = self._free
        new = FlowRecord.__new__
        for _ in range(grow):
            record = new(FlowRecord)
            record.slots = ()
            free.append(record)
        self._allocated += grow
        self._next_growth *= 2

    def _allocate(self, key: FlowKey, now: float) -> FlowRecord:
        if not self._free and (
            self.max_records is None or self._allocated < self.max_records
        ):
            self._grow_pool()
        if self._free:
            record = self._free.pop()
        else:
            # Pool capped and exhausted: reclaim a victim (§5.2).  The
            # evicted record goes back through the free list — every
            # record the table ever retires is pool-reused, whether it
            # died here, via invalidate(), or via expire_idle().
            self._reclaim()
            self.recycled += 1
            record = self._free.pop()
        record.reinit(key, self.gate_count, now)
        return record

    def _reclaim(self) -> None:
        """Evict the recency-list tail into the free list."""
        record = self._lru_tail
        if record is None:
            raise RuntimeError("flow table cap smaller than a single flow")
        self._evict(record)
        self._free.append(record)

    # ------------------------------------------------------------------
    # LRU maintenance
    # ------------------------------------------------------------------
    def _lru_unlink(self, record: FlowRecord) -> None:
        if record.lru_prev is not None:
            record.lru_prev.lru_next = record.lru_next
        else:
            self._lru_head = record.lru_next
        if record.lru_next is not None:
            record.lru_next.lru_prev = record.lru_prev
        else:
            self._lru_tail = record.lru_prev
        record.lru_prev = record.lru_next = None

    def _lru_push_front(self, record: FlowRecord) -> None:
        record.lru_prev = None
        record.lru_next = self._lru_head
        if self._lru_head is not None:
            self._lru_head.lru_prev = record
        self._lru_head = record
        if self._lru_tail is None:
            self._lru_tail = record

    def _lru_touch(self, record: FlowRecord) -> None:
        self._lru_unlink(record)
        self._lru_push_front(record)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _index_for(self, packet: Packet, cycles=NULL_METER) -> int:
        """Bucket index for a packet, using its cached 32-bit fold.

        The *modelled* hash cost (``FLOW_HASH`` / ``FLOW_LABEL_HASH``) is
        charged on every call — the paper's hardware folds the header each
        time — while the Python fold itself is computed at most once per
        packet lifetime (see :class:`repro.net.packet.Packet`).
        """
        if self.use_flow_label and packet.is_ipv6 and packet.flow_label:
            cycles.charge(Costs.FLOW_LABEL_HASH, "flow_hash")
            return packet.flow_label_fold32() & self._mask
        cycles.charge(Costs.FLOW_HASH, "flow_hash")
        return packet.flow_fold32() & self._mask

    def lookup(self, packet: Packet, meter=NULL_METER, cycles=NULL_METER, now: float = 0.0) -> Optional[FlowRecord]:
        """Find the cached flow record for a packet (the fast path).

        The ``is NULL_METER`` guards skip no-op meter calls on the
        unmetered route; a real meter sees exactly the charges it always
        did (asserted by tests/perf/test_cost_invariance).
        """
        if cycles is NULL_METER and not self.use_flow_label:
            index = packet.flow_fold32() & self._mask
        else:
            index = self._index_for(packet, cycles)
        metered = meter is not NULL_METER
        if metered:
            meter.access(1, "flow_bucket")
        record = self._buckets[index]
        while record is not None:
            if metered:
                meter.access(1, "flow_chain")
            if record.key.matches_packet(packet):
                record.touch(now, packet.length)
                if self._lru_head is not record:
                    self._lru_touch(record)
                self.hits += 1
                return record
            record = record.hash_next
        self.misses += 1
        return None

    def install(self, packet: Packet, now: float = 0.0) -> FlowRecord:
        """Create (and index) a fresh record for the packet's flow.

        A cache miss therefore folds the five-tuple once in total: both
        the preceding :meth:`lookup` and this call read the fold cached
        on the packet (and ``FLOW_HASH`` is charged once, by the lookup —
        the paper's accounting).
        """
        key = flow_key_of(packet)
        record = self._allocate(key, now)
        # Same bucket selection as _index_for, minus the modelled-cost
        # charge: the paper's accounting charges FLOW_HASH once per miss
        # (on the lookup), and the Python fold is cached on the packet.
        if self.use_flow_label and packet.is_ipv6 and packet.flow_label:
            index = packet.flow_label_fold32() & self._mask
        else:
            index = packet.flow_fold32() & self._mask
        record.bucket = index
        self._chain_append(index, record)
        self._lru_push_front(record)
        self.active += 1
        self.births += 1
        return record

    def _chain_append(self, index: int, record: FlowRecord) -> None:
        """Append to the bucket's intrusive chain, preserving the
        oldest-first order the list-based chains had."""
        record.hash_next = None
        head = self._buckets[index]
        if head is None:
            record.hash_prev = None
            self._buckets[index] = record
            return
        tail = head
        while tail.hash_next is not None:
            tail = tail.hash_next
        tail.hash_next = record
        record.hash_prev = tail

    # ------------------------------------------------------------------
    # Removal / eviction
    # ------------------------------------------------------------------
    def _evict(self, record: FlowRecord) -> None:
        if self.on_remove is not None:
            self.on_remove(record)
        for slot in record.slots:
            if slot is not None and slot.filter_record is not None:
                slot.filter_record.flows.discard(record)
        # O(1) intrusive unlink (previously an O(chain) list.remove).
        prev, nxt = record.hash_prev, record.hash_next
        if prev is not None:
            prev.hash_next = nxt
        else:
            self._buckets[record.bucket] = nxt
        if nxt is not None:
            nxt.hash_prev = prev
        record.hash_prev = record.hash_next = None
        self._lru_unlink(record)
        self.active -= 1
        self.evictions += 1

    def invalidate(self, record: FlowRecord) -> None:
        """Explicitly drop one flow record (e.g. filter removed)."""
        self._evict(record)
        self._free.append(record)

    def invalidate_filter(self, filter_record: FilterRecord) -> None:
        """Purge every flow derived from a removed filter (§4:
        deregister-instance removes 'all references to it ... from the
        flow table and the filter table')."""
        for record in list(filter_record.flows):
            self.invalidate(record)

    def expire_idle(self, now: float, max_idle: float) -> int:
        """Drop flows idle longer than ``max_idle`` (§3.2: idle cached
        entries 'may be removed').  Returns the number removed."""
        removed = 0
        record = self._lru_tail
        while record is not None and now - record.last_used > max_idle:
            previous = record.lru_prev
            self.invalidate(record)
            removed += 1
            record = previous
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.active

    def __iter__(self) -> Iterator[FlowRecord]:
        record = self._lru_head
        while record is not None:
            yield record
            record = record.lru_next

    @property
    def allocated(self) -> int:
        return self._allocated

    def chain_length(self, packet: Packet) -> int:
        """Collision-chain length for a packet's bucket (diagnostics).

        Uses :meth:`_index_for`, so IPv6 flow-label mode reports the
        bucket the data path actually probes (it previously always used
        the five-tuple hash, pointing diagnostics at the wrong chain).
        """
        count = 0
        record = self._buckets[self._index_for(packet)]
        while record is not None:
            count += 1
            record = record.hash_next
        return count

    def stats(self) -> dict:
        return {
            "active": self.active,
            "allocated": self._allocated,
            "hits": self.hits,
            "misses": self.misses,
            "recycled": self.recycled,
            "births": self.births,
            "evictions": self.evictions,
        }
