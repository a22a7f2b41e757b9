"""Tests for the hash-based flow table (§5.2)."""

import pytest

from repro.aiu.flow_table import FlowTable
from repro.net.packet import make_udp
from repro.sim.cost import Costs, CycleMeter, MemoryMeter


def _flow_packet(i, sport=1000):
    return make_udp(f"10.0.{i >> 8 & 255}.{i & 255}", "20.0.0.1", sport + i, 53)


@pytest.fixture
def table():
    return FlowTable(gate_count=3, buckets=1024, initial_records=4)


class TestLookupInstall:
    def test_miss_then_hit(self, table):
        pkt = _flow_packet(1)
        assert table.lookup(pkt) is None
        record = table.install(pkt)
        again = _flow_packet(1)
        assert table.lookup(again) is record
        assert table.stats()["hits"] == 1
        assert table.stats()["misses"] == 1

    def test_different_flows_do_not_collide_logically(self, table):
        a, b = _flow_packet(1), _flow_packet(2)
        record_a = table.install(a)
        table.install(b)
        assert table.lookup(_flow_packet(1)) is record_a

    def test_gate_slots_allocated(self, table):
        record = table.install(_flow_packet(1))
        assert len(record.slots) == 3
        # Slots are lazy: nothing is materialized until a gate touches
        # one, and materialized slots start empty.
        assert all(s is None or s.instance is None for s in record.slots)
        slot = record.slot(1)
        assert slot.instance is None and slot.filter_record is None
        assert record.slot(1) is slot

    def test_touch_updates_accounting(self, table):
        table.install(_flow_packet(1))
        table.lookup(_flow_packet(1), now=5.0)
        record = table.lookup(_flow_packet(1), now=9.0)
        assert record.packets == 2
        assert record.last_used == 9.0

    def test_v6_flows_supported(self, table):
        pkt = make_udp("2001:db8::1", "2001:db8::2", 5000, 53)
        record = table.install(pkt)
        assert table.lookup(make_udp("2001:db8::1", "2001:db8::2", 5000, 53)) is record


class TestCostAccounting:
    def test_lookup_charges_hash_and_bucket(self, table):
        meter, cycles = MemoryMeter(), CycleMeter()
        table.lookup(_flow_packet(1), meter, cycles)
        assert cycles.breakdown()["flow_hash"] == Costs.FLOW_HASH
        assert meter.breakdown()["flow_bucket"] == 1

    def test_hit_charges_chain_walk(self, table):
        table.install(_flow_packet(1))
        meter = MemoryMeter()
        table.lookup(_flow_packet(1), meter)
        assert meter.breakdown()["flow_chain"] >= 1


class TestPool:
    def test_initial_allocation(self):
        table = FlowTable(gate_count=1, buckets=64, initial_records=4)
        assert table.allocated == 4

    def test_exponential_growth(self):
        table = FlowTable(gate_count=1, buckets=64, initial_records=2)
        for i in range(7):
            table.install(_flow_packet(i))
        # 2, then +4, then +8 -> allocations follow 2,6,14...
        assert table.allocated >= 7
        assert table.allocated in (6, 14)

    def test_cap_triggers_lru_recycling(self):
        table = FlowTable(gate_count=1, buckets=64, initial_records=2, max_records=4)
        records = [table.install(_flow_packet(i), now=float(i)) for i in range(4)]
        # Refresh flow 0 so flow 1 is the LRU victim.
        table.lookup(_flow_packet(0), now=10.0)
        table.install(_flow_packet(99), now=11.0)
        assert table.recycled == 1
        assert table.lookup(_flow_packet(1)) is None      # victim gone
        assert table.lookup(_flow_packet(0)) is records[0]  # survivor

    def test_recycle_notifies_on_remove(self):
        table = FlowTable(gate_count=1, buckets=64, initial_records=1, max_records=1)
        removed = []
        table.on_remove = removed.append
        first = table.install(_flow_packet(0))
        table.install(_flow_packet(1))
        assert removed == [first]


class TestInvalidation:
    def test_invalidate_single_flow(self, table):
        record = table.install(_flow_packet(1))
        table.invalidate(record)
        assert table.lookup(_flow_packet(1)) is None
        assert len(table) == 0

    def test_purge_drops_exactly_the_named_flows(self, table):
        removed = []
        table.on_remove = removed.append
        records = [table.install(_flow_packet(i), now=float(i)) for i in range(6)]
        table.lookup(_flow_packet(0), now=9.0)      # flow 0 is now the most recent
        named = [records[4], records[0], records[2]]
        assert table.purge(iter(named)) == 3
        assert removed == named                     # hooks in the order named, after all went
        assert [r.key.sport for r in table] == [1005, 1003, 1001]
        for i in (1, 3, 5):
            assert table.lookup(_flow_packet(i)) is records[i]
        for i in (0, 2, 4):
            assert table.lookup(_flow_packet(i)) is None
        assert table.purge(()) == 0 and len(removed) == 3

    def test_expire_idle(self, table):
        table.install(_flow_packet(1), now=0.0)
        table.install(_flow_packet(2), now=0.0)
        table.lookup(_flow_packet(1), now=50.0)
        removed = table.expire_idle(now=60.0, max_idle=30.0)
        assert removed == 1
        assert table.lookup(_flow_packet(1)) is not None
        assert table.lookup(_flow_packet(2)) is None

    def test_freed_records_are_reused(self):
        table = FlowTable(gate_count=1, buckets=64, initial_records=1)
        record = table.install(_flow_packet(1))
        table.invalidate(record)
        table.install(_flow_packet(2))
        assert table.allocated == 1  # reused from the free list


class TestIteration:
    def test_iterates_mru_first(self, table):
        table.install(_flow_packet(1), now=1.0)
        table.install(_flow_packet(2), now=2.0)
        table.lookup(_flow_packet(1), now=3.0)
        order = [r.key.sport for r in table]
        assert order[0] == 1000 + 1

    def test_bucket_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FlowTable(gate_count=1, buckets=1000)

    def test_chain_length_diagnostic(self, table):
        pkt = _flow_packet(1)
        assert table.chain_length(pkt) == 0
        table.install(pkt)
        assert table.chain_length(_flow_packet(1)) == 1
