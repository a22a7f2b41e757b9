"""Tests for the AIU facade: classification, FIX caching, bindings."""

import pytest

from repro.aiu import AIU, AmbiguousFilterError, Filter, GateError
from repro.net.packet import make_tcp, make_udp

GATES = ("options", "security", "scheduling")


class _FakeInstance:
    """Stands in for a plugin instance; records AIU callbacks."""

    def __init__(self, name):
        self.name = name
        self.flows_created = []
        self.flows_removed = []

    def on_flow_created(self, record, slot):
        self.flows_created.append(record)

    def on_flow_removed(self, record, slot):
        self.flows_removed.append(record)


@pytest.fixture
def aiu():
    return AIU(GATES, flow_buckets=1024, initial_records=8)


def _pkt(i=1, **kwargs):
    return make_udp(f"10.0.0.{i}", "20.0.0.1", 5000 + i, 53, **kwargs)


class TestControlPath:
    def test_create_filter_accepts_paper_notation(self, aiu):
        record = aiu.create_filter("security", "<129.*, 192.94.233.10, TCP, *, *, *>")
        assert record.gate == "security"
        assert aiu.filter_count("security") == 1

    def test_unknown_gate_rejected(self, aiu):
        with pytest.raises(GateError):
            aiu.create_filter("nope", "*")

    def test_bind_sets_instance(self, aiu):
        inst = _FakeInstance("sec2")
        record = aiu.create_filter("security", "10.*, *, UDP")
        aiu.bind(record, inst)
        assert record.instance is inst

    def test_remove_filter(self, aiu):
        record = aiu.create_filter("security", "10.*, *, UDP", instance=_FakeInstance("x"))
        assert aiu.remove_filter(record)
        assert not aiu.remove_filter(record)
        assert aiu.filter_count("security") == 0

    def test_ambiguous_filter_rolls_back_cleanly(self, aiu):
        aiu.create_filter("security", "10.*, *, UDP, 10-20, *")
        with pytest.raises(AmbiguousFilterError):
            aiu.create_filter("security", "10.1.0.0/16, *, UDP, 15-25, *")
        assert aiu.filter_count("security") == 1


class TestDataPath:
    def test_uncached_classification_fills_all_gates(self, aiu):
        sec = _FakeInstance("sec")
        sched = _FakeInstance("sched")
        aiu.create_filter("security", "10.*, *, UDP", instance=sec)
        aiu.create_filter("scheduling", "*, *, UDP", instance=sched)
        pkt = _pkt()
        instance, record = aiu.classify(pkt, "security")
        assert instance is sec
        assert pkt.fix is record
        # One flow entry covers every gate (§3.2: "n filter table lookups
        # to create a single entry").
        assert record.slot(aiu.gate_index("scheduling")).instance is sched
        assert record.slot(aiu.gate_index("options")).instance is None

    def test_cached_flow_skips_filter_lookups(self, aiu):
        aiu.create_filter("security", "10.*, *, UDP", instance=_FakeInstance("s"))
        aiu.classify(_pkt(), "security")
        lookups_after_first = aiu.filter_lookups
        aiu.classify(_pkt(), "security")
        assert aiu.filter_lookups == lookups_after_first
        assert aiu.flow_table.hits == 1

    def test_instance_for_uses_fix(self, aiu):
        sched = _FakeInstance("sched")
        aiu.create_filter("scheduling", "*, *, UDP", instance=sched)
        pkt = _pkt()
        aiu.classify(pkt, "security")
        assert aiu.instance_for(pkt, "scheduling") is sched

    def test_instance_for_without_fix_classifies(self, aiu):
        sched = _FakeInstance("sched")
        aiu.create_filter("scheduling", "*, *, UDP", instance=sched)
        pkt = _pkt()
        assert aiu.instance_for(pkt, "scheduling") is sched
        assert pkt.fix is not None

    def test_on_flow_created_callback(self, aiu):
        inst = _FakeInstance("cb")
        aiu.create_filter("scheduling", "*, *, UDP", instance=inst)
        _, record = aiu.classify(_pkt(), "scheduling")
        assert inst.flows_created == [record]

    def test_most_specific_filter_wins_per_gate(self, aiu):
        broad = _FakeInstance("broad")
        narrow = _FakeInstance("narrow")
        aiu.create_filter("security", "*, *, UDP", instance=broad)
        aiu.create_filter("security", "10.0.0.1, *, UDP", instance=narrow)
        instance, _ = aiu.classify(_pkt(1), "security")
        assert instance is narrow
        instance2, _ = aiu.classify(make_udp("11.0.0.1", "2.2.2.2", 1, 1), "security")
        assert instance2 is broad

    def test_v6_packets_classified_separately(self, aiu):
        v6inst = _FakeInstance("v6")
        aiu.create_filter("security", "2001:db8::/32, *", instance=v6inst)
        pkt = make_udp("2001:db8::1", "2001:db8::2", 1, 2)
        instance, _ = aiu.classify(pkt, "security")
        assert instance is v6inst
        v4, _ = aiu.classify(_pkt(), "security")
        assert v4 is None

    def test_family_wildcard_filter_matches_both(self, aiu):
        both = _FakeInstance("both")
        aiu.create_filter("security", "*, *, UDP", instance=both)
        a, _ = aiu.classify(_pkt(), "security")
        b, _ = aiu.classify(make_udp("2001:db8::1", "2001:db8::2", 1, 2), "security")
        assert a is both and b is both

    def test_tcp_and_udp_flows_are_distinct(self, aiu):
        udp = _FakeInstance("udp")
        aiu.create_filter("security", "*, *, UDP", instance=udp)
        t = make_tcp("10.0.0.1", "20.0.0.1", 5001, 53)
        instance, _ = aiu.classify(t, "security")
        assert instance is None


class TestInvalidation:
    def test_remove_filter_purges_cached_flows(self, aiu):
        inst = _FakeInstance("x")
        record = aiu.create_filter("security", "10.*, *, UDP", instance=inst)
        aiu.classify(_pkt(), "security")
        assert len(aiu.flow_table) == 1
        aiu.remove_filter(record)
        assert len(aiu.flow_table) == 0
        # Re-classification now finds nothing.
        instance, _ = aiu.classify(_pkt(), "security")
        assert instance is None

    def test_rebind_invalidates_cached_flows(self, aiu):
        old = _FakeInstance("old")
        new = _FakeInstance("new")
        record = aiu.create_filter("security", "10.*, *, UDP", instance=old)
        aiu.classify(_pkt(), "security")
        aiu.bind(record, new)
        instance, _ = aiu.classify(_pkt(), "security")
        assert instance is new

    def test_bound_filter_counts_follow_create_bind_remove(self, aiu):
        """The router derives its batch-start hooks from these counts, so
        every way a binding changes must move them and the epoch."""
        a, b = _FakeInstance("a"), _FakeInstance("b")
        index = aiu._instance_records

        def counts():
            return {instance: len(records) for instance, records in index.items()}

        first = aiu.create_filter("security", "10.*, *, UDP", instance=a)
        second = aiu.create_filter("security", "11.*, *, UDP", instance=a)
        unbound = aiu.create_filter("security", "12.*, *, UDP")
        assert counts() == {a: 2} and list(index[a]) == [first, second]
        epoch = aiu.plan_epoch
        aiu.bind(first, b)
        aiu.bind(unbound, b)
        assert counts() == {a: 1, b: 2} and aiu.plan_epoch == epoch + 2
        aiu.remove_filter(first)
        aiu.bind(first, a)          # a removed record counts for nobody
        assert counts() == {a: 1, b: 1}
        aiu.purge_instance(a)
        aiu.purge_instance(b)
        assert counts() == {} and aiu.filter_count() == 0

    def test_flow_removal_notifies_instances(self, aiu):
        inst = _FakeInstance("x")
        aiu.create_filter("security", "10.*, *, UDP", instance=inst)
        _, record = aiu.classify(_pkt(), "security")
        aiu.flow_table.invalidate(record)
        assert inst.flows_removed == [record]


class TestConfiguration:
    def test_linear_table_kind(self):
        aiu = AIU(GATES, table_kind="linear", flow_buckets=64)
        inst = _FakeInstance("x")
        aiu.create_filter("security", "10.*, *, UDP", instance=inst)
        instance, _ = aiu.classify(_pkt(), "security")
        assert instance is inst

    def test_unknown_table_kind(self):
        with pytest.raises(ValueError):
            AIU(GATES, table_kind="nope")

    def test_duplicate_gates_rejected(self):
        with pytest.raises(ValueError):
            AIU(("a", "a"))

    def test_empty_gates_rejected(self):
        with pytest.raises(ValueError):
            AIU(())

    def test_stats(self, aiu):
        aiu.create_filter("security", "10.*, *, UDP")
        aiu.classify(_pkt(), "security")
        stats = aiu.stats()
        assert stats["filters"] == 1
        assert stats["misses"] == 1
        assert stats["filter_lookups"] >= 1
