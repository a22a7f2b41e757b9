"""Tests for the weighted DRR scheduler plugin."""

from collections import Counter

import pytest

from repro.aiu.filters import Filter
from repro.aiu.records import FilterRecord, FlowRecord, GateSlot
from repro.core.plugin import PluginContext, Verdict
from repro.sched.drr import DrrPlugin
from repro.net.packet import make_udp


def _instance(**config):
    return DrrPlugin().create_instance(**config)


def _pkt(flow, size=1000):
    return make_udp(f"10.0.0.{flow}", "20.0.0.1", 5000 + flow, 53, payload_size=size - 28)


def _flow_ctx(record=None):
    """Context carrying a flow-table slot (the §5.2 soft-state path)."""
    slot = GateSlot()
    slot.filter_record = record
    flow = FlowRecord(None, 0)
    flow.slots = [slot]
    ctx = PluginContext(slot=slot, flow=flow)
    return ctx


class TestBasics:
    def test_enqueue_consumes(self):
        drr = _instance()
        assert drr.process(_pkt(1), PluginContext()) == Verdict.CONSUMED
        assert drr.backlog() == 1

    def test_dequeue_returns_packet(self):
        drr = _instance()
        pkt = _pkt(1)
        drr.process(pkt, PluginContext())
        assert drr.dequeue(0.0) is pkt
        assert drr.backlog() == 0

    def test_empty_dequeue_none(self):
        assert _instance().dequeue(0.0) is None

    def test_single_flow_fifo_order(self):
        drr = _instance()
        packets = [_pkt(1) for _ in range(5)]
        for pkt in packets:
            drr.process(pkt, PluginContext())
        out = [drr.dequeue(0.0) for _ in range(5)]
        assert [p.packet_id for p in out] == [p.packet_id for p in packets]

    def test_tail_drop_at_limit(self):
        drr = _instance(limit=2)
        ctx = PluginContext()
        assert drr.process(_pkt(1), ctx) == Verdict.CONSUMED
        assert drr.process(_pkt(1), ctx) == Verdict.CONSUMED
        assert drr.process(_pkt(1), ctx) == Verdict.DROP
        assert drr.packets_dropped == 1

    def test_bad_quantum_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _instance(quantum=0)


class TestFairness:
    def _run(self, drr, flows, packets_per_flow, size_of, rounds):
        for flow in flows:
            for _ in range(packets_per_flow):
                drr.process(_pkt(flow, size=size_of(flow)), PluginContext())
        served = Counter()
        served_bytes = Counter()
        for _ in range(rounds):
            pkt = drr.dequeue(0.0)
            if pkt is None:
                break
            flow = pkt.src.value & 0xFF
            served[flow] += 1
            served_bytes[flow] += pkt.length
        return served, served_bytes

    def test_equal_flows_get_equal_service(self):
        drr = _instance(quantum=1000)
        served, _ = self._run(drr, flows=range(1, 5), packets_per_flow=50,
                              size_of=lambda f: 1000, rounds=100)
        counts = list(served.values())
        assert max(counts) - min(counts) <= 1

    def test_byte_fairness_with_mixed_packet_sizes(self):
        """DRR's point: flows with big packets get no byte advantage."""
        drr = _instance(quantum=1500)
        served, served_bytes = self._run(
            drr,
            flows=[1, 2],
            packets_per_flow=200,
            size_of=lambda f: 1500 if f == 1 else 300,
            rounds=240,
        )
        ratio = served_bytes[1] / served_bytes[2]
        assert 0.85 <= ratio <= 1.15

    def test_weighted_shares(self):
        drr = _instance(quantum=1000, limit=500)
        record_heavy = FilterRecord(Filter.parse("10.0.0.1, *, UDP"), gate="g")
        record_light = FilterRecord(Filter.parse("10.0.0.2, *, UDP"), gate="g")
        drr.set_weight(record_heavy, 3.0)
        drr.set_weight(record_light, 1.0)
        ctx_heavy = _flow_ctx(record_heavy)
        ctx_light = _flow_ctx(record_light)
        for _ in range(400):
            drr.process(_pkt(1), ctx_heavy)
            drr.process(_pkt(2), ctx_light)
        bytes_served = Counter()
        for _ in range(400):
            pkt = drr.dequeue(0.0)
            bytes_served[pkt.src.value & 0xFF] += pkt.length
        ratio = bytes_served[1] / bytes_served[2]
        assert 2.5 <= ratio <= 3.5

    def test_reserve_maps_rate_to_weight(self):
        drr = _instance()
        record = FilterRecord(Filter.parse("10.0.0.1, *, UDP"), gate="g")
        drr.reserve(record, rate_bps=2_000_000)
        assert drr.weight_for(record) == 2.0

    def test_idle_flow_gains_no_credit(self):
        """A flow that was idle must not burst ahead when it returns
        (deficit reset on deactivation)."""
        drr = _instance(quantum=1000)
        for _ in range(3):
            drr.process(_pkt(1), PluginContext())
        while drr.dequeue(0.0):
            pass
        # Flow 1 idles; flow 2 arrives and is served; then flow 1 returns.
        for _ in range(10):
            drr.process(_pkt(2), PluginContext())
        drr.dequeue(0.0)
        for _ in range(10):
            drr.process(_pkt(1), PluginContext())
        served = Counter()
        for _ in range(10):
            served[drr.dequeue(0.0).src.value & 0xFF] += 1
        assert abs(served[1] - served[2]) <= 1


class TestFlowTableIntegration:
    def test_queue_lives_in_slot_private(self):
        drr = _instance()
        record = FilterRecord(Filter.parse("10.*, *, UDP"), gate="g")
        ctx = _flow_ctx(record)
        drr.process(_pkt(1), ctx)
        assert ctx.slot.private is not None
        assert len(ctx.slot.private.queue) == 1

    def test_on_flow_removed_drains_queue(self):
        drr = _instance()
        ctx = _flow_ctx()
        drr.process(_pkt(1), ctx)
        drr.process(_pkt(1), ctx)
        assert drr.backlog() == 2
        drr.on_flow_removed(ctx.flow, ctx.slot)
        assert drr.backlog() == 0
        assert ctx.slot.private is None

    def test_bounded_table_evicts_backlogged_flows(self):
        """Six flows through a four-record table while an event loop
        holds the drain back: the two evicted flows leave the round —
        their packets discarded, their queues off the active list with
        the flag cleared — and the survivors drain in full."""
        from repro.core.router import Router
        from repro.sim.events import EventLoop

        router = Router(max_flows=4, loop=EventLoop())
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        plugin = DrrPlugin()
        router.pcu.load(plugin)
        drr = plugin.create_instance(interface="atm1")
        plugin.register_instance(drr, "*, *, UDP", gate="packet_scheduling")
        queues = []
        for flow in range(1, 7):
            burst = [_pkt(flow), _pkt(flow)]
            for packet in burst:
                packet.iif = "atm0"
            assert router.receive_batch(burst) == ["queued"] * 2
            queues.append(burst[0].fix.slots[2].private)
        assert router.aiu.flow_table.evictions == 2
        assert drr.backlog() == 8 and drr.active_flows() == 4
        assert [q.active for q in queues] == [False] * 2 + [True] * 4
        assert [len(q.queue) for q in queues] == [0] * 2 + [2] * 4
        assert all(q in drr._active for q in queues[2:])
        router.loop.run()
        assert router.counters["tx_scheduled"] == 8
        assert drr.backlog() == 0 and drr.active_flows() == 0

    def test_weight_inherited_from_filter_record(self):
        drr = _instance()
        record = FilterRecord(Filter.parse("10.*, *, UDP"), gate="g")
        drr.set_weight(record, 7.0)
        ctx = _flow_ctx(record)
        drr.process(_pkt(1), ctx)
        assert ctx.slot.private.weight == 7.0


class TestMessages:
    def test_set_weight_message(self):
        from repro.core.messages import Message

        plugin = DrrPlugin()
        instance = plugin.create_instance()
        record = FilterRecord(Filter.parse("10.*, *, UDP"), gate="g")
        plugin.callback(Message("set_weight", {
            "instance": instance, "record": record, "weight": 4.0,
        }))
        assert instance.weight_for(record) == 4.0

    def test_reserve_message(self):
        from repro.core.messages import Message

        plugin = DrrPlugin()
        instance = plugin.create_instance()
        record = FilterRecord(Filter.parse("10.*, *, UDP"), gate="g")
        plugin.callback(Message("reserve", {
            "instance": instance, "record": record, "rate_bps": 1_000_000,
        }))
        assert instance.weight_for(record) == 1.0
