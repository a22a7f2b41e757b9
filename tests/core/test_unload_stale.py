"""Regression tests: ``pcu.unload`` must leave no stale instance
references behind, even for instances the plugin never tracked.

An instance constructed directly (not via ``plugin.create_instance``)
is invisible to ``plugin.instances``, so ``plugin.detach()`` never frees
it — before the fix its filters and cached flow-table slots survived the
unload and the router kept calling code from an unloaded module.
"""

import pytest

from repro.core import GATE_IP_SECURITY, Plugin, PluginInstance, Router, TYPE_IP_SECURITY, Verdict
from repro.net.packet import make_udp


class CountingInstance(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.calls = 0

    def process(self, packet, ctx):
        self.calls += 1
        return Verdict.CONTINUE


class CountingPlugin(Plugin):
    name = "counting"
    plugin_type = TYPE_IP_SECURITY
    instance_class = CountingInstance


@pytest.fixture
def router():
    r = Router(flow_buckets=64)
    r.add_interface("atm0", prefix="10.0.0.0/8")
    r.add_interface("atm1", prefix="20.0.0.0/8")
    return r


def _pkt(i=1):
    return make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0")


class TestUnloadPurgesTrackedInstances:
    def test_unload_clears_filters_and_flows(self, router):
        plugin = CountingPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        for i in range(5):
            router.receive(_pkt(i + 1))
        assert instance.calls == 5
        router.pcu.unload("counting")
        assert not router.aiu.filters()
        # Cached flows no longer reference the unloaded instance.
        for slot_holder in router.aiu.flow_table:
            for slot in slot_holder.slots:
                assert slot is None or slot.instance is not instance
        router.receive(_pkt(1))
        assert instance.calls == 5

    def test_plan_returns_to_zero_cost(self, router):
        plugin = CountingPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        router.receive(_pkt())
        assert router.aiu._gate_filter_counts[GATE_IP_SECURITY] == 1
        router.pcu.unload("counting")
        assert router.aiu._gate_filter_counts[GATE_IP_SECURITY] == 0


class TestUnloadPurgesUntrackedInstances:
    """The regression proper: an instance the plugin never tracked."""

    @pytest.fixture
    def stray(self, router):
        plugin = CountingPlugin()
        router.pcu.load(plugin)
        # Constructed directly: bypasses create_instance, so the plugin's
        # instance list never hears about it.
        instance = CountingInstance(plugin, name="stray0")
        assert instance not in plugin.instances
        router.aiu.create_filter(GATE_IP_SECURITY, "*, *, UDP", instance=instance)
        return instance

    def test_stray_filter_removed_on_unload(self, router, stray):
        router.receive(_pkt())
        assert stray.calls == 1
        router.pcu.unload("counting")
        assert not router.aiu.filters()
        router.receive(_pkt())
        assert stray.calls == 1  # never called again

    def test_stray_cached_flow_slot_cleared(self, router, stray):
        # Cache the flow, then unload: the cached slot must not keep a
        # live reference to the stray instance.
        for _ in range(3):
            router.receive(_pkt())
        assert stray.calls == 3
        router.pcu.unload("counting")
        for slot_holder in router.aiu.flow_table:
            for slot in slot_holder.slots:
                assert slot is None or slot.instance is not stray
        # Same flow again: forwarded without touching the stray.
        router.receive(_pkt())
        assert stray.calls == 3

    def test_quarantine_map_swept_on_unload(self, router, stray):
        plugin = stray.plugin
        tracked = plugin.create_instance()
        router.faults.quarantine(plugin, now=0.0)
        assert tracked in router._quarantined
        router.pcu.unload("counting")
        assert not router._quarantined


class TestPurgeInstanceDirect:
    def test_purge_removes_filters_and_is_idempotent(self, router):
        plugin = CountingPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        plugin.register_instance(instance, "*, *, UDP", gate=GATE_IP_SECURITY)
        router.receive(_pkt())
        router.aiu.purge_instance(instance)
        assert not router.aiu.filters()
        assert router.aiu.purge_instance(instance) == 0

    def test_purge_counts_a_flow_bound_by_a_late_bind(self, router):
        # A flow cached before its filter was bound re-classifies onto the
        # instance at its next packet, and the record's index holds it.
        plugin = CountingPlugin()
        router.pcu.load(plugin)
        instance = plugin.create_instance()
        record = router.aiu.create_filter(GATE_IP_SECURITY, "*, *, UDP")
        router.receive(_pkt())
        router.aiu.bind(record, instance)
        assert len(router.aiu.flow_table) == 0
        router.receive(_pkt())
        (flow,) = router.aiu.flow_table
        assert flow.slots[router.aiu.gate_index(GATE_IP_SECURITY)].instance is instance
        assert instance.calls == 1
        assert router.aiu.purge_instance(instance) == 1
        assert len(router.aiu.flow_table) == 0 and not router.aiu.filters()
        assert record.flows == {}
