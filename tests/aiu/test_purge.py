"""The control path drops flows by name: each filter record indexes the
cached flows bound through it, and a verb purges exactly those.

``create_filter`` is the one verb that walks the flow table (``AIU._claimed``,
``Filter.matches`` inlined over the cached keys), and its test must agree
with ``Filter.matches`` — the predicate ``LinearFilterTable`` classifies
with — on every flow.  The instance verbs (``deregister_instance``,
``purge_instance``, unload), ``remove_filters`` and rebinding read the
records' indexes and walk nothing.  A state machine over births,
evictions, ``expire_idle`` and every verb holds each index equal to what
a walk of the table finds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.aiu.aiu import AIU
from repro.aiu.filters import Filter, PortSpec
from repro.aiu.flow_table import FlowTable
from repro.core import (
    GATE_IP_OPTIONS, GATE_IP_SECURITY, Plugin, PluginInstance, Router, TYPE_IP_SECURITY,
)
from repro.net.addresses import IPV4_WIDTH, IPV6_WIDTH, IPAddress, Prefix
from repro.net.packet import Packet, make_udp
from tests.oracle.harness import flows_bind_live_filters

IIFS = (None, "atm0", "atm1")
PORTS = st.one_of(st.sampled_from((0, 1, 53, 65534, 65535)), st.integers(0, 65535))


@st.composite
def _packet_and_filter(draw):
    width = draw(st.sampled_from((IPV4_WIDTH, IPV6_WIDTH)))
    addr = st.integers(0, (1 << width) - 1)
    src, dst = draw(addr), draw(addr)
    packet = Packet(
        src=IPAddress(src, width),
        dst=IPAddress(dst, width),
        protocol=draw(st.sampled_from((6, 17))),
        src_port=draw(PORTS),
        dst_port=draw(PORTS),
        iif=draw(st.sampled_from(IIFS)),
    )
    # The filter's family is usually the packet's, sometimes the other
    # one, sometimes absent (both addresses wildcards).
    family = draw(st.sampled_from(("same", "same", "other", "none")))
    fwidth = width if family != "other" else IPV4_WIDTH + IPV6_WIDTH - width

    def prefix(near):
        if family == "none":
            return Prefix.default(fwidth)
        # Near the packet's address (so matches are common) or anywhere;
        # wildcard, host or any length between.
        base = near if fwidth == width and draw(st.booleans()) else draw(
            st.integers(0, (1 << fwidth) - 1))
        length = draw(st.one_of(st.sampled_from((0, fwidth)), st.integers(0, fwidth)))
        return Prefix(base, length, fwidth)

    def ports(actual):
        kind = draw(st.sampled_from(("wild", "exact", "range")))
        if kind == "wild":
            return PortSpec.wildcard()
        if kind == "exact":
            return PortSpec.exact(draw(st.sampled_from((actual, 0, 65535))))
        low, high = sorted((draw(PORTS), draw(PORTS)))
        return PortSpec(low, high)

    src_prefix, dst_prefix = prefix(src), prefix(dst)
    if src_prefix.is_wildcard and not dst_prefix.is_wildcard:
        src_prefix = Prefix.default(dst_prefix.width)
    if dst_prefix.is_wildcard and not src_prefix.is_wildcard:
        dst_prefix = Prefix.default(src_prefix.width)
    flt = Filter(
        src=src_prefix,
        dst=dst_prefix,
        protocol=draw(st.sampled_from((None, 6, 17))),
        sport=ports(packet.src_port),
        dport=ports(packet.dst_port),
        iif=draw(st.sampled_from(IIFS)),
    )
    return packet, flt


@settings(max_examples=400, deadline=None)
@given(case=_packet_and_filter())
def test_create_filter_predicate_agrees_with_filter_matches(case):
    packet, flt = case
    aiu = AIU(("gate",), flow_buckets=16)
    flow = aiu.flow_table.install(packet)
    assert aiu._claimed(flt) == ([flow] if flt.matches(packet) else [])


# ----------------------------------------------------------------------
# Instance verbs: k filter records, no flow-table walk
# ----------------------------------------------------------------------
class _Instance(PluginInstance):
    pass


class _Plugin(Plugin):
    name = "onepass"
    plugin_type = TYPE_IP_SECURITY
    instance_class = _Instance


def _counting_walks(monkeypatch):
    """Every walk of a flow table's recency list from here on (``_claimed``
    walks through ``FlowTable.__iter__`` too)."""
    walks = []
    real_iter = FlowTable.__iter__

    def counting_iter(table):
        walks.append(table)
        return real_iter(table)

    monkeypatch.setattr(FlowTable, "__iter__", counting_iter)
    return walks


def test_create_filter_walks_the_flow_table_once(monkeypatch):
    """A new filter may claim flows no record at its gate indexes, so
    ``create_filter`` walks the table: once, dropping exactly the flows
    the filter matches."""
    router = Router(flow_buckets=256)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    aiu = router.aiu
    aiu.create_filter(GATE_IP_SECURITY, "10.0.0.0/28, *, UDP")
    for i in range(8):
        router.receive(make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0"))
    walks = _counting_walks(monkeypatch)
    aiu.create_filter(GATE_IP_SECURITY, "10.0.0.4/30, *, UDP")
    assert len(walks) == 1
    assert sorted(flow.key.src & 0xFF for flow in aiu.flow_table) == [0, 1, 2, 3]


def _deregister(router, plugin, instance):
    assert plugin.deregister_instance(instance)


def _purge_instance(router, plugin, instance):
    router.aiu.purge_instance(instance)


def _unload(router, plugin, instance):
    router.pcu.unload(plugin)


@pytest.mark.parametrize("verb", [_deregister, _purge_instance, _unload])
def test_instance_verbs_walk_the_flow_table_once(verb, monkeypatch):
    """Dropping an instance's flows walks the flow table zero times: the
    records' indexes name them — also a flow cached before its filter
    was bound, re-bound by its next packet."""
    router = Router(flow_buckets=256)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    aiu = router.aiu
    plugin = _Plugin()
    router.pcu.load(plugin)
    instance = plugin.create_instance()
    for i in range(8):
        plugin.register_instance(instance, f"10.0.0.{i}, *, UDP", gate=GATE_IP_SECURITY)
    late = aiu.create_filter(GATE_IP_SECURITY, "10.0.0.12, *, UDP")
    for i in range(16):                  # 8 flows bound to the instance, 8 not
        router.receive(make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0"))
    aiu.bind(late, instance)             # flow 12 re-classifies onto the instance
    router.receive(make_udp("10.0.0.12", "20.0.0.1", 5000, 9000, iif="atm0"))
    gate = aiu.gate_index(GATE_IP_SECURITY)
    bound = {flow.key for flow in aiu.flow_table
             if flow.slots[gate] is not None and flow.slots[gate].instance is instance}
    before = {flow.key for flow in aiu.flow_table}
    assert len(bound) == 9

    walks = _counting_walks(monkeypatch)
    verb(router, plugin, instance)
    assert walks == []
    assert not any(record.instance is instance for record in aiu.filters())
    assert {flow.key for flow in aiu.flow_table} == before - bound
    for flow in aiu.flow_table:
        assert all(slot is None or slot.instance is not instance for slot in flow.slots)
    flows_bind_live_filters(router)


# ----------------------------------------------------------------------
# remove_filters: k filter records at several gates, no walk
# ----------------------------------------------------------------------
def test_remove_filters_across_two_gates_drops_exactly_their_flows(monkeypatch):
    router = Router(flow_buckets=256)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    aiu = router.aiu
    instance = _Instance(_Plugin())
    records = {
        (gate, i): aiu.create_filter(gate, f"10.0.0.{i}, *, UDP", instance=instance)
        for gate in (GATE_IP_OPTIONS, GATE_IP_SECURITY) for i in range(8)
    }
    for i in range(12):                  # 8 flows bound at both gates, 4 at neither
        router.receive(make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, 9000, iif="atm0"))
    doomed = [records[GATE_IP_OPTIONS, 1], records[GATE_IP_OPTIONS, 2],
              records[GATE_IP_SECURITY, 2], records[GATE_IP_SECURITY, 5]]
    before = {flow.key for flow in aiu.flow_table}
    derived = {
        flow.key for flow in aiu.flow_table
        if any(slot is not None and slot.filter_record in doomed for slot in flow.slots)
    }
    assert len(derived) == 3

    walks = _counting_walks(monkeypatch)
    purged = []
    real_purge = FlowTable.purge

    def counting_purge(table, flows):
        flows = list(flows)
        purged.append(flows)
        return real_purge(table, flows)

    monkeypatch.setattr(FlowTable, "purge", counting_purge)
    assert aiu.remove_filters(doomed + doomed[:1]) == 4
    assert walks == [] and len(purged) == 1
    # Flow 2 is bound through two of the doomed records: dropped once.
    assert len(purged[0]) == len(derived)
    assert {flow.key for flow in aiu.flow_table} == before - derived
    assert set(aiu.filters()) == set(records.values()) - set(doomed)
    assert all(record.flows == {} for record in doomed)
    assert aiu.remove_filters(doomed) == 0 and len(purged) == 1


# ----------------------------------------------------------------------
# The index against the table, over births, evictions and every verb
# ----------------------------------------------------------------------
class _Hooked(PluginInstance):
    """Counts its flow hooks: created − removed is the cached slots it holds."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.created = self.removed = 0

    def on_flow_created(self, flow, slot):
        self.created += 1

    def on_flow_removed(self, flow, slot):
        self.removed += 1


class _HookedPlugin(Plugin):
    name = "hooked"
    plugin_type = TYPE_IP_SECURITY
    instance_class = _Hooked


GATES = (GATE_IP_OPTIONS, GATE_IP_SECURITY)
SPECS = ("10.0.0.{i}, *, UDP", "10.0.0.{i}, *, UDP, *, 9001", "10.0.0.0/29, *, UDP",
         "*, *, UDP, *, 9001", "10.0.0.8/29, *, *")


class IndexMachine(RuleBasedStateMachine):
    """One router, two plugins (one with both flow hooks), filters at two
    gates; ``max_flows`` bounds its flow table or not."""

    max_flows = None

    def __init__(self):
        super().__init__()
        self.router = Router(flow_buckets=64, max_flows=self.max_flows)
        self.router.add_interface("atm0", prefix="10.0.0.0/8")
        self.router.add_interface("atm1", prefix="20.0.0.0/8")
        self.aiu = self.router.aiu
        self.plugins = {}
        self.instances = []
        self.records = []
        self.now = 0.0
        self.hooked_gone = []
        for cls in (_Plugin, _HookedPlugin):
            self._load(cls)

    def _load(self, cls):
        plugin = cls()
        self.router.pcu.load(plugin)
        self.plugins[cls] = plugin
        self.instances += [plugin.create_instance(), plugin.create_instance()]

    def _drop_instances_of(self, plugin):
        self.hooked_gone += [i for i in self.instances
                             if i.plugin is plugin and isinstance(i, _Hooked)]
        self.instances = [i for i in self.instances if i.plugin is not plugin]

    @rule(srcs=st.lists(st.integers(0, 15), min_size=1, max_size=12),
          dport=st.sampled_from((9000, 9001)), batched=st.booleans(),
          dt=st.sampled_from((0.0, 1.0, 5.0)))
    def send(self, srcs, dport, batched, dt):
        self.now += dt
        packets = [make_udp(f"10.0.0.{i}", "20.0.0.1", 5000, dport, iif="atm0")
                   for i in srcs]
        if batched:
            self.router.receive_batch(packets, now=self.now)
        else:
            for packet in packets:
                self.router.receive(packet, now=self.now)

    @rule(max_idle=st.sampled_from((0.5, 3.0)))
    def expire(self, max_idle):
        self.aiu.flow_table.expire_idle(self.now, max_idle)

    @rule(spec=st.sampled_from(SPECS), i=st.integers(0, 15), gate=st.sampled_from(GATES),
          which=st.integers(0, 7), bound=st.booleans())
    def create(self, spec, i, gate, which, bound):
        flt = spec.format(i=i)
        try:
            if bound and self.instances:
                instance = self.instances[which % len(self.instances)]
                record = instance.plugin.register_instance(instance, flt, gate=gate)
            else:
                record = self.aiu.create_filter(gate, flt)
        except ValueError:               # refused as ambiguous: nothing written
            return
        self.records.append(record)

    @precondition(lambda self: self.records)
    @rule(which=st.integers(0, 63), to=st.integers(-1, 7))
    def rebind(self, which, to):
        record = self.records[which % len(self.records)]
        instance = None if to < 0 or not self.instances else \
            self.instances[to % len(self.instances)]
        self.aiu.bind(record, instance)

    @precondition(lambda self: self.records)
    @rule(picks=st.lists(st.integers(0, 63), min_size=1, max_size=4))
    def remove(self, picks):
        chosen = [self.records[p % len(self.records)] for p in picks]
        if len(chosen) == 1:
            self.aiu.remove_filter(chosen[0])
        else:
            self.aiu.remove_filters(chosen)

    @precondition(lambda self: self.instances)
    @rule(which=st.integers(0, 7), how=st.sampled_from(("deregister", "purge", "free")))
    def drop_instance(self, which, how):
        instance = self.instances[which % len(self.instances)]
        if how == "deregister":
            instance.plugin.deregister_instance(instance)
        elif how == "purge":
            self.aiu.purge_instance(instance)
        else:
            instance.plugin.free_instance(instance)
            self.instances.remove(instance)
            if isinstance(instance, _Hooked):
                self.hooked_gone.append(instance)

    @rule(cls=st.sampled_from((_Plugin, _HookedPlugin)))
    def reload(self, cls):
        plugin = self.plugins[cls]
        self.router.pcu.unload(plugin)
        self._drop_instances_of(plugin)
        self._load(cls)

    @invariant()
    def indexes_match_the_table(self):
        flows_bind_live_filters(self.router)

    @invariant()
    def hooks_heard_every_flow_once(self):
        held = {}
        for flow in self.aiu.flow_table:
            for slot in flow.slots:
                if slot is not None and slot.instance is not None:
                    held[slot.instance] = held.get(slot.instance, 0) + 1
        for instance in self.instances + self.hooked_gone:
            if isinstance(instance, _Hooked):
                assert instance.created - instance.removed == held.get(instance, 0)


class BoundedIndexMachine(IndexMachine):
    max_flows = 6


_MACHINE_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=40,
    stateful_step_count=30, suppress_health_check=list(HealthCheck),
)
IndexMachine.TestCase.settings = _MACHINE_SETTINGS
BoundedIndexMachine.TestCase.settings = _MACHINE_SETTINGS
TestIndexUnbounded = IndexMachine.TestCase
TestIndexBounded = BoundedIndexMachine.TestCase
