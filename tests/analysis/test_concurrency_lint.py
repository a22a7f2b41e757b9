"""Shard-safety lint unit tests: RP401 and RP402 fire on planted
violations and stay quiet on the idiomatic (instance-local) twins,
suppressions work on them, a typo'd suppression is flagged as RP210, and
the strict load refuses RP4xx errors like RP2xx ones.

RP404 (query payloads the cross-shard merge cannot sum) and RP405
(control commands branching on shard-local traffic state) are retired
(docs/STATIC_ANALYSIS.md, "Retired codes"): their tests keep their
names and pin that behaviour on real routers, and each is a must-fail id
of the catalogue row (tests/mutants/) that plants the defect its code
stood for."""

import pytest

from repro.analysis import lint_plugin, unknown_suppressed_codes
from repro.core.errors import PluginError
from repro.core.plugin import (
    Plugin,
    PluginInstance,
    TYPE_PACKET_SCHEDULING,
    Verdict,
)
from repro.core.gates import GATE_IP_SECURITY
from repro.core.messages import Message
from repro.core.router import Router
from repro.mgr.library import RouterPluginLibrary
from repro.net.packet import make_udp
from repro.security.firewall import FirewallInstance
from repro.shard import ShardedRouter
from repro.shard.control import ShardedPluginLibrary

# Planted module-level state for the RP401 fixtures.
SEEN_PORTS = {}
EVENT_LOG = []
PACKET_COUNT = 0


def _codes(plugin_cls):
    return sorted(d.code for d in lint_plugin(plugin_cls))


def _make_plugin(instance_cls, plugin_name, **extra):
    return type(
        f"{instance_cls.__name__}Plugin",
        (Plugin,),
        {
            "plugin_type": TYPE_PACKET_SCHEDULING,
            "name": plugin_name,
            "instance_class": instance_cls,
            **extra,
        },
    )


# ----------------------------------------------------------------------
# RP401 — module-global mutable state
# ----------------------------------------------------------------------
class GlobalDictWriterInstance(PluginInstance):
    def process(self, packet, ctx):
        SEEN_PORTS[packet.src_port] = True
        return Verdict.CONTINUE


class GlobalListMutatorInstance(PluginInstance):
    def process(self, packet, ctx):
        EVENT_LOG.append(packet.src_port)
        return Verdict.CONTINUE


class GlobalRebindInstance(PluginInstance):
    def process(self, packet, ctx):
        global PACKET_COUNT
        PACKET_COUNT += 1
        return Verdict.CONTINUE


class InstanceDictInstance(PluginInstance):
    """The clean twin: the same bookkeeping kept on the instance."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.seen_ports = {}
        self.count = 0

    def process(self, packet, ctx):
        self.seen_ports[packet.src_port] = True
        self.count += 1
        return Verdict.CONTINUE


class SuppressedGlobalInstance(PluginInstance):
    def process(self, packet, ctx):
        EVENT_LOG.append(packet.src_port)  # rp: ignore[RP401]
        return Verdict.CONTINUE


# ----------------------------------------------------------------------
# RP402 — class-attribute state shared across instances
# ----------------------------------------------------------------------
class ClassListInstance(PluginInstance):
    totals = []  # never shadowed in __init__: genuinely shared

    def process(self, packet, ctx):
        self.totals.append(packet.length)
        return Verdict.CONTINUE


class TypeSelfWriterInstance(PluginInstance):
    def process(self, packet, ctx):
        type(self).high_water = packet.length
        return Verdict.CONTINUE


class DunderClassWriterInstance(PluginInstance):
    def process(self, packet, ctx):
        self.__class__.last_port = packet.src_port
        return Verdict.CONTINUE


class ShadowedClassDefaultInstance(PluginInstance):
    """Clean twin: the class-level default is shadowed per instance in
    __init__, so mutation touches instance state only."""

    totals = []

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.totals = []

    def process(self, packet, ctx):
        self.totals.append(packet.length)
        return Verdict.CONTINUE


class PlainStateInstance(PluginInstance):
    """Clean twin: only plain, reconstructible state on the instance."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.window = []
        self.limit = int(config.get("limit", 100))

    def process(self, packet, ctx):
        self.window.append(packet.length)
        return Verdict.CONTINUE


# ----------------------------------------------------------------------
# RP210 — typo'd suppression
# ----------------------------------------------------------------------
class TypoSuppressionInstance(PluginInstance):
    def process(self, packet, ctx):
        data = packet.payload  # rp: ignore[RP9999]
        return Verdict.DROP if data else Verdict.CONTINUE


@pytest.mark.parametrize(
    "instance_cls,expected",
    [
        (GlobalDictWriterInstance, "RP401"),
        (GlobalListMutatorInstance, "RP401"),
        (GlobalRebindInstance, "RP401"),
        (ClassListInstance, "RP402"),
        (TypeSelfWriterInstance, "RP402"),
        (DunderClassWriterInstance, "RP402"),
    ],
)
def test_bad_pattern_is_flagged(instance_cls, expected):
    plugin_cls = _make_plugin(instance_cls, f"bad-{instance_cls.__name__.lower()}")
    assert expected in _codes(plugin_cls)


@pytest.mark.parametrize(
    "instance_cls",
    [
        InstanceDictInstance,
        ShadowedClassDefaultInstance,
        PlainStateInstance,
    ],
)
def test_good_pattern_is_clean(instance_cls):
    plugin_cls = _make_plugin(instance_cls, f"good-{instance_cls.__name__.lower()}")
    assert _codes(plugin_cls) == []


def test_suppression_comment_silences_rp401():
    plugin_cls = _make_plugin(SuppressedGlobalInstance, "suppressed-global")
    assert "RP401" not in _codes(plugin_cls)


def test_unknown_suppression_code_warns_rp210():
    plugin_cls = _make_plugin(TypoSuppressionInstance, "typo-suppressed")
    report = lint_plugin(plugin_cls)
    codes = [d.code for d in report]
    # The typo'd name suppresses nothing: RP205 still fires, plus RP210.
    assert "RP205" in codes
    assert "RP210" in codes
    (rp210,) = [d for d in report if d.code == "RP210"]
    assert "RP9999" in rp210.message


def test_a_retired_code_in_a_suppression_is_rp210():
    """Retired codes (docs/STATIC_ANALYSIS.md) suppress nothing."""
    line = "x = 1  # rp: ignore[RP503, RP301, RP205]"
    assert unknown_suppressed_codes(line) == {"RP503", "RP301"}


def test_valid_suppression_does_not_warn_rp210():
    plugin_cls = _make_plugin(SuppressedGlobalInstance, "valid-suppressed")
    assert "RP210" not in [d.code for d in lint_plugin(plugin_cls)]


def test_diagnostics_carry_location_and_hint():
    plugin_cls = _make_plugin(GlobalDictWriterInstance, "located-rp401")
    findings = [d for d in lint_plugin(plugin_cls) if d.code == "RP401"]
    assert findings
    diag = findings[0]
    assert diag.file and diag.file.endswith("test_concurrency_lint.py")
    assert diag.line is not None and diag.line > 0
    assert diag.hint
    assert "GlobalDictWriterInstance.process" in diag.subject


# ----------------------------------------------------------------------
# Retired RP404: the faults topic merges per field across shards
# ----------------------------------------------------------------------
class _RaisingFirewall(FirewallInstance):
    def process(self, packet, ctx):
        raise RuntimeError("firewall fault")


def _router(name="router"):
    router = Router(name=name)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def _flows(count):
    return [make_udp(f"10.0.0.{i + 1}", "20.0.0.1", 5000 + i, 9000, iif="atm0")
            for i in range(count)]


def _faulted_front():
    """A two-shard front whose firewall raises on every packet, sent
    flows that land on both shards: each shard records faults and trips
    its quarantine at ``now=1``.  Returns the front's merged ``faults``
    entry for the firewall and each shard's own."""
    sharded = ShardedRouter(nshards=2, factory=lambda i: _router(f"shard/{i}"),
                            backend="inline")
    library = ShardedPluginLibrary(sharded)
    library.modload("firewall")
    for shard in sharded.shards:
        shard.pcu.get("firewall").instance_class = _RaisingFirewall
    library.create_instance("firewall", "fw0")
    library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
    library.set_fault_policy("firewall", threshold=2, window=10.0, cooldown=5.0)
    sharded.receive_batch(_flows(16), now=1.0)

    def faults():
        return (library.query("faults")["plugins"]["firewall"],
                [child.query("faults")["plugins"]["firewall"]
                 for child in library.libraries])
    return library, faults


def test_rp404_flags_unmergeable_leaf():
    """The list leaf: the front's fault records are every shard's."""
    _, faults = _faulted_front()
    merged, shards = faults()
    assert all(shard["records"] for shard in shards)
    assert merged["records"] == shards[0]["records"] + shards[1]["records"]


def test_rp404_quiet_on_mergeable_payload():
    """Counters sum; the policy fields are configuration, the same on
    every shard, so the front reports the value, not twice it."""
    _, faults = _faulted_front()
    merged, shards = faults()
    assert merged["faults_total"] == sum(shard["faults_total"] for shard in shards)
    assert [merged[key] for key in ("threshold", "window", "cooldown")] == [2, 10.0, 5.0]


def test_rp404_skips_special_merger_topics():
    """A quarantine on any shard surfaces on the front."""
    library, faults = _faulted_front()
    library.libraries[0].reinstate("firewall")
    merged, shards = faults()
    assert [shard["state"] for shard in shards] == ["healthy", "quarantined"]
    assert merged["state"] == "quarantined"


def test_live_library_query_is_mergeable():
    """The front's quarantine deadline is the latest shard's."""
    _, faults = _faulted_front()
    merged, shards = faults()
    assert [shard["quarantined_until"] for shard in shards] == [6.0, 6.0]
    assert merged["quarantined_until"] == 6.0


# ----------------------------------------------------------------------
# Retired RP405: a control message acts the same whatever traffic a
# router has seen
# ----------------------------------------------------------------------
def _weight_after_set_weight(warm):
    """DRR bound at the scheduling gate of a router that has (``warm``)
    or has not seen traffic; ``set_weight`` for its filter, as the
    fanout sends it to every child."""
    router = _router()
    library = RouterPluginLibrary(router)
    library.modload("drr")
    instance = library.create_instance("drr", "drr0")
    record = library.bind("drr0", "*, *, UDP")
    if warm:
        router.receive_batch(_flows(4))
        assert len(router.aiu.flow_table) == 4
    router.pcu.send("drr", Message("set_weight", {
        "instance": instance, "record": record, "weight": 3.0}))
    return instance.weight_for(record)


def test_rp405_flags_local_state_guarded_config_change():
    """A router whose flow table holds flows takes the weight."""
    assert _weight_after_set_weight(warm=True) == 3.0


def test_rp405_quiet_on_unconditional_fanout():
    """Two children, one warm and one cold, end with the same weight."""
    assert _weight_after_set_weight(warm=True) == _weight_after_set_weight(warm=False) == 3.0


# ----------------------------------------------------------------------
# Strict load covers the shard-safety pass
# ----------------------------------------------------------------------
def test_strict_load_refuses_rp401():
    router = Router(name="strict-shard")
    plugin_cls = _make_plugin(GlobalDictWriterInstance, "strict-shard-bad")
    with pytest.raises(PluginError, match="RP401"):
        router.pcu.load(plugin_cls(), strict=True)
    assert not router.pcu.is_loaded("strict-shard-bad")


def test_strict_load_accepts_shard_safe_plugin():
    router = Router(name="strict-shard-ok")
    plugin_cls = _make_plugin(InstanceDictInstance, "strict-shard-good")
    router.pcu.load(plugin_cls(), strict=True)
    assert router.pcu.is_loaded("strict-shard-good")
