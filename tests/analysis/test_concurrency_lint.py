"""Shard-safety lint unit tests: each RP4xx code fires on a planted
violation and stays quiet on the idiomatic (instance-local) twin,
suppressions work on the new codes, a typo'd suppression is flagged as
RP210, and the strict load refuses RP4xx errors like RP2xx ones."""

import pytest

from repro.analysis import audit_query_mergeability, lint_plugin, unknown_suppressed_codes
from repro.core.errors import PluginError
from repro.core.plugin import (
    Plugin,
    PluginInstance,
    TYPE_PACKET_SCHEDULING,
    Verdict,
)
from repro.core.router import Router

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
# RP405 — control commands reading shard-local traffic state
# ----------------------------------------------------------------------
class DivergingControlPlugin(Plugin):
    plugin_type = TYPE_PACKET_SCHEDULING
    name = "diverging-control"
    instance_class = PlainStateInstance

    def handle_custom(self, message):
        if self.pcu.aiu.flow_table.active > 100:
            self.pcu.aiu.remove_filter(message.body)
        return None


class UnconditionalControlPlugin(Plugin):
    plugin_type = TYPE_PACKET_SCHEDULING
    name = "unconditional-control"
    instance_class = PlainStateInstance

    def handle_custom(self, message):
        self.pcu.aiu.remove_filter(message.body)
        return None


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


def test_rp405_flags_local_state_guarded_config_change():
    codes = _codes(DivergingControlPlugin)
    assert "RP405" in codes


def test_rp405_quiet_on_unconditional_fanout():
    assert "RP405" not in _codes(UnconditionalControlPlugin)


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
# RP404 — query mergeability
# ----------------------------------------------------------------------
def test_rp404_flags_unmergeable_leaf():
    def query(topic, **filters):
        return {"flows": [1, 2, 3], "active": 7}

    findings = audit_query_mergeability(query, topics=["flows"])
    assert [d.code for d in findings] == ["RP404"]
    assert "list" in findings[0].message
    assert findings[0].subject == "query('flows')"


def test_rp404_quiet_on_mergeable_payload():
    def query(topic, **filters):
        return {"active": 7, "nested": {"hits": 1.5, "label": "x", "up": True}}

    assert audit_query_mergeability(query, topics=["flows", "aiu"]) == []


def test_rp404_skips_special_merger_topics():
    def query(topic, **filters):
        return {"rows": [object()]}  # unmergeable, but the topic is special

    assert audit_query_mergeability(query, topics=["telemetry"]) == []


def test_live_library_query_is_mergeable():
    from repro.mgr.library import RouterPluginLibrary

    router = Router(name="mergeable")
    router.add_interface("atm0", prefix="0.0.0.0/0")
    library = RouterPluginLibrary(router)
    library.modload("firewall")
    assert audit_query_mergeability(library.query) == []


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
