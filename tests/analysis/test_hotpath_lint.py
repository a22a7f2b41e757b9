"""Hot-path lint unit tests: each RP2xx code fires on a synthetic bad
plugin and stays quiet on the idiomatic equivalents, suppression
comments work, and strict loading refuses error findings before the PCU
tables are touched."""

import random
import time
from os import system, urandom
from socket import create_connection
from subprocess import check_output
from urllib.request import urlopen

import pytest

from repro.analysis import lint_plugin
from repro.core.errors import PluginError
from repro.core.plugin import (
    Plugin,
    PluginInstance,
    TYPE_PACKET_SCHEDULING,
    Verdict,
)
from repro.core.router import Router


def _codes(plugin_cls):
    return sorted(d.code for d in lint_plugin(plugin_cls))


def _make_plugin(instance_cls, plugin_name):
    return type(
        f"{instance_cls.__name__}Plugin",
        (Plugin,),
        {
            "plugin_type": TYPE_PACKET_SCHEDULING,
            "name": plugin_name,
            "instance_class": instance_cls,
        },
    )


class SleepyInstance(PluginInstance):
    def process(self, packet, ctx):
        time.sleep(0.01)
        return Verdict.CONTINUE


class LocalImportSleeper(PluginInstance):
    def process(self, packet, ctx):
        import time as clock

        clock.sleep(0.01)
        return Verdict.CONTINUE


class FromImportSleeper(PluginInstance):
    def process(self, packet, ctx):
        from time import sleep

        sleep(0.01)
        return Verdict.CONTINUE


class BatchStartSleeper(PluginInstance):
    """The batch hook the router calls is a data-path root too."""

    def on_batch_start(self, now, batch_size):
        time.sleep(0.01)


class GlobalCheckOutputInstance(PluginInstance):
    """A blocking callable bound by a module-level ``from X import y``
    and called bare, like the four fixtures below."""

    def process(self, packet, ctx):
        check_output(["true"])
        return Verdict.CONTINUE


class GlobalCreateConnectionInstance(PluginInstance):
    def process(self, packet, ctx):
        create_connection(("127.0.0.1", 9))
        return Verdict.CONTINUE


class GlobalUrlopenInstance(PluginInstance):
    def process(self, packet, ctx):
        urlopen("http://127.0.0.1/")
        return Verdict.CONTINUE


class GlobalOsSystemInstance(PluginInstance):
    def process(self, packet, ctx):
        system("true")
        return Verdict.CONTINUE


class GlobalOsUrandomInstance(PluginInstance):
    def process(self, packet, ctx):
        packet.annotations["nonce"] = urandom(8)
        return Verdict.CONTINUE


class GlobalRandomInstance(PluginInstance):
    def process(self, packet, ctx):
        if random.random() < 0.5:
            return Verdict.DROP
        return Verdict.CONTINUE


class SeededRandomInstance(PluginInstance):
    def __init__(self, plugin, seed=1, **config):
        super().__init__(plugin, **config)
        self._rng = random.Random(seed)

    def process(self, packet, ctx):
        if self._rng.random() < 0.5:
            return Verdict.DROP
        return Verdict.CONTINUE


class BareExceptInstance(PluginInstance):
    def process(self, packet, ctx):
        try:
            packet.annotations["x"] = 1
        except:  # noqa: E722
            return Verdict.DROP
        return Verdict.CONTINUE


class BroadExceptInstance(PluginInstance):
    def process(self, packet, ctx):
        try:
            packet.annotations["x"] = 1
        except Exception:
            return Verdict.DROP
        return Verdict.CONTINUE


class SlotsInstance(PluginInstance):
    __slots__ = ()

    def process(self, packet, ctx):
        self.window = 1
        return Verdict.CONTINUE


class UnchargedTouchInstance(PluginInstance):
    def process(self, packet, ctx):
        if len(packet.payload) > 1000:
            return Verdict.DROP
        return Verdict.CONTINUE


class ChargedTouchInstance(PluginInstance):
    def process(self, packet, ctx):
        data = packet.payload
        ctx.cycles.charge(len(data), "scan")
        if len(data) > 1000:
            return Verdict.DROP
        return Verdict.CONTINUE


class HelperChargedInstance(PluginInstance):
    """The charge lives in a helper the root calls — the closure walk
    must see it."""

    def _scan(self, packet, ctx):
        ctx.cycles.charge(len(packet.payload), "scan")

    def process(self, packet, ctx):
        self._scan(packet, ctx)
        return Verdict.CONTINUE


class SuppressedInstance(PluginInstance):
    def process(self, packet, ctx):
        data = packet.payload  # rp: ignore[RP205]
        return Verdict.DROP if data else Verdict.CONTINUE


class AdHocMetricsInstance(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.stats = {}

    def process(self, packet, ctx):
        self.stats["seen"] = self.stats.get("seen", 0) + 1
        return Verdict.CONTINUE


class AdHocCounterAugInstance(PluginInstance):
    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        self.counters = {"seen": 0}

    def process(self, packet, ctx):
        self.counters["seen"] += 1
        return Verdict.CONTINUE


class RegistryMetricsInstance(PluginInstance):
    """The sanctioned pattern: a registry handle grabbed once (at bind
    time in real plugins), ``inc()`` on the hot path — no dict stores."""

    def __init__(self, plugin, **config):
        super().__init__(plugin, **config)
        from repro.telemetry import NULL_REGISTRY

        self._seen = NULL_REGISTRY.counter("plugin.seen")

    def process(self, packet, ctx):
        self._seen.inc()
        return Verdict.CONTINUE


class SuperCallInstance(PluginInstance):
    def process(self, packet, ctx):
        super().process(packet, ctx)
        return Verdict.CONTINUE


class ExplicitBaseCallInstance(PluginInstance):
    """The clean twin: the base named explicitly, no super object."""

    def process(self, packet, ctx):
        PluginInstance.process(self, packet, ctx)
        return Verdict.CONTINUE


class ExplicitBaseTouchInstance(UnchargedTouchInstance):
    """The closure walk follows ``Base.method(self, ...)`` into the base."""

    def process(self, packet, ctx):
        return UnchargedTouchInstance.process(self, packet, ctx)


@pytest.mark.parametrize(
    "instance_cls,expected",
    [
        (SleepyInstance, "RP201"),
        (LocalImportSleeper, "RP201"),
        (FromImportSleeper, "RP201"),
        (BatchStartSleeper, "RP201"),
        (GlobalCheckOutputInstance, "RP201"),
        (GlobalCreateConnectionInstance, "RP201"),
        (GlobalUrlopenInstance, "RP201"),
        (GlobalOsSystemInstance, "RP201"),
        (GlobalOsUrandomInstance, "RP202"),
        (GlobalRandomInstance, "RP202"),
        (BareExceptInstance, "RP203"),
        (SlotsInstance, "RP204"),
        (UnchargedTouchInstance, "RP205"),
        (ExplicitBaseTouchInstance, "RP205"),
        (BroadExceptInstance, "RP206"),
        (AdHocMetricsInstance, "RP207"),
        (AdHocCounterAugInstance, "RP207"),
        (SuperCallInstance, "RP211"),
    ],
)
def test_bad_pattern_is_flagged(instance_cls, expected):
    plugin_cls = _make_plugin(instance_cls, f"bad-{expected.lower()}")
    assert expected in _codes(plugin_cls)


@pytest.mark.parametrize(
    "instance_cls",
    [
        SeededRandomInstance,
        ChargedTouchInstance,
        HelperChargedInstance,
        RegistryMetricsInstance,
        ExplicitBaseCallInstance,
    ],
)
def test_good_pattern_is_clean(instance_cls):
    plugin_cls = _make_plugin(instance_cls, f"good-{instance_cls.__name__.lower()}")
    assert _codes(plugin_cls) == []


def test_suppression_comment_silences_the_named_code():
    plugin_cls = _make_plugin(SuppressedInstance, "suppressed")
    assert "RP205" not in _codes(plugin_cls)


def test_diagnostics_carry_location_and_hint():
    plugin_cls = _make_plugin(SleepyInstance, "located")
    (diag,) = [d for d in lint_plugin(plugin_cls) if d.code == "RP201"]
    assert diag.file and diag.file.endswith("test_hotpath_lint.py")
    assert diag.line is not None and diag.line > 0
    assert diag.hint
    assert "SleepyInstance.process" in diag.subject


def test_strict_load_refuses_error_findings():
    router = Router(name="strict-test")
    plugin_cls = _make_plugin(SleepyInstance, "strict-bad")
    with pytest.raises(PluginError, match="RP201"):
        router.pcu.load(plugin_cls(), strict=True)
    assert not router.pcu.is_loaded("strict-bad")


def test_strict_load_accepts_clean_plugin():
    router = Router(name="strict-ok")
    plugin_cls = _make_plugin(ChargedTouchInstance, "strict-good")
    code = router.pcu.load(plugin_cls(), strict=True)
    assert router.pcu.is_loaded("strict-good")
    assert code > 0


def test_non_strict_load_unchanged():
    router = Router(name="lenient")
    plugin_cls = _make_plugin(SleepyInstance, "lenient-bad")
    router.pcu.load(plugin_cls())
    assert router.pcu.is_loaded("lenient-bad")
