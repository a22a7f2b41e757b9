"""Hot-path lint unit tests: each live RP2xx code fires on a synthetic
bad plugin and stays quiet on the idiomatic equivalents, suppression
comments work, and strict loading refuses error findings before the PCU
tables are touched.

RP204, RP206 and RP207 are retired (docs/STATIC_ANALYSIS.md, "Retired
codes"): their ``test_bad_pattern_is_flagged`` ids keep their names and
pin, on a real router, the behaviour the code stood for; each is a
must-fail id of the catalogue row (tests/mutants/) that plants the
defect in shipped code."""

import random
import time
from os import system, urandom
from socket import create_connection
from subprocess import check_output
from urllib.request import urlopen

import pytest

from repro.analysis import CODES, lint_plugin
from repro.core.errors import PluginError
from repro.core.plugin import (
    Plugin,
    PluginContext,
    PluginInstance,
    TYPE_PACKET_SCHEDULING,
    Verdict,
)
from repro.core.router import Router
from repro.net.addresses import IPAddress
from repro.net.packet import Packet, make_udp
from repro.sched.fifo import FifoPlugin
from repro.security.ah import AhPlugin
from repro.security.sa import SADatabase, SecurityAssociation
from repro.sim.events import EventLoop
from repro.stats import StatisticsPlugin


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


# ----------------------------------------------------------------------
# Retired codes: what they guarded, on real routers
# ----------------------------------------------------------------------
def _router(**kwargs):
    router = Router(name="pin", **kwargs)
    router.add_interface("atm0", prefix="10.0.0.0/8")
    router.add_interface("atm1", prefix="20.0.0.0/8")
    return router


def tail_drops_are_counted_not_faulted():
    """RP204: a ``__slots__`` class creating an attribute outside
    ``__init__`` raises on the first packet down that branch.  The
    data path's ``__slots__`` queue takes its tail-drop branch under an
    event loop, and counts the drop instead of faulting."""
    router = _router(loop=EventLoop())
    plugin = FifoPlugin()
    router.pcu.load(plugin)
    fifo = plugin.create_instance(limit=2)
    router.set_scheduler("atm1", fifo)
    for i in range(6):
        router.receive(make_udp("10.0.0.1", "20.0.0.1", 5000 + i, 9000, iif="atm0"))
    assert fifo.queue.drops > 0
    assert router.faults.records() == []


class _UnreachableSADatabase(SADatabase):
    """An SA store whose lookup fails with a fault, not a refusal."""

    def get(self, spi):
        raise RuntimeError("SA store unreachable")


def a_broken_sa_store_is_a_fault_not_an_auth_failure():
    """RP206: an over-broad handler turns a fault into a verdict.  AH's
    inbound handler catches what a bad datagram raises; a fault of its SA
    store reaches AH's fault domain instead of counting as an
    authentication failure."""
    sa = SecurityAssociation(spi=1, auth_key=b"k" * 16)
    plugin = AhPlugin()
    packet = Packet(src=IPAddress(0x0A000001, 32), dst=IPAddress(0x14000001, 32),
                    protocol=17, src_port=1234, dst_port=80, payload=b"x" * 64, iif="atm0")
    plugin.create_instance(direction="out", sa=sa).process(packet, PluginContext())
    router = _router()
    router.pcu.load(plugin)
    inbound = plugin.create_instance(direction="in", sadb=_UnreachableSADatabase())
    plugin.register_instance(inbound, "*, *, *", gate="ip_security")
    assert router.receive(packet) == "dropped_by_plugin"
    assert [f.signature()[4] for f in router.faults.records()] == ["ip_security"]
    assert inbound.auth_failures == 0


def _stats_router():
    router = _router()
    plugin = StatisticsPlugin()
    router.pcu.load(plugin)
    stats = plugin.create_instance()
    plugin.register_instance(stats, "*, *, UDP", gate="ip_security")
    flows = [make_udp(f"10.0.0.{i % 3 + 1}", "20.0.0.1", 5000, 9000, payload_size=100,
                      iif="atm0") for i in range(9)]
    return router, stats, flows


def stats_report_counts_every_received_packet():
    """RP207: a metric kept where nothing reads it is lost to the
    operator.  The stats plugin's report counts every packet of every
    flow it is bound to."""
    router, stats, flows = _stats_router()
    for packet in flows:
        router.receive(packet)
    assert [record["packets"] for record in stats.report().values()] == [3, 3, 3]


def stats_totals_count_every_batched_packet():
    """RP207, through the generated loops: totals over the report."""
    router, stats, flows = _stats_router()
    router.receive_batch(flows)
    assert stats.totals() == {"flows": 3, "packets": 9, "bytes": 9 * flows[0].length}


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
        pytest.param(tail_drops_are_counted_not_faulted, "RP204",
                     id="SlotsInstance-RP204"),
        (UnchargedTouchInstance, "RP205"),
        (ExplicitBaseTouchInstance, "RP205"),
        pytest.param(a_broken_sa_store_is_a_fault_not_an_auth_failure, "RP206",
                     id="BroadExceptInstance-RP206"),
        pytest.param(stats_report_counts_every_received_packet, "RP207",
                     id="AdHocMetricsInstance-RP207"),
        pytest.param(stats_totals_count_every_batched_packet, "RP207",
                     id="AdHocCounterAugInstance-RP207"),
        (SuperCallInstance, "RP211"),
    ],
)
def test_bad_pattern_is_flagged(instance_cls, expected):
    """A live code fires on its fixture; a retired code's id runs the
    behaviour pin that replaced it."""
    if expected not in CODES:
        instance_cls()
        return
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
