"""The self-lint gate: every built-in plugin must be clean.

This pins the satellite fix made alongside the analyzer: the AH plugin
computed its ICV over the packet payload without charging the cost
model (an RP205), which silently under-reported §7's modelled numbers
for authenticated flows.  The lint found it, the charge was added, and
this suite keeps the registry at zero findings forever after.
"""

from pathlib import Path

import time

from repro.analysis import CODES, lint_builtin_plugins, lint_plugin, self_lint
from repro.analysis.hotpath import ROOT_METHODS, builtin_plugin_classes
from repro.core.plugin import Plugin
from repro.sched.drr import DrrInstance, DrrPlugin
from repro.sim.chaos import ChaosInstance, ChaosPlugin


def test_builtin_plugins_lint_clean():
    report = lint_builtin_plugins()
    assert not list(report), [d.render() for d in report]


def test_builtin_registry_is_covered():
    # The lint must actually be looking at the full registry, not an
    # empty list: every name in PLUGIN_REGISTRY resolves to a class.
    classes = builtin_plugin_classes()
    assert len(classes) >= 15
    names = {cls.__name__ for cls in classes}
    assert {"AhPlugin", "EspPlugin", "DrrPlugin", "RedPlugin"} <= names
    # The chaos wrapper loads like a registry plugin (repro.sim.chaos).
    assert ChaosPlugin in classes and ChaosPlugin.instance_class is ChaosInstance


class _ClockedPassThrough(DrrInstance):
    def pass_through(self, packet, ctx):
        self.passed_at = time.time()
        return False


class _ClockedPassThroughPlugin(Plugin):
    name = "clocked"
    instance_class = _ClockedPassThrough


def test_every_data_path_root_is_linted():
    """Each method the router calls per packet is a lint root, the
    scheduling gate's ``pass_through`` (DRR runs it per packet) among them."""
    assert {"process", "enqueue", "dequeue", "pass_through"} <= set(ROOT_METHODS)
    assert callable(DrrPlugin.instance_class.pass_through)
    found = [(d.code, d.subject) for d in lint_plugin(_ClockedPassThroughPlugin)]
    assert ("RP202", "_ClockedPassThrough.pass_through") in found, found


def test_full_self_lint_gate_is_clean():
    # The CI gate: plugins + DAG equivalence + BMP engine equivalence.
    report = self_lint()
    assert not report.has_errors, [d.render() for d in report.errors()]
    assert len(report) == 0, [d.render() for d in report]


def test_every_registered_code_is_named_by_a_test():
    """Every rule pays rent (docs/STATIC_ANALYSIS.md): a code with no
    planted-violation test under tests/ cannot land."""
    tests = Path(__file__).resolve().parents[1]
    text = "".join(path.read_text() for path in sorted(tests.rglob("test_*.py")))
    assert [code for code in sorted(CODES) if code not in text] == []


def test_ah_charges_sw_auth_per_byte():
    """The fixed RP205: AH must charge SW_AUTH_PER_BYTE for the bytes
    its ICV covers, in both directions."""
    from repro.core.plugin import PluginContext
    from repro.net.addresses import IPAddress
    from repro.net.packet import Packet
    from repro.security.ah import AhPlugin
    from repro.security.sa import SADatabase, SecurityAssociation
    from repro.sim.cost import Costs, CycleMeter

    sa = SecurityAssociation(spi=1, auth_key=b"k" * 16)
    sadb = SADatabase()
    sadb.add(sa)
    plugin = AhPlugin()
    outbound = plugin.create_instance(direction="out", sa=sa)
    inbound = plugin.create_instance(direction="in", sadb=sadb)

    def fresh_packet():
        return Packet(
            src=IPAddress(0x0A000001, 32),
            dst=IPAddress(0x0A000002, 32),
            protocol=6,
            src_port=1234,
            dst_port=80,
            payload=b"x" * 100,
        )

    packet = fresh_packet()
    meter = CycleMeter()
    ctx = PluginContext(router=None, gate="ip_security", now=0.0, cycles=meter)
    outbound.process(packet, ctx)
    charged_out = meter.breakdown().get("sw_auth", 0)
    assert charged_out > 0
    assert charged_out % Costs.SW_AUTH_PER_BYTE == 0

    meter_in = CycleMeter()
    ctx_in = PluginContext(router=None, gate="ip_security", now=0.0, cycles=meter_in)
    inbound.process(packet, ctx_in)
    assert meter_in.breakdown().get("sw_auth", 0) > 0
