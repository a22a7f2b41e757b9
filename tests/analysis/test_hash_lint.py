"""RP209: builtin ``hash()`` on packet/flow state in data-path code.

``hash()`` is process-seeded (PYTHONHASHSEED), so using it for flow
placement sends the same flow to different shards in different worker
processes — silently breaking the sharded data path's per-flow
equivalence guarantee.  The lint flags any non-constant ``hash()`` call
reachable from a data-path root, and the self-lint additionally sweeps
the shard dispatch layer itself (repro.shard.dispatch / the worker
pool's hot methods) so a regression there cannot land quietly.
"""

import textwrap

import pytest

from repro.analysis.diagnostics import CODES
from repro.analysis.hotpath import lint_plugin, lint_plugins, swept_modules


def _load_module(tmp_path, name, source):
    import importlib.util
    import sys

    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


PLUGIN_TEMPLATE = """
from repro.core.plugin import Plugin, PluginInstance, Verdict

class {instance}(PluginInstance):
    def process(self, packet, ctx):
        {body}
        return Verdict.CONTINUE

class {plugin}(Plugin):
    name = "fixture"
    plugin_type = 1
    instance_class = {instance}
"""


def _lint_body(tmp_path, name, body):
    module = _load_module(
        tmp_path, name,
        PLUGIN_TEMPLATE.format(instance=f"I{name}", plugin=f"P{name}",
                               body=body),
    )
    return lint_plugin(getattr(module, f"P{name}"))


def test_rp209_registered():
    severity, summary = CODES["RP209"]
    assert severity == "error"
    assert "hash" in summary


def test_hash_on_packet_state_is_flagged(tmp_path):
    diags = _lint_body(tmp_path, "hashbad",
                       "shard = hash(packet.src) % 4")
    assert [d.code for d in diags] == ["RP209"]
    assert "flow_fold32" in diags[0].hint


def test_hash_on_flow_tuple_is_flagged(tmp_path):
    diags = _lint_body(
        tmp_path, "hashtup",
        "bucket = hash((packet.src, packet.dst, packet.protocol)) % 8")
    assert [d.code for d in diags] == ["RP209"]


def test_deterministic_fold_is_clean(tmp_path):
    diags = _lint_body(tmp_path, "foldok",
                       "shard = packet.flow_fold32() % 4")
    assert diags == []


def test_constant_hash_is_not_flagged(tmp_path):
    """hash('literal') cannot vary per packet; only non-constant
    arguments read as placement derivation."""
    diags = _lint_body(tmp_path, "hashconst", "tag = hash('probe')")
    assert diags == []


def test_suppression_comment_is_honored(tmp_path):
    diags = _lint_body(
        tmp_path, "hashsupp",
        "shard = hash(packet.src) % 4  # rp: ignore[RP209]")
    assert diags == []


def test_module_function_lint_catches_hash(tmp_path):
    module = _load_module(tmp_path, "dispatchbad", """
        def pick_shard(packet, nshards):
            return hash(packet.src) % nshards
    """)
    diags = lint_plugins(modules=[module]).diagnostics
    assert [d.code for d in diags] == ["RP209"]


def test_shard_dispatch_layer_self_lints_clean():
    """The shipped dispatch/handoff layer must never trip its own lint
    (this is the ci_check.sh self-lint gate's shard slice)."""
    report = lint_plugins(modules=swept_modules())
    assert report.diagnostics == []
