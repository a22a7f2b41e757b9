"""Analysis entry points: whole-router, sharded, script, and self-lint.

``analyze_router`` is what ``pmgr analyze`` and ``scripts/analyze.py``
call: the filter-set semantic analysis over the AIU, the plugin lint
(hot-path and shard-safety rules, one pass) over every loaded plugin,
and the exec-codegen audit over every compiled loop, filter table and
BMP-backed routing engine.
``analyze_sharded`` sweeps all shards of a ``ShardedRouter``.  Everything
runs from the control path and charges zero modelled cost.
"""

from __future__ import annotations

from typing import List, Optional

from .codegen_audit import audit_dag_table, audit_engine, audit_router_codegen
from .diagnostics import AnalysisReport, Diagnostic
from .filterset import analyze_filterset
from .hotpath import builtin_plugin_classes, lint_plugins, swept_modules


def analyze_router(router, include_plugins: bool = True) -> AnalysisReport:
    """Run every analyzer against one live router."""
    report = AnalysisReport()
    report.extend(analyze_filterset(router.aiu))
    if include_plugins:
        report.extend(lint_plugins(router.pcu.plugins()))
    report.extend(audit_router_codegen(router))
    return report


def analyze_sharded(sharded, include_plugins: bool = True) -> AnalysisReport:
    """Sweep every shard of a ``ShardedRouter``: plugin lints once (the
    fanout keeps shard configuration identical), filter-set semantics on
    shard 0, then per-shard codegen audits (per-shard state *can*
    diverge — that is the point)."""
    from ..core.errors import ConfigurationError

    if getattr(sharded, "_pool", None) is not None:
        raise ConfigurationError(
            "analyze_sharded needs the inline backend (worker processes "
            "cannot ship live analysis objects back)"
        )
    report = AnalysisReport()
    shard0 = sharded.shards[0]
    report.extend(analyze_filterset(shard0.aiu))
    if include_plugins:
        report.extend(lint_plugins(shard0.pcu.plugins()))
    for index, shard in enumerate(sharded.shards):
        report.extend(audit_router_codegen(shard, subject_prefix=f"shard{index}: "))
    return report


def analyze_script(text: str, router=None) -> AnalysisReport:
    """Run a pmgr configuration script on a scratch router (or the given
    one), then analyze the state it built.  Script errors are collected
    rather than raised, so a broken script still gets its filters (the
    ones that installed) analyzed."""
    from ..core.router import Router
    from ..mgr.pmgr import PluginManager

    if router is None:
        router = Router(name="analyze-router")
        router.add_interface("atm0", prefix="0.0.0.0/0")
    manager = PluginManager(router)
    manager.run_script(text, continue_on_error=True)
    report = analyze_router(router)
    for error in manager.script_errors:
        report.add(_script_diagnostic(error))
    return report


def _script_diagnostic(error) -> Diagnostic:
    return Diagnostic(
        "RP107",
        f"script line {error.lineno} failed: {error.cause}",
        subject=f"line {error.lineno}: {error.command}",
        hint="fix the command; the remaining lines were still analyzed",
    )


def _self_codegen_audit() -> List:
    """Warm both generated layouts (``packet``, ``lanes``) with the
    inlined flow-table probe, and ``packet`` with the ``AIU.classify``
    call, on scratch routers and audit them, so the self-lint gate
    exercises the RP5xx checks against real emitter output on every CI
    run."""
    from ..core.gates import DEFAULT_GATES, GATE_IP_SECURITY
    from ..core.router import Router
    from ..mgr.library import RouterPluginLibrary
    from ..net.packet import make_udp

    diagnostics: List = []
    for label, config in (
        ("probe", {}),
        ("bounded", {"max_flows": 64}),
        ("call-classify", {"use_flow_cache": False}),
    ):
        router = Router(name=f"self-lint-{label}", gates=DEFAULT_GATES, **config)
        router.add_interface("atm0", prefix="10.0.0.0/8")
        router.add_interface("atm1", prefix="20.0.0.0/8")
        library = RouterPluginLibrary(router)
        library.modload("firewall")
        library.create_instance("firewall", "fw0")
        library.bind("fw0", "*, *, UDP", gate=GATE_IP_SECURITY)
        # receive() compiles the packet layout, receive_batch() lanes
        # (on the unbounded router with the inlined probe).
        for entry in (router.receive, lambda packet: router.receive_batch([packet])):
            entry(make_udp("10.0.0.1", "20.0.1.1", 5000, 9000, iif="atm0"))
        diagnostics.extend(
            audit_router_codegen(router, subject_prefix=f"self-lint {label}: ")
        )
    return diagnostics


def self_lint(engine_names: Optional[List[str]] = None) -> AnalysisReport:
    """The CI self-check: lint every built-in plugin and the shard/batch
    layers themselves (one pass, hot-path and shard-safety rules), warm
    and audit both generated loop layouts, then build a small seeded
    filter table and engine per BMP engine and audit their compiled
    shapes (RP505)."""
    from ..aiu.dag import DagFilterTable
    from ..aiu.matchers import AmbiguousFilterError
    from ..aiu.records import FilterRecord
    from ..bmp import ENGINES, make_engine
    from ..net.addresses import IPV4_WIDTH
    from ..workloads.filtersets import random_filters

    report = AnalysisReport()
    report.extend(lint_plugins(builtin_plugin_classes(), modules=swept_modules()))
    report.extend(_self_codegen_audit())
    names = engine_names or sorted(set(ENGINES))
    filters = random_filters(64, seed=7, host_fraction=0.5)
    for name in names:
        table = DagFilterTable(width=IPV4_WIDTH, bmp_engine=name)
        for flt in filters:
            try:
                table.install(FilterRecord(flt, gate="check"))
            except AmbiguousFilterError:
                continue
        report.extend(audit_dag_table(table, subject=f"self-lint DAG ({name})"))
        engine = make_engine(name, IPV4_WIDTH)
        for index, flt in enumerate(filters):
            if not flt.src.is_wildcard:
                engine.insert(flt.src, index)
        report.extend(audit_engine(engine, subject=f"self-lint {name}"))
    return report
