"""Static analysis for the plugin router: filter semantics, the plugin
lint (hot-path and shard-safety rules in one pass) and the exec-codegen
audit, which also checks the shapes of the compiled lookup structures.
Whether a compiled lookup returns what the metered walk returns is not
probed here: the classifier's property tests and the oracle
(``tests/oracle/``) send packets at every filter and route boundary.

Public API::

    from repro.analysis import (
        AnalysisReport, Diagnostic, CODES,
        analyze_filterset, analyze_table, analyze_records,
        lint_plugin, lint_plugins, lint_builtin_plugins,
        audit_router_codegen,
        analyze_router, analyze_sharded, analyze_script, self_lint,
    )

Everything here runs from the control path with the null meter — an
analysis pass charges zero modelled cycles and never mutates router
state.  Stable diagnostic codes and the suppression-comment grammar are
documented in ``docs/STATIC_ANALYSIS.md``.
"""

from .codegen_audit import (
    audit_dag_table,
    audit_engine,
    audit_loop_source,
    audit_router_codegen,
)
from .diagnostics import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
    is_suppressed,
    severity_of,
    suppressed_codes,
    title_of,
    unknown_suppressed_codes,
)
from .filterset import analyze_filterset, analyze_records, analyze_table
from .hotpath import (
    builtin_plugin_classes,
    lint_builtin_plugins,
    lint_plugin,
    lint_plugins,
)
from .runner import analyze_router, analyze_script, analyze_sharded, self_lint

__all__ = [
    "CODES",
    "ERROR",
    "INFO",
    "WARNING",
    "AnalysisReport",
    "Diagnostic",
    "is_suppressed",
    "severity_of",
    "suppressed_codes",
    "title_of",
    "unknown_suppressed_codes",
    "analyze_filterset",
    "analyze_records",
    "analyze_table",
    "audit_dag_table",
    "audit_engine",
    "audit_loop_source",
    "audit_router_codegen",
    "builtin_plugin_classes",
    "lint_builtin_plugins",
    "lint_plugin",
    "lint_plugins",
    "analyze_router",
    "analyze_script",
    "analyze_sharded",
    "self_lint",
]
