"""Exec-codegen audit (RP5xx) — verify generated data-path code.

The hottest code in the repo is *generated*: :mod:`repro.core.batch`
emits the un-metered executor per plan, in two layouts, and ``exec``\\ s
it against an allowlisted namespace, and the DAG classifier and BMP
engines flatten themselves into compiled lookup structures.  This
auditor re-parses every compiled loop a router holds and walks the
compiled lookup structures, reporting the defects only it can see —
ones that cost time without changing a result:

* RP501 — a free name in the generated source that resolves neither to
  the compile-time namespace (the allowlisted closure) nor to the small
  set of safe builtins the emitter is permitted to use (``getattr``,
  ``hash`` and ``time`` included: a by-name lookup per packet, or a
  nondeterministic one, is a finding).
* RP505 — a compiled lookup structure violating its shape invariants:
  stale compile epochs, a clean DAG node whose memo differs from a fresh
  compile of its subtree, per-length prefix tables not probed
  longest-first, unsorted range boundaries, or entry counts that do not
  match the interpreted structure.

What a loop *does* — its fault handling, its plan, the loop a router
selects — is held by the tests (docs/STATIC_ANALYSIS.md "Retired
codes", tests/mutants/).  RP5xx findings indicate a compiler bug, not a
style choice, and are never to be suppressed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from .diagnostics import Diagnostic
from .hotpath import bound_names

#: Builtins the loop emitter is allowed to reference freely.
_SAFE_BUILTINS = {
    "len", "enumerate", "range", "zip", "isinstance", "iter",
    "next", "min", "max", "abs", "id", "True", "False", "None",
    "Exception", "StopIteration", "AttributeError", "KeyError",
}


def _free_names(fn_node: ast.FunctionDef) -> Dict[str, int]:
    """Free (load-context, never-bound) names -> first line referenced."""
    bound = bound_names(fn_node) | {fn_node.name}
    free: Dict[str, int] = {}
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in bound
            and node.id not in free
        ):
            free[node.id] = node.lineno
    return free


def audit_loop_source(
    source: str,
    namespace: Dict[str, object],
    subject: str = "compiled batch loop",
) -> List[Diagnostic]:
    """RP501 over one generated loop's source text."""
    fn_node = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.FunctionDef))
    return [
        Diagnostic(
            "RP501",
            f"free name {name!r} resolves neither to the compile "
            "namespace nor to a safe builtin; at run time it is a "
            "NameError, a shadowed builtin or a per-packet lookup",
            subject=subject,
            file="<repro.core.batch>",
            line=line,
            hint="add the object to the _compile namespace "
            "allowlist or stop emitting the reference",
        )
        for name, line in sorted(_free_names(fn_node).items())
        if name not in namespace and name not in _SAFE_BUILTINS
    ]


# ----------------------------------------------------------------------
# Compiled lookup structures (RP505)
# ----------------------------------------------------------------------
def audit_dag_table(table, subject: str = "filter table") -> List[Diagnostic]:
    """Shape invariants of the DAG's compiled root, and the per-node
    memos it is assembled from (repro.aiu.dag)."""
    from ..aiu.dag import _C_EXACT, _C_PREFIX, _C_RANGE, _DIRTY, LEVELS

    diagnostics: List[Diagnostic] = []

    def bad(detail: str) -> None:
        diagnostics.append(
            Diagnostic(
                "RP505",
                f"compiled DAG structure violated: {detail}",
                subject=subject,
                hint="re-run analyze after reproducing; this is a "
                "_compile_node bug, not a configuration problem",
            )
        )

    table.ensure_compiled()
    if table._compiled_epoch != table.epoch:
        bad(
            f"ensure_compiled left epoch {table._compiled_epoch} != "
            f"table epoch {table.epoch}"
        )
        return diagnostics
    root = table._compiled_root
    if table.records() and root is None:
        bad("table has records but compiled root is None")
        return diagnostics

    seen: Set[int] = set()

    # The level fixes the kind: lookup_fast probes without reading tags.
    kinds = (_C_PREFIX, _C_PREFIX, _C_EXACT, _C_RANGE, _C_RANGE, _C_EXACT)

    def walk(node, level: int) -> None:
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        if level == len(LEVELS):
            if isinstance(node, tuple):
                bad(f"a node tuple at depth {level}, where only leaf records belong")
            return
        if not isinstance(node, tuple) or len(node) != 3:
            bad(f"a {type(node).__name__} child at depth {level}, above the leaves")
            return
        kind, a, b = node
        if kind != kinds[level]:
            bad(f"{LEVELS[level]} level holds a kind-{kind} node, but "
                f"lookup_fast walks it as kind {kinds[level]}")
            return
        if kind == _C_PREFIX:
            shifts = [shift for shift, _ in a]
            if shifts != sorted(shifts) or len(set(shifts)) != len(shifts):
                bad(
                    "prefix tables are not strictly longest-first "
                    f"(shifts {shifts})"
                )
            for _, children in a:
                for child in children.values():
                    walk(child, level + 1)
        elif kind == _C_RANGE:
            boundaries = list(a)
            if boundaries != sorted(boundaries):
                bad(f"range boundaries unsorted ({boundaries[:8]}...)")
            if len(b) != len(boundaries) + 1:
                bad(
                    f"range node has {len(boundaries)} boundaries but "
                    f"{len(b)} children (must be boundaries+1)"
                )
            for child in b:
                walk(child, level + 1)
        else:
            for child in a.values():
                walk(child, level + 1)
            walk(b, level + 1)

    walk(root, 0)

    # A clean node's memo must equal a fresh compile of its subtree — a
    # mutation that did not dirty its path is how the compiled and the
    # interpreted walk come apart.  Recompile everything through the
    # table's own compiler, compare, put the memos back as found.
    nodes = [(node, node.compiled) for node in table.nodes()]
    for node, _memo in nodes:
        node.compiled = _DIRTY
    counted = table.nodes_compiled
    table._compile_node(table._root, 0)
    table.nodes_compiled = counted
    stale = [
        node.level for node, memo in nodes
        if memo is not _DIRTY and memo != node.compiled
    ]
    for node, memo in nodes:
        node.compiled = memo
    if stale:
        bad(
            f"{len(stale)} clean node(s) hold a memo that differs from a "
            f"fresh compile of their subtree (deepest at level {max(stale)})"
        )
    return diagnostics


def audit_engine(engine, subject: str = "bmp engine") -> List[Diagnostic]:
    """Shape invariants of a BMP engine's per-length fast tables."""
    diagnostics: List[Diagnostic] = []

    def bad(detail: str) -> None:
        diagnostics.append(
            Diagnostic(
                "RP505",
                f"compiled BMP fast-table structure violated: {detail}",
                subject=subject,
                hint="re-run analyze after reproducing; this is a "
                "_compile_fast bug, not a configuration problem",
            )
        )

    engine.lookup_entry_fast(0)  # force a (re)compile
    if engine._fast_epoch != engine.mutation_epoch:
        bad(
            f"fast tables left at epoch {engine._fast_epoch} != "
            f"mutation epoch {engine.mutation_epoch}"
        )
        return diagnostics
    shifts = [shift for shift, _ in engine._fast_tables]
    if shifts != sorted(shifts) or len(set(shifts)) != len(shifts):
        bad(f"per-length tables are not strictly longest-first ({shifts})")
    compiled = sum(len(t) for _, t in engine._fast_tables)
    interpreted = len(
        {(p.length, p.key_bits()) for p, _ in engine.entries()}
    )
    if compiled != interpreted:
        bad(
            f"fast tables hold {compiled} entries but the engine holds "
            f"{interpreted}"
        )
    return diagnostics


# ----------------------------------------------------------------------
# Router-level entry point
# ----------------------------------------------------------------------
def audit_router_codegen(
    router, warm: bool = True, subject_prefix: str = ""
) -> List[Diagnostic]:
    """Audit every compiled loop a router holds — the active ones and
    those cached for earlier plans — plus its compiled lookup
    structures.  With ``warm=True`` the current plan's batch loop is
    compiled first, so a freshly configured router is never vacuously
    clean."""
    from ..core.batch import loop_for

    diagnostics: List[Diagnostic] = []
    if warm:
        loop_for(router)
    for loops in router._loop_cache.values():
        cached = "" if loops is router._loops else "cached "
        for layout, fn in sorted(loops.items()):
            # The source it was compiled from against the namespace it
            # was exec'd in.
            diagnostics.extend(audit_loop_source(
                fn._source, fn.__globals__,
                subject=f"{subject_prefix}{cached}batch loop ({layout})"))
    for (gate, width), table in sorted(
        getattr(router.aiu, "_tables", {}).items(),
        key=lambda item: (item[0][0], item[0][1]),
    ):
        if hasattr(table, "ensure_compiled"):
            diagnostics.extend(
                audit_dag_table(
                    table,
                    subject=f"{subject_prefix}{gate}/{width}-bit table",
                )
            )
    for width, engine in sorted(router.routing_table._engines.items()):
        if hasattr(engine, "lookup_entry_fast"):        # a BMP engine
            diagnostics.extend(audit_engine(
                engine, subject=f"{subject_prefix}routing/{width}-bit engine"))
    return diagnostics
