"""Exec-codegen audit (RP5xx) — verify generated data-path code.

The hottest code in the repo is *generated*: :mod:`repro.core.batch`
emits the un-metered executor per plan, in two layouts, and ``exec``\\ s
it against an allowlisted namespace, and the DAG classifier and BMP
engines flatten themselves into compiled lookup structures.  Nothing at
runtime re-checks any of it — a codegen regression surfaces as a
heisenbug three layers away.  This auditor re-parses every compiled
loop (both layouts: ``packet``, ``lanes``) and walks the compiled lookup
structures, turning structural invariants into ordinary diagnostics:

* RP501 — a free name in the generated source that resolves neither to
  the compile-time namespace (the allowlisted closure) nor to the small
  set of safe builtins the emitter is permitted to use.
* RP502 — nondeterministic builtins in generated code: ``hash()`` (the
  RP209 hazard, fatal in generated code), ``time``/``random``/
  ``datetime``/``uuid``/``os`` references.
* RP503 — an emitted plugin call (``.process(`` / ``.dequeue(``) outside
  any ``try``, or a fault handler that neither resumes through the
  ``_resume`` helper (a ``lanes`` sweep) nor classifies through
  ``on_fault`` (every other plugin call) nor re-raises: plugin faults
  would escape the per-plugin fault domain.
* RP504 — the plan's fields are not reflected in the emitted source (a
  ``tm`` plan without telemetry cells, a ``bounded`` plan that never
  consults ``MAXR``, ...), or a loop is cached under a plan it was not
  compiled for, or the active loops are not the current plan's: the
  router would run a loop compiled for a different configuration.
* RP505 — a compiled lookup structure violating its shape invariants:
  stale compile epochs, a clean DAG node whose memo differs from a fresh
  compile of its subtree, per-length prefix tables not probed
  longest-first, unsorted range boundaries, or entry counts that do not
  match the interpreted structure.

RP5xx findings are never suppressible in spirit (they indicate a
compiler bug, not a style choice), but the standard ``# rp: ignore``
grammar still applies to AST-anchored ones for emergencies.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .equivalence import routing_engines
from .hotpath import bound_names

#: Builtins the loop emitter is allowed to reference freely.
_SAFE_BUILTINS = {
    "len", "enumerate", "range", "zip", "isinstance", "getattr", "iter",
    "next", "min", "max", "abs", "id", "True", "False", "None",
    "Exception", "StopIteration", "AttributeError", "KeyError",
}

#: Free names that make generated data-path code nondeterministic.
_FORBIDDEN_FREE = {
    "hash", "time", "random", "datetime", "uuid", "os", "secrets",
    "urandom", "globals", "locals", "eval", "exec", "compile",
    "__import__",
}

#: (plan field, source marker) — RP504: the marker appears in the
#: source exactly when the field is set.
_PLAN_MARKERS: Tuple[Tuple[str, str], ...] = (
    ("tm", "_tm_gate_cells"),
    ("probe", "buckets[fold & mask]"),
    # The emitted scheduler drain: present iff the tail can queue.
    ("has_sched", "sched.dequeue"),
)
#: The same, for the field only the inlined probe (``plan["probe"]``) reads.
_PROBE_MARKERS: Tuple[Tuple[str, str], ...] = (("bounded", "MAXR"),)


def _function_node(source: str) -> Optional[ast.FunctionDef]:
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    return None


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
    plan: Optional[dict] = None,
    subject: str = "compiled batch loop",
) -> List[Diagnostic]:
    """RP501/502/503/504 over one generated loop's source text."""
    diagnostics: List[Diagnostic] = []
    fn_node = _function_node(source)
    if fn_node is None:
        diagnostics.append(
            Diagnostic(
                "RP504",
                "generated source contains no function definition",
                subject=subject,
                hint="the emitter must produce exactly one _batch_loop def",
            )
        )
        return diagnostics

    # RP501 / RP502 — free-name discipline.
    for name, line in sorted(_free_names(fn_node).items()):
        if name in _FORBIDDEN_FREE:
            diagnostics.append(
                Diagnostic(
                    "RP502",
                    f"generated code references {name!r}: nondeterministic "
                    "or environment-dependent in a compiled data-path loop",
                    subject=subject,
                    file="<repro.core.batch>",
                    line=line,
                    hint="the emitter must derive everything from the "
                    "router state captured in the namespace",
                )
            )
        elif name not in namespace and name not in _SAFE_BUILTINS:
            diagnostics.append(
                Diagnostic(
                    "RP501",
                    f"free name {name!r} resolves neither to the compile "
                    "namespace nor to a safe builtin; at run time it is a "
                    "NameError (or worse, a shadowed builtin)",
                    subject=subject,
                    file="<repro.core.batch>",
                    line=line,
                    hint="add the object to the _compile namespace "
                    "allowlist or stop emitting the reference",
                )
            )

    # RP503 — every plugin call is guarded, every handler resumes or
    # classifies.  A loop with no plugin call has nothing to guard.
    tries = [node for node in ast.walk(fn_node) if isinstance(node, ast.Try)]
    guarded = {
        id(node)
        for block in tries if block.handlers
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    for node in ast.walk(fn_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("process", "dequeue")
            and id(node) not in guarded
        ):
            diagnostics.append(
                Diagnostic(
                    "RP503",
                    f"generated .{node.func.attr}() call has no fault handler; "
                    "a plugin exception would unwind the whole batch instead "
                    "of being charged to the faulting plugin's domain",
                    subject=subject,
                    file="<repro.core.batch>",
                    line=node.lineno,
                    hint="every emitted plugin call must sit inside a "
                    "try/except that splits or classifies the fault",
                )
            )
    for handler in ast.walk(fn_node):
        if isinstance(handler, ast.ExceptHandler) and not _handler_resumes(handler):
            diagnostics.append(
                Diagnostic(
                    "RP503",
                    "generated fault handler neither resumes via the "
                    "_resume helper nor classifies via on_fault nor "
                    "re-raises",
                    subject=subject,
                    file="<repro.core.batch>",
                    line=handler.lineno,
                    hint="a sweep fault must re-enter the packet layout "
                    "with the batch's residue (the _resume contract)",
                )
            )

    # RP504 — plan/source coherence.
    if plan is not None:
        diagnostics.extend(_audit_plan_markers(source, plan, subject))
    return diagnostics


def _handler_resumes(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in ("_resume", "on_fault"):
                return True
    return False


def _audit_plan_markers(source: str, plan: dict, subject: str) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []

    def bad(field: str, detail: str) -> None:
        diagnostics.append(
            Diagnostic(
                "RP504",
                f"plan field {field!r} is not reflected in the generated "
                f"source: {detail}",
                subject=subject,
                hint="the plan and the emitter disagree; the router would "
                "run a loop compiled for a different configuration",
            )
        )

    markers = _PLAN_MARKERS + (_PROBE_MARKERS if plan.get("probe") else ())
    for field, marker in markers:
        present = marker in source
        if plan.get(field) and not present:
            bad(field, f"plan sets {field} but {marker!r} never appears")
        elif not plan.get(field) and present:
            bad(field, f"plan clears {field} but {marker!r} appears")
    if "on_fault" not in source:
        bad("layout", "every layout classifies tail faults via on_fault")
    if (plan.get("layout") == "lanes") != ("_resume(" in source):
        bad("layout", "lanes sweeps, and only they, resume via _resume")
    for gate_entry in plan.get("pre") or ():
        gate_name = gate_entry[0] if isinstance(gate_entry, tuple) else gate_entry
        if f"'{gate_name}'" not in source and f'"{gate_name}"' not in source:
            bad("pre", f"active pre gate {gate_name!r} never referenced")
    return diagnostics


def audit_loop(
    fn, subject: str = "compiled batch loop", filed: Optional[tuple] = None
) -> List[Diagnostic]:
    """Audit one cached compiled loop via its introspection attributes;
    ``filed`` is the ``(plan, telemetry, layout)`` its router keeps it
    under (``Router._loop_cache``)."""
    source = getattr(fn, "_source", None)
    plan = getattr(fn, "_plan", None)
    if source is None:
        return [
            Diagnostic(
                "RP504",
                "compiled loop carries no _source introspection attribute; "
                "it cannot be audited",
                subject=subject,
                hint="_compile must attach fn._source and fn._plan",
            )
        ]
    diagnostics = audit_loop_source(
        source, fn.__globals__, plan=plan, subject=subject
    )
    if filed is not None and plan is not None:
        compiled_for = (
            (plan["pre"], plan["routing_active"], plan["sched_active"],
             plan["has_sched"]),
            plan["tm"], plan["layout"],
        )
        if compiled_for != filed:
            diagnostics.append(_misfiled(
                subject, f"filed under {filed!r}, compiled for {compiled_for!r}"
            ))
    return diagnostics


def _misfiled(subject: str, detail: str) -> Diagnostic:
    return Diagnostic(
        "RP504",
        f"loop cache incoherent: {detail}",
        subject=subject,
        hint="Router._select_loops must file loops under the plan and "
        "telemetry state they are compiled for, and select the current one",
    )


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
    """Audit every compiled loop a router holds — each under the plan
    it is cached for — plus its compiled lookup structures.  With
    ``warm=True`` the current plan's batch loop is compiled first, so a
    freshly configured router is never vacuously clean."""
    from ..core.batch import loop_for

    diagnostics: List[Diagnostic] = []
    if warm:
        loop_for(router)
    current = (router._plan, router._tm_gate_cells is not None)
    if router._loops is not router._loop_cache.get(current):
        diagnostics.append(_misfiled(
            f"{subject_prefix}batch loops",
            f"the active loops are not the entry of the current plan {current!r}",
        ))
    for key, loops in router._loop_cache.items():
        cached = "" if loops is router._loops else "cached "
        for layout, fn in sorted(loops.items()):
            diagnostics.extend(audit_loop(
                fn, subject=f"{subject_prefix}{cached}batch loop ({layout})",
                filed=(*key, layout),
            ))
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
    for subject, engine in routing_engines(router, subject_prefix):
        diagnostics.extend(audit_engine(engine, subject=subject))
    return diagnostics
