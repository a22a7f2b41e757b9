"""Plugin lint — one pass over one parse; the RP2xx hot-path rules.

The data path must never block, must be deterministic (replayable seeded
simulations are the repo's ground truth), must not swallow faults the
circuit breaker needs to see, and must charge the :mod:`repro.sim.cost`
model for any packet-byte work so modelled-cycle experiments stay
honest.  The lint walks every data-path root method (``process``,
``enqueue``, ``dequeue``, ``on_flow_created``, ``on_flow_removed``,
``on_batch_start``) of a plugin's instance classes, following the
transitive closure of ``self.*``/``super()``/``Base.method(self, ...)``
calls and same-package helper functions.  Every ``(function, owner)`` pair in that
closure is parsed once per run into a :class:`FunctionSource`, and every
rule — the RP2xx ones below and the RP4xx ones of
:mod:`repro.analysis.concurrency` — is a generator over that record,
listed in :data:`RULES`.  This module's rules:

* RP201 — blocking I/O (``open``/``input``, ``socket``/``subprocess``/
  ``requests``/``urllib``, ``time.sleep``, ``os.system`` & co).
* RP202 — nondeterminism (module-level ``random``/``uuid``/``secrets``,
  ``time.*``, ``datetime.now``, ``os.urandom``).  A *seeded* private RNG
  (``self._rng``) is fine and not flagged.
* RP203 — bare ``except``.
* RP205 — packet-byte touches (``.payload`` access, ``.serialize()``)
  with no ``charge``/``charge_memory``/``access`` call anywhere in the
  root's closure (the one closure-level rule).
* RP209 — builtin ``hash()`` on a non-constant argument: process-seeded,
  so the same packet hashes differently in different workers.
* RP210 — a ``# rp: ignore[...]`` comment naming a code that does not
  exist suppresses nothing.
* RP211 — zero-argument ``super()`` in a plugin instance's data-path
  closure (warning): per packet, it builds a super object on CPython < 3.12.

Findings on a source line carrying ``# rp: ignore[RPxxx]`` (or a blanket
``# rp: ignore``) are suppressed.  Everything runs on source text via
``inspect``/``ast`` — no packet ever flows through the lint.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import sys
import textwrap
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.plugin import Plugin, PluginInstance
from . import concurrency
from .diagnostics import (
    AnalysisReport,
    Diagnostic,
    is_suppressed,
    unknown_suppressed_codes,
)

#: Data-path root methods, per the plugin/scheduler contracts:
#: ``on_batch_start`` is the batch hook ``repro.core.router.BATCH_START_HOOK``
#: and ``pass_through`` the scheduling gate's empty-queue shortcut
#: (``repro.sched.base``), which DRR runs per packet.
ROOT_METHODS = (
    "process", "enqueue", "dequeue", "on_flow_created", "on_flow_removed",
    "on_batch_start", "pass_through",
)

_BLOCKING_OS = {"system", "popen", "read", "write", "open", "fork", "wait"}
#: ``(top-level module, attrs or None for any) -> code``; first match wins.
_CALL_TABLE: Tuple[Tuple[str, Optional[Set[str]], str], ...] = (
    ("builtins", {"open", "input"}, "RP201"),
    *((module, None, "RP201") for module in (
        "socket", "subprocess", "requests", "urllib", "http", "select")),
    ("time", {"sleep"}, "RP201"),
    ("time", None, "RP202"),
    *((module, None, "RP202") for module in ("random", "uuid", "secrets")),
    ("os", {"urandom"}, "RP202"),
    ("os", _BLOCKING_OS, "RP201"),
    ("datetime", {"now", "utcnow", "today"}, "RP202"),
)
_CALL_TEXT = {
    "RP201": (
        "blocks the data path",
        "move I/O to the control path (a plugin message handler); "
        "schedulers return CONSUMED and rely on dequeue(now)",
    ),
    "RP202": (
        "is nondeterministic on the data path",
        "use a seeded RNG created in __init__ (self._rng) or take time "
        "from ctx.now; the simulator owns the clock",
    ),
}
#: The C implementations behind ``os`` report these as ``__module__``.
_MODULE_ALIASES = {"posix": "os", "nt": "os"}
_CHARGE_NAMES = {"charge", "charge_memory", "access"}
_TOUCH_ATTRS = {"payload"}
_TOUCH_CALLS = {"serialize"}

#: What a rule yields: ``(code, node, message, hint)``.
Finding = Tuple[str, ast.AST, str, str]
Rule = Callable[["FunctionSource"], Iterator[Finding]]


def bound_names(fn_node: ast.FunctionDef) -> Set[str]:
    """Names a function body binds locally: parameters, stores, imports,
    ``except ... as`` names and nested definitions, minus ``global``
    declarations.  Shared by the RP4xx rules and the RP501 audit."""
    args = fn_node.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    bound.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared_global: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn_node:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return bound - declared_global


def dotted_call(func: ast.expr) -> Tuple[Optional[ast.expr], List[str]]:
    """``root.a.b`` -> (root expression, ["a", "b"]); a bare name is its
    own root with an empty chain."""
    chain: List[str] = []
    while isinstance(func, ast.Attribute):
        chain.append(func.attr)
        func = func.value
    chain.reverse()
    return func, chain


class FunctionSource:
    """One ``(function, owner)`` pair, parsed once per lint run: source
    lines, AST nodes, locally bound names, local imports, and the
    ``self.x()`` / ``super().x()`` / same-package callees the closure
    walk follows.  Rules read it; none re-parses."""

    def __init__(self, fn, owner: Optional[type], run: LintRun):
        self.fn = fn
        self.owner = owner
        self.run = run
        self.file = inspect.getsourcefile(fn)
        self.lines, self.start = inspect.getsourcelines(fn)
        tree = ast.parse(textwrap.dedent("".join(self.lines)))
        self.node: ast.FunctionDef = tree.body[0]  # type: ignore[assignment]
        self.nodes = list(ast.walk(self.node))
        self.subject = (
            f"{owner.__name__}.{fn.__name__}" if owner is not None
            else getattr(fn, "__qualname__", fn.__name__)
        )
        self.bound = bound_names(self.node)
        self.global_decls: Set[str] = set()
        # Function-local imports bind names that never appear in
        # ``fn.__globals__``; track them so local imports cannot smuggle
        # blocking modules past the lint.  alias -> (module, attr | None).
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}
        self.callees: List[Tuple[object, Optional[type]]] = []
        self.charges = False
        self.touches: List[Tuple[ast.AST, str]] = []
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (alias.name, None)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Attribute) and node.attr in _TOUCH_ATTRS:
                self.touches.append((node, f".{node.attr}"))
            elif isinstance(node, ast.Call):
                self._note_call(node)

    def _note_call(self, node: ast.Call) -> None:
        root, chain = dotted_call(node.func)
        if chain and chain[-1] in _CHARGE_NAMES:
            self.charges = True
        if chain and chain[-1] in _TOUCH_CALLS:
            self.touches.append((node, f".{chain[-1]}()"))
        owner = self.owner
        targets: List[Tuple[object, Optional[type]]] = []
        if isinstance(root, ast.Name) and not chain:
            # Same-package helper: followed as an unowned function.
            target = None if root.id in self.bound else self.fn.__globals__.get(root.id)
            if inspect.isfunction(target) and (target.__module__ or "").startswith("repro."):
                targets.append((target, None))
        elif len(chain) != 1 or owner is None:
            return
        elif isinstance(root, ast.Name) and root.id == "self":
            # Resolved on the concrete class, so subclass overrides (the
            # hardware crypto ``_charge_crypto``) are honored.
            targets.append((getattr(owner, chain[0], None), owner))
        elif (
            isinstance(root, ast.Call)
            and isinstance(root.func, ast.Name)
            and root.func.id == "super"
        ):
            targets.extend((base.__dict__.get(chain[0]), owner) for base in owner.__mro__[1:])
        elif isinstance(root, ast.Name) and self.fn.__globals__.get(root.id) in owner.__mro__:
            targets.append((getattr(self.fn.__globals__[root.id], chain[0], None), owner))
        for target, target_owner in targets:
            if callable(target) and not isinstance(target, type):
                self.callees.append((target, target_owner))

    @staticmethod
    def self_attr(expr: ast.AST) -> Optional[str]:
        """``X`` when ``expr`` is the attribute ``self.X``, else None."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def stores(self) -> Iterator[Tuple[ast.stmt, ast.expr]]:
        """Every ``(statement, target)`` of the body's assignments."""
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield node, target
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                yield node, node.target

    def resolve(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """The one call resolver: ``(top-level module, dotted attr)`` a
        called expression refers to — its root name looked up through the
        function's local imports, then ``fn.__globals__``, then the
        builtins — or None (``self._rng.random()`` is never confused with
        module-level ``random.random()``)."""
        root, chain = dotted_call(func)
        if not isinstance(root, ast.Name):
            return None
        if root.id in self.imports:
            module, attr = self.imports[root.id]
        elif root.id in self.bound:
            return None
        else:
            target = self.fn.__globals__.get(root.id)
            if target is None:
                module, attr = "builtins", root.id
                if not hasattr(builtins, root.id):
                    return None
            elif inspect.ismodule(target):
                module, attr = target.__name__, None
            else:
                module = getattr(target, "__module__", None)
                attr = getattr(target, "__name__", None)
                if not module or not attr:
                    return None  # an instance, not an imported callable
        dotted = ".".join(chain if attr is None else [attr, *chain])
        top = module.split(".")[0]
        return (_MODULE_ALIASES.get(top, top), dotted) if dotted else None


# ----------------------------------------------------------------------
# Per-function rules
# ----------------------------------------------------------------------
def forbidden_calls(source: FunctionSource) -> Iterator[Finding]:
    """RP201 / RP202 / RP209 / RP211: what each call resolves to, looked
    up in the one ``(module, attr) -> code`` table."""
    for node in source.nodes:
        if not isinstance(node, ast.Call):
            continue
        resolved = source.resolve(node.func)
        if resolved is None:
            continue
        module, dotted = resolved
        if resolved == ("builtins", "hash"):
            if node.args and not isinstance(node.args[0], ast.Constant):
                yield (
                    "RP209", node,
                    "builtin hash() is process-seeded (PYTHONHASHSEED): the "
                    "same packet hashes differently in different workers",
                    "derive placement from the deterministic five-tuple fold "
                    "(Packet.flow_fold32 / fold_five_tuple), never hash()",
                )
            continue
        if resolved == ("builtins", "super"):
            if not node.args and issubclass(source.owner or object, PluginInstance):
                yield (
                    "RP211", node,
                    "zero-argument super() on a plugin instance's per-packet path",
                    "on CPython < 3.12 each call builds a super object and walks the MRO "
                    "per packet; call the base explicitly or inline the bookkeeping",
                )
            continue
        last = dotted.rsplit(".", 1)[-1]
        for table_module, attrs, code in _CALL_TABLE:
            if module == table_module and (attrs is None or last in attrs):
                what = f"{dotted}()" if module == "builtins" else f"{module}.{dotted}"
                text, hint = _CALL_TEXT[code]
                yield code, node, f"call to {what} {text}", hint
                break


def bare_excepts(source: FunctionSource) -> Iterator[Finding]:
    """RP203: a bare ``except`` hides faults from the fault domain."""
    for node in source.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield (
                "RP203", node,
                "bare except swallows every fault, including the ones the "
                "circuit breaker must count",
                "catch the specific exceptions the operation can raise",
            )


#: The rules every function in the closure of a data-path root (or of a
#: swept module) is held to.  A new rule is one generator appended here.
RULES: Tuple[Rule, ...] = (
    forbidden_calls, bare_excepts, concurrency.shared_state_writes,
)


# ----------------------------------------------------------------------
# The run: one cache, one closure walk, one emit path
# ----------------------------------------------------------------------
class LintRun:
    """One lint run: the parsed-function records (at most one per
    ``(function, owner)`` pair however many closures reach it), the
    findings so far, and what has already been ruled and reported."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []
        self._sources: Dict[Tuple[int, int], Optional[FunctionSource]] = {}
        self._seen: Set[Tuple[str, Optional[str], int]] = set()
        self._ruled: Set[int] = set()

    def get(self, fn, owner: Optional[type]) -> Optional[FunctionSource]:
        """The record for ``fn`` as a member of ``owner``, or None when
        its source is unavailable (builtins, C extensions, ``exec``)."""
        fn = inspect.unwrap(fn)
        key = (id(getattr(fn, "__code__", fn)), id(owner))
        if key not in self._sources:
            try:
                self._sources[key] = FunctionSource(fn, owner, self)
            except (OSError, TypeError):
                self._sources[key] = None
        return self._sources[key]

    def emit(
        self, source: FunctionSource, code: str, lineno: int, message: str,
        hint: str, subject: Optional[str] = None,
    ) -> None:
        """The one emit path: ``# rp: ignore[...]`` on the flagged line,
        then ``(code, file, line)`` de-duplication across the run."""
        line = source.start + lineno - 1
        key = (code, source.file, line)
        if key in self._seen or is_suppressed(code, source.lines[lineno - 1]):
            return
        self._seen.add(key)
        self.diagnostics.append(Diagnostic(
            code, message, subject=subject or source.subject,
            file=source.file, line=line, hint=hint,
        ))

    def closure(self, root, owner: Optional[type]) -> List[FunctionSource]:
        """The root's record and that of every function reachable from
        it, root first."""
        sources: List[FunctionSource] = []
        work = [(root, owner)]
        while work:
            source = self.get(*work.pop())
            if source is not None and source not in sources:
                sources.append(source)
                work.extend(source.callees)
        return sources

    def lint(self, root, owner: Optional[type], charged_as: Optional[str] = None) -> None:
        """Apply :data:`RULES` to every function in the root's closure
        (once per function per run), then — for a plugin's data-path
        root, named by ``charged_as`` — RP205 over the closure as a
        whole."""
        sources = self.closure(root, owner)
        for source in sources:
            if id(source) in self._ruled:
                continue
            self._ruled.add(id(source))
            for offset, line in enumerate(source.lines):
                unknown = sorted(unknown_suppressed_codes(line))
                if unknown:
                    self.emit(
                        source, "RP210", offset + 1,
                        "suppression names unknown diagnostic code(s) "
                        f"{', '.join(unknown)}; nothing is suppressed",
                        "valid codes are listed in docs/STATIC_ANALYSIS.md; "
                        "fix the typo or drop the comment",
                    )
            for rule in RULES:
                for code, node, message, hint in rule(source):
                    self.emit(source, code, getattr(node, "lineno", 1), message, hint)
        if charged_as is None or any(source.charges for source in sources):
            return
        for source in sources:
            for node, what in source.touches:
                self.emit(
                    source, "RP205", getattr(node, "lineno", 1),
                    f"packet-byte touch ({what}) in the {charged_as} path "
                    "never charges the cost model",
                    "charge per-byte work via ctx.cycles.charge(n, label) "
                    "(see Costs.SW_AUTH_PER_BYTE)",
                    subject=charged_as,
                )


def _overrides_create_instance(plugin_cls: type) -> bool:
    for base in plugin_cls.__mro__:
        if base is Plugin or base is object:
            break
        if "create_instance" in base.__dict__:
            return True
    return False


def _instance_classes(plugin_cls: type) -> List[type]:
    """The plugin's instance classes.  Normally just ``instance_class``;
    when the plugin overrides ``create_instance`` (AH/ESP construct
    direction-specific instances there) the declared class alone is
    incomplete, so every PluginInstance subclass defined in the plugin's
    own module is linted too."""
    classes: Dict[str, type] = {}
    declared = getattr(plugin_cls, "instance_class", None)
    if isinstance(declared, type) and issubclass(declared, PluginInstance):
        classes[declared.__qualname__] = declared
    module = sys.modules.get(plugin_cls.__module__)
    if module is not None and _overrides_create_instance(plugin_cls):
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, PluginInstance)
                and obj.__module__ == plugin_cls.__module__
            ):
                classes[obj.__qualname__] = obj
    return [classes[name] for name in sorted(classes)]


def lint_plugins(
    plugins: Iterable[object] = (), modules: Iterable[object] = ()
) -> AnalysisReport:
    """One lint run over one parse cache: every data-path root of each
    plugin (class or instance), and every function and method defined in
    each of ``modules`` held to the same rules (RP205, the plugin cost
    contract, excepted)."""
    run = LintRun()
    for plugin in plugins:
        plugin_cls = plugin if isinstance(plugin, type) else type(plugin)
        for cls in _instance_classes(plugin_cls):
            for name in ROOT_METHODS:
                root = getattr(cls, name, None)
                if callable(root):
                    run.lint(root, cls, charged_as=f"{cls.__name__}.{name}")
    for module in modules:
        for _, obj in sorted(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                run.lint(obj, None)
            elif isinstance(obj, type):
                for _, member in sorted(vars(obj).items()):
                    if inspect.isfunction(member):
                        run.lint(member, obj)
    return AnalysisReport(run.diagnostics)


def lint_plugin(plugin) -> List[Diagnostic]:
    """Lint every data-path root of a plugin (class or instance)."""
    return lint_plugins([plugin]).diagnostics


def swept_modules() -> List[object]:
    """The non-plugin data-path code the self-lint holds to the same
    rules — the shard layer and the batch-loop compiler, where an RP209
    ``hash()`` regression would silently break cross-process flow
    placement."""
    names = ("shard.dispatch", "shard.mp", "shard.sharded", "shard.control", "core.batch")
    return [importlib.import_module(f"repro.{name}") for name in names]


def builtin_plugin_classes() -> List[type]:
    """Every plugin class shipped in the registry, deduplicated, and the
    chaos wrapper, which loads like one (``repro.sim.chaos``)."""
    from ..mgr.library import PLUGIN_REGISTRY
    from ..sim.chaos import ChaosPlugin

    unique: Dict[str, type] = {}
    for cls in (*PLUGIN_REGISTRY.values(), ChaosPlugin):
        unique.setdefault(f"{cls.__module__}.{cls.__qualname__}", cls)
    return [unique[name] for name in sorted(unique)]


def lint_builtin_plugins() -> AnalysisReport:
    """Run the plugin lint over every registry plugin (the self-lint
    gate pinned by tests/analysis/test_self_lint.py)."""
    return lint_plugins(builtin_plugin_classes())
