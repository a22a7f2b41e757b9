"""Shard-safety / concurrency lint (RP4xx) — plugin state that diverges
or breaks under the sharded data path.

The sharded front end (:mod:`repro.shard`) replicates every plugin into
N shared-nothing workers and keeps them identically *configured* via
control-plane fanout — but nothing keeps them identically *stateful*.
Plugin state that lives anywhere other than the instance itself silently
diverges per shard today and becomes a data race the moment a
shared-memory backend lands.  This pass walks plugin classes, their
data-path closure (same traversal as :mod:`repro.analysis.hotpath`),
and — when live instances are available — the instances' actual state,
and flags:

* RP401 — module-level mutable globals written from a data-path hook
  (``global`` rebinds, subscript/attribute stores, or mutator calls such
  as ``.append``/``.update`` on a module-level container).  Each shard
  has its own copy of the module, so the "shared" state is N diverging
  copies.
* RP402 — class-attribute state shared across instances mutated on the
  data path (``type(self).x``/``ClassName.x`` writes, or mutation of a
  mutable class attribute never shadowed by an ``__init__`` assignment).
* RP403 — fork/codec-hostile instance state: open files, sockets,
  locks, threads, generators.  These break :class:`ShardWorkerPool`'s
  post-fork plugin factory (the object cannot be re-created identically
  in the child) and can never transit the descriptor codec.
* RP404 — query-topic payloads the one cross-child aggregation,
  :meth:`repro.mgr.fanout.Fanout.query`, cannot merge: the sum-merge
  rule understands numeric/bool/str leaves and nested dicts; anything
  else (lists, arbitrary objects) silently takes shard 0's value and
  drops the rest.
* RP405 — control commands (``handle_custom`` and its closure) whose
  configuration effect is guarded by shard-local traffic state (flow
  table contents, hit counters).  A verb of
  :data:`repro.mgr.fanout.VERBS` must act identically on every child the
  fanout applies it to; deciding from local traffic makes shards diverge.

Findings are suppressible with ``# rp: ignore[RP4xx]`` on the flagged
line, exactly like the RP2xx lint.  Everything here runs on source text
and control-path object inspection — no packet flows through it.
"""

from __future__ import annotations

import ast
import collections
import collections.abc
import inspect
import io
import socket
import textwrap
import threading
import types
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..mgr.fanout import VERBS
from .diagnostics import AnalysisReport, Diagnostic, is_suppressed
from .hotpath import BATCH_HOOKS, ROOT_METHODS, _closure_lints

#: Container types whose in-place mutation the lint recognizes.
_MUTABLE_TYPES = (
    list,
    dict,
    set,
    bytearray,
    collections.deque,
    collections.Counter,
    collections.defaultdict,
    collections.OrderedDict,
)

#: Method names that mutate a container in place.
_MUTATORS = {
    "append", "appendleft", "add", "update", "pop", "popleft", "popitem",
    "extend", "extendleft", "insert", "remove", "discard", "clear",
    "setdefault", "sort", "reverse", "rotate",
}

#: Module roots whose factories produce fork/codec-hostile objects.
_HOSTILE_MODULES = {"threading", "socket", "multiprocessing", "tempfile"}

#: Attribute names that read as shard-local traffic state (RP405).
_LOCAL_STATE_ATTRS = {
    "flow_table", "flow_cache", "flows", "active", "hits", "misses",
    "evictions", "births", "packets_processed", "counters", "occupancy",
}

#: Calls that change configuration (RP405): the fanout's verb table plus
#: the AIU/plugin-level calls underneath it.  If any shard skips one of
#: these based on local state, the shards diverge.
_CONFIG_CALLS = set(VERBS) | {
    "create_filter", "remove_filter", "register_instance",
    "deregister_instance",
}


_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))
_GENERATOR_TYPES = (
    types.GeneratorType,
    types.CoroutineType,
    types.AsyncGeneratorType,
)


# ----------------------------------------------------------------------
# Per-function checks
# ----------------------------------------------------------------------
class _ConcurrencyCheck:
    """RP401/402/403/405 checks over one parsed function.

    Wraps a :class:`~repro.analysis.hotpath._FunctionLint` (which did the
    ``inspect``/``ast`` parsing and the closure discovery) and runs its
    own walk; the hot-path lint's RP2xx findings are discarded here —
    the two passes report independently.
    """

    def __init__(self, lint, shared_attrs: Optional[Set[str]] = None):
        self.lint = lint
        self.fn = lint.fn
        self.owner = lint.owner
        self.node = lint.node
        self.shared_attrs = shared_attrs or set()
        self.diagnostics: List[Diagnostic] = []
        self.locals = self._local_bindings()
        self.global_decls: Set[str] = set()
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Global):
                self.global_decls.update(sub.names)
        self.locals -= self.global_decls

    def _local_bindings(self) -> Set[str]:
        args = self.node.args
        names = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                names.add(sub.name)
        return names

    def emit(self, code: str, node: ast.AST, message: str, hint: str) -> None:
        if is_suppressed(code, self.lint.source_line(node)):
            return
        self.diagnostics.append(
            Diagnostic(
                code,
                message,
                subject=self.lint._subject(),
                file=self.lint.file,
                line=self.lint.absolute_line(node),
                hint=hint,
            )
        )

    # ------------------------------------------------------------------
    def run_datapath(self) -> None:
        """RP401 + RP402 + RP403 (factory form) over a data-path hook."""
        for node in ast.walk(self.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._check_store(node)
                self.check_class_alias_store(node)
                self._check_self_factory_assign(node, in_init=False)
            elif isinstance(node, ast.Call):
                self._check_mutator_call(node)

    def run_init(self) -> None:
        """RP403 (factory form) over ``__init__``: hostile state created
        at construction time breaks the post-fork factory just as badly
        as state created per packet."""
        for node in ast.walk(self.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_self_factory_assign(node, in_init=True)

    def _check_self_factory_assign(self, node: ast.AST, in_init: bool) -> None:
        """RP403 fires only on hostile objects *stored on the instance*
        — a scoped ``with open(...)`` temporary is RP201's business."""
        targets: List[ast.expr] = []
        value = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        if value is None or not isinstance(value, ast.Call):
            return
        stores_on_self = any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in targets
        )
        if stores_on_self:
            self._check_hostile_factory(value, in_init=in_init)

    def run_control(self) -> None:
        """RP405 over a control-path handler (``handle_custom``)."""
        for node in ast.walk(self.node):
            if isinstance(node, ast.If) and self._reads_local_state(node.test):
                call = self._config_call_in(node.body + node.orelse)
                if call is not None:
                    self.emit(
                        "RP405",
                        node,
                        f"control command calls {call}() only when shard-local "
                        "traffic state says so; each shard will decide "
                        "differently and the fanout diverges",
                        "decide on the control plane from the aggregated "
                        "query() view, then fan out unconditionally",
                    )

    # ------------------------------------------------------------------
    # RP401
    # ------------------------------------------------------------------
    @staticmethod
    def _root_name(expr: ast.expr) -> Tuple[Optional[str], List[str]]:
        """(root Name id, attribute chain) of a dotted/subscripted target."""
        chain: List[str] = []
        node = expr
        while True:
            if isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Name):
                chain.reverse()
                return node.id, chain
            else:
                return None, []

    def _module_global(self, name: str):
        """The module-level object ``name`` resolves to from this
        function, or None when it is local, missing, or innocuous
        (modules, classes, and functions are code, not state)."""
        if name in self.locals or name == "self":
            return None
        obj = self.fn.__globals__.get(name)
        if obj is None:
            return None
        if inspect.ismodule(obj) or isinstance(obj, type) or callable(obj):
            return None
        return obj

    @staticmethod
    def _is_mutable_state(obj) -> bool:
        if isinstance(obj, _MUTABLE_TYPES):
            return True
        if isinstance(
            obj,
            (
                collections.abc.MutableMapping,
                collections.abc.MutableSequence,
                collections.abc.MutableSet,
            ),
        ):
            return True
        # A module-level instance with mutable attribute storage is a
        # stats object / registry — attribute stores into it diverge
        # per shard exactly like a dict.
        return hasattr(obj, "__dict__") or hasattr(type(obj), "__slots__")

    def _check_store(self, node: ast.AST) -> None:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    self.emit(
                        "RP401",
                        node,
                        f"rebinds module global {target.id!r} from a "
                        "data-path hook; each shard rebinds its own copy",
                        "keep per-flow/per-plugin state on the instance "
                        "(self.*); it is created identically in every shard",
                    )
                continue
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            root, chain = self._root_name(target)
            if root is None:
                continue
            if root == "self":
                self._check_self_store(node, target, chain)
                continue
            if self._is_class_alias(target):
                continue  # handled as RP402 by _check_self_store path
            obj = self._module_global(root)
            if obj is not None and self._is_mutable_state(obj):
                self.emit(
                    "RP401",
                    node,
                    f"writes into module-level mutable global {root!r} from "
                    "a data-path hook; shards each mutate their own copy "
                    "and diverge",
                    "move the state onto the instance (self.*) or expose it "
                    "as a telemetry metric so cross-shard merge applies",
                )

    def _check_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _MUTATORS:
            return
        root, chain = self._root_name(func)
        if root is None or not chain:
            return
        holder_chain = chain[:-1]
        if root == "self":
            if (
                len(holder_chain) >= 1
                and holder_chain[0] in self.shared_attrs
            ):
                self._emit_shared_attr(node, holder_chain[0], func.attr)
            return
        if self._class_alias_root(func) is not None:
            cls_attr = holder_chain[0] if holder_chain else None
            if cls_attr is not None:
                self._emit_shared_attr(node, cls_attr, func.attr)
            return
        obj = self._module_global(root)
        if obj is None:
            return
        holder = obj
        for attr in holder_chain:
            holder = getattr(holder, attr, None)
            if holder is None:
                return
        if isinstance(holder, _MUTABLE_TYPES) or isinstance(
            holder,
            (
                collections.abc.MutableMapping,
                collections.abc.MutableSequence,
                collections.abc.MutableSet,
            ),
        ):
            dotted = ".".join([root, *holder_chain])
            self.emit(
                "RP401",
                node,
                f"{dotted}.{func.attr}() mutates a module-level container "
                "from a data-path hook; shards each mutate their own copy "
                "and diverge",
                "move the state onto the instance (self.*) or expose it as "
                "a telemetry metric so cross-shard merge applies",
            )

    # ------------------------------------------------------------------
    # RP402
    # ------------------------------------------------------------------
    @staticmethod
    def _class_alias_node(expr: ast.expr) -> Optional[ast.expr]:
        """The ``type(self)`` / ``self.__class__`` root of ``expr``."""
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            parent = node
            node = node.value
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "type"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
            ):
                return parent
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__class__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return parent
        return None

    def _class_alias_root(self, expr: ast.expr) -> Optional[ast.expr]:
        alias = self._class_alias_node(expr)
        if alias is not None:
            return alias
        root, _ = self._root_name(expr)
        if root is None or self.owner is None:
            return None
        mro_names = {base.__name__ for base in self.owner.__mro__[:-1]}
        if root in mro_names and self.fn.__globals__.get(root) in set(
            self.owner.__mro__
        ):
            return expr
        return None

    def _is_class_alias(self, expr: ast.expr) -> bool:
        return self._class_alias_root(expr) is not None

    def _check_self_store(
        self, node: ast.AST, target: ast.expr, chain: List[str]
    ) -> None:
        if chain and chain[0] in self.shared_attrs:
            if isinstance(target, ast.Attribute) and len(chain) == 1:
                return  # plain rebind self.x = ... creates instance state
            self._emit_shared_attr(node, chain[0], "[...]=")

    def _emit_shared_attr(self, node: ast.AST, attr: str, how: str) -> None:
        owner_name = self.owner.__name__ if self.owner else "?"
        self.emit(
            "RP402",
            node,
            f"mutates class attribute {owner_name}.{attr} ({how}), which "
            "every instance — and after fanout, every shard — shares",
            f"initialize per-instance state in __init__ "
            f"(self.{attr} = ...) instead of a class-level default",
        )

    def check_class_alias_store(self, node: ast.AST) -> None:
        """Direct class-attribute writes: ``type(self).x = ...``."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            alias = self._class_alias_root(target)
            if alias is None:
                continue
            attr = alias.attr if isinstance(alias, ast.Attribute) else "?"
            self._emit_shared_attr(node, attr, "=")

    # ------------------------------------------------------------------
    # RP403 (AST factory form)
    # ------------------------------------------------------------------
    def _check_hostile_factory(self, node: ast.Call, in_init: bool) -> None:
        func = node.func
        what = None
        if isinstance(func, ast.Name):
            if func.id == "open" and self._module_global("open") is None and (
                "open" not in self.locals
            ):
                what = "open() file handle"
        elif isinstance(func, ast.Attribute):
            root = func.value
            chain = [func.attr]
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name):
                top = root.id
                resolved = self.fn.__globals__.get(top)
                if inspect.ismodule(resolved):
                    top = resolved.__name__.split(".")[0]
                if top in _HOSTILE_MODULES and top not in self.locals:
                    what = f"{top}.{'.'.join(reversed(chain))}() object"
        if what is None:
            return
        where = "__init__" if in_init else "a data-path hook"
        self.emit(
            "RP403",
            node,
            f"creates a fork/codec-hostile {what} in {where}; it cannot "
            "be rebuilt by ShardWorkerPool's post-fork factory and never "
            "transits the descriptor codec",
            "keep I/O and synchronization on the control path; instances "
            "must hold only plain, reconstructible state (a seeded "
            "self._rng is fine)",
        )

    # ------------------------------------------------------------------
    # RP405 helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _reads_local_state(test: ast.expr) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr in _LOCAL_STATE_ATTRS:
                return True
        return False

    @staticmethod
    def _config_call_in(body: List[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = None
                    if isinstance(func, ast.Name):
                        name = func.id
                    elif isinstance(func, ast.Attribute):
                        name = func.attr
                    if name in _CONFIG_CALLS:
                        return name
        return None


# ----------------------------------------------------------------------
# Class-level helpers
# ----------------------------------------------------------------------
def _shared_mutable_attrs(cls: type) -> Set[str]:
    """Mutable class attributes never shadowed by an ``__init__`` self
    assignment anywhere in the MRO — the ones instances actually share."""
    mutable: Set[str] = set()
    for base in cls.__mro__:
        for name, value in base.__dict__.items():
            if isinstance(value, _MUTABLE_TYPES):
                mutable.add(name)
    if not mutable:
        return mutable
    shadowed: Set[str] = set()
    for base in cls.__mro__:
        init = base.__dict__.get("__init__")
        if init is None or not inspect.isfunction(init):
            continue
        try:
            source = textwrap.dedent(inspect.getsource(init))
        except (OSError, TypeError):
            continue
        tree = ast.parse(source)
        for sub in ast.walk(tree):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    sub.targets
                    if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        shadowed.add(target.attr)
    return mutable - shadowed


def _dedup_extend(
    out: List[Diagnostic],
    seen: Set[Tuple[str, Optional[str], Optional[int]]],
    found: Iterable[Diagnostic],
) -> None:
    for diagnostic in found:
        key = (diagnostic.code, diagnostic.file, diagnostic.line)
        if key not in seen:
            seen.add(key)
            out.append(diagnostic)


# ----------------------------------------------------------------------
# Live-instance object-graph scan (RP403)
# ----------------------------------------------------------------------
def _hostile_kind(value) -> Optional[str]:
    if isinstance(value, io.IOBase):
        return "open file handle"
    if isinstance(value, socket.socket):
        return "socket"
    if isinstance(value, _LOCK_TYPES):
        return "lock"
    if isinstance(value, threading.Thread):
        return "thread"
    if isinstance(
        value, (threading.Event, threading.Condition, threading.Semaphore)
    ):
        return "thread-synchronization primitive"
    if isinstance(value, _GENERATOR_TYPES):
        return "generator/coroutine"
    return None


def _instance_state(instance) -> Dict[str, object]:
    state: Dict[str, object] = dict(getattr(instance, "__dict__", {}) or {})
    for base in type(instance).__mro__:
        slots = base.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot not in state and hasattr(instance, slot):
                state[slot] = getattr(instance, slot)
    return state


def lint_instance_state(instance, subject: Optional[str] = None) -> List[Diagnostic]:
    """RP403 over a live instance's actual attribute values."""
    diagnostics: List[Diagnostic] = []
    cls = type(instance)
    subject = subject or f"{cls.__name__} ({getattr(instance, 'name', '?')})"
    file = None
    line = None
    try:
        file = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        pass
    for name, value in sorted(_instance_state(instance).items()):
        kind = _hostile_kind(value)
        if kind is None:
            continue
        diagnostics.append(
            Diagnostic(
                "RP403",
                f"instance attribute {name!r} holds a live {kind}; it "
                "cannot be rebuilt by the post-fork plugin factory and "
                "never transits the descriptor codec",
                subject=subject,
                file=file,
                line=line,
                hint="hold only plain, reconstructible state on instances "
                "(a seeded self._rng is fine); do I/O on the control path",
            )
        )
    return diagnostics


# ----------------------------------------------------------------------
# Plugin entry points
# ----------------------------------------------------------------------
def lint_plugin_concurrency(plugin) -> List[Diagnostic]:
    """RP401/402/403/405 over one plugin (class or live object)."""
    plugin_cls = plugin if isinstance(plugin, type) else type(plugin)
    from .hotpath import _instance_classes, _lintable

    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    instance_classes = _instance_classes(plugin_cls)
    for instance_cls in instance_classes:
        shared = _shared_mutable_attrs(instance_cls)
        for method_name in (*ROOT_METHODS, *BATCH_HOOKS):
            root = getattr(instance_cls, method_name, None)
            if root is None or not callable(root):
                continue
            for lint in _closure_lints(root, instance_cls):
                check = _ConcurrencyCheck(lint, shared_attrs=shared)
                check.run_datapath()
                _dedup_extend(diagnostics, seen, check.diagnostics)
        init = instance_cls.__dict__.get("__init__")
        if init is not None and inspect.isfunction(init) and _lintable(init):
            for lint in _closure_lints(init, instance_cls):
                check = _ConcurrencyCheck(lint, shared_attrs=shared)
                check.run_init()
                _dedup_extend(diagnostics, seen, check.diagnostics)
    for cls in (plugin_cls, *instance_classes):
        handler = cls.__dict__.get("handle_custom")
        if handler is None or not inspect.isfunction(handler):
            continue
        if not _lintable(handler):
            continue
        for lint in _closure_lints(handler, cls):
            check = _ConcurrencyCheck(lint)
            check.run_control()
            _dedup_extend(diagnostics, seen, check.diagnostics)
    if not isinstance(plugin, type):
        for instance in getattr(plugin, "instances", ()):
            _dedup_extend(diagnostics, seen, lint_instance_state(instance))
    return diagnostics


def lint_plugins_concurrency(plugins: Iterable[object]) -> AnalysisReport:
    report = AnalysisReport()
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for plugin in plugins:
        _dedup_extend(report.diagnostics, seen, lint_plugin_concurrency(plugin))
    return report


def lint_builtin_concurrency() -> AnalysisReport:
    from .hotpath import builtin_plugin_classes

    return lint_plugins_concurrency(builtin_plugin_classes())


# ----------------------------------------------------------------------
# Module sweep (the self-lint over repro.shard / repro.core.batch)
# ----------------------------------------------------------------------
def lint_module_concurrency(module) -> List[Diagnostic]:
    """RP401/402 over every function and method defined in ``module``.

    Used by the self-lint to hold the shard/batch layers themselves to
    the same standard as plugins: the dispatch loop, worker pool, and
    generated-loop compiler must not stash state in module globals."""
    from .hotpath import _FunctionLint, _lintable

    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()

    def _sweep(fn, owner: Optional[type]) -> None:
        if not _lintable(fn):
            return
        lint = _FunctionLint(fn, owner)
        shared = _shared_mutable_attrs(owner) if owner is not None else set()
        check = _ConcurrencyCheck(lint, shared_attrs=shared)
        check.run_datapath()
        _dedup_extend(diagnostics, seen, check.diagnostics)

    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            _sweep(obj, None)
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr_name in sorted(vars(obj)):
                member = vars(obj)[attr_name]
                if inspect.isfunction(member):
                    _sweep(member, obj)
    return diagnostics


def lint_shard_concurrency() -> AnalysisReport:
    """The self-lint sweep: RP4xx over ``repro.shard`` and the batch
    compiler themselves."""
    import importlib

    report = AnalysisReport()
    seen: Set[Tuple[str, Optional[str], Optional[int]]] = set()
    for module_name in (
        "repro.shard.dispatch",
        "repro.shard.mp",
        "repro.shard.sharded",
        "repro.shard.control",
        "repro.core.batch",
    ):
        module = importlib.import_module(module_name)
        _dedup_extend(
            report.diagnostics, seen, lint_module_concurrency(module)
        )
    return report


# ----------------------------------------------------------------------
# Query mergeability (RP404)
# ----------------------------------------------------------------------
def _audit_payload(
    topic: str, value, path: str, diagnostics: List[Diagnostic]
) -> None:
    if isinstance(value, dict):
        for key, child in value.items():
            child_path = f"{path}.{key}" if path else str(key)
            _audit_payload(topic, child, child_path, diagnostics)
        return
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    diagnostics.append(
        Diagnostic(
            "RP404",
            f"query topic {topic!r} carries a {type(value).__name__} at "
            f"{path or '<root>'}; the cross-shard sum-merge only understands "
            "numeric/bool/str leaves and nested dicts, so shards 1..N-1 "
            "would be silently dropped",
            subject=f"query({topic!r})",
            hint="flatten the payload to mergeable leaves or register "
            "the topic with a non-sum merge strategy",
        )
    )


def audit_query_mergeability(query, topics=None) -> List[Diagnostic]:
    """RP404: validate each sum-merged query topic's payload shape
    against the aggregation rules the topic registry declares.
    ``query`` is a ``query(topic, **filters) -> dict`` callable (a
    library's).  Only topics registered with the ``"sum"`` merge
    strategy are audited — every other strategy (bucketwise,
    worst-wins, shard0, frontend, or a bespoke callable) owns its own
    payload shape."""
    from ..mgr.format import get_topic, strip_schema, topic_names

    diagnostics: List[Diagnostic] = []
    for topic in topics if topics is not None else topic_names():
        try:
            spec = get_topic(topic)
        except KeyError:
            continue
        if spec.merge != "sum":
            continue
        payload = strip_schema(query(topic))
        _audit_payload(topic, payload, "", diagnostics)
    return diagnostics
