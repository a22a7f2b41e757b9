"""Shard-safety / concurrency rules (RP4xx) — plugin state that diverges
or breaks under the sharded data path.

The sharded front end (:mod:`repro.shard`) replicates every plugin into
N shared-nothing workers and keeps them identically *configured* via
control-plane fanout — but nothing keeps them identically *stateful*.
Plugin state that lives anywhere other than the instance itself silently
diverges per shard today and becomes a data race the moment a
shared-memory backend lands.  The rules here are generators over the
parsed-function records of :mod:`repro.analysis.hotpath`, which lists
them in its rule tables and runs them over the same closures as the
RP2xx rules:

* RP401 — module-level mutable globals written from a data-path hook
  (``global`` rebinds, subscript/attribute stores, or mutator calls such
  as ``.append``/``.update`` on a module-level container).  Each shard
  has its own copy of the module, so the "shared" state is N diverging
  copies.
* RP402 — class-attribute state shared across instances mutated on the
  data path (``type(self).x``/``ClassName.x`` writes, or mutation of a
  mutable class attribute never shadowed by an ``__init__`` assignment).
* RP404 — query-topic payloads the one cross-child aggregation,
  :meth:`repro.mgr.fanout.Fanout.query`, cannot merge: the sum-merge
  rule understands numeric/bool/str leaves and nested dicts; anything
  else (lists, arbitrary objects) silently takes shard 0's value and
  drops the rest.  (Not a source rule: it audits live payloads.)
* RP405 — control commands (``handle_custom`` and its closure) whose
  configuration effect is guarded by shard-local traffic state (flow
  table contents, hit counters).  A verb of
  :data:`repro.mgr.fanout.VERBS` must act identically on every child the
  fanout applies it to; deciding from local traffic makes shards diverge.

Findings are suppressible with ``# rp: ignore[RP4xx]`` on the flagged
line, exactly like the RP2xx ones.  Everything here runs on source text
and control-path object inspection — no packet flows through it.
"""

from __future__ import annotations

import ast
import collections.abc
import inspect
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from ..mgr.fanout import VERBS
from .diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - hotpath imports this module
    from .hotpath import Finding, FunctionSource, LintRun

#: Container types whose in-place mutation the lint recognizes (list,
#: dict, set, bytearray, deque and the ``collections`` dicts all register).
_MUTABLE_TYPES = (
    collections.abc.MutableMapping,
    collections.abc.MutableSequence,
    collections.abc.MutableSet,
)

#: Method names that mutate a container in place.
_MUTATORS = {
    "append", "appendleft", "add", "update", "pop", "popleft", "popitem",
    "extend", "extendleft", "insert", "remove", "discard", "clear",
    "setdefault", "sort", "reverse", "rotate",
}

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

_STATE_HINT = (
    "move the state onto the instance (self.*) or expose it as a "
    "telemetry metric so cross-shard merge applies"
)


# ----------------------------------------------------------------------
# RP401 / RP402 — shared state written from the data path
# ----------------------------------------------------------------------
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


def _module_global(source: FunctionSource, name: str):
    """The module-level object ``name`` resolves to from this function,
    or None when it is local, missing, or innocuous (modules, classes,
    and functions are code, not state)."""
    if name in source.bound or name == "self":
        return None
    obj = source.fn.__globals__.get(name)
    if obj is None or inspect.ismodule(obj) or isinstance(obj, type) or callable(obj):
        return None
    return obj


def _class_alias(source: FunctionSource, expr: ast.expr) -> Optional[ast.expr]:
    """The node naming the class attribute when ``expr`` is rooted at
    ``type(self)`` / ``self.__class__`` / a class of the owner's MRO."""
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
        ) or (
            isinstance(node, ast.Attribute)
            and node.attr == "__class__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return parent
    root, _ = _root_name(expr)
    if root is None or source.owner is None:
        return None
    mro = source.owner.__mro__
    if root in {base.__name__ for base in mro[:-1]} and source.fn.__globals__.get(root) in mro:
        return expr
    return None


def _shared_mutable_attrs(cls: type, run: LintRun) -> Set[str]:
    """Mutable class attributes never shadowed by an ``__init__`` self
    assignment anywhere in the MRO — the ones instances actually share."""
    mutable = {
        name
        for base in cls.__mro__
        for name, value in base.__dict__.items()
        if isinstance(value, _MUTABLE_TYPES)
    }
    if not mutable:
        return mutable
    for base in cls.__mro__:
        init = base.__dict__.get("__init__")
        parsed = run.get(init, base) if inspect.isfunction(init) else None
        if parsed is not None:
            mutable -= {parsed.self_attr(target) for _, target in parsed.stores()}
    return mutable


def shared_state_writes(source: FunctionSource) -> Iterator[Finding]:
    """RP401 (module globals) and RP402 (class attributes) written or
    mutated in place by a data-path function."""
    owner = source.owner
    shared = _shared_mutable_attrs(owner, source.run) if owner is not None else set()

    def rp402(node: ast.AST, attr: str, how: str) -> Finding:
        return (
            "RP402", node,
            f"mutates class attribute {owner.__name__ if owner else '?'}.{attr} "
            f"({how}), which every instance — and after fanout, every shard — shares",
            f"initialize per-instance state in __init__ (self.{attr} = ...) "
            "instead of a class-level default",
        )

    for stmt, target in source.stores():
        if isinstance(target, ast.Name):
            if target.id in source.global_decls:
                yield (
                    "RP401", stmt,
                    f"rebinds module global {target.id!r} from a data-path "
                    "hook; each shard rebinds its own copy",
                    "keep per-flow/per-plugin state on the instance (self.*); "
                    "it is created identically in every shard",
                )
            continue
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            continue
        root, chain = _root_name(target)
        alias = _class_alias(source, target)
        if alias is not None:  # type(self).x = ...
            yield rp402(stmt, alias.attr if isinstance(alias, ast.Attribute) else "?", "=")
        elif root == "self":
            # A plain rebind ``self.x = ...`` creates instance state.
            if chain and chain[0] in shared and source.self_attr(target) is None:
                yield rp402(stmt, chain[0], "[...]=")
        elif root is not None:
            obj = _module_global(source, root)
            # A module-level instance with mutable attribute storage is a
            # stats object / registry — attribute stores into it diverge
            # per shard exactly like a dict.
            if obj is not None and (
                isinstance(obj, _MUTABLE_TYPES)
                or hasattr(obj, "__dict__")
                or hasattr(type(obj), "__slots__")
            ):
                yield (
                    "RP401", stmt,
                    f"writes into module-level mutable global {root!r} from "
                    "a data-path hook; shards each mutate their own copy and "
                    "diverge",
                    _STATE_HINT,
                )

    for node in source.nodes:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            continue
        root, chain = _root_name(node.func)
        holders = chain[:-1]
        if root is None:
            continue
        if root == "self":
            if holders and holders[0] in shared:
                yield rp402(node, holders[0], node.func.attr)
        elif _class_alias(source, node.func) is not None:
            if holders:
                yield rp402(node, holders[0], node.func.attr)
        else:
            holder = _module_global(source, root)
            for attr in holders:
                holder = getattr(holder, attr, None)
            if isinstance(holder, _MUTABLE_TYPES):
                yield (
                    "RP401", node,
                    f"{'.'.join([root, *holders])}.{node.func.attr}() mutates a "
                    "module-level container from a data-path hook; shards "
                    "each mutate their own copy and diverge",
                    _STATE_HINT,
                )


# ----------------------------------------------------------------------
# RP405 — control commands guarded by shard-local state
# ----------------------------------------------------------------------
def _config_call_in(body: List[ast.stmt]) -> Optional[str]:
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name in _CONFIG_CALLS:
                    return name
    return None


def local_state_guards(source: FunctionSource) -> Iterator[Finding]:
    """RP405 over a control-path handler (``handle_custom``)."""
    for node in source.nodes:
        if not isinstance(node, ast.If) or not any(
            isinstance(sub, ast.Attribute) and sub.attr in _LOCAL_STATE_ATTRS
            for sub in ast.walk(node.test)
        ):
            continue
        call = _config_call_in(node.body + node.orelse)
        if call is not None:
            yield (
                "RP405", node,
                f"control command calls {call}() only when shard-local "
                "traffic state says so; each shard will decide "
                "differently and the fanout diverges",
                "decide on the control plane from the aggregated "
                "query() view, then fan out unconditionally",
            )


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
