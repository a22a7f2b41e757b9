"""Shard-safety / concurrency rules (RP4xx) — plugin state that diverges
or breaks under the sharded data path.

The sharded front end (:mod:`repro.shard`) replicates every plugin into
N shared-nothing workers and keeps them identically *configured* via
control-plane fanout — but nothing keeps them identically *stateful*.
Plugin state that lives anywhere other than the instance itself silently
diverges per shard today and becomes a data race the moment a
shared-memory backend lands.  The rules here are generators over the
parsed-function records of :mod:`repro.analysis.hotpath`, which lists
them in its rule table and runs them over the same closures as the
RP2xx rules:

* RP401 — module-level mutable globals written from a data-path hook
  (``global`` rebinds, subscript/attribute stores, or mutator calls such
  as ``.append``/``.update`` on a module-level container).  Each shard
  has its own copy of the module, so the "shared" state is N diverging
  copies.
* RP402 — class-attribute state shared across instances mutated on the
  data path (``type(self).x``/``ClassName.x`` writes, or mutation of a
  mutable class attribute never shadowed by an ``__init__`` assignment).

Findings are suppressible with ``# rp: ignore[RP4xx]`` on the flagged
line, exactly like the RP2xx ones.  Everything here runs on source text
and control-path object inspection — no packet flows through it.
"""

from __future__ import annotations

import ast
import collections.abc
import inspect
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

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
