"""The one control-plane fanout: which calls are configuration verbs,
and how a verb reaches a set of routers.

:data:`VERBS` names every configuration call of
:class:`~repro.mgr.library.RouterPluginLibrary`.  :class:`Fanout` is a
library over child libraries: each verb method is generated from the
table and applies the typed call ``(verb, args, kwargs)`` to every child
(children may be fanouts themselves — a topology of sharded routers is
nested fanout), and ``query()`` merges the children's answers per the
strategy each topic declares in :mod:`repro.mgr.format`.  The mp worker
loop (:mod:`repro.shard.mp`) reads the same table, so a new verb is one
``RouterPluginLibrary`` method plus one row here.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import ConfigurationError
from .format import attach_schema, get_topic, merge_topic, topic_names

#: Every configuration call a library front end broadcasts.
VERBS: Tuple[str, ...] = (
    "modload", "modunload", "create_instance", "free_instance",
    "bind", "unbind", "set_scheduler", "add_route", "add_mroute",
    "send_message", "quarantine", "reinstate", "set_fault_policy",
    "enable_telemetry", "disable_telemetry",
    "enable_overload", "disable_overload",
    "start_trace", "stop_trace", "run_script",
)

#: Everything a fanout may apply to a child: the verbs plus the one read.
CALLS: Tuple[str, ...] = VERBS + ("query",)

_SCALARS = (str, bytes, int, float, bool, type(None))


def _plain(value: Any) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return all(map(_plain, value.values()))
    return isinstance(value, _SCALARS)


class Fanout:
    """A library whose every call is applied to each child library."""

    def __init__(self, front: Any, libraries: Any):
        self.router = front  # the router-shaped front end pmgr reports on
        self.libraries = libraries

    def _targets(self, node: Optional[str]) -> List[Any]:
        """The children a call addresses; only topologies name nodes."""
        if node is not None:
            raise ConfigurationError(
                f"{type(self).__name__} has no node= addressing "
                "(topology front ends only)"
            )
        return self.libraries

    def _each(self, verb: str, args: tuple, kwargs: dict,
              node: Optional[str] = None) -> List[Any]:
        """One typed call per targeted child; the per-child results."""
        return [
            getattr(lib, verb)(*args, **kwargs) for lib in self._targets(node)
        ]

    def query(self, topic: str, **filters: Any) -> dict:
        """The aggregate of every registered show topic.  ``"frontend"``
        topics are answered by this front end's ``_frontend_<topic>``
        (or, lacking one, the topic's query function run against this
        library); every other topic is the children's payloads merged by
        the topic's declared strategy (docs/OBSERVABILITY.md)."""
        try:
            spec = get_topic(topic)
        except KeyError:
            raise ConfigurationError(
                f"unknown query topic {topic!r}; known: {list(topic_names())}"
            ) from None
        if spec.merge == "frontend":
            handler = getattr(self, f"_frontend_{topic}", None)
            if handler is not None:
                data = handler(**filters)
            else:
                data = spec.run_query(self, **filters)
        else:
            data = merge_topic(spec, self._each("query", (topic,), filters))
        return attach_schema(spec, data)

    def _frontend_health(self) -> dict:
        return self.router.health()


def _verb_method(verb: str) -> Callable[..., Any]:
    def method(self: Fanout, *args: Any, **kwargs: Any) -> Any:
        node = kwargs.pop("node", None)
        if not _plain(args) or not _plain(kwargs):
            raise ConfigurationError(
                f"{verb}: a fanout ships plain values to every child, not "
                "live handles (each child builds its own registry/instance; "
                "read the merged query())"
            )
        results = self._each(verb, args, kwargs, node)
        return results[0] if results else None

    method.__name__ = verb
    method.__doc__ = f"Broadcast ``{verb}`` to every (targeted) child."
    return method


for _verb in VERBS:
    setattr(Fanout, _verb, _verb_method(_verb))
