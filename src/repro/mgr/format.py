"""The versioned management-API topic registry and its text formatters.

Every ``pmgr show X`` topic is a :class:`TopicSpec` registered here via
:func:`register_topic`: a structured query function, a text renderer, a
schema version, and a cross-node merge strategy.  ``query()`` results
carry a ``"schema": {"topic": ..., "version": N}`` envelope;  the text
view is a pure function of the JSON view minus that envelope, so the two
can never drift (asserted topic-by-topic by
``tests/mgr/test_query_roundtrip.py``).

Core topics are registered at import time; subsystems add their own the
same way (``repro.topo`` registers ``topology`` and ``paths``), and
``pmgr show <topic> --json``, the one fanout
(:meth:`repro.mgr.fanout.Fanout.query`, behind every sharded and
topology front end), and the ci_check.sh JSON-roundtrip gate pick new
registrations up automatically.

Merge strategies (what :meth:`~repro.mgr.fanout.Fanout.query` applies
to its children's payloads, declared per topic):

* ``"sum"`` — key-wise numeric sum, dicts recursed (flows, aiu).
* ``"bucketwise"`` — counters/gauges summed, histograms merged
  bucket-by-bucket (telemetry).
* ``"worst-wins"`` — worst tier rung wins, window pressure is the
  per-node max, counters summed, transitions time-sorted (overload).
* ``"concat"`` — lists concatenated, numerics summed (paths).
* ``"shard0"`` — configuration views identical across nodes by fanout
  construction; node 0 answers (plugins, filters).
* ``"frontend"`` — the fanout front end answers directly instead of
  merging per-node payloads (health, shards, topology).
* a callable ``merge(per_node: List[dict]) -> dict`` for bespoke
  shapes (trace, faults).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.faults import render_fault
from ..core.overload import TIERS

QueryFn = Union[str, Callable[..., dict]]
Renderer = Callable[[dict], List[str]]
MergeFn = Callable[[List[dict]], dict]


class TopicSpec:
    """One registered management topic: query + render + schema + merge."""

    __slots__ = ("name", "query_fn", "renderer", "schema_version", "merge")

    def __init__(
        self,
        name: str,
        query_fn: QueryFn,
        renderer: Renderer,
        schema_version: int = 1,
        merge: Union[str, MergeFn] = "sum",
    ):
        self.name = name
        self.query_fn = query_fn
        self.renderer = renderer
        self.schema_version = schema_version
        self.merge = merge

    def run_query(self, library, **filters) -> dict:
        """Run the topic's query against a library.  A string query_fn
        names a library method (core topics); a callable receives the
        library as its first argument (registered topics)."""
        fn = self.query_fn
        if isinstance(fn, str):
            return getattr(library, fn)(**filters)
        return fn(library, **filters)

    def envelope(self) -> dict:
        return {"topic": self.name, "version": self.schema_version}

    def __repr__(self) -> str:
        merge = self.merge if isinstance(self.merge, str) else "custom"
        return (
            f"TopicSpec({self.name!r}, v{self.schema_version}, "
            f"merge={merge!r})"
        )


#: name -> TopicSpec, in registration (= help) order.
_REGISTRY: Dict[str, TopicSpec] = {}


def register_topic(
    name: str,
    query_fn: QueryFn,
    renderer: Renderer,
    schema_version: int = 1,
    merge: Union[str, MergeFn] = "sum",
    replace: bool = False,
) -> TopicSpec:
    """Register a management topic; ``pmgr show <name> [--json]`` and
    every fanout library pick it up immediately.

    ``query_fn`` is ``fn(library, **filters) -> dict`` (or the name of a
    library method), ``renderer`` is ``fn(payload) -> List[str]`` over
    the schema-stripped payload, and ``merge`` declares how per-node
    payloads aggregate (a strategy name or a callable — see the module
    docstring).
    """
    if not name or not name.replace("_", "").isalnum():
        raise ConfigurationError(f"bad topic name {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"topic {name!r} is already registered (pass replace=True "
            "to override)"
        )
    if not callable(renderer):
        raise ConfigurationError(f"renderer for {name!r} must be callable")
    if not (callable(query_fn) or isinstance(query_fn, str)):
        raise ConfigurationError(
            f"query_fn for {name!r} must be callable or a method name"
        )
    if not isinstance(schema_version, int) or schema_version < 1:
        raise ConfigurationError(
            f"schema_version for {name!r} must be a positive int"
        )
    if not callable(merge) and merge not in MERGE_STRATEGIES and merge != "frontend":
        raise ConfigurationError(
            f"unknown merge strategy {merge!r} for topic {name!r}; known: "
            f"{sorted(MERGE_STRATEGIES)} + 'frontend' or a callable"
        )
    spec = TopicSpec(name, query_fn, renderer, schema_version, merge)
    _REGISTRY[name] = spec
    return spec


def topic_names() -> Tuple[str, ...]:
    """All registered topics, in registration (= help) order."""
    return tuple(_REGISTRY)


def get_topic(name: str) -> TopicSpec:
    """The spec for a registered topic (KeyError with the known set)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown query topic {name!r}; known: {list(_REGISTRY)}"
        ) from None


def attach_schema(spec: TopicSpec, data: dict) -> dict:
    """Shallow-copy a query payload and stamp the schema envelope."""
    out = dict(data)
    out["schema"] = spec.envelope()
    return out


def strip_schema(data: dict) -> dict:
    if "schema" not in data:
        return data
    return {k: v for k, v in data.items() if k != "schema"}


# ----------------------------------------------------------------------
# Merge strategies (cross-node aggregation, docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
def merge_sum_dict(dicts: List[dict]) -> dict:
    """Key-wise merge: numerics summed, dicts recursed, first otherwise."""
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            if isinstance(value, bool):
                out.setdefault(key, value)
            elif isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
            elif isinstance(value, dict):
                out[key] = merge_sum_dict([out.get(key, {}), value])
            else:
                out.setdefault(key, value)
    return out


def _merge_bucketwise(per_node: List[dict]) -> dict:
    """Telemetry-shaped merge: counters/gauges summed, histograms merged
    bucket-by-bucket; any disabled node disables the aggregate."""
    if not all(d.get("enabled", True) for d in per_node):
        return {"enabled": False}
    merged: dict = {"enabled": True, "counters": {}, "gauges": {},
                    "histograms": {}}
    for d in per_node:
        for name, value in d.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in d.get("gauges", {}).items():
            merged["gauges"][name] = merged["gauges"].get(name, 0) + value
        for name, hist in d.get("histograms", {}).items():
            slot = merged["histograms"].get(name)
            if slot is None:
                merged["histograms"][name] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
            else:
                slot["counts"] = [
                    a + b for a, b in zip(slot["counts"], hist["counts"])
                ]
                slot["count"] += hist["count"]
                slot["sum"] += hist["sum"]
    return merged


def _merge_worst_wins(per_node: List[dict]) -> dict:
    """Overload-shaped merge: worst tier rung wins and window pressure
    is the per-node max — one thrashing node is an incident even when
    its peers are idle.  Counters sum; transitions interleave by time."""
    enabled = [d for d in per_node if d.get("enabled")]
    if not enabled:
        return {"enabled": False}
    return {
        "enabled": True,
        "tier": max((d["tier"] for d in enabled), key=TIERS.index),
        "window": {
            "packets": sum(d["window"]["packets"] for d in enabled),
            "miss_ratio": max(d["window"]["miss_ratio"] for d in enabled),
            "evict_frac": max(d["window"]["evict_frac"] for d in enabled),
            "occupancy": max(
                (d["window"]["occupancy"] for d in enabled
                 if d["window"]["occupancy"] is not None),
                default=None,
            ),
        },
        "counters": merge_sum_dict([d["counters"] for d in enabled]),
        "transitions": sorted(
            (t for d in enabled for t in d["transitions"]),
            key=lambda t: t["time"],
        ),
    }


def _merge_concat(per_node: List[dict]) -> dict:
    """List-carrying merge: lists concatenated in node order, numerics
    summed, dicts recursed, first value otherwise."""
    out: dict = {}
    for d in per_node:
        for key, value in d.items():
            if isinstance(value, list):
                out[key] = list(out.get(key, [])) + list(value)
            elif isinstance(value, bool):
                out.setdefault(key, value)
            elif isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
            elif isinstance(value, dict):
                out[key] = merge_sum_dict([out.get(key, {}), value])
            else:
                out.setdefault(key, value)
    return out


def _merge_shard0(per_node: List[dict]) -> dict:
    """Configuration views are identical across nodes by fanout
    construction; node 0 answers for all."""
    return per_node[0] if per_node else {}


def _merge_trace(per_node: List[dict]) -> dict:
    """Bespoke: sample/capacity are per-node configuration (identical by
    fanout), so first-wins rather than summed; spans concatenate."""
    enabled = [d for d in per_node if d.get("enabled")]
    if not enabled:
        return {"enabled": False}
    first = enabled[0]
    return {
        "enabled": True,
        "sample": first["sample"],
        "capacity": first["capacity"],
        "sampled": sum(d["sampled"] for d in enabled),
        "recorded": sum(d["recorded"] for d in enabled),
        "open": sum(d["open"] for d in enabled),
        "spans": [span for d in enabled for span in d["spans"]],
    }


def _merge_faults(per_node: List[dict]) -> dict:
    """Bespoke: per-plugin fault snapshots merge field-by-field — the
    observed counters sum, the policy fields (configuration, identical on
    every node by fanout) are the first node's, the quarantine deadline
    is the latest — and any node reporting a quarantine surfaces it on
    the aggregate."""
    plugins: dict = {}
    for d in per_node:
        for name, snap in d["plugins"].items():
            slot = plugins.get(name)
            if slot is None:
                plugins[name] = dict(snap)
            else:
                for key, value in snap.items():
                    if key in ("threshold", "window", "cooldown"):
                        pass  # configuration: the first node's answer stands
                    elif key == "quarantined_until":
                        slot[key] = max(slot[key], value)
                    elif isinstance(value, bool):
                        slot[key] = slot.get(key) or value
                    elif isinstance(value, (int, float)):
                        slot[key] = slot.get(key, 0) + value
                    elif key == "records":
                        slot[key] = list(slot.get(key, [])) + list(value)
                    elif key == "state" and slot.get(key) != value:
                        # Any node quarantined -> surface it.
                        if value == "quarantined":
                            slot[key] = value
    return {"plugins": plugins}


#: Named strategies a TopicSpec.merge may reference.  "frontend" is
#: handled by the fanout front end itself (no payload merge).
MERGE_STRATEGIES: Dict[str, MergeFn] = {
    "sum": merge_sum_dict,
    "bucketwise": _merge_bucketwise,
    "worst-wins": _merge_worst_wins,
    "concat": _merge_concat,
    "shard0": _merge_shard0,
}


def merge_topic(topic: Union[str, TopicSpec], per_node: List[dict]) -> dict:
    """Merge per-node query payloads per the topic's declared strategy.
    Schema envelopes are stripped before merging (so version ints are
    never summed); the caller re-attaches via :func:`attach_schema`."""
    spec = topic if isinstance(topic, TopicSpec) else get_topic(topic)
    if spec.merge == "frontend":
        raise ConfigurationError(
            f"topic {spec.name!r} is answered by the fanout front end, "
            "not merged from per-node payloads"
        )
    stripped = [strip_schema(d) for d in per_node]
    strategy = spec.merge if callable(spec.merge) else MERGE_STRATEGIES[spec.merge]
    return strategy(stripped)


# ----------------------------------------------------------------------
# Core topic renderers
# ----------------------------------------------------------------------
def _render_plugins(data: dict) -> List[str]:
    return [entry["name"] for entry in data["plugins"]]


def _render_filters(data: dict) -> List[str]:
    return [
        f"{entry['gate']}: {entry['filter']} -> "
        f"{entry['instance'] if entry['bound'] else 'unbound'}"
        for entry in data["filters"]
    ]


def _render_flows(data: dict) -> List[str]:
    return [str(data)]


def _render_aiu(data: dict) -> List[str]:
    lines = [
        f"{gate}: filters={stats['filters']} "
        f"lookups={stats['lookups']} compiled={stats['compiled']} "
        f"matches={stats['matches']}"
        for gate, stats in data["gates"].items()
    ]
    lines.extend(
        f"{gate}/{width} compile: compiles={table['compiles']} "
        f"nodes={table['nodes_compiled']} last={table['nodes_compiled_last']}"
        for gate, stats in data["gates"].items()
        for width, table in stats["tables"].items()
    )
    lines.append(
        f"loops: compiles={data['loops']['compiles']} "
        f"reuses={data['loops']['reuses']}"
    )
    cache = data["flow_cache"]
    lines.append(
        f"flow cache: hits={cache['hits']} misses={cache['misses']} "
        f"active={cache['active']} filter_lookups={cache['filter_lookups']}"
    )
    lines.append(f"analyzed: {data['analyzed']}")
    return lines


def _render_faults(data: dict) -> List[str]:
    plugins = data["plugins"]
    if not plugins:
        return ["no plugin faults recorded"]
    lines: List[str] = []
    for name, snap in plugins.items():
        lines.append(
            f"{name}: {snap['state']} action={snap['action']} "
            f"faults={snap['faults_total']} "
            f"quarantines={snap['quarantine_count']}"
        )
        for record in snap["records"]:
            lines.append(f"  {render_fault(record)}")
    return lines


def _render_health(data: dict) -> List[str]:
    return [str(data)]


def _render_telemetry(data: dict) -> List[str]:
    if not data.get("enabled"):
        return ["telemetry disabled (pmgr: telemetry on)"]
    lines = [f"{name} {value}" for name, value in sorted(data["counters"].items())]
    lines.extend(
        f"{name} {value}" for name, value in sorted(data["gauges"].items())
    )
    for name, hist in sorted(data["histograms"].items()):
        lines.append(
            f"{name} count={hist['count']} sum={hist['sum']:g} "
            f"buckets={hist['counts']}"
        )
    return lines


def _render_trace(data: dict) -> List[str]:
    if not data.get("enabled"):
        return ["tracing disabled (pmgr: trace on [sample=N] [capacity=N])"]
    lines = [
        f"trace: sample=1/{data['sample']} capacity={data['capacity']} "
        f"sampled={data['sampled']} recorded={data['recorded']} "
        f"open={data['open']}"
    ]
    for span in data["spans"]:
        stages = " ".join(
            f"{stage['stage']}={stage['cycles']}cyc"
            + (f"/{stage['vtime']:g}s" if stage["vtime"] else "")
            + (f"[{stage['instance']}->{stage['verdict']}]"
               if "instance" in stage else "")
            for stage in span["stages"]
        )
        lines.append(
            f"  #{span['packet_id']} {span['flow']} -> {span['disposition']} "
            f"({span['total_cycles']} cycles) {stages}"
        )
    return lines


def _render_overload(data: dict) -> List[str]:
    if not data.get("enabled"):
        return ["overload governor disabled (pmgr: overload on [key=value...])"]
    window = data["window"]
    counters = data["counters"]
    occupancy = window["occupancy"]
    lines = [
        f"tier: {data['tier']}",
        "window: "
        f"packets={window['packets']} "
        f"miss_ratio={window['miss_ratio']:.3f} "
        f"evict_frac={window['evict_frac']:.3f} "
        f"occupancy={'-' if occupancy is None else f'{occupancy:.3f}'}",
        "admission: "
        f"admitted={counters['admitted']} bypassed={counters['bypassed']} "
        f"shed={counters['shed']}",
        "ladder: "
        f"escalations={counters['escalations']} "
        f"deescalations={counters['deescalations']} "
        f"samples={counters['samples']}",
    ]
    for t in data["transitions"]:
        lines.append(
            f"  t={t['time']:g} {t['from']} -> {t['to']} ({t['reason']}, "
            f"miss={t['miss_ratio']} evict={t['evict_frac']})"
        )
    return lines


def _render_shards(data: dict) -> List[str]:
    lines = [f"shards: {data['nshards']} backend={data['backend']}"]
    for row in data["shards"]:
        lines.append(
            f"  shard {row['shard']}: rx={row['rx']} "
            f"forwarded={row['forwarded']} dropped={row['dropped']} "
            f"flows={row['flows_active']} "
            f"hits={row['flow_hits']} misses={row['flow_misses']} "
            f"evictions={row['evictions']} filters={row['filters']} "
            f"tier={row['overload_tier']}"
            + (f" quarantined={','.join(row['quarantined'])}"
               if row["quarantined"] else "")
        )
    return lines


# Core registrations, in the historical help order.  String
# query_fns name RouterPluginLibrary methods; fanout front ends override
# "frontend" topics with their own ``_frontend_<topic>`` handlers.
register_topic("plugins", "_query_plugins", _render_plugins, merge="shard0")
register_topic("filters", "_query_filters", _render_filters, merge="shard0")
register_topic("flows", "_query_flows", _render_flows, merge="sum")
register_topic("aiu", "_query_aiu", _render_aiu, merge="sum")
register_topic("faults", "_query_faults", _render_faults, merge=_merge_faults)
register_topic("health", "_query_health", _render_health, merge="frontend")
register_topic("telemetry", "_query_telemetry", _render_telemetry,
               merge="bucketwise")
register_topic("trace", "_query_trace", _render_trace, schema_version=2,
               merge=_merge_trace)
register_topic("overload", "_query_overload", _render_overload,
               merge="worst-wins")
register_topic("shards", "_query_shards", _render_shards, merge="frontend")


def render_topic(topic: str, data: dict) -> List[str]:
    """Render one query result as the pmgr text lines for its topic.

    The schema envelope is stripped before rendering, so the text view
    stays a pure function of the payload.
    """
    try:
        spec = _REGISTRY[topic]
    except KeyError as exc:
        raise KeyError(
            f"no text formatter for topic {topic!r}; known: {sorted(_REGISTRY)}"
        ) from exc
    return spec.renderer(strip_schema(data))
