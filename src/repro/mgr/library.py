"""The Router Plugin Library (§3.1): "a simple application which takes
arguments from the command line and translates them into calls to the
user-space Router Plugin Library ... This library implements the
function calls needed to configure all kernel level components."

`PLUGIN_REGISTRY` is the modload search path: plugin names → plugin
classes.  :class:`RouterPluginLibrary` wraps one router and exposes the
calls the Plugin Manager and the daemons use.
"""

from __future__ import annotations

import math
import shlex
from typing import Dict, List, Optional, Type

from ..core.errors import ConfigurationError, UnknownPluginError
from ..core.faults import FaultPolicy, PluginFaultDomain
from ..core.messages import Message
from ..core.plugin import Plugin, PluginInstance
from ..core.router import Router
from ..core.routing_plugin import L4RoutingPlugin
from ..options import HopByHopPlugin, JumboPlugin, RouterAlertPlugin
from ..sched import (
    CbqPlugin,
    DrrPlugin,
    FifoPlugin,
    HfscPlugin,
    HsfPlugin,
    RedPlugin,
    ScfqPlugin,
)
from ..security import AhPlugin, EspPlugin, FirewallPlugin, HwEspPlugin
from ..stats import StatisticsPlugin, TcpMonitorPlugin
from .format import attach_schema, get_topic, render_topic, topic_names

PLUGIN_REGISTRY: Dict[str, Type[Plugin]] = {
    "cbq": CbqPlugin,
    "drr": DrrPlugin,
    "fifo": FifoPlugin,
    "hfsc": HfscPlugin,
    "hsf": HsfPlugin,
    "red": RedPlugin,
    "scfq": ScfqPlugin,
    "ah": AhPlugin,
    "esp": EspPlugin,
    "hwesp": HwEspPlugin,
    "firewall": FirewallPlugin,
    "hopbyhop": HopByHopPlugin,
    "routeralert": RouterAlertPlugin,
    "jumbo": JumboPlugin,
    "stats": StatisticsPlugin,
    "tcpmon": TcpMonitorPlugin,
    "l4route": L4RoutingPlugin,
}


def _coerce(value: str):
    """Best-effort typing for key=value config arguments."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


class RouterPluginLibrary:
    """User-space configuration calls against one router."""

    def __init__(self, router: Router):
        self.router = router
        self._instances: Dict[str, PluginInstance] = {}
        # (aiu.plan_epoch, _config_revision at analysis time,
        # AnalysisReport); purely control-path state — the data path
        # never reads it.  plan_epoch only moves on filter changes, so
        # configuration calls that do not touch filters (modload,
        # create, scheduler changes — exactly what a sharded fanout
        # replays per shard) bump the revision counter instead; the
        # cache is stale when either component moved.
        self._analysis_cache: Optional[tuple] = None
        self._config_revision = 0

    # ------------------------------------------------------------------
    # modload / modunload
    # ------------------------------------------------------------------
    def modload(self, name: str) -> Plugin:
        """Load a plugin by registry name (NetBSD's modload analogue)."""
        if self.router.pcu.is_loaded(name):
            return self.router.pcu.get(name)
        plugin_class = PLUGIN_REGISTRY.get(name)
        if plugin_class is None:
            raise UnknownPluginError(
                f"no plugin {name!r} in the registry; known: {sorted(PLUGIN_REGISTRY)}"
            )
        plugin = plugin_class()
        self.router.pcu.load(plugin)
        self._config_revision += 1
        return plugin

    def modunload(self, name: str) -> None:
        self.router.pcu.unload(name)
        self._instances = {
            key: inst for key, inst in self._instances.items()
            if inst.plugin.name != name
        }
        self._config_revision += 1

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------
    def create_instance(self, plugin_name: str, instance_name: str, **config) -> PluginInstance:
        plugin = self.router.pcu.get(plugin_name)
        if instance_name in self._instances:
            raise ConfigurationError(f"duplicate instance name {instance_name!r}")
        instance = plugin.create_instance(name=instance_name, **config)
        self._instances[instance_name] = instance
        self._config_revision += 1
        return instance

    def free_instance(self, instance_name: str) -> None:
        instance = self.instance(instance_name)
        instance.plugin.free_instance(instance)
        del self._instances[instance_name]
        self._config_revision += 1

    def instance(self, name: str) -> PluginInstance:
        try:
            return self._instances[name]
        except KeyError as exc:
            raise ConfigurationError(f"no instance named {name!r}") from exc

    def instances(self) -> List[str]:
        return sorted(self._instances)

    # ------------------------------------------------------------------
    # Filters and bindings
    # ------------------------------------------------------------------
    def bind(self, instance_name: str, filter_spec: str, gate: Optional[str] = None, priority: int = 0):
        """Create a filter and bind it to an instance (register_instance)."""
        instance = self.instance(instance_name)
        return instance.plugin.register_instance(
            instance, filter_spec, gate=gate, priority=priority
        )

    def unbind(self, instance_name: str) -> bool:
        instance = self.instance(instance_name)
        return instance.plugin.deregister_instance(instance)

    # ------------------------------------------------------------------
    # Router-level configuration
    # ------------------------------------------------------------------
    def set_scheduler(self, interface: str, instance_name: str) -> None:
        self.router.set_scheduler(interface, self.instance(instance_name))
        self._config_revision += 1

    def add_route(self, prefix: str, interface: str, next_hop: Optional[str] = None) -> None:
        self.router.routing_table.add(prefix, interface, next_hop=next_hop)

    def add_mroute(self, group: str, oifs: List[str], source: Optional[str] = None,
                   expected_iif: Optional[str] = None) -> None:
        self.router.multicast_table.add(
            group, oifs, source=source, expected_iif=expected_iif
        )

    def send_message(self, plugin_name: str, msg_type: str, /, **args):
        """Send a plugin-specific message (§3.1).  ``instance`` /
        ``*_instance`` arguments name this library's instances and are
        resolved here, next to the plugin — inside the worker under mp."""
        resolved = {
            key: (
                self.instance(str(value))
                if key == "instance" or key.endswith("_instance")
                else value
            )
            for key, value in args.items()
        }
        return self.router.pcu.send(plugin_name, Message(msg_type, resolved))

    def run_script(self, text: str) -> None:
        """Run a pmgr configuration script against this library."""
        from .pmgr import PluginManager

        PluginManager(self).run_script(text)

    # ------------------------------------------------------------------
    # Fault domains / quarantine (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def quarantine(self, plugin_name: str, action: Optional[str] = None) -> PluginFaultDomain:
        """Manually quarantine a plugin, indefinitely (until
        ``reinstate``); ``action`` overrides the policy's degradation."""
        return self.router.faults.quarantine(
            plugin_name, until=math.inf, action=action
        )

    def reinstate(self, plugin_name: str) -> PluginFaultDomain:
        """Lift a quarantine and restart the plugin's fault window."""
        return self.router.faults.reinstate(plugin_name)

    def set_fault_policy(self, plugin_name: str, **kwargs) -> PluginFaultDomain:
        """Install a per-plugin FaultPolicy (threshold, window, action,
        cooldown, ring_size); unspecified fields keep their defaults."""
        try:
            policy = FaultPolicy(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad fault policy: {exc}") from exc
        return self.router.faults.set_policy(plugin_name, policy)

    # ------------------------------------------------------------------
    # Telemetry (docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def enable_telemetry(self, registry=None):
        """Attach a metrics registry to the router (created if None)."""
        return self.router.attach_telemetry(registry)

    def disable_telemetry(self) -> None:
        self.router.detach_telemetry()

    # ------------------------------------------------------------------
    # Overload protection (docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def enable_overload(self, **config):
        """Attach an overload governor; ``config`` keywords are the
        :class:`~repro.core.overload.OverloadGovernor` constructor's."""
        try:
            return self.router.attach_overload_governor(**config)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad overload config: {exc}") from exc

    def disable_overload(self) -> None:
        self.router.detach_overload_governor()

    def start_trace(self, sample: int = 1, capacity: int = 256):
        """Attach a packet-lifecycle tracer (1-in-``sample`` flows)."""
        try:
            return self.router.attach_lifecycle_tracer(
                sample=sample, capacity=capacity
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def stop_trace(self) -> None:
        self.router.detach_lifecycle_tracer()

    # ------------------------------------------------------------------
    # Structured introspection: query() is the API, text is a formatter
    # ------------------------------------------------------------------
    def query(self, topic: str, **filters) -> dict:
        """The structured twin of every ``pmgr show`` topic: a JSON-able
        dict carrying a ``"schema": {"topic", "version"}`` envelope.
        The text outputs are ``format.render_topic`` over this same dict
        (round-trip asserted by tests/mgr), so they cannot drift.
        Topics resolve through the :mod:`repro.mgr.format` registry, so
        subsystem registrations (``repro.topo``) answer here too.
        Supported filters: ``gate=`` (filters), ``plugin=`` (faults)."""
        try:
            spec = get_topic(topic)
        except KeyError:
            raise ConfigurationError(
                f"unknown query topic {topic!r}; known: {list(topic_names())}"
            ) from None
        try:
            data = spec.run_query(self, **filters)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad filters for query {topic!r}: {exc}"
            ) from exc
        return attach_schema(spec, data)

    def _query_plugins(self) -> dict:
        plugins = []
        for plugin in sorted(self.router.pcu.plugins(), key=lambda p: p.name):
            plugins.append(
                {
                    "name": plugin.name,
                    "code": f"0x{plugin.code:08x}",
                    "type": plugin.plugin_type,
                    "instances": sorted(
                        str(inst.name) for inst in getattr(plugin, "instances", [])
                    ),
                }
            )
        return {"plugins": plugins}

    def _query_filters(self, gate: Optional[str] = None) -> dict:
        return {
            "filters": [
                {
                    "gate": record.gate,
                    "filter": str(record.filter),
                    "bound": record.instance is not None,
                    "instance": (
                        record.instance.name if record.instance is not None else None
                    ),
                    "priority": record.priority,
                    "active": record.active,
                }
                for record in self.router.aiu.filters(gate)
            ]
        }

    def _query_flows(self) -> dict:
        return self.router.aiu.stats()

    def _query_aiu(self) -> dict:
        return {
            "gates": self.router.aiu.classification_stats(),
            "loops": {
                "compiles": self.router.loop_compiles,
                "reuses": self.router.loop_reuses,
            },
            "flow_cache": self.router.aiu.stats(),
            "analyzed": self._analysis_status(),
        }

    def _query_faults(self, plugin: Optional[str] = None) -> dict:
        plugins = {}
        for name, dom in sorted(self.router.faults.domains().items()):
            if plugin is not None and name != plugin:
                continue
            snap = dom.snapshot()
            snap["records"] = [record.to_dict() for record in dom.records]
            plugins[name] = snap
        return {"plugins": plugins}

    def _query_health(self) -> dict:
        return self.router.health()

    def _query_telemetry(self) -> dict:
        registry = self.router.telemetry
        if registry is None:
            return {"enabled": False}
        return registry.snapshot()

    def _query_overload(self) -> dict:
        governor = self.router._overload
        if governor is None:
            return {"enabled": False}
        return governor.snapshot()

    def _query_trace(self) -> dict:
        tracer = self.router._lifecycle
        if tracer is None:
            return {"enabled": False}
        data = {"enabled": True}
        data.update(tracer.to_dict())
        return data

    def _query_shards(self) -> dict:
        """A single router is the one-shard degenerate case: same shape
        as the sharded fanout's cross-shard breakdown (repro.shard)."""
        router = self.router
        table = router.aiu.flow_table
        counters = router.counters
        gov = router._overload
        row = {
            "shard": 0,
            "rx": counters.get("rx", 0),
            "forwarded": counters.get("forwarded", 0),
            "dropped": sum(
                v for k, v in counters.items()
                if isinstance(k, str) and k.startswith("dropped")
            ),
            "flows_active": table.active,
            "flow_hits": table.hits,
            "flow_misses": table.misses,
            "evictions": table.evictions,
            "filters": router.aiu.filter_count(),
            "quarantined": sorted(
                {d.plugin for d in router._quarantined.values()}
            ),
            "overload_tier": "normal" if gov is None else gov.brief()["tier"],
        }
        return {"nshards": 1, "backend": "local", "shards": [row]}

    # ------------------------------------------------------------------
    # Introspection ("show" commands) — formatters over query()
    # ------------------------------------------------------------------
    def show_plugins(self) -> List[str]:
        return render_topic("plugins", self.query("plugins"))

    def show_filters(self) -> List[str]:
        return render_topic("filters", self.query("filters"))

    def show_flows(self) -> dict:
        return self.query("flows")

    def show_aiu(self) -> List[str]:
        """Per-gate classification counters: installed filters, slow-path
        lookups, how many took the compiled walk, and how many matched."""
        return render_topic("aiu", self.query("aiu"))

    def show_faults(self) -> List[str]:
        return render_topic("faults", self.query("faults"))

    # ------------------------------------------------------------------
    # Static analysis (repro.analysis)
    # ------------------------------------------------------------------
    def analyze(self, include_plugins: bool = True):
        """Run the static analyzers over this router and cache the report
        keyed on (AIU plan epoch, configuration revision), so ``show
        aiu`` can report analysis freshness without re-walking anything
        — and so fanout configuration ops that never touch a filter
        (modload/create through a Fanout) still invalidate
        it."""
        from ..analysis import analyze_router

        report = analyze_router(self.router, include_plugins=include_plugins)
        self._analysis_cache = (
            self.router.aiu.plan_epoch,
            self._config_revision,
            report,
        )
        return report

    def _analysis_status(self) -> str:
        if self._analysis_cache is None:
            return "never"
        epoch, revision, report = self._analysis_cache
        if epoch != self.router.aiu.plan_epoch:
            return f"stale (filters changed since epoch {epoch}; rerun analyze)"
        if revision != self._config_revision:
            return (
                f"stale (configuration changed since revision {revision}; "
                "rerun analyze)"
            )
        counts = report.counts()
        return f"{len(report)} findings ({counts['error']} errors)"


def load_plugin(router: Router, name: str) -> Plugin:
    """Convenience for embedders (docs/API.md): load a registry plugin
    into a router without constructing a library first."""
    return RouterPluginLibrary(router).modload(name)


def parse_config_value(token: str):
    key, _, value = token.partition("=")
    if not _:
        raise ConfigurationError(f"expected key=value, got {token!r}")
    return key, _coerce(value)


def split_command(line: str) -> List[str]:
    """Tokenize a pmgr command line (shell-style quoting)."""
    return shlex.split(line, comments=True)
