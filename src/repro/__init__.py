"""Router Plugins (SIGCOMM 1998) — a Python reproduction.

This module is the **stable public surface** (docs/API.md).  Everything
listed in ``__all__`` follows the compatibility promise there; each
subpackage additionally has its full internal API (see ``README.md`` for
the architecture overview and ``DESIGN.md`` for the system inventory):

>>> from repro import Router, Pmgr
>>> router = Router()
"""

from .aiu import AIU, Filter, FlowTable, PortSpec
from .core import (
    DEFAULT_GATES,
    Disposition,
    OverloadGovernor,
    Plugin,
    PluginContext,
    PluginControlUnit,
    PluginInstance,
    Router,
    Verdict,
)
from .mgr import (
    PLUGIN_REGISTRY,
    PluginManager,
    RouterPluginLibrary,
    load_plugin,
    register_topic,
    run_script,
)
from .net import IPAddress, NetworkInterface, Packet, Prefix, make_tcp, make_udp
from .shard import ShardedPluginLibrary, ShardedRouter
from .sim import Costs, CycleMeter, EventLoop, MemoryMeter
from .telemetry import (
    JsonLinesExporter,
    LifecycleTracer,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    prometheus_text,
)

# Imported last: repro.topo composes routers from every layer above and
# registers its management topics on import.
from .topo import Link, PathTrace, PathTracer, Topology, TopologyPluginLibrary

#: The paper's `pmgr` by its spoken name; identical to PluginManager.
Pmgr = PluginManager

__version__ = "1.0.0"

__all__ = [
    "AIU",
    "Filter",
    "FlowTable",
    "PortSpec",
    "DEFAULT_GATES",
    "Disposition",
    "OverloadGovernor",
    "Plugin",
    "PluginContext",
    "PluginControlUnit",
    "PluginInstance",
    "Router",
    "Verdict",
    "PLUGIN_REGISTRY",
    "PluginManager",
    "Pmgr",
    "RouterPluginLibrary",
    "load_plugin",
    "register_topic",
    "run_script",
    "IPAddress",
    "NetworkInterface",
    "Packet",
    "Prefix",
    "make_tcp",
    "make_udp",
    "ShardedPluginLibrary",
    "ShardedRouter",
    "Costs",
    "CycleMeter",
    "EventLoop",
    "MemoryMeter",
    "JsonLinesExporter",
    "LifecycleTracer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "prometheus_text",
    "Link",
    "PathTrace",
    "PathTracer",
    "Topology",
    "TopologyPluginLibrary",
    "__version__",
]
