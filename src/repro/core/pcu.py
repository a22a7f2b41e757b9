"""The Plugin Control Unit (§4).

"The PCU itself is a very simple component ... managing a table for each
plugin type to store the plugin's names and callback functions.  Once
loaded into the kernel, plugins register their callback function through
a function call to the PCU.  All control path communication to the
plugins goes through the PCU."

``load``/``unload`` stand in for NetBSD's ``modload``/``modunload``; the
user-space "plugin socket" is simply :meth:`send`, which the Router
Plugin Library (:mod:`repro.mgr`) calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .errors import PluginError, UnknownPluginError
from .messages import Message
from .plugin import Plugin, plugin_code, plugin_type_of


class PluginControlUnit:
    """Per-type plugin tables, code assignment, and message dispatch."""

    def __init__(self, aiu=None, router=None):
        self.aiu = aiu
        self.router = router
        # type -> id -> plugin; plus a flat name index.
        self._by_type: Dict[int, Dict[int, Plugin]] = {}
        self._by_name: Dict[str, Plugin] = {}
        self._next_id: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Loading / unloading (modload / modunload)
    # ------------------------------------------------------------------
    def load(self, plugin: Plugin, strict: bool = False) -> int:
        """Register a plugin's callback; returns its 32-bit plugin code.

        With ``strict=True`` the plugin's data-path methods are run
        through the plugin lint (:mod:`repro.analysis.hotpath`) first,
        and any error-severity finding refuses the load *before* the
        PCU tables are touched.  The errors are the failures no fault
        domain records: a stall (RP201), nondeterminism (RP202), a
        swallowed fault (RP203), an uncharged modelled cost (RP205) and
        state that diverges across shards (RP209, RP401, RP402).
        """
        if plugin.name in self._by_name:
            raise PluginError(f"plugin {plugin.name!r} is already loaded")
        if plugin.plugin_type <= 0:
            raise PluginError(f"plugin {plugin.name!r} has no plugin_type")
        if strict:
            from ..analysis.hotpath import lint_plugin

            findings = [d for d in lint_plugin(plugin) if d.severity == "error"]
            if findings:
                detail = "; ".join(
                    f"{d.code} at {d.location()}" for d in findings[:4]
                )
                raise PluginError(
                    f"plugin {plugin.name!r} failed strict hot-path/"
                    f"shard-safety lint ({len(findings)} errors: {detail})"
                )
        next_id = self._next_id.get(plugin.plugin_type, 1)
        code = plugin_code(plugin.plugin_type, next_id)
        self._next_id[plugin.plugin_type] = next_id + 1
        self._by_type.setdefault(plugin.plugin_type, {})[next_id] = plugin
        self._by_name[plugin.name] = plugin
        plugin.attach(self, code)
        return code

    def unload(self, plugin_or_name) -> None:
        """Unload a plugin, freeing its instances and AIU bindings.

        ``detach`` purges the AIU of every instance of the plugin,
        including ones it never registered in ``plugin.instances``, in
        one pass over the flow table.
        """
        plugin = self._resolve(plugin_or_name)
        code = plugin_code_of(plugin)
        plugin.detach()
        if self.router is not None:
            for iface, scheduler in list(self.router._schedulers.items()):
                if getattr(scheduler, "plugin", None) is plugin:
                    del self.router._schedulers[iface]
            self.router.faults.forget_plugin(plugin)
        del self._by_name[plugin.name]
        type_table = self._by_type.get(plugin_type_of(code), {})
        for plugin_id, registered in list(type_table.items()):
            if registered is plugin:
                del type_table[plugin_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _resolve(self, target) -> Plugin:
        if isinstance(target, Plugin):
            if target.name not in self._by_name:
                raise UnknownPluginError(f"plugin {target.name!r} is not loaded")
            return target
        if isinstance(target, int):
            plugin = self._by_type.get(target >> 16, {}).get(target & 0xFFFF)
            if plugin is None:
                raise UnknownPluginError(f"no plugin with code 0x{target:08x}")
            return plugin
        plugin = self._by_name.get(target)
        if plugin is None:
            raise UnknownPluginError(f"no plugin named {target!r}")
        return plugin

    def get(self, target) -> Plugin:
        """Resolve a plugin by name, code, or identity."""
        return self._resolve(target)

    def plugins(self, plugin_type: Optional[int] = None) -> List[Plugin]:
        if plugin_type is None:
            return list(self._by_name.values())
        return list(self._by_type.get(plugin_type, {}).values())

    def is_loaded(self, name: str) -> bool:
        return name in self._by_name

    # ------------------------------------------------------------------
    # Message dispatch (the "plugin socket")
    # ------------------------------------------------------------------
    def send(self, target, message: Message):
        """Forward a control message to a plugin's registered callback.

        This is the single control-path entry point used by the Plugin
        Manager and the daemons (§4: "The PCU is responsible for
        dispatching these messages to the target plugin, and for handling
        exceptions").
        """
        plugin = self._resolve(target)
        return plugin.callback(message)

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return f"PluginControlUnit({sorted(self._by_name)})"


def plugin_code_of(plugin: Plugin) -> int:
    if plugin.code is None:
        raise UnknownPluginError(f"plugin {plugin.name!r} has no code (not loaded)")
    return plugin.code
