"""Deterministic fault injection for the plugin data path.

PANTHER-style idea (see PAPERS.md): the plugin architecture itself is
the best place to host its own adversary.  :class:`ChaosPlugin` wraps
any real plugin; each of its instances wraps a real instance and, from a
seeded RNG, injects

* **exceptions** (``fault_rate``) — raises :class:`InjectedFault` before
  the inner ``process`` runs, exercising the router's fault domains;
* **verdict corruption** (``corrupt_rate``) — flips the inner verdict
  between ``CONTINUE`` and ``DROP`` (a plugin that lies rather than
  crashes; ``CONSUMED`` is never forged);
* **latency spikes** (``delay_rate`` / ``delay_cycles``) — charges extra
  modelled cycles to the packet's meter (a plugin that is slow, not
  wrong; invisible on the unmetered fast path by design).

Determinism: one ``random.Random(seed)`` per instance, drawn in a fixed
order per ``process`` call.  Two routers configured identically and fed
identical traffic make identical injections — the chaos soak test
replays the same storm through the metered and fast paths and asserts
packet-for-packet agreement.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from ..core.plugin import Plugin, PluginContext, PluginInstance, Verdict

#: Config keys consumed by the chaos wrapper; everything else is passed
#: through to the inner plugin's ``create_instance``.
CHAOS_KEYS = ("fault_rate", "corrupt_rate", "delay_rate", "delay_cycles", "seed")


class InjectedFault(RuntimeError):
    """The exception the chaos harness raises inside ``process``."""


class ChaosInstance(PluginInstance):
    """Wraps a real plugin instance and misbehaves on a seeded schedule."""

    def __init__(
        self,
        plugin: "ChaosPlugin",
        inner: Optional[PluginInstance] = None,
        fault_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_cycles: int = 5000,
        seed: int = 0,
        **config,
    ):
        super().__init__(plugin, **config)
        self.inner = inner
        self.fault_rate = fault_rate
        self.corrupt_rate = corrupt_rate
        self.delay_rate = delay_rate
        self.delay_cycles = delay_cycles
        self.seed = seed
        self.rng = random.Random(seed)
        self.injected_faults = 0
        self.injected_corruptions = 0
        self.injected_delays = 0

    # -- data path -----------------------------------------------------
    def process(self, packet, ctx: PluginContext) -> str:
        self.packets_processed += 1
        if self.fault_rate and self.rng.random() < self.fault_rate:
            self.injected_faults += 1
            raise InjectedFault(
                f"{self.name} injected fault #{self.injected_faults}"
            )
        if self.inner is not None:
            verdict = self.inner.process(packet, ctx)
        else:
            verdict = Verdict.CONTINUE
        if self.corrupt_rate and self.rng.random() < self.corrupt_rate:
            if verdict == Verdict.CONTINUE:
                self.injected_corruptions += 1
                verdict = Verdict.DROP
            elif verdict == Verdict.DROP:
                self.injected_corruptions += 1
                verdict = Verdict.CONTINUE
        if self.delay_rate and self.rng.random() < self.delay_rate:
            self.injected_delays += 1
            ctx.cycles.charge(self.delay_cycles, "chaos_delay")
        return verdict

    # -- AIU callbacks / lifecycle: delegate to the wrapped instance ----
    def on_flow_created(self, flow, slot) -> None:
        if self.inner is not None:
            self.inner.on_flow_created(flow, slot)

    def on_flow_removed(self, flow, slot) -> None:
        if self.inner is not None:
            self.inner.on_flow_removed(flow, slot)

    def free(self) -> None:
        inner = self.inner
        if inner is not None:
            inner.free()
            if inner in inner.plugin.instances:
                inner.plugin.instances.remove(inner)

    def injections(self) -> Dict[str, int]:
        """Ground truth for reconciliation against fault records."""
        return {
            "faults": self.injected_faults,
            "corruptions": self.injected_corruptions,
            "delays": self.injected_delays,
        }

    def __repr__(self) -> str:
        return (
            f"ChaosInstance({self.name!r}, wraps={self.inner!r}, "
            f"fault_rate={self.fault_rate})"
        )


def split_chaos_config(config: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a create_instance config into (chaos kwargs, inner kwargs)."""
    chaos = {k: v for k, v in config.items() if k in CHAOS_KEYS}
    inner = {k: v for k, v in config.items() if k not in CHAOS_KEYS}
    return chaos, inner


class ChaosPlugin(Plugin):
    """A loadable wrapper around any real plugin.

    Takes the inner plugin's type (so it binds at the same gates) and
    forwards non-chaos config to the inner ``create_instance``.  With no
    inner plugin it wraps a pure pass-through, i.e. the paper's "empty
    plugin" made hostile.
    """

    name = "chaos"
    instance_class = ChaosInstance

    def __init__(self, inner: Optional[Plugin] = None, name: Optional[str] = None):
        super().__init__()
        self.inner = inner
        if inner is not None:
            self.plugin_type = inner.plugin_type
            self.name = name or f"chaos-{inner.name}"
        else:
            from ..core.plugin import TYPE_IP_SECURITY

            self.plugin_type = TYPE_IP_SECURITY
            self.name = name or "chaos"

    def create_instance(self, **config) -> ChaosInstance:
        chaos_config, inner_config = split_chaos_config(config)
        name = inner_config.pop("name", None)
        inner_instance = None
        if self.inner is not None:
            inner_instance = self.inner.create_instance(**inner_config)
        instance = ChaosInstance(
            self, inner=inner_instance, name=name, **chaos_config
        )
        self.instances.append(instance)
        return instance
