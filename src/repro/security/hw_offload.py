"""Hardware-offload crypto plugins — the paper's §3 hardware hook:

"Easy integration with custom hardware for high performance processing
of specialized tasks.  This is enabled by plugins which are software
drivers for hardware that implements the desired functionality.  For
example, a plugin could control hardware engines for tasks such as
packet classification or encryption."

:class:`HwEspOutboundInstance` produces byte-identical output to the
software ESP plugin (the "hardware" is simulated by the same cipher),
but its *driver* cost profile is a hardware engine's: a fixed descriptor
setup + DMA kick per packet instead of per-byte cipher work, plus a
modelled completion latency when an event loop is present.  The software
instances now charge per-byte costs, so the crossover (hardware wins for
large packets) is measurable — see the ablation benchmark.
"""

from __future__ import annotations

from ..core.plugin import Plugin, PluginContext, TYPE_IP_SECURITY, Verdict
from ..sim.cost import Costs
from .esp import EspInboundInstance, EspOutboundInstance
from .sa import SecurityError


class HwEspOutboundInstance(EspOutboundInstance):
    """ESP encryption driven through a simulated crypto engine."""

    def __init__(self, plugin, latency: float = 10e-6, **config):
        super().__init__(plugin, **config)
        #: Engine completion latency (DMA + pipeline), annotated on the
        #: packet for event-loop models to apply.
        self.latency = latency
        self.offloaded = 0

    def _charge_crypto(self, ctx: PluginContext, nbytes: int) -> None:
        # Driver cost: fixed descriptor setup + DMA kick, not per byte.
        ctx.cycles.charge(Costs.HW_CRYPTO_SETUP, "hw_crypto")
        self.offloaded += 1

    def process(self, packet, ctx: PluginContext) -> str:
        verdict = EspOutboundInstance.process(self, packet, ctx)
        if verdict == Verdict.CONTINUE:
            packet.annotations["hw_crypto_latency"] = self.latency
        return verdict


class HwEspInboundInstance(EspInboundInstance):
    """ESP decryption through the engine (fixed driver cost)."""

    def __init__(self, plugin, latency: float = 10e-6, **config):
        super().__init__(plugin, **config)
        self.latency = latency
        self.offloaded = 0

    def _charge_crypto(self, ctx: PluginContext, nbytes: int) -> None:
        ctx.cycles.charge(Costs.HW_CRYPTO_SETUP, "hw_crypto")
        self.offloaded += 1


class HwEspPlugin(Plugin):
    """Loadable hardware-ESP driver module."""

    plugin_type = TYPE_IP_SECURITY
    name = "hwesp"

    def create_instance(self, direction: str = "out", **config):
        if direction == "out":
            instance = HwEspOutboundInstance(self, **config)
        elif direction == "in":
            instance = HwEspInboundInstance(self, **config)
        else:
            raise SecurityError(f"unknown direction {direction!r}")
        self.instances.append(instance)
        return instance
