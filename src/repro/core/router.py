"""The EISR router: the IP core, its gates, and the data path (§3.2).

The core is deliberately small — exactly the paper's claim that only "a
relatively stable part (called the core) ... mainly responsible for
interacting with the network hardware and for demultiplexing packets to
specific modules" lives outside plugins.  The per-packet sequence is:

1. driver receive,
2. IP input validation (hop limit, local delivery demux),
3. the pre-routing gates (IPv6 options, IP security) — each a "gate
   macro": FIX check, AIU call on the first gate only, indirect call
   into the bound plugin instance,
4. route lookup (stock table, or the L4-switching routing gate when
   configured),
5. the packet-scheduling gate at the output interface, then driver
   transmit.

Every step charges the cycle cost model so Table 3 style experiments can
read modelled cycles per packet.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..aiu import AIU
from ..aiu.records import FlowRecord
from ..bmp import make_engine
from ..net.fragment import FragmentationError, fragment_v4
from ..net.icmp import (
    IcmpRateLimiter,
    destination_unreachable,
    packet_too_big,
    time_exceeded,
)
from ..net.interfaces import NetworkInterface
from ..net.packet import Packet
from ..net.routing import Route, RoutingTable
from ..sim.cost import Costs, CycleMeter, MemoryMeter, NULL_METER
from ..sim.events import EventLoop
from .faults import DEGRADE_BYPASS, FaultManager
from .gates import DEFAULT_GATES, GATE_PACKET_SCHEDULING, GATE_ROUTING
from .pcu import PluginControlUnit
from .plugin import PluginContext, Verdict


#: Optional plugin hook: ``on_batch_start(now, batch_size)`` is called
#: once per un-metered ``receive``/``receive_batch`` call for every
#: instance bound through the current filter set or registered as a
#: scheduler.  The contract is that the hook must not change observable
#: per-packet behavior — it exists so a plugin can hoist its own
#: per-packet invariants (docs/PLUGIN_AUTHORING.md §7).
BATCH_START_HOOK = "on_batch_start"

#: Plans (× telemetry on/off) a router keeps compiled loops for; the
#: least recently selected goes first.
LOOP_CACHE_PLANS = 8


class Disposition:
    """What the router did with a received packet."""

    FORWARDED = "forwarded"
    QUEUED = "queued"            # handed to a scheduler instance
    LOCAL = "local"
    DROPPED_TTL = "dropped_ttl"
    DROPPED_NO_ROUTE = "dropped_no_route"
    DROPPED_BY_PLUGIN = "dropped_by_plugin"
    DROPPED_LOCAL_PROTO = "dropped_local_proto"
    DROPPED_TOO_BIG = "dropped_too_big"
    DROPPED_OVERLOAD = "dropped_overload"  # shed by the overload governor
    CONSUMED = "consumed"        # taken over entirely by a plugin


class Router:
    """An extended integrated services router built on the plugin core."""

    def __init__(
        self,
        name: str = "router",
        gates: Sequence[str] = DEFAULT_GATES,
        bmp_engine: str = "patricia",
        table_kind: str = "dag",
        flow_buckets: int = 32768,
        max_flows: Optional[int] = None,
        loop: Optional[EventLoop] = None,
        use_flow_cache: bool = True,
        send_icmp_errors: bool = True,
    ):
        self.name = name
        self.gates: Tuple[str, ...] = tuple(gates)
        self.aiu = AIU(
            self.gates,
            table_kind=table_kind,
            bmp_engine=bmp_engine,
            flow_buckets=flow_buckets,
            max_records=max_flows,
            use_flow_cache=use_flow_cache,
        )
        self.pcu = PluginControlUnit(aiu=self.aiu, router=self)
        self.routing_table = RoutingTable(
            lpm_factory=lambda width: make_engine(bmp_engine, width)
        )
        from .multicast import MulticastTable

        self.multicast_table = MulticastTable()
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.local_addresses: set = set()
        # Interface name -> the router's own address on that link.
        self.interface_addresses: Dict[str, object] = {}
        self._protocol_handlers: Dict[int, Callable] = {}
        # Per-interface output scheduler instances (None = direct output).
        self._schedulers: Dict[str, object] = {}
        self._tx_busy: Dict[str, bool] = {}
        self.loop = loop
        self.counters: Counter = Counter()
        # Fault containment (docs/ROBUSTNESS.md): per-plugin fault
        # domains plus the live quarantine map the gate macros consult.
        # The map is empty unless a plugin is actually quarantined, so
        # the healthy path pays one truthiness test per plugin call.
        self._quarantined: Dict[object, object] = {}
        self.faults = FaultManager(self)
        self.send_icmp_errors = send_icmp_errors
        self._icmp_limiter = IcmpRateLimiter()
        # --- Telemetry (docs/OBSERVABILITY.md) ----------------------
        # The attached MetricsRegistry, or None.  The hot-path state is
        # mirrored into dedicated attributes so the data path pays one
        # attribute load + None test per seam when telemetry is off:
        # ``_tm_gate_cells`` is the registry's per-gate dispatch cell
        # list (indexed by gate plan index), ``_lifecycle`` the sampled
        # packet-lifecycle tracer (repro.telemetry.tracer) — the one
        # observer of the metered walk.
        self.telemetry = None
        self._tm_gate_cells = None
        self._lifecycle = None
        # --- Overload protection (docs/ROBUSTNESS.md) ---------------
        # The attached OverloadGovernor, or None.  Same hot-path idiom
        # as telemetry: one attribute load + None test per packet when
        # detached; when attached and NORMAL, one countdown decrement.
        self._overload = None
        # --- Un-metered executor (docs/PERFORMANCE.md) --------------
        # Static gate geometry: the pre-routing gates in order, gate ->
        # slot index, and whether the special gates are configured.
        self._gate_indices: Dict[str, int] = {
            g: i for i, g in enumerate(self.gates)
        }
        self._pre_gates: Tuple[str, ...] = tuple(
            g for g in self.gates
            if g not in (GATE_PACKET_SCHEDULING, GATE_ROUTING)
        )
        self._first_pre_gate: Optional[str] = (
            self._pre_gates[0] if self._pre_gates else None
        )
        self._has_routing_gate = GATE_ROUTING in self.gates
        self._has_sched_gate = GATE_PACKET_SCHEDULING in self.gates
        # Rebuilt when the AIU's filter set changes: the active-gate
        # plan — the ordered (gate, index) pairs of pre-routing gates
        # that actually have filters, whether the routing and the
        # scheduling gate do, then whether the output can queue at all
        # (a scheduling gate or a bound scheduler) — and the batch-start
        # hooks of the bound instances.
        self._plan_epoch = -1
        self._plan: Tuple[Tuple[Tuple[str, int], ...], bool, bool, bool] = (
            (), False, False, False)
        self._batch_hooks: tuple = ()
        # Compiled loops (repro.core.batch) by layout, compiled on first
        # use.  They specialize on the plan above and telemetry on/off,
        # so the router keeps one such dict per (plan, telemetry) it has
        # run under and ``_loops`` is the current one (_select_loops): a
        # bind -> unbind -> bind compiles each plan once.
        self._loop_cache: Dict[tuple, Dict[str, Callable]] = {}
        self.loop_compiles = 0
        self.loop_reuses = 0
        self._select_loops()
        # Per-gate contexts pooled by the loops (reused between packets;
        # see PluginContext's contract).  None while a loop holds them.
        self._ctx_pool: Optional[Dict[str, PluginContext]] = None

    # ------------------------------------------------------------------
    # Topology / configuration
    # ------------------------------------------------------------------
    def add_interface(
        self,
        name: str,
        address: Optional[str] = None,
        prefix: Optional[str] = None,
        mtu: int = 9180,
        rate_bps: float = 155_520_000,
    ) -> NetworkInterface:
        """Attach a port.  ``address`` makes the router reachable on it;
        ``prefix`` installs the directly connected route."""
        if name in self.interfaces:
            raise ValueError(f"duplicate interface {name!r}")
        iface = NetworkInterface(name, mtu=mtu, rate_bps=rate_bps)
        self.interfaces[name] = iface
        self._tx_busy[name] = False
        if address is not None:
            from ..net.addresses import IPAddress

            parsed = IPAddress.parse(address)
            self.local_addresses.add(parsed)
            self.interface_addresses[name] = parsed
        if prefix is not None:
            self.routing_table.add(prefix, name)
        if self.loop is not None:
            iface.on_deliver = self._make_rx_handler(name)
        return iface

    def interface(self, name: str) -> NetworkInterface:
        return self.interfaces[name]

    def set_scheduler(self, interface: str, instance) -> None:
        """Bind a packet-scheduler plugin instance to an interface's
        output (§6: "packet scheduling plugin instances are chosen per
        interface")."""
        if interface not in self.interfaces:
            raise ValueError(f"unknown interface {interface!r}")
        self._schedulers[interface] = instance
        self._plan_epoch = -1   # re-derive the plan and the batch-start hooks

    def scheduler(self, interface: str):
        return self._schedulers.get(interface)

    def register_protocol_handler(self, protocol: int, handler: Callable) -> None:
        """Deliver locally-addressed packets of ``protocol`` to a daemon
        (the analogue of a raw socket bound by RSVP/SSP/routed)."""
        self._protocol_handlers[protocol] = handler

    def attach_loop(self, loop: EventLoop) -> None:
        self.loop = loop
        for name, iface in self.interfaces.items():
            iface.on_deliver = self._make_rx_handler(name)

    def _make_rx_handler(self, ifname: str):
        def on_deliver(at_time: float, packet: Packet) -> None:
            # Clamp: a sender working from a stale timestamp must not
            # schedule the arrival before the loop's present.
            self.loop.schedule_at(max(at_time, self.loop.now), self._rx_event, packet)

        return on_deliver

    def _rx_event(self, packet: Packet) -> None:
        self.receive(packet, now=self.loop.now)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float = 0.0, cycles=NULL_METER) -> str:
        """Run one packet through the full data path (§3.2).

        The *metered* walk (`_receive`) is the specification: it charges
        every modelled cycle and memory access and runs whenever a real
        meter or the attached tracer observes this packet (a sampled
        packet walks against a tracer-owned throwaway meter).  Otherwise
        the packet runs through the generated per-packet loop
        (repro.core.batch) as a batch of one — no gate without filters
        is visited and no meter is called, but dispositions, counters
        and flow-table state are identical (asserted by tests/perf/).
        """
        gov = self._overload
        if gov is not None:
            gov.countdown -= 1
            if gov.countdown <= 0:
                gov.sample(now)
            if gov.degraded:
                disposition = self._admit_degraded(gov, packet, now)
                if disposition is not None:
                    return disposition
        if cycles is not NULL_METER:
            return self._receive(packet, now, cycles)
        lifecycle = self._lifecycle
        if lifecycle is not None and lifecycle.wants(packet):
            return lifecycle.walk(self._receive, packet, now)
        self._refresh_plan()
        loop = self._loops.get("packet")
        if loop is None:
            from .batch import compiled_loop

            loop = compiled_loop(self, "packet")
        return loop(self, (packet,), now)[0]

    def receive_batch(
        self, packets: Sequence[Packet], now: float = 0.0, cycles=NULL_METER
    ) -> List[str]:
        """Run a batch of packets run-to-completion; one disposition each.

        Semantically identical to calling :meth:`receive` in sequence
        (property-tested).  Un-metered, the whole batch runs through one
        generated loop (repro.core.batch): the ``lanes`` layout sweeps
        each active gate over the batch with pooled contexts when that
        reordering cannot be observed, the ``packet`` layout — the one
        ``receive`` runs — otherwise; either way the plan check and the
        invariant loads are paid once per batch.
        """
        if cycles is not NULL_METER:
            return [self.receive(p, now=now, cycles=cycles) for p in packets]
        if not packets:
            return []
        lifecycle = self._lifecycle
        if lifecycle is not None:
            sampled = [i for i, p in enumerate(packets) if lifecycle.wants(p)]
            if sampled:
                # In arrival order: each sampled packet through the
                # traced walk, the unsampled runs between them batched.
                out: List[str] = []
                start = 0
                for i in sampled:
                    out += self.receive_batch(packets[start:i], now)
                    out.append(self.receive(packets[i], now))
                    start = i + 1
                return out + self.receive_batch(packets[start:], now)
        gov = self._overload
        if gov is not None:
            gov.countdown -= len(packets)
            if gov.countdown <= 0:
                gov.sample(now)
            if gov.degraded:
                # The admission / cache-bypass seam lives in receive(),
                # which counts each packet against the clock itself.
                gov.countdown += len(packets)
                return [self.receive(p, now=now) for p in packets]
        # Pre-warm the compiled classifier tables so flow misses inside
        # the batch pay dict probes, not compile latency (epoch compare
        # per table when nothing changed).
        self.aiu.ensure_compiled()
        from .batch import loop_for

        return loop_for(self)(self, packets, now)

    def _refresh_plan(self) -> None:
        """Rebuild the active-gate plan and the batch-start hooks if
        filters changed (cheap epoch compare; AIU bumps ``plan_epoch``
        on create/remove/re-bind).  The compiled loops survive an epoch
        that leaves the plan as it was, and one that changes it selects
        that plan's loops."""
        epoch = self.aiu.plan_epoch
        if epoch == self._plan_epoch:
            return
        counts = self.aiu._gate_filter_counts
        plan = (
            tuple((g, self._gate_indices[g]) for g in self._pre_gates if counts[g]),
            self._has_routing_gate and counts[GATE_ROUTING] > 0,
            self._has_sched_gate and counts[GATE_PACKET_SCHEDULING] > 0,
            self._has_sched_gate or bool(self._schedulers),
        )
        if plan != self._plan:
            self._plan = plan
            self._select_loops()
        hooks = []
        for instance in (*self.aiu._instance_filter_counts, *self._schedulers.values()):
            hook = getattr(instance, BATCH_START_HOOK, None)
            if hook is not None and hook not in hooks:
                hooks.append(hook)
        self._batch_hooks = tuple(hooks)
        self._plan_epoch = epoch

    def _select_loops(self) -> None:
        """Point ``_loops`` at the loops compiled for the current plan
        and telemetry state (none yet, the first time)."""
        key = (self._plan, self._tm_gate_cells is not None)
        cache = self._loop_cache
        loops = cache.pop(key, None)
        if loops is None:
            loops = {}
            if len(cache) >= LOOP_CACHE_PLANS:
                del cache[next(iter(cache))]
        elif loops:
            self.loop_reuses += 1
        cache[key] = loops
        self._loops = loops

    def _admit_degraded(self, gov, packet: Packet, now: float) -> Optional[str]:
        """Overload admission control, only ever reached in a degraded
        tier (docs/ROBUSTNESS.md "Overload protection").

        Established flows are untouched: a flow-cache hit pins the FIX
        on the packet and the normal walk proceeds (classification later
        sees ``packet._fix`` set, exactly like any gate after the
        first).  A miss is a new-flow birth and is metered by the
        governor's per-interface token bucket: ADMIT installs a
        FlowRecord as usual, BYPASS classifies the packet correctly but
        recordless (the flood stops consuming table entries), and SHED
        drops it before any gate runs.  Degraded-tier packets run with
        the null meter even when the caller metered — degraded states
        have no golden traces; the healthy path stays bit-identical.
        """
        aiu = self.aiu
        if (
            packet._fix is not None
            or not aiu.use_flow_cache
            or self._first_pre_gate is None
        ):
            return None
        record = aiu.flow_table.lookup(packet, now=now)
        if record is None:
            action = gov.admit_new(packet, now)
            if action == "shed":
                self.counters["rx"] += 1
                self.counters[Disposition.DROPPED_OVERLOAD] += 1
                return Disposition.DROPPED_OVERLOAD
            record = aiu._classify_uncached(
                packet, NULL_METER, now, install=action == "admit"
            )
        packet.fix = record
        return None

    def _intercept(self, instance, now: float):
        """Quarantine decision for one plugin call: ``(action, probe)``.
        ``action`` is the degradation to apply instead of calling the
        instance, or ``None`` to proceed; ``probe`` marks a half-open
        recovery probe (a success reinstates the plugin)."""
        domain = self._quarantined.get(instance)
        if domain is None:
            return None, False
        action = domain.intercept(now)
        if action is None:
            return None, True
        return action, False

    def _receive(self, packet: Packet, now: float, cycles) -> str:
        cycles.charge(Costs.DRIVER_RX, "driver_rx")
        cycles.charge(Costs.IP_INPUT, "ip_input")
        self.counters["rx"] += 1

        # Pre-routing gates (everything except routing & scheduling).
        # These run before the local-delivery demux, as in BSD: inbound
        # IPsec processing applies to packets addressed to the router
        # itself (tunnel endpoints), and firewall plugins see everything.
        for gate in self.gates:
            if gate in (GATE_PACKET_SCHEDULING, GATE_ROUTING):
                continue
            verdict, _instance = self._run_gate(packet, gate, now, cycles)
            if verdict == Verdict.DROP:
                self.counters[Disposition.DROPPED_BY_PLUGIN] += 1
                return Disposition.DROPPED_BY_PLUGIN
            if verdict == Verdict.CONSUMED:
                self.counters[Disposition.CONSUMED] += 1
                return Disposition.CONSUMED

        if packet.dst.is_multicast:
            return self._multicast_forward(packet, now, cycles)
        if packet.dst in self.local_addresses:
            return self._deliver_local(packet, now)
        if packet.ttl <= 1:
            self.counters[Disposition.DROPPED_TTL] += 1
            self._send_icmp(time_exceeded(packet, self._icmp_source(packet)), now)
            return Disposition.DROPPED_TTL

        route = self._route(packet, now, cycles)
        if route is None:
            self.counters[Disposition.DROPPED_NO_ROUTE] += 1
            self._send_icmp(
                destination_unreachable(packet, self._icmp_source(packet)), now
            )
            return Disposition.DROPPED_NO_ROUTE

        packet.ttl -= 1
        cycles.charge(Costs.IP_FORWARD, "ip_forward")
        return self._output(packet, route.interface, now, cycles)

    def _route(self, packet: Packet, now: float, cycles) -> Optional[Route]:
        """Route lookup: the L4-switching gate may have already resolved
        the route during classification ("we get QoS-based routing/Level 4
        switching for free", §8); otherwise consult the routing table."""
        if GATE_ROUTING in self.gates:
            verdict, _ = self._run_gate(packet, GATE_ROUTING, now, cycles)
            if verdict == Verdict.DROP:
                return None
            route = packet.annotations.get("route")
            if route is not None:
                return route
        cycles.charge(Costs.ROUTE_LOOKUP, "route_lookup")
        route = self.routing_table.lookup(packet.dst)
        if self._lifecycle is not None:
            self._lifecycle.on_route(packet, route)
        return route

    def _output(self, packet: Packet, oif: str, now: float, cycles) -> str:
        iface = self.interfaces.get(oif)
        if iface is None:
            self.counters[Disposition.DROPPED_NO_ROUTE] += 1
            return Disposition.DROPPED_NO_ROUTE

        if packet.length > iface.mtu:
            if packet.is_ipv6 or packet.annotations.get("df"):
                # IPv6 (and DF-marked v4) is never fragmented in transit:
                # signal Packet Too Big / Fragmentation Needed instead.
                self.counters[Disposition.DROPPED_TOO_BIG] += 1
                self._send_icmp(
                    packet_too_big(packet, self._icmp_source(packet), iface.mtu), now
                )
                return Disposition.DROPPED_TOO_BIG
            try:
                fragments = fragment_v4(packet, iface.mtu)
            except FragmentationError:
                self.counters[Disposition.DROPPED_TOO_BIG] += 1
                return Disposition.DROPPED_TOO_BIG
            self.counters["fragmented"] += 1
            result = Disposition.FORWARDED
            for fragment in fragments:
                result = self._output(fragment, oif, now, cycles)
            return result

        if GATE_PACKET_SCHEDULING in self.gates or oif in self._schedulers:
            instance = None
            if GATE_PACKET_SCHEDULING in self.gates:
                verdict, instance = self._run_gate(
                    packet, GATE_PACKET_SCHEDULING, now, cycles, oif=oif
                )
                if verdict == Verdict.DROP:
                    self.counters[Disposition.DROPPED_BY_PLUGIN] += 1
                    return Disposition.DROPPED_BY_PLUGIN
                if verdict == Verdict.CONSUMED:
                    # The consuming gate instance becomes this interface's
                    # scheduler if none was explicitly bound.
                    self._schedulers.setdefault(oif, instance)
                    self._kick(oif, now, cycles)
                    self.counters[Disposition.QUEUED] += 1
                    return Disposition.QUEUED
            if instance is None and oif in self._schedulers:
                scheduler = self._schedulers[oif]
                if scheduler is not None:
                    verdict = self._scheduler_process(
                        scheduler, packet, oif, now, cycles
                    )
                    if verdict == Verdict.CONSUMED:
                        self._kick(oif, now, cycles)
                        self.counters[Disposition.QUEUED] += 1
                        return Disposition.QUEUED
                    if verdict == Verdict.DROP:
                        self.counters[Disposition.DROPPED_BY_PLUGIN] += 1
                        return Disposition.DROPPED_BY_PLUGIN

        cycles.charge(Costs.DRIVER_TX, "driver_tx")
        iface.output(packet, now)
        self.counters[Disposition.FORWARDED] += 1
        return Disposition.FORWARDED

    def _run_gate(
        self, packet: Packet, gate: str, now: float, cycles, oif: Optional[str] = None
    ) -> Tuple[str, Optional[object]]:
        """The gate macro (§3.2): FIX fast path, AIU call otherwise."""
        cells = self._tm_gate_cells
        if cells is not None and self.aiu._gate_filter_counts[gate]:
            # Dispatches, not visits: the generated loops never visit a
            # gate without filters, and the cell must not depend on
            # which executor ran (or on the trace sampling rate).
            cells[self.aiu.gate_index(gate)] += 1
        cycles.charge(Costs.GATE_CHECK, "gate_check")
        record: Optional[FlowRecord] = packet.fix
        if record is None:
            cycles.charge(Costs.AIU_CLASSIFY_CALL, "aiu_call")
            meter = MemoryMeter(cycle_meter=cycles, label="classification")
            instance, record = self.aiu.classify(
                packet, gate, meter=meter, cycles=cycles, now=now
            )
            cycles.charge_memory(1, "fix_store")
        else:
            cycles.charge_memory(1, "fix_fetch")
            instance = record.slot(self.aiu.gate_index(gate)).instance
        if instance is None:
            if self._lifecycle is not None:
                self._lifecycle.on_gate(packet, gate, None, Verdict.CONTINUE)
            return Verdict.CONTINUE, None
        probe = False
        if self._quarantined:
            action, probe = self._intercept(instance, now)
            if action is not None:
                # Degraded gate: no plugin call, so no INDIRECT_CALL
                # charge — the quarantined plan mirrors what the
                # generated loops execute.
                bypass = action == DEGRADE_BYPASS
                verdict = Verdict.CONTINUE if bypass else Verdict.DROP
                if self._lifecycle is not None:
                    self._lifecycle.on_gate(
                        packet, gate, instance, verdict,
                        note=f"quarantined:{action}",
                    )
                return verdict, (None if bypass else instance)
        cycles.charge(Costs.INDIRECT_CALL, "plugin_call")
        ctx = PluginContext(
            router=self,
            gate=gate,
            now=now,
            cycles=cycles,
            slot=record.slot(self.aiu.gate_index(gate)),
            flow=record,
            out_interface=oif,
        )
        try:
            verdict = instance.process(packet, ctx)
        except Exception as exc:
            # Fault containment: a misbehaving plugin must not take the
            # router down.  The fault is captured into the plugin's
            # fault domain (which may trip quarantine) and the packet
            # dropped; the kernel analogue is the plugin sandboxing the
            # paper's framework makes possible by confining code behind
            # gates.
            verdict = self.faults.on_fault(instance, gate, exc, packet, now)
            if self._lifecycle is not None:
                self._lifecycle.on_fault(packet, gate, instance, exc, verdict)
            return verdict, instance
        if probe:
            self.faults.probe_succeeded(instance, now)
        if self._lifecycle is not None:
            self._lifecycle.on_gate(packet, gate, instance, verdict)
        return verdict, instance

    def _scheduler_process(
        self, scheduler, packet: Packet, oif: str, now: float, cycles
    ) -> Optional[str]:
        """Run a bound per-interface scheduler's ``process`` under fault
        containment (the metered walk's; the generated loops emit the
        same, ``batch._emit_sched_call``).  Returns the verdict, or
        ``None`` when quarantine bypass says to skip the scheduler and
        output the packet directly."""
        probe = False
        if self._quarantined:
            action, probe = self._intercept(scheduler, now)
            if action is not None:
                if action == DEGRADE_BYPASS:
                    return None
                return Verdict.DROP
        ctx = PluginContext(
            router=self, gate=GATE_PACKET_SCHEDULING, now=now,
            cycles=cycles, out_interface=oif,
        )
        try:
            verdict = scheduler.process(packet, ctx)
        except Exception as exc:
            verdict = self.faults.on_fault(
                scheduler, GATE_PACKET_SCHEDULING, exc, packet, now
            )
            if self._lifecycle is not None:
                self._lifecycle.on_fault(
                    packet, GATE_PACKET_SCHEDULING, scheduler, exc, verdict
                )
            return verdict
        if probe:
            self.faults.probe_succeeded(scheduler, now)
        return verdict

    def _scheduler_dequeue(self, scheduler, at: float) -> Optional[Packet]:
        """Dequeue from a scheduler instance; a faulting dequeue is
        captured into the fault domain and drains nothing (rather than
        unwinding the whole transmit path)."""
        try:
            return scheduler.dequeue(at)
        except Exception as exc:
            self.faults.on_fault(scheduler, GATE_PACKET_SCHEDULING, exc, None, at)
            return None

    # ------------------------------------------------------------------
    # Output scheduling
    # ------------------------------------------------------------------
    def _kick(self, oif: str, now: float, cycles=NULL_METER) -> None:
        """Drain the interface's scheduler — the bound instance, or the
        last consuming gate instance that registered itself — respecting
        link pacing.  Without an event loop this is the metered walk's
        drain; the generated loops emit the same
        (``batch._emit_sched_call``) and only come here to start a
        loop's ``_tx_one`` chain."""
        iface = self.interfaces[oif]
        scheduler = self._schedulers.get(oif)
        if scheduler is None:
            return
        dequeue_cost = getattr(scheduler, "dequeue_cost", 0)
        if self.loop is None:
            while True:
                at = max(now, iface.next_free)
                packet = self._scheduler_dequeue(scheduler, at)
                if packet is None:
                    return
                cycles.charge(dequeue_cost, "sched_dequeue")
                cycles.charge(Costs.DRIVER_TX, "driver_tx")
                iface.output(packet, at)
                self.counters["tx_scheduled"] += 1
                if self._lifecycle is not None:
                    self._lifecycle.on_emit(packet, at)
            # unreachable
        if not self._tx_busy[oif]:
            self._tx_busy[oif] = True
            # Clamped as on receive: a stale ``now`` must not schedule into the past.
            self.loop.schedule_at(max(now, iface.next_free, self.loop.now), self._tx_one, oif)

    def _tx_one(self, oif: str) -> None:
        iface = self.interfaces[oif]
        scheduler = self._schedulers.get(oif)
        now = self.loop.now
        packet = None if scheduler is None else self._scheduler_dequeue(scheduler, now)
        if packet is None:
            self._tx_busy[oif] = False
            return
        done = iface.output(packet, now)
        self.counters["tx_scheduled"] += 1
        if self._lifecycle is not None:
            self._lifecycle.on_emit(packet, now)
        self.loop.schedule_at(done, self._tx_one, oif)

    # ------------------------------------------------------------------
    # Local traffic
    # ------------------------------------------------------------------
    def _deliver_local(self, packet: Packet, now: float) -> str:
        handler = self._protocol_handlers.get(packet.protocol)
        if handler is None:
            self.counters[Disposition.DROPPED_LOCAL_PROTO] += 1
            return Disposition.DROPPED_LOCAL_PROTO
        handler(packet, self, now)
        self.counters[Disposition.LOCAL] += 1
        return Disposition.LOCAL

    def _multicast_forward(self, packet: Packet, now: float, cycles) -> str:
        """Replicate a multicast packet to the group's downstream
        interfaces (minus the arrival interface), with the RPF check."""
        route = self.multicast_table.lookup(packet.src, packet.dst)
        if route is None:
            self.counters[Disposition.DROPPED_NO_ROUTE] += 1
            return Disposition.DROPPED_NO_ROUTE
        if route.expected_iif is not None and packet.iif != route.expected_iif:
            self.counters["multicast_rpf_drops"] += 1
            return Disposition.DROPPED_NO_ROUTE
        if packet.ttl <= 1:
            self.counters[Disposition.DROPPED_TTL] += 1
            return Disposition.DROPPED_TTL
        cycles.charge(Costs.IP_FORWARD, "ip_forward")
        replicated = 0
        result = Disposition.DROPPED_NO_ROUTE
        for oif in route.out_interfaces:
            if oif == packet.iif:
                continue  # never echo back toward the source
            copy = packet.copy()
            copy.iif = packet.iif
            copy.ttl = packet.ttl - 1
            result = self._output(copy, oif, now, cycles)
            replicated += 1
        if replicated:
            self.counters["multicast_replicated"] += replicated
            self.counters["multicast_forwarded"] += 1
            return Disposition.FORWARDED
        self.counters[Disposition.DROPPED_NO_ROUTE] += 1
        return result

    def source_address(self, width: int, iface: Optional[str] = None):
        """A local address of the ``width``-bit family to originate from:
        ``iface``'s own address if it is of that family, else the first
        local address that is; None when the router has none."""
        address = self.interface_addresses.get(iface)
        if address is not None and address.width == width:
            return address
        return next((a for a in self.local_addresses if a.width == width), None)

    def _icmp_source(self, packet: Packet):
        """An ICMP error's source: preferably the arrival interface (what traceroute shows)."""
        return self.source_address(packet.src.width, packet.iif)

    def _send_icmp(self, error: Optional[Packet], now: float) -> None:
        if error is None or not self.send_icmp_errors:
            return
        if self._icmp_limiter is not None and not self._icmp_limiter.allow(now):
            self.counters["icmp_suppressed"] += 1
            return
        self.counters["icmp_sent"] += 1
        self.originate(error, now)

    def originate(self, packet: Packet, now: float = 0.0) -> str:
        """Send a locally generated packet (daemon control traffic)."""
        route = self.routing_table.lookup(packet.dst)
        if route is None:
            self.counters[Disposition.DROPPED_NO_ROUTE] += 1
            return Disposition.DROPPED_NO_ROUTE
        return self._output(packet, route.interface, now, NULL_METER)

    # ------------------------------------------------------------------
    # Pull-mode processing (no event loop)
    # ------------------------------------------------------------------
    def poll_and_process(self, now: Optional[float] = None, cycles=NULL_METER) -> List[str]:
        """Drain every interface inbox through the data path."""
        results = []
        for iface in self.interfaces.values():
            for packet in iface.poll(now):
                results.append(
                    self.receive(packet, now=packet.arrival_time, cycles=cycles)
                )
        return results

    # ------------------------------------------------------------------
    # Telemetry (docs/OBSERVABILITY.md) — control path only
    # ------------------------------------------------------------------
    def attach_telemetry(self, registry=None):
        """Attach a :class:`~repro.telemetry.MetricsRegistry` (created if
        ``None``) and mirror its hot-path cells onto the router.  Passing
        the NullRegistry (``enabled == False``) detaches instead, so the
        off state is literally compiled out of the data path."""
        if registry is None:
            from ..telemetry.registry import MetricsRegistry

            registry = MetricsRegistry()
        if not registry.enabled:
            self.detach_telemetry()
            return registry
        registry.bind_router(self)
        self.telemetry = registry
        self._tm_gate_cells = registry.gate_dispatch_cells
        self._select_loops()
        hist = registry.histogram(
            "aiu.miss_packet_size_bytes",
            help="packet sizes observed on the classification miss path",
        )
        self.aiu._tm_size_hist = hist
        self.aiu._tm_size_counts = hist.enable_direct()
        return registry

    def detach_telemetry(self) -> None:
        """Disable telemetry: every instrumented seam returns to the
        single ``is None`` test."""
        self.telemetry = None
        self._tm_gate_cells = None
        self._select_loops()
        self.aiu._tm_size_hist = None
        self.aiu._tm_size_counts = None

    def attach_lifecycle_tracer(self, tracer=None, sample: int = 1, capacity: int = 256):
        """Attach a packet-lifecycle tracer (1-in-``sample`` flows,
        ring-buffered to ``capacity`` spans)."""
        if tracer is None:
            from ..telemetry.tracer import LifecycleTracer

            tracer = LifecycleTracer(sample=sample, capacity=capacity)
        self._lifecycle = tracer
        return tracer

    def detach_lifecycle_tracer(self) -> None:
        self._lifecycle = None

    # ------------------------------------------------------------------
    # Overload protection (docs/ROBUSTNESS.md) — control path only
    # ------------------------------------------------------------------
    def attach_overload_governor(self, governor=None, **config):
        """Attach an :class:`~repro.core.overload.OverloadGovernor`
        (created from ``config`` if ``None``).  At NORMAL tier the data
        path is bit-identical with the governor attached or detached —
        zero modelled cycles, identical dispositions and flow state
        (golden-pinned); degraded tiers are where behavior may change
        (admission control, cache-bypass classification, shedding)."""
        if governor is None:
            from .overload import OverloadGovernor

            governor = OverloadGovernor(**config)
        governor.bind_router(self)
        self._overload = governor
        return governor

    def detach_overload_governor(self) -> None:
        """Remove the governor: the seam returns to one ``None`` test."""
        self._overload = None

    # ------------------------------------------------------------------
    # Health / fault introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Operational snapshot: counters, live quarantines, every
        plugin fault domain (state, policy, totals, last fault), plus
        data-path pressure — flow-table occupancy, eviction counters,
        and the overload governor's tier."""
        table = self.aiu.flow_table
        gov = self._overload
        return {
            "router": self.name,
            "counters": dict(self.counters),
            "quarantined": sorted({d.plugin for d in self._quarantined.values()}),
            "plugins": self.faults.health(),
            "flow_table": {
                "active": table.active,
                "allocated": table.allocated,
                "max_records": table.max_records,
                "occupancy": (
                    table.active / table.max_records
                    if table.max_records
                    else None
                ),
                "births": table.births,
                "evictions": table.evictions,
                "recycled": table.recycled,
                "hits": table.hits,
                "misses": table.misses,
            },
            "overload": (
                {"enabled": False, "tier": "normal"}
                if gov is None
                else gov.brief()
            ),
        }

    def measure_packet(self, packet: Packet, now: float = 0.0) -> CycleMeter:
        """Run one packet with a fresh cycle meter; returns the meter."""
        meter = CycleMeter()
        self.receive(packet, now=now, cycles=meter)
        return meter

    def __repr__(self) -> str:
        return (
            f"Router({self.name!r}, gates={list(self.gates)}, "
            f"interfaces={sorted(self.interfaces)})"
        )
