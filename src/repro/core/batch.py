"""The un-metered packet executor: per-plan generated loops.

PR 3 compiled the *classifier* per filter-set; this module does the same
for the dispatch loop.  One emitter produces every un-metered walk the
router runs — ``Router.receive`` is the per-packet layout called with a
1-tuple, ``Router.receive_batch`` whichever layout the configuration
allows — specialized with ``exec`` to what the router was built with
(gate geometry, bounded table and eviction policy, inlined flow-table
probe or a call to ``AIU.classify``) and to its current plan (which
gates have filters, telemetry on/off).

Two layouts are generated:

``packet``  — one run-to-completion pass per packet in arrival order:
              classify, each active pre-routing gate, then the
              route/emit tail, with quarantine interception (one
              ``if qmap:`` per plugin call) and fault mapping inlined.
              Preserves the metered walk's order exactly, so it is the
              only layout used when order is observable: a bounded flow
              table (evictions interleave with lookups), a live
              quarantine, or no active pre-routing gate to sweep.
``lanes``   — a classify pass over the whole batch, then each active
              pre-routing gate's plugin swept over the surviving lane
              with a pooled context, then the same per-packet tail.
              Selected for unbounded tables with no live quarantine; it
              pays rent (docs/PERFORMANCE.md has the numbers).

Both are *behaviorally identical* to the metered walk (``Router._receive``,
the specification) — dispositions, counters, flow-table and telemetry
state are packet-for-packet equal (tests/perf/test_batch_pipeline.py)
— and modelled cycles are untouched because these loops only ever run
unmetered.

A plugin fault in the packet layout is classified inline.  A fault
during a lanes sweep cannot be: the metered walk would have finished
every earlier packet *before* the fault and shown any quarantine it
trips to every later plugin call.  The sweep therefore returns through
``_resume``, which re-enters the packet layout at a plan position.

Documented divergences (docs/PERFORMANCE.md; each pinned by a test of
the same name in tests/perf/test_batch_pipeline.py): the lanes layout
reorders cross-gate call interleaving, and a filter-set change made *by
a plugin mid-batch* takes effect at the next batch boundary.
"""

from __future__ import annotations

import textwrap
from typing import Callable

from ..aiu.filters import FlowKey
from ..aiu.records import GateSlot
from ..net.icmp import destination_unreachable, time_exceeded
from ..net.interfaces import NetworkInterface
from ..net.packet import PARSE_STATS
from ..sim.cost import NULL_METER
from .faults import DEGRADE_BYPASS
from .gates import GATE_PACKET_SCHEDULING, GATE_ROUTING
from .plugin import PluginContext, Verdict
from .router import Disposition

PACKET = "packet"
LANES = "lanes"


def loop_for(router) -> Callable:
    """The compiled loop ``receive_batch`` runs under the router's
    current plan: ``lanes`` when sweeping gates over the batch cannot be
    observed (active pre-routing gates, unbounded table, no live
    quarantine), else ``packet``."""
    router._refresh_plan()
    lanes = (
        router._plan[0]
        and not router._quarantined
        and router.aiu.flow_table.max_records is None
    )
    return compiled_loop(router, LANES if lanes else PACKET)


def compiled_loop(router, layout: str) -> Callable:
    """The router's loop for ``layout``, compiled on first use.  The
    router switches ``_loops`` when what they specialize on changes
    (``Router._select_loops``: the plan, telemetry attach/detach)."""
    loop = router._loops.get(layout)
    if loop is None:
        loop = router._loops[layout] = _compile(router, layout)
        router.loop_compiles += 1
    return loop


def _resume(router, exc, instance, gate, pos, lane_p, lane_i, live, j, now, out):
    """A plugin raised at plan position ``pos`` of a lanes sweep, on
    lane entry ``j``.  Restore the metered walk's order through the
    packet layout: the packets before the faulter finish first (they
    already passed this gate, so from ``pos + 1``), then the fault is
    charged to its domain and the faulter takes the verdict, then the
    packets after it run from ``pos`` on — intercepted, so they see any
    quarantine the fault tripped."""
    loop = compiled_loop(router, PACKET)

    def run(entries, start):
        results = loop(router, [lane_p[k] for k in entries], now, start)
        for k, disposition in zip(entries, results):
            out[lane_i[k]] = disposition

    run([k for k in range(j) if live is None or live[k]], pos + 1)
    verdict = router.faults.on_fault(instance, gate, exc, lane_p[j], now)
    if verdict == Verdict.DROP or verdict == Verdict.CONSUMED:
        disposition = (
            Disposition.DROPPED_BY_PLUGIN if verdict == Verdict.DROP
            else Disposition.CONSUMED
        )
        router.counters[disposition] += 1
        out[lane_i[j]] = disposition
    else:
        run([j], pos + 1)
    run(range(j + 1, len(lane_p)), pos)
    return out


def _compile(router, layout: str) -> Callable:
    aiu = router.aiu
    table = aiu.flow_table
    first = router._first_pre_gate
    pre, routing_active, sched_active, has_sched = router._plan
    plan = {
        "layout": layout,
        "pre": pre,
        "tm": router._tm_gate_cells is not None,
        # Inline the flow-table probe and miss walk, or call AIU.classify
        # (cache off, IPv6 flow-label hashing, no pre-routing gate).
        "probe": (
            aiu.use_flow_cache and not table.use_flow_label
            and first is not None
        ),
        "bounded": table.max_records is not None,
        "first_gate": first,
        "first_gi": router._gate_indices.get(first),
        "gate_count": len(router.gates),
        "has_routing": router._has_routing_gate,
        "routing_active": routing_active,
        "routing_gi": router._gate_indices.get(GATE_ROUTING),
        "has_sched": has_sched,     # a scheduling gate or a bound scheduler
        "sched_active": sched_active,
        "sched_gi": router._gate_indices.get(GATE_PACKET_SCHEDULING),
    }
    source = _emit(plan)
    namespace = {
        "PluginContext": PluginContext,
        "GateSlot": GateSlot,
        "NULL": NULL_METER,
        "FlowKey": FlowKey,
        "FK_NEW": FlowKey.__new__,
        "PSTATS": PARSE_STATS,
        "TEXC": time_exceeded,
        "DUNR": destination_unreachable,
        "BYPASS": DEGRADE_BYPASS,
        "DROPV": Verdict.DROP,
        "CONSV": Verdict.CONSUMED,
        "FWDD": Disposition.FORWARDED,
        "DBP": Disposition.DROPPED_BY_PLUGIN,
        "DNR": Disposition.DROPPED_NO_ROUTE,
        "DTTL": Disposition.DROPPED_TTL,
        "QUED": Disposition.QUEUED,
        "CONSD": Disposition.CONSUMED,
        "RGATE": GATE_ROUTING,
        "SGATE": GATE_PACKET_SCHEDULING,
        "PLAIN": NetworkInterface,
        "MAXR": table.max_records,
        "_resume": _resume,
    }
    exec(compile(source, "<repro.core.batch>", "exec"), namespace)
    fn = namespace["_batch_loop"]
    fn._source = source          # introspection for tests/debugging
    fn._plan = plan
    return fn


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------
def _emit(plan) -> str:
    lines = []

    def blk(depth, text):
        for raw in textwrap.dedent(text).strip("\n").splitlines():
            lines.append("    " * depth + raw if raw.strip() else "")

    _emit_prologue(blk, plan)
    if plan["layout"] == LANES:
        _emit_lanes(blk, plan)
    else:
        _emit_packet(blk, plan)
    blk(1, """
        finally:
            router._ctx_pool = pool
            if fwd:
                # Guarded: a Counter materializes the key even on += 0,
                # which would diverge from a run that never forwarded.
                counters[FWDD] += fwd
            table.hits += hits
    """)
    if plan["has_sched"]:
        blk(2, """
            if txs:
                counters["tx_scheduled"] += txs
        """)
    blk(1, "return out")
    return "\n".join(lines) + "\n"


def _emit_prologue(blk, plan):
    """Per-call binds.  ``start`` is the plan position a ``_resume``
    re-entry begins at; -1 is a fresh batch (count it, run the hooks)."""
    blk(0, """
        def _batch_loop(router, packets, now, start=-1):
            aiu = router.aiu
            table = aiu.flow_table
            classify = aiu.classify
            counters = router.counters
            rtable = router.routing_table
            rlookup = rtable.lookup_fast
            ifget = router.interfaces.get
            local_addrs = router.local_addresses
            qmap = router._quarantined
            qget = qmap.get
            on_fault = router.faults.on_fault
            probe_ok = router.faults.probe_succeeded
            n = len(packets)
            out = [FWDD] * n
            fwd = 0
            hits = 0
            if start < 0:
                counters["rx"] += n
                for hook in router._batch_hooks:
                    hook(now, n)
    """)
    if plan["probe"]:
        blk(1, """
            buckets = table._buckets
            mask = table._mask
            free = table._free
        """)
    if plan["tm"]:
        blk(1, "cells = router._tm_gate_cells")
        if plan["probe"]:
            blk(1, """
                tm_counts = aiu._tm_size_counts
                tm_len = len(tm_counts)
                tm_hist = aiu._tm_size_hist
            """)
    # One pooled context per gate, checked out for the call: a plugin
    # that re-enters receive() from process() finds the pool gone and
    # builds its own, so it never sees this call's contexts change
    # under it.  now/cycles/out_interface are batch invariants for
    # everything but the sched gate's out_interface.
    blk(1, """
        pool = router._ctx_pool
        router._ctx_pool = None
        if pool is None:
            pool = {}
    """)
    gates = [(gate, f"ctx_{gi}") for gate, gi in plan["pre"]]
    if plan["routing_active"]:
        gates.append((GATE_ROUTING, f"ctx_{plan['routing_gi']}"))
    if plan["has_sched"]:
        gates.append((GATE_PACKET_SCHEDULING, "ctx_sched"))
        blk(1, """
            schedulers = router._schedulers
            evloop = router.loop
            lifecycle = router._lifecycle
            txs = 0
        """)
    for gate, ctx in gates:
        blk(1, f"""
            {ctx} = pool.get({gate!r})
            if {ctx} is None:
                {ctx} = pool[{gate!r}] = PluginContext(router=router, gate={gate!r})
            {ctx}.now = now
            {ctx}.cycles = NULL
            {ctx}.out_interface = None
        """)
    blk(1, "try:")


def _emit_classify(blk, plan, depth):
    """The classify stage for one packet, anchored where the metered
    walk classifies: the first pre-routing gate (without one, the route
    step or the scheduling gate classifies, in the tail).  Either a call
    to ``AIU.classify`` or, state-identical to it, an inlined
    ``FlowTable.lookup`` (hit) or install + filter-table walk (miss)."""
    if plan["first_gate"] is None:
        return
    if not plan["probe"]:
        blk(depth, f"""
            if packet._fix is None:
                classify(packet, {plan['first_gate']!r}, now=now)
        """)
        return
    blk(depth, """
        record = packet._fix
        if record is None:
            src_a = packet.src
            dst_a = packet.dst
            sv = src_a.value
            dv = dst_a.value
            sw = src_a.width
            proto = packet.protocol
            sp = packet.src_port
            dp = packet.dst_port
            fold = packet._flow_fold
            if fold is None:
                fold = sv ^ dv
                while fold >> 32:
                    fold = (fold & 0xFFFFFFFF) ^ (fold >> 32)
                fold ^= (proto << 24) ^ (sp << 12) ^ dp
                fold ^= fold >> 16
                packet._flow_fold = fold
                PSTATS.tuple_derivations += 1
            iifv = packet.iif
            record = buckets[fold & mask]
            while record is not None:
                rkey = record.key
                if (rkey.src == sv and rkey.src_width == sw
                        and rkey.dst == dv and rkey.protocol == proto
                        and rkey.sport == sp and rkey.dport == dp
                        and rkey.iif == iifv):
                    break
                record = record.hash_next
            if record is not None:
                record.last_used = now
                record.packets += 1
                size = packet._length
                if size < 0:
                    size = packet.length
                record.bytes += size
                if table._lru_head is not record:
                    prevr = record.lru_prev
                    nxtr = record.lru_next
                    prevr.lru_next = nxtr
                    if nxtr is not None:
                        nxtr.lru_prev = prevr
                    else:
                        table._lru_tail = prevr
                    headr = table._lru_head
                    record.lru_prev = None
                    record.lru_next = headr
                    headr.lru_prev = record
                    table._lru_head = record
                hits += 1
    """)
    blk(depth + 1, """
        else:
            table.misses += 1
            fkey = packet._flow_key
            if fkey is None:
                # Inline flow_key_of: the header fields are already in
                # locals, so build the key with straight stores instead
                # of re-reading seven packet attributes through a call.
                fkey = FK_NEW(FlowKey)
                fkey.src = sv
                fkey.src_width = sw
                fkey.dst = dv
                fkey.protocol = proto
                fkey.sport = sp
                fkey.dport = dp
                fkey.iif = iifv
                packet._flow_key = fkey
    """)
    _emit_allocate(blk, plan, depth + 2)
    blk(depth + 2, f"""
        vslots = record.slots
        if len(vslots) == {plan['gate_count']}:
            for vslot in vslots:
                if vslot is not None:
                    vslot.instance = None
                    vslot.private = None
                    vslot.filter_record = None
        else:
            record.slots = [None] * {plan['gate_count']}
        record.key = fkey
        record.created = now
        record.last_used = now
        record.packets = 0
        record.bytes = 0
        record.route = None
        record.route_version = -1
        bidx = fold & mask
        record.bucket = bidx
        record.hash_next = None
        headh = buckets[bidx]
        if headh is None:
            record.hash_prev = None
            buckets[bidx] = record
        else:
            while headh.hash_next is not None:
                headh = headh.hash_next
            headh.hash_next = record
            record.hash_prev = headh
        record.lru_prev = None
        headr = table._lru_head
        record.lru_next = headr
        if headr is not None:
            headr.lru_prev = record
        table._lru_head = record
        if table._lru_tail is None:
            table._lru_tail = record
        table.active += 1
        table.births += 1
    """)
    if plan["tm"]:
        blk(depth + 2, """
            size = packet._length
            if size < 0:
                size = packet.length
            if size < tm_len:
                tm_counts[size] += 1
            else:
                tm_hist.observe(size)
        """)
    blk(depth + 2, """
        for _gname, _gi, _gstats, _gtable in aiu._width_plans.get(sw, ()):
            aiu.filter_lookups += 1
            _gstats[0] += 1
            _gstats[1] += 1
            frec = _gtable.lookup_fast(packet)
            if frec is None:
                continue
            _gstats[2] += 1
            fslot = record.slots[_gi]
            if fslot is None:
                fslot = record.slots[_gi] = GateSlot()
            finst = frec.instance
            fslot.instance = finst
            fslot.filter_record = frec
            frec.flows.add(record)
            binder = getattr(finst, "on_flow_created", None)
            if binder is not None:
                binder(record, fslot)
    """)
    blk(depth + 1, f"""
        packet._fix = record
        if record.slots[{plan['first_gi']}] is None:
            record.slots[{plan['first_gi']}] = GateSlot()
    """)


def _emit_allocate(blk, plan, depth):
    """Inline ``FlowTable._allocate`` minus ``reinit`` (emitted by the
    caller): pool pop, growing or reclaiming exactly as the scalar table
    would."""
    if not plan["bounded"]:
        blk(depth, """
            if not free:
                table._grow_pool()
            record = free.pop()
        """)
        return
    blk(depth, """
        if not free and table._allocated < MAXR:
            table._grow_pool()
        if free:
            record = free.pop()
        else:
            victim = table._lru_tail
            if victim is None:
                table._reclaim()    # raises: cap below one flow
            on_remove = table.on_remove
            if on_remove is not None:
                on_remove(victim)
            for vslot in victim.slots:
                if vslot is not None and vslot.filter_record is not None:
                    vslot.filter_record.flows.discard(victim)
            prevv = victim.hash_prev
            nxtv = victim.hash_next
            if prevv is not None:
                prevv.hash_next = nxtv
            else:
                buckets[victim.bucket] = nxtv
            if nxtv is not None:
                nxtv.hash_prev = prevv
            victim.hash_prev = victim.hash_next = None
            prevv = victim.lru_prev
            if prevv is not None:
                prevv.lru_next = None
            else:
                table._lru_head = None
            table._lru_tail = prevv
            victim.lru_prev = None
            table.active -= 1
            table.evictions += 1
            # Recycle in place: the scalar path appends the victim to the
            # free list and immediately pops it back (LIFO), so handing the
            # victim straight to the installer is state-identical and skips
            # the list round trip.
            table.recycled += 1
            record = victim
    """)


def _emit_fetch(blk, depth, gate, gi):
    """The gate macro's FIX fetch (AIU call if the FIX was cleared
    mid-walk), opening ``if ginst is not None:``."""
    blk(depth, f"""
        record = packet._fix
        if record is None:
            ginst, record = classify(packet, {gate!r}, now=now)
            gslot = record.slots[{gi}]
        else:
            gslot = record.slots[{gi}]
            ginst = gslot.instance if gslot is not None else None
        if ginst is not None:
    """)


def _emit_gate_call(blk, depth, gate, gi, sweep_fault=None):
    """One gate's plugin invocation for one packet — the gate macro
    (``Router._run_gate``) without meters.  Returns the depth at which
    the caller emits its verdict handling (skipped when no call
    happened)."""
    _emit_fetch(blk, depth, gate, gi)
    return _emit_call(blk, depth + 1, gate, f"ctx_{gi}", "gslot", "record",
                      sweep_fault)


def _emit_call(blk, d, gate, ctx, slot, flow, sweep_fault=None):
    """``ginst.process`` under the pooled context ``ctx``: quarantine
    interception, indirect call, fault mapping.  A lanes sweep passes
    ``sweep_fault``, its except body, and gets no interception: it only
    runs with no quarantine live and leaves through ``_resume`` on the
    first fault.  Returns the depth of the verdict handling."""
    if sweep_fault is None:
        blk(d, """
            probe = False
            call = True
            if qmap:
                dom = qget(ginst)
                if dom is not None:
                    action = dom.intercept(now)
                    if action is None:
                        probe = True
                    elif action == BYPASS:
                        call = False
                        ginst = None
                    else:
                        call = False
                        gdrop = True
            if call:
        """)
        d += 1
    blk(d, f"""
        {ctx}.slot = {slot}
        {ctx}.flow = {flow}
    """)
    if gate == GATE_PACKET_SCHEDULING:
        blk(d, f"{ctx}.out_interface = oif")
    blk(d, f"""
        try:
            verdict = ginst.process(packet, {ctx})
        except Exception as exc:
    """)
    if sweep_fault is not None:
        blk(d + 1, sweep_fault)
    else:
        blk(d + 1, f"verdict = on_fault(ginst, {gate!r}, exc, packet, now)")
        blk(d, """
            else:
                if probe:
                    probe_ok(ginst, now)
        """)
    return d


def _emit_wire(blk, depth, packet, size, start):
    """``NetworkInterface.output`` inlined for the stock class: ``size``
    is within the MTU and ``start`` at or past ``iface._next_free``."""
    blk(depth, f"""
        done = {start} + {size} * 8 / iface.rate_bps
        iface._next_free = done
        iface.tx_packets += 1
        iface.tx_bytes += {size}
        {packet}.departure_time = done
        link = iface.link
        if link is not None:
            link.carry(iface, {packet}, done)
    """)


def _emit_sched_call(blk, depth, idx, slot, flow):
    """``ginst`` takes the packet for ``oif`` — the scheduling gate's
    instance (slot and flow from the FIX) or the port's bound scheduler
    (neither) — and, when it queued it, the port's scheduler is drained:
    ``Router._kick`` without meters.  Each transmit is at ``max(now,
    next_free)``; a faulting ``dequeue`` is charged to its domain and
    ends the drain.  An event loop drains for itself (``_tx_one``)."""
    blk(depth, "gdrop = False")
    d = _emit_call(blk, depth, GATE_PACKET_SCHEDULING, "ctx_sched", slot, flow)
    blk(d, """
        if verdict == DROPV:
            gdrop = True
        elif verdict == CONSV:
            # A consuming gate instance is the port's scheduler if none is bound.
            sched = schedulers.setdefault(oif, ginst)
            if evloop is not None:
                router._kick(oif, now)
            elif sched is not None:
                dequeue = sched.dequeue
                plain = iface.__class__ is PLAIN
                while True:
                    at = iface._next_free if plain else iface.next_free
                    if now >= at:
                        at = now
                    try:
                        sent = dequeue(at)
                    except Exception as exc:
                        on_fault(sched, SGATE, exc, None, at)
                        break
                    if sent is None:
                        break
                    ssize = sent._length
                    if ssize < 0:
                        ssize = sent.length
                    if plain and ssize <= iface.mtu:
    """)
    _emit_wire(blk, d + 4, "sent", "ssize", "at")
    blk(d + 3, """
        else:
            iface.output(sent, at)
        txs += 1
        if lifecycle is not None:
            lifecycle.on_emit(sent, at)
    """)
    blk(d + 1, f"""
        counters[QUED] += 1
        out[{idx}] = QUED
        continue
    """)
    blk(depth, f"""
        if gdrop:
            counters[DBP] += 1
            out[{idx}] = DBP
            continue
    """)


def _emit_tail(blk, plan, depth, idx):
    """The per-packet tail, the same in both layouts: multicast/local/
    TTL demux, route (L4-switching gate, then the per-flow route memo —
    exact, because the destination is part of the flow key — or the
    longest-prefix match), scheduling gate / bound scheduler, emit."""
    # -- demux ---------------------------------------------------------
    blk(depth, f"""
        dst_a = packet.dst
        if ((dst_a.value >> 28) == 14 if dst_a.width == 32
                else (dst_a.value >> 120) == 255):
            out[{idx}] = router._multicast_forward(packet, now, NULL)
            continue
        if local_addrs and dst_a in local_addrs:
            out[{idx}] = router._deliver_local(packet, now)
            continue
        if packet.ttl <= 1:
            counters[DTTL] += 1
            router._send_icmp(TEXC(packet, router._icmp_source(packet)), now)
            out[{idx}] = DTTL
            continue
    """)
    # -- route ---------------------------------------------------------
    memo = """
        rv = rtable.version
        if record.route_version == rv and record.route is not None:
            route = record.route
        else:
            route = rlookup(packet.dst)
            if route is not None:
                record.route = route
                record.route_version = rv
    """
    if plan["routing_active"]:
        rgi = plan["routing_gi"]
        if plan["tm"]:
            blk(depth, f"cells[{rgi}] += 1")
        blk(depth, "gdrop = False")
        d = _emit_gate_call(blk, depth, GATE_ROUTING, rgi)
        blk(d, """
            if verdict == DROPV:
                gdrop = True
        """)
        blk(depth, """
            if gdrop:
                route = None
            else:
                route = packet.annotations.get("route")
                if route is None:
                    record = packet._fix
                    if record is not None:
        """)
        blk(depth + 3, memo)
        blk(depth + 2, """
            else:
                route = rlookup(packet.dst)
        """)
    elif plan["has_routing"]:
        blk(depth, """
            record = packet._fix
            if record is None:
                classify(packet, RGATE, now=now)
                record = packet._fix
        """)
        blk(depth, memo)
    else:
        blk(depth, """
            record = packet._fix
            if record is not None:
        """)
        blk(depth + 1, memo)
        blk(depth, """
            else:
                route = rlookup(packet.dst)
        """)
    blk(depth, f"""
        if route is None:
            counters[DNR] += 1
            router._send_icmp(DUNR(packet, router._icmp_source(packet)), now)
            out[{idx}] = DNR
            continue
        packet.ttl -= 1
        oif = route.interface
        iface = ifget(oif)
        if iface is None:
            counters[DNR] += 1
            out[{idx}] = DNR
            continue
        size = packet._length
        if size < 0:
            size = packet.length
        if size > iface.mtu:
            # Rare (ICMP errors / fragmentation): the metered
            # implementation handles it; its meters are no-ops here.
            out[{idx}] = router._output(packet, oif, now, NULL)
            continue
    """)
    # -- scheduling gate / bound scheduler -----------------------------
    if plan["has_sched"]:
        sgi = plan["sched_gi"]
        if plan["sched_active"]:
            if plan["tm"]:
                blk(depth, f"cells[{sgi}] += 1")
            _emit_fetch(blk, depth, GATE_PACKET_SCHEDULING, sgi)
            _emit_sched_call(blk, depth + 1, idx, "gslot", "record")
        else:
            blk(depth, "ginst = None")
            if sgi is not None:
                # A filterless sched gate still classifies a packet whose
                # FIX was cleared mid-walk (a transform), as the spec
                # does; with no filter there it has no instance to call.
                blk(depth, """
                    if packet._fix is None:
                        classify(packet, SGATE, now=now)
                """)
        blk(depth, """
            if ginst is None and schedulers:
                ginst = schedulers.get(oif)
                if ginst is not None:
        """)
        _emit_sched_call(blk, depth + 2, idx, "None", "None")
    # -- emit ----------------------------------------------------------
    blk(depth, """
        if iface.__class__ is PLAIN:
            nf = iface._next_free
            if nf < now:
                nf = now
    """)
    _emit_wire(blk, depth + 1, "packet", "size", "nf")
    blk(depth, """
        else:
            iface.output(packet, now)
        fwd += 1
    """)


def _emit_packet(blk, plan):
    """The packet layout: classify, the active pre-routing gates, the
    tail — one packet at a time.  A ``_resume`` re-entry skips the gates
    before its ``start`` position (its packets carry their FIX, so the
    classify stage skips itself)."""
    blk(2, "for i, packet in enumerate(packets):")
    _emit_classify(blk, plan, 3)
    for pos, (gate, gi) in enumerate(plan["pre"]):
        blk(3, f"if start <= {pos}:")
        depth = 4
        if plan["tm"]:
            blk(depth, f"cells[{gi}] += 1")
        blk(depth, "gdrop = False")
        d = _emit_gate_call(blk, depth, gate, gi)
        blk(d, """
            if verdict == DROPV:
                gdrop = True
            elif verdict == CONSV:
                counters[CONSD] += 1
                out[i] = CONSD
                continue
        """)
        blk(depth, """
            if gdrop:
                counters[DBP] += 1
                out[i] = DBP
                continue
        """)
    _emit_tail(blk, plan, 3, "i")


def _emit_lanes(blk, plan):
    """The lanes layout: classify the whole batch, sweep each active
    pre-routing gate over the surviving lane, then the per-packet tail."""
    blk(2, """
        lane_p = []
        lane_i = []
        lpa = lane_p.append
        lia = lane_i.append
        for i, packet in enumerate(packets):
    """)
    _emit_classify(blk, plan, 3)
    blk(3, """
        lpa(packet)
        lia(i)
    """)
    for pos, (gate, gi) in enumerate(plan["pre"]):
        blk(2, f"""
            # --- gate sweep: {gate} ---
            lane_n = len(lane_p)
            if lane_n:
        """)
        fault = (
            f"return _resume(router, exc, ginst, {gate!r}, {pos}, lane_p,\n"
            "               lane_i, live, j, now, out)"
        )
        if plan["tm"]:
            # The sweep counts the lane in bulk; the packets after a
            # faulter never ran this gate and are re-counted by _resume.
            blk(3, f"cells[{gi}] += lane_n")
            fault = f"cells[{gi}] -= lane_n - j - 1\n" + fault
        blk(3, """
            live = None
            pruned = 0
            for j, packet in enumerate(lane_p):
        """)
        d = _emit_gate_call(blk, 4, gate, gi, sweep_fault=fault)
        blk(d, """
            if verdict == DROPV:
                if live is None:
                    live = [True] * lane_n
                live[j] = False
                pruned += 1
                counters[DBP] += 1
                out[lane_i[j]] = DBP
            elif verdict == CONSV:
                if live is None:
                    live = [True] * lane_n
                live[j] = False
                pruned += 1
                counters[CONSD] += 1
                out[lane_i[j]] = CONSD
        """)
        blk(3, """
            if pruned:
                keep_p = []
                keep_i = []
                for j, ok in enumerate(live):
                    if ok:
                        keep_p.append(lane_p[j])
                        keep_i.append(lane_i[j])
                lane_p = keep_p
                lane_i = keep_i
        """)
    blk(2, """
        # --- per-packet tail: demux, route, emit ---
        for j, packet in enumerate(lane_p):
            idx = lane_i[j]
    """)
    _emit_tail(blk, plan, 3, "idx")
