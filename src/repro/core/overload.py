"""Overload protection for the data path (docs/ROBUSTNESS.md).

PR 2's circuit breaker defends the router against *plugins*; this module
defends it against *traffic*.  A SYN flood or cache-thrash attack defeats
the flow cache the paper's whole fast path is built on: every hostile
packet is a fresh five-tuple, every fresh five-tuple births a FlowRecord,
and on a bounded table every birth evicts a victim — usually somebody's
established flow.  The classifier keeps classifying correctly, but the
cache that makes classification cheap is churned into uselessness and
legitimate flows lose their fast path.

The :class:`OverloadGovernor` watches the flow table's existing plain-int
counters (occupancy, births, evictions, hits, misses) over a sliding
sample window and walks a hysteresis ladder::

    NORMAL -> PRESSURE -> THRASH -> SHED

* **NORMAL** — the governor is invisible: the data path pays one
  attribute load + ``None`` test per packet, charges zero modelled
  cycles, and is bit-identical with the governor attached or detached
  (golden-pinned by tests/perf/test_cost_invariance.py).
* **PRESSURE** — new-flow births pass a per-interface token bucket
  (``ADMIT_RATE``/``ADMIT_BURST``); flows over the rate are classified
  *cache-bypass*: correctly, through the full slow path, but without
  installing a FlowRecord — floods stop consuming table entries while
  established flows keep their cached fast path.  A tuple that keeps
  coming back (``PERSIST_AFTER`` misses) is admitted past the bucket:
  flood tuples never repeat, so persistence is the cheap tell that
  separates a legitimate flow (or an established one evicted before
  detection kicked in) from attack traffic — and it is what lets the
  miss rate actually fall once an attack stops, instead of bypassed
  legitimate flows re-missing forever and holding the ladder up.
* **THRASH** — same ladder rung with the bucket refill scaled down by
  ``THRASH_ADMIT_SCALE``: only a trickle of new flows may establish.
* **SHED** — new flows over the (scaled) rate are dropped outright
  (``Disposition.DROPPED_OVERLOAD``) before any gate runs; established
  flows are never shed.

Escalation requires ``escalate_after`` consecutive signalling samples
and de-escalation ``recover_after`` consecutive calm ones — the
hysteresis that keeps the ladder from flapping at a threshold edge.
Recovery is automatic and bounded: once the attack traffic stops
classifying as misses, at most ``3 * recover_after`` samples separate
SHED from NORMAL.

Memory is bounded twice over: a bounded flow table (``max_flows``)
already caps its own pool, and for unbounded tables ``memory_budget``
caps growth directly — a degraded governor refuses to admit new births
past the budget, and every sample (whatever the tier) reclaims idle
records (``expire_idle``) while occupancy is over it.

The governor is packet-clocked: it samples every ``sample_interval``
packets (once per batch on the batched entry point), so it costs nothing
when the router is idle and needs no timers.  Degraded tiers route
batches through ``Router.receive`` packet by packet (the admission seam
lives there, in front of the same generated loop).
"""

from __future__ import annotations

from typing import Dict, List, Optional

TIER_NORMAL = "normal"
TIER_PRESSURE = "pressure"
TIER_THRASH = "thrash"
TIER_SHED = "shed"

#: The hysteresis ladder, mildest first.
TIERS = (TIER_NORMAL, TIER_PRESSURE, TIER_THRASH, TIER_SHED)

#: Admission verdicts for a new-flow birth in a degraded tier.
ADMIT = "admit"      # install a FlowRecord as usual
BYPASS = "bypass"    # classify correctly but do not consume a record
SHED = "shed"        # drop before any gate runs

#: Transition-history ring size.
_TRANSITION_RING = 32

#: Persistence-tracker bound: the fold->miss-count map is cleared when
#: it reaches this many entries, so a flood of unique tuples can never
#: grow governor memory past a small constant.
_SEEN_CAP = 8192

#: Ladder signals, per sample window: a tier escalates on a miss ratio
#: at or above its ``*_MISS`` together with an eviction fraction at or
#: above its ``*_EVICT`` (or occupancy at or above ``HIGH_OCCUPANCY``);
#: a window is calm at or below both ``CALM_*``.
PRESSURE_MISS = 0.35
PRESSURE_EVICT = 0.05
THRASH_MISS = 0.60
THRASH_EVICT = 0.30
CALM_MISS = 0.15
CALM_EVICT = 0.05
HIGH_OCCUPANCY = 0.85

#: Admission: the per-interface token bucket (births per second, depth),
#: its refill scale above PRESSURE, and the uncached misses after which a
#: repeating tuple is admitted past the bucket.
ADMIT_RATE = 200.0
ADMIT_BURST = 64
THRASH_ADMIT_SCALE = 0.25
PERSIST_AFTER = 3


class OverloadGovernor:
    """Thrash detector + graceful-degradation ladder for one router.

    The clock, hysteresis and memory keywords are what ``pmgr overload
    on key=value...`` can tune; the signal and admission thresholds are
    the module constants above.  See the module docstring for the
    ladder semantics.  Ratios are per sample window: ``miss_ratio`` is
    misses / (hits + misses) and ``evict_frac`` evictions per classified
    packet.
    """

    __slots__ = (
        # --- configuration -------------------------------------------
        "sample_interval", "escalate_after", "shed_after", "recover_after",
        "memory_budget", "idle_reclaim",
        # --- hot-path state (read by Router.receive) -----------------
        "countdown", "degraded", "tier",
        # --- bookkeeping ---------------------------------------------
        "_router", "_table", "_last", "_esc", "_calm", "_buckets", "_seen",
        "samples", "admitted", "bypassed", "shed_total",
        "escalations", "deescalations", "transitions", "window",
    )

    def __init__(
        self,
        sample_interval: int = 256,
        escalate_after: int = 2,
        shed_after: int = 3,
        recover_after: int = 3,
        memory_budget: Optional[int] = None,
        idle_reclaim: float = 2.0,
    ):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        if escalate_after < 1 or recover_after < 1 or shed_after < 1:
            raise ValueError("escalate_after/shed_after/recover_after must be >= 1")
        if memory_budget is not None and memory_budget < 1:
            raise ValueError("memory_budget must be >= 1")
        self.sample_interval = int(sample_interval)
        self.escalate_after = int(escalate_after)
        self.shed_after = int(shed_after)
        self.recover_after = int(recover_after)
        self.memory_budget = memory_budget
        self.idle_reclaim = float(idle_reclaim)

        self.countdown = self.sample_interval
        self.degraded = False
        self.tier = TIER_NORMAL

        self._router = None
        self._table = None
        self._last = (0, 0, 0)           # (hits, misses, evictions)
        self._esc = 0                    # consecutive escalation signals
        self._calm = 0                   # consecutive calm samples
        # iif -> [tokens, last_refill_time]
        self._buckets: Dict[Optional[str], list] = {}
        # flow fold -> consecutive uncached-miss count (see admit_new)
        self._seen: Dict[int, int] = {}

        self.samples = 0
        self.admitted = 0
        self.bypassed = 0
        self.shed_total = 0
        self.escalations = 0
        self.deescalations = 0
        #: Bounded ring of tier transitions (newest last).
        self.transitions: List[dict] = []
        #: Metrics of the most recent sample window.
        self.window: dict = {
            "packets": 0, "miss_ratio": 0.0, "evict_frac": 0.0,
            "occupancy": None,
        }

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_router(self, router) -> None:
        """Attach to one router; baselines the counter deltas so the
        first sample window only sees traffic after attachment."""
        if self._router is not None and self._router is not router:
            raise ValueError("governor already bound to another router")
        self._router = router
        table = router.aiu.flow_table
        self._table = table
        self._last = (table.hits, table.misses, table.evictions)
        self.countdown = self.sample_interval

    def capacity(self) -> Optional[int]:
        """Records the table may hold: ``max_flows`` if bounded, else
        the governor's ``memory_budget`` (``None`` = uncapped)."""
        table = self._table
        if table is None:
            return self.memory_budget
        if table.max_records is not None:
            if self.memory_budget is not None:
                return min(table.max_records, self.memory_budget)
            return table.max_records
        return self.memory_budget

    # ------------------------------------------------------------------
    # Sampling / ladder (control path; never charges modelled cycles)
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one sliding-window sample and walk the ladder.  Called
        from the data path every ``sample_interval`` packets (and once
        per batch), but does control-path work only."""
        self.countdown = self.sample_interval
        self.samples += 1
        table = self._table
        hits, misses, evictions = table.hits, table.misses, table.evictions
        last_hits, last_misses, last_evictions = self._last
        self._last = (hits, misses, evictions)
        packets = (hits - last_hits) + (misses - last_misses)
        capacity = self.capacity()
        occupancy = table.active / capacity if capacity else None
        if packets <= 0:
            # Nothing classified since the last sample (flow cache off,
            # or all traffic pre-classified): nothing to judge, but an
            # idle window is evidence of calm, not of pressure.
            miss_ratio = 0.0
            evict_frac = 0.0
        else:
            miss_ratio = (misses - last_misses) / packets
            evict_frac = (evictions - last_evictions) / packets
        self.window = {
            "packets": packets,
            "miss_ratio": miss_ratio,
            "evict_frac": evict_frac,
            "occupancy": occupancy,
        }

        hot = occupancy is not None and occupancy >= HIGH_OCCUPANCY
        pressure_sig = miss_ratio >= PRESSURE_MISS and (
            evict_frac >= PRESSURE_EVICT or hot
        )
        thrash_sig = miss_ratio >= THRASH_MISS and (
            evict_frac >= THRASH_EVICT or hot
        )
        calm_sig = miss_ratio <= CALM_MISS and evict_frac <= CALM_EVICT

        tier = self.tier
        if tier == TIER_NORMAL:
            up, need = pressure_sig, self.escalate_after
        elif tier == TIER_PRESSURE:
            up, need = thrash_sig, self.escalate_after
        elif tier == TIER_THRASH:
            up, need = thrash_sig, self.shed_after
        else:
            up, need = False, 0
        self._esc = self._esc + 1 if up else 0
        self._calm = self._calm + 1 if calm_sig else 0

        if up and self._esc >= need:
            self._transition(TIERS[TIERS.index(tier) + 1], now, "escalate")
        elif calm_sig and self._calm >= self.recover_after and tier != TIER_NORMAL:
            self._transition(TIERS[TIERS.index(tier) - 1], now, "recover")

        # Hard memory budget for unbounded tables: reclaim idle records
        # until occupancy is back under the budget — in any tier, so the
        # overshoot a detection window allows is drained even after the
        # ladder walks back to NORMAL.  Bounded tables cap their own
        # pool; this never runs for them, nor for any router under
        # budget (the governor stays invisible on healthy traffic).
        if (
            self.memory_budget is not None
            and table.max_records is None
            and table.active > self.memory_budget
        ):
            table.expire_idle(now, self.idle_reclaim)

    def _transition(self, to_tier: str, now: float, reason: str) -> None:
        record = {
            "time": now,
            "from": self.tier,
            "to": to_tier,
            "reason": reason,
            "miss_ratio": round(self.window["miss_ratio"], 4),
            "evict_frac": round(self.window["evict_frac"], 4),
        }
        self.transitions.append(record)
        if len(self.transitions) > _TRANSITION_RING:
            del self.transitions[0]
        if TIERS.index(to_tier) > TIERS.index(self.tier):
            self.escalations += 1
        else:
            self.deescalations += 1
        self.tier = to_tier
        self.degraded = to_tier != TIER_NORMAL
        self._esc = 0
        self._calm = 0
        if not self.degraded:
            # Full recovery: forget the attack's token debt and the
            # persistence counts so the next incident starts clean.
            self._buckets.clear()
            self._seen.clear()

    # ------------------------------------------------------------------
    # Admission (degraded tiers only; called on every new-flow birth)
    # ------------------------------------------------------------------
    def admit_new(self, packet, now: float) -> str:
        """Admission verdict for one new-flow birth: :data:`ADMIT`
        (install), :data:`BYPASS` (classify recordless) or :data:`SHED`
        (drop).  Established flows never reach here — the router only
        consults the governor on a flow-cache miss.

        A tuple misses its way to admission: each uncached miss bumps a
        per-fold counter, and at ``PERSIST_AFTER`` misses the flow is
        admitted past the token bucket.  Flood tuples never repeat so
        they never qualify; legitimate flows (including established ones
        whose record was evicted before detection) establish within a
        few packets instead of bouncing off a drained bucket forever.
        The tracker is a bounded dict (cleared at ``_SEEN_CAP``), so a
        flood of unique folds cannot grow governor memory.
        """
        tier = self.tier
        table = self._table
        # Hard memory budget: an unbounded table may not grow past it,
        # whatever the buckets or persistence say.
        if (
            self.memory_budget is not None
            and table.max_records is None
            and table.active >= self.memory_budget
        ):
            if tier == TIER_SHED:
                self.shed_total += 1
                return SHED
            self.bypassed += 1
            return BYPASS
        seen = self._seen
        if len(seen) >= _SEEN_CAP:
            seen.clear()
        fold = packet.flow_fold32()
        count = seen.get(fold, 0) + 1
        if count >= PERSIST_AFTER:
            # Persistent tuple: a real flow, not flood noise.  Admit it
            # and drop the counter — if it is ever evicted again it will
            # re-earn admission in the same few packets.
            seen.pop(fold, None)
            self.admitted += 1
            return ADMIT
        seen[fold] = count
        rate = ADMIT_RATE
        if tier != TIER_PRESSURE:
            rate *= THRASH_ADMIT_SCALE
        bucket = self._buckets.get(packet.iif)
        if bucket is None:
            bucket = self._buckets[packet.iif] = [float(ADMIT_BURST), now]
        else:
            elapsed = now - bucket[1]
            if elapsed > 0.0:
                bucket[0] = min(float(ADMIT_BURST), bucket[0] + elapsed * rate)
                bucket[1] = now
        if bucket[0] >= 1.0:
            bucket[0] -= 1.0
            seen.pop(fold, None)
            self.admitted += 1
            return ADMIT
        if tier == TIER_SHED:
            self.shed_total += 1
            return SHED
        self.bypassed += 1
        return BYPASS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def brief(self) -> dict:
        """The compact view embedded in ``Router.health()``."""
        return {
            "enabled": True,
            "tier": self.tier,
            "shed": self.shed_total,
            "bypassed": self.bypassed,
        }

    def snapshot(self) -> dict:
        """Full JSON-able state (``pmgr show overload --json``)."""
        table = self._table
        return {
            "enabled": True,
            "tier": self.tier,
            "degraded": self.degraded,
            "window": dict(self.window),
            "counters": {
                "samples": self.samples,
                "admitted": self.admitted,
                "bypassed": self.bypassed,
                "shed": self.shed_total,
                "escalations": self.escalations,
                "deescalations": self.deescalations,
            },
            "config": {
                "sample_interval": self.sample_interval,
                "escalate_after": self.escalate_after,
                "shed_after": self.shed_after,
                "recover_after": self.recover_after,
                "pressure_miss": PRESSURE_MISS,
                "pressure_evict": PRESSURE_EVICT,
                "thrash_miss": THRASH_MISS,
                "thrash_evict": THRASH_EVICT,
                "calm_miss": CALM_MISS,
                "calm_evict": CALM_EVICT,
                "high_occupancy": HIGH_OCCUPANCY,
                "admit_rate": ADMIT_RATE,
                "admit_burst": ADMIT_BURST,
                "thrash_admit_scale": THRASH_ADMIT_SCALE,
                "persist_after": PERSIST_AFTER,
                "memory_budget": self.memory_budget,
                "idle_reclaim": self.idle_reclaim,
            },
            "capacity": self.capacity(),
            "flow_table": table.stats() if table is not None else None,
            "transitions": list(self.transitions),
        }

    def __repr__(self) -> str:
        return (
            f"OverloadGovernor(tier={self.tier!r}, samples={self.samples}, "
            f"shed={self.shed_total}, bypassed={self.bypassed})"
        )
