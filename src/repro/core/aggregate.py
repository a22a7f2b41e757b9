"""The router-shaped read views a front end exposes over "my children".

A :class:`~repro.shard.sharded.ShardedRouter` (children: its shards) and
a :class:`~repro.topo.topology.Topology` (children: its nodes, which may
be sharded front ends themselves) both present ``aiu.flow_table``,
``_overload`` and ``health()`` like a single router, so harnesses such
as :func:`repro.workloads.adversarial.run_scenario` drive them
unmodified.  The three folds live here once; each front adds only its
own keys.  ``children`` is a zero-argument callable, read at every
access, so nodes added later are seen.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence

from .overload import TIERS

#: The flow-table counters ``Router.health()`` reports, in its order.
FLOW_COUNTERS = (
    "active", "allocated", "births", "evictions", "recycled", "hits", "misses",
)


def _sum_caps(caps: List[Optional[int]]) -> Optional[int]:
    """A summed bound is a bound only if every child has one."""
    if not caps or any(c is None for c in caps):
        return None
    return sum(caps)  # type: ignore[arg-type]


class AggregateFlowTable:
    """Read-only sum of the children's flow tables."""

    _SUMMED = frozenset(("active", "hits", "misses", "births", "evictions"))

    def __init__(self, children: Callable[[], Iterable]):
        self._children = children

    def __getattr__(self, attr: str) -> int:
        if attr not in self._SUMMED:
            raise AttributeError(attr)
        return sum(getattr(c.aiu.flow_table, attr) for c in self._children())

    @property
    def max_records(self) -> Optional[int]:
        return _sum_caps(
            [c.aiu.flow_table.max_records for c in self._children()]
        )


class AggregateGovernor:
    """Worst-tier / summed-capacity view over every governor below."""

    def __init__(self, children: Callable[[], Iterable]):
        self._children = children

    def _governors(self) -> list:
        """The live governors below, nested views flattened."""
        found: list = []
        for child in self._children():
            governor = child._overload
            if governor is not None:
                nested = getattr(governor, "_governors", None)
                found.extend(nested() if nested else [governor])
        return found

    @property
    def tier(self) -> str:
        tiers = [g.tier for g in self._governors()]
        return max(tiers, key=TIERS.index) if tiers else TIERS[0]

    def capacity(self) -> Optional[int]:
        return _sum_caps([g.capacity() for g in self._governors()])


def fold_health(per_child: Iterable[dict], counters: Optional[Counter] = None,
                flow_keys: Sequence[str] = FLOW_COUNTERS) -> dict:
    """Fold the children's ``health()`` dicts into the keys every front
    shares: summed counters and flow-table counters, the union of
    quarantined plugins, the worst overload tier.  ``counters`` seeds
    the sum with the front's own (a topology's ``dropped_loop``)."""
    total: Counter = Counter(counters or ())
    quarantined: set = set()
    flow: Counter = Counter()
    caps: List[Optional[int]] = []
    tiers: List[str] = []
    enabled = False
    for h in per_child:
        total.update(h["counters"])
        quarantined.update(h["quarantined"])
        for key in flow_keys:
            flow[key] += h["flow_table"][key]
        caps.append(h["flow_table"]["max_records"])
        tiers.append(h["overload"].get("tier", "normal"))
        enabled = enabled or h["overload"].get("enabled", True) is not False
    max_records = _sum_caps(caps)
    return {
        "counters": dict(total),
        "quarantined": sorted(quarantined),
        "flow_table": {
            **dict(flow),
            "max_records": max_records,
            "occupancy": flow["active"] / max_records if max_records else None,
        },
        "overload": {
            "enabled": enabled,
            "tier": max(tiers, key=TIERS.index) if tiers else "normal",
        },
    }
