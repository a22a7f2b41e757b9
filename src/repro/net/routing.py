"""The routing table: destination prefix → (next hop, output interface).

The longest-prefix-match engine is *pluggable* — this is one of the
paper's plugin types ("best-matching prefix" plugins).  Any object with
``insert(prefix, value)``, ``remove(prefix)`` and ``lookup(value_int)``
works; :mod:`repro.bmp` supplies PATRICIA, binary-search-on-prefix-lengths
and controlled-prefix-expansion engines.  A naive linear engine lives here
both as the default fallback and as the baseline for benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .addresses import IPAddress, Prefix


@dataclass
class Route:
    """One routing entry."""

    prefix: Prefix
    next_hop: Optional[IPAddress]
    interface: str
    metric: int = 1
    #: Member interfaces when this route is an ECMP bundle; the data
    #: path still forwards on ``interface`` (a synthetic bundle name),
    #: so plain routers stay oblivious — only topology links fan the
    #: bundle out per flow.
    ecmp_group: Optional[Tuple[str, ...]] = None

    @property
    def is_directly_connected(self) -> bool:
        return self.next_hop is None

    def __repr__(self) -> str:
        via = str(self.next_hop) if self.next_hop else "direct"
        return f"Route({self.prefix} via {via} dev {self.interface} metric {self.metric})"


class LinearLPM:
    """O(n) longest-prefix match over a sorted list — the naive baseline."""

    def __init__(self, width: Optional[int] = None) -> None:
        self.width = width
        self._entries: List[Tuple[Prefix, object]] = []

    def insert(self, prefix: Prefix, value: object) -> None:
        self.remove(prefix)
        self._entries.append((prefix, value))
        # Longest prefixes first so the first hit is the best match.
        self._entries.sort(key=lambda e: -e[0].length)

    def remove(self, prefix: Prefix) -> bool:
        before = len(self._entries)
        self._entries = [(p, v) for p, v in self._entries if p != prefix]
        return len(self._entries) != before

    def lookup(self, value: int) -> Optional[object]:
        for prefix, stored in self._entries:
            if prefix.matches(value):
                return stored
        return None

    # The scan is already meter-free; the fast-path name is an alias so
    # RoutingTable can call one method on any engine.
    lookup_fast = lookup

    def lookup_prefix(self, value: int) -> Optional[Prefix]:
        for prefix, _stored in self._entries:
            if prefix.matches(value):
                return prefix
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Prefix, object]]:
        return iter(self._entries)


#: Sentinel distinguishing "memoized as unroutable" (None) from "not
#: memoized"; a bench-sized cap keeps hostile destination sweeps from
#: turning the memo into a leak.
_MEMO_MISS = object()
_MEMO_CAP = 65536


class RoutingTable:
    """A per-family routing table over a pluggable LPM engine."""

    def __init__(self, lpm_factory=LinearLPM):
        self._lpm_factory = lpm_factory
        self._engines: Dict[int, object] = {}
        self._routes: Dict[Prefix, Route] = {}
        #: Bumped on every add/remove; per-flow route memos (the router's
        #: fast path) revalidate against it, so no stale route survives
        #: a table change.
        self.version = 0
        # Destination-value -> Route memos, one per family so the raw
        # int value can key the dict without a (width, value) tuple per
        # lookup.  Cleared on any add/remove (alongside the version
        # bump), so a memoized route can never outlive the table state
        # that produced it.  Bounded: churny destination sets reset the
        # memo rather than growing it without limit.
        self._memo4: Dict[int, Optional[Route]] = {}
        self._memo6: Dict[int, Optional[Route]] = {}

    def _engine(self, width: int):
        if width not in self._engines:
            self._engines[width] = self._lpm_factory(width)
        return self._engines[width]

    def add(
        self,
        prefix,
        interface: str,
        next_hop=None,
        metric: int = 1,
    ) -> Route:
        """Install a route.  ``prefix``/``next_hop`` accept strings."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if isinstance(next_hop, str):
            next_hop = IPAddress.parse(next_hop)
        route = Route(prefix, next_hop, interface, metric)
        self._routes[prefix] = route
        self._engine(prefix.width).insert(prefix, route)
        self.version += 1
        self._memo4.clear()
        self._memo6.clear()
        return route

    def add_ecmp(
        self,
        prefix,
        interfaces,
        next_hop=None,
        metric: int = 1,
    ) -> Route:
        """Install an equal-cost multi-path route over ``interfaces``.

        The entry's ``interface`` is a synthetic bundle name
        (``"ecmp:ge1+ge2"``): a router that owns no such interface
        treats the packet exactly like any other unknown egress, while
        a topology binds the bundle name to a per-flow selector that
        folds the five-tuple over the member edges (deterministic —
        never builtin ``hash()``)."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if isinstance(next_hop, str):
            next_hop = IPAddress.parse(next_hop)
        members = tuple(interfaces)
        if len(members) < 2:
            raise ValueError("an ECMP bundle needs at least two interfaces")
        bundle = "ecmp:" + "+".join(members)
        route = Route(prefix, next_hop, bundle, metric, ecmp_group=members)
        self._routes[prefix] = route
        self._engine(prefix.width).insert(prefix, route)
        self.version += 1
        self._memo4.clear()
        self._memo6.clear()
        return route

    def remove(self, prefix) -> bool:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        if prefix not in self._routes:
            return False
        del self._routes[prefix]
        self._engine(prefix.width).remove(prefix)
        self.version += 1
        self._memo4.clear()
        self._memo6.clear()
        return True

    def lookup(self, dst) -> Optional[Route]:
        """Longest-prefix match for a destination address."""
        if isinstance(dst, str):
            dst = IPAddress.parse(dst)
        engine = self._engines.get(dst.width)
        if engine is None:
            return None
        return engine.lookup(dst.value)

    def lookup_fast(self, dst) -> Optional[Route]:
        """Compiled-path longest-prefix match: no meter, no modelled
        cost.  Every engine has a ``lookup_fast`` (a BMP engine's compiled
        per-length tables; ``LinearLPM``'s scan under that name).  Results
        are memoized per destination value until the next add/remove —
        under flow churn the per-flow route memo dies with the evicted
        record, so this is what keeps a repeated destination from
        re-walking the BMP trie on every flow rebirth."""
        if isinstance(dst, str):
            dst = IPAddress.parse(dst)
        memo = self._memo4 if dst.width == 32 else self._memo6
        value = dst.value
        route = memo.get(value, _MEMO_MISS)
        if route is not _MEMO_MISS:
            return route
        engine = self._engines.get(dst.width)
        if engine is None:
            return None
        route = engine.lookup_fast(value)
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[value] = route
        return route

    def routes(self) -> List[Route]:
        return list(self._routes.values())

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix) -> bool:
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        return prefix in self._routes
