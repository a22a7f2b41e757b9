"""Per-level match functions for the DAG filter table.

§5.1.1: "the matching function used at each level of the DAG can be
different ... The matching function itself can be independently
configured for each level of the DAG, and is implemented as a plugin in
our framework."

Three matcher kinds cover the six-tuple:

* :class:`PrefixMatcher` — longest-prefix match over the edge labels,
  backed by a pluggable BMP engine (PATRICIA or binary search on prefix
  lengths, exactly as in the paper).
* :class:`RangeMatcher` — port ranges/exacts/wildcard; most specific
  (smallest span) match wins.  Partial overlaps are rejected at insert
  (the paper defers ambiguity resolution to its tech report; we refuse
  the ambiguous case by default so DAG semantics stay exact).
* :class:`ExactMatcher` — protocol numbers and interface names, equality
  with an optional wildcard.

Cost accounting follows the paper's Table 2 model: prefix matchers charge
the BMP engine's probes, range matchers charge one access, and exact
matchers charge nothing beyond the DAG-edge access charged by the DAG
walker itself.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional

from ..bmp import make_engine
from ..net.addresses import Prefix, prefix_range
from ..sim.cost import NULL_METER
from .filters import PortSpec


class AmbiguousFilterError(ValueError):
    """Raised when a filter's field partially overlaps an installed one."""


class LevelMatcher(ABC):
    """Manages the edge labels of one DAG node at one level."""

    @abstractmethod
    def add(self, label) -> None:
        """Register a new edge label."""

    @abstractmethod
    def remove(self, label) -> None:
        """Unregister an edge label."""

    @abstractmethod
    def best_match(self, value, meter=NULL_METER):
        """Most specific label matching a packet field value, or None."""

    @abstractmethod
    def covering(self, label) -> Iterable:
        """Installed labels that strictly cover ``label``.

        Used by the DAG's copy-down step; must NOT be O(all labels) for
        the prefix matcher (large tables depend on it)."""

    @abstractmethod
    def covered(self, label) -> Iterable:
        """Installed labels strictly covered by ``label`` (replication
        targets when a broad filter is inserted)."""

    def check_insertable(self, label, existing: Iterable) -> None:
        """Reject labels that create unresolvable ambiguity (no-op by
        default; the range matcher overrides)."""


class PrefixMatcher(LevelMatcher):
    """LPM over prefix labels via a BMP engine ("BMP plugin" per §5.1.1).

    Besides the engine, it keeps a per-length sorted index so the DAG's
    ``covering``/``covered`` queries cost O(width) and
    O(log n + answers) instead of a scan over every label.
    """

    def __init__(self, width: int, engine: str = "patricia"):
        self.width = width
        self._engine = make_engine(engine, width)
        self._labels: set = set()
        self._by_length: Dict[int, List[int]] = {}
        self._lengths: List[int] = []      # of _by_length, longest first

    def add(self, label: Prefix) -> None:
        if label in self._labels:
            return
        self._engine.insert(label, label)
        self._labels.add(label)
        values = self._by_length.get(label.length)
        if values is None:
            values = self._by_length[label.length] = []
            self._lengths = sorted(self._by_length, reverse=True)
        bisect.insort(values, label.value)

    def remove(self, label: Prefix) -> None:
        if label not in self._labels:
            return
        self._engine.remove(label)
        self._labels.discard(label)
        values = self._by_length.get(label.length)
        if values is not None:
            index = bisect.bisect_left(values, label.value)
            if index < len(values) and values[index] == label.value:
                del values[index]

    def best_match(self, value: int, meter=NULL_METER) -> Optional[Prefix]:
        return self._engine.lookup(value, meter)

    def covering(self, label: Prefix):
        # Longest first, probing only the lengths some label has.
        for length in self._lengths:
            if length < label.length:
                parent = Prefix(label.value, length, self.width)
                if parent in self._labels:
                    yield parent

    def covered(self, label: Prefix):
        low, high = prefix_range(label)
        for length, values in self._by_length.items():
            if length <= label.length:
                continue
            start = bisect.bisect_left(values, low)
            stop = bisect.bisect_right(values, high)
            for value in values[start:stop]:
                yield Prefix(value, length, self.width)

    def __len__(self) -> int:
        return len(self._labels)


class RangeMatcher(LevelMatcher):
    """Port-range labels; smallest covering span wins.

    Labels must form a laminar family (any two are disjoint or nested);
    :meth:`check_insertable` raises :class:`AmbiguousFilterError` for
    partial overlaps.  Lookup walks the labels sorted by ascending span
    and returns the first hit — correct because nesting makes "first by
    span" equal "most specific".  The Table 2 model charges one memory
    access per port lookup, matching the paper's accounting.
    """

    def __init__(self):
        self._labels: List[PortSpec] = []

    def add(self, label: PortSpec) -> None:
        self.check_insertable(label, self._labels)
        if label not in self._labels:
            self._labels.append(label)
            self._labels.sort(key=lambda s: s.span)

    def remove(self, label: PortSpec) -> None:
        if label in self._labels:
            self._labels.remove(label)

    def check_insertable(self, label: PortSpec, existing: Iterable[PortSpec]) -> None:
        for other in existing:
            if label.partially_overlaps(other):
                raise AmbiguousFilterError(
                    f"port spec {label} partially overlaps installed {other}; "
                    "split the filter into nested/disjoint ranges"
                )

    def best_match(self, value: int, meter=NULL_METER) -> Optional[PortSpec]:
        meter.access(1, "port")
        for label in self._labels:
            if label.matches(value):
                return label
        return None

    def covering(self, label: PortSpec):
        return [l for l in self._labels if l != label and l.covers(label)]

    def covered(self, label: PortSpec):
        return [l for l in self._labels if l != label and label.covers(l)]

    def __len__(self) -> int:
        return len(self._labels)


#: Sentinel label meaning "any value" for exact-match levels.
WILDCARD = "*"


class ExactMatcher(LevelMatcher):
    """Exact-or-wildcard labels for the protocol and interface levels."""

    def __init__(self):
        self._labels: Dict[object, object] = {}

    def add(self, label) -> None:
        self._labels[label] = label

    def remove(self, label) -> None:
        self._labels.pop(label, None)

    def best_match(self, value, meter=NULL_METER):
        if value in self._labels:
            return value
        if WILDCARD in self._labels:
            return WILDCARD
        return None

    def covering(self, label):
        if label != WILDCARD and WILDCARD in self._labels:
            return [WILDCARD]
        return []

    def covered(self, label):
        if label == WILDCARD:
            return [l for l in self._labels if l != WILDCARD]
        return []

    def __len__(self) -> int:
        return len(self._labels)
