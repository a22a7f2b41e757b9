"""Binary search on prefix lengths (Waldvogel et al., SIGCOMM'97).

This is the paper's fast BMP plugin — "the patented binary search on
prefix length [30] algorithm" — reimplemented clean-room from the public
description.  One hash table per prefix length holds real prefixes plus
*markers*; a balanced binary search tree over the distinct prefix lengths
steers the search: a hash hit means "there may be something longer, go
right", a miss means "go left".  Markers carry a precomputed best
matching prefix (bmp) so a failed excursion to longer lengths never needs
backtracking.

Worst-case memory accesses per lookup = the depth of the length search
tree = ``ceil(log2(D + 1))`` for D distinct lengths, i.e. ≤ 5 for IPv4
and ≤ 7 for IPv6 — the "2·log2(32) / 2·log2(128)" row of the paper's
Table 2 (two address fields per filter lookup).

Mutations mark the structure dirty; it is rebuilt lazily on the next
lookup (markers and bmp pointers are global precomputations, so batch
rebuild is both simpler and how such tables are deployed in practice).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..net.addresses import Prefix
from ..sim.cost import NULL_METER
from .base import BMPEngine


class _Entry:
    """A hash-table cell: maybe a real prefix, maybe just a marker."""

    __slots__ = ("prefix_entry", "bmp")

    def __init__(self):
        self.prefix_entry: Optional[Tuple[Prefix, object]] = None
        self.bmp: Optional[Tuple[Prefix, object]] = None


class _TreeNode:
    """One node of the balanced search tree over prefix lengths."""

    __slots__ = ("length", "left", "right")

    def __init__(self, length: int, left: Optional["_TreeNode"], right: Optional["_TreeNode"]):
        self.length = length
        self.left = left
        self.right = right


def _build_tree(lengths: List[int]) -> Optional[_TreeNode]:
    if not lengths:
        return None
    mid = len(lengths) // 2
    return _TreeNode(
        lengths[mid], _build_tree(lengths[:mid]), _build_tree(lengths[mid + 1 :])
    )


def _tree_depth(node: Optional[_TreeNode]) -> int:
    if node is None:
        return 0
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


class BinarySearchOnLengths(BMPEngine):
    """Hash-per-length LPM with marker-guided binary search."""

    def __init__(self, width: int):
        super().__init__(width)
        self._prefixes: Dict[Prefix, object] = {}
        self._default: Optional[Tuple[Prefix, object]] = None
        self._tables: Dict[int, Dict[int, _Entry]] = {}
        self._tree: Optional[_TreeNode] = None
        self._dirty = False

    # ------------------------------------------------------------------
    # Mutation (lazy rebuild)
    # ------------------------------------------------------------------
    def insert(self, prefix: Prefix, value: object) -> None:
        self._check(prefix)
        self._prefixes[prefix] = value
        self._dirty = True
        self._mutated()

    def remove(self, prefix: Prefix) -> bool:
        self._check(prefix)
        if prefix in self._prefixes:
            del self._prefixes[prefix]
            self._dirty = True
            self._mutated()
            return True
        return False

    def entries(self) -> Iterator[Tuple[Prefix, object]]:
        return iter(self._prefixes.items())

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self._tables = {}
        self._default = None
        real_lengths = sorted(
            {p.length for p in self._prefixes if p.length > 0}
        )
        self._tree = _build_tree(real_lengths)
        for prefix, value in self._prefixes.items():
            if prefix.length == 0:
                self._default = (prefix, value)
                continue
            self._place(prefix, value)
        self._precompute_bmps(real_lengths)
        self._dirty = False

    def _table(self, length: int) -> Dict[int, _Entry]:
        return self._tables.setdefault(length, {})

    def _place(self, prefix: Prefix, value: object) -> None:
        """Insert the real prefix and markers along its search path."""
        node = self._tree
        bits = prefix.key_bits()
        while node is not None:
            if node.length == prefix.length:
                entry = self._table(node.length).setdefault(bits, _Entry())
                entry.prefix_entry = (prefix, value)
                return
            if node.length < prefix.length:
                marker_bits = bits >> (prefix.length - node.length)
                self._table(node.length).setdefault(marker_bits, _Entry())
                node = node.right
            else:
                node = node.left
        raise AssertionError(f"length {prefix.length} missing from search tree")

    def _precompute_bmps(self, real_lengths: List[int]) -> None:
        """Fill every entry's bmp: the longest real prefix of its string."""
        lengths_desc = sorted(real_lengths, reverse=True)
        for length, table in self._tables.items():
            for bits, entry in table.items():
                if entry.prefix_entry is not None:
                    entry.bmp = entry.prefix_entry
                    continue
                entry.bmp = self._best_upto(bits, length, lengths_desc)
                if entry.bmp is None:
                    entry.bmp = self._default

    def _best_upto(
        self, bits: int, length: int, lengths_desc: List[int]
    ) -> Optional[Tuple[Prefix, object]]:
        """Longest real prefix (length ≤ ``length``) matching ``bits``."""
        for cand in lengths_desc:
            if cand > length:
                continue
            table = self._tables.get(cand)
            if table is None:
                continue
            entry = table.get(bits >> (length - cand))
            if entry is not None and entry.prefix_entry is not None:
                return entry.prefix_entry
        return None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_entry(self, addr: int, meter=NULL_METER) -> Optional[Tuple[Prefix, object]]:
        if self._dirty:
            self._rebuild()
        best = self._default
        node = self._tree
        while node is not None:
            bits = addr >> (self.width - node.length)
            meter.access(1, "waldvogel")
            entry = self._tables.get(node.length, {}).get(bits)
            if entry is not None:
                if entry.bmp is not None:
                    best = entry.bmp
                node = node.right
            else:
                node = node.left
        return best

    def __len__(self) -> int:
        return len(self._prefixes)

    def worst_case_accesses(self) -> int:
        """Depth of the length search tree (≤ ceil(log2(W + 1)))."""
        if self._dirty:
            self._rebuild()
        return _tree_depth(self._tree)
