"""The DAG-based filter table (§5.1) — a set-pruning trie.

One :class:`DagFilterTable` exists per gate and address family.  Levels
follow the six-tuple order ⟨src, dst, protocol, sport, dport, iif⟩; each
level's match function is a pluggable :class:`~repro.aiu.matchers.LevelMatcher`
(longest-prefix match via a BMP engine for addresses, ranges for ports,
exact/wildcard for the rest), exactly as the paper describes.

**Set-pruning invariant.**  Lookup descends one edge per level — the most
specific label matching the packet's field.  For that single descent to
find the best matching filter, insertion replicates each filter into the
subtrees of all *more specific* sibling labels (and, symmetrically, when
a new more-specific label appears, filters from covering labels are
copied down into it).  The leaf reached by a lookup therefore holds every
filter matching the packet, and the best one is the maximum under
:meth:`FilterRecord.sort_key`.  This replication is the source of the
worst-case memory blow-up the paper concedes for "ambiguous filters".

Cost accounting reproduces Table 2: two function-pointer accesses per
lookup (BMP function + index hash), one DAG-edge access per level, the
BMP engine's probes per address level, and one access per port level.

**Compiled slow path.**  :meth:`DagFilterTable.lookup_fast` is a
wall-clock specialization of :meth:`DagFilterTable.lookup`: the DAG is
flattened into per-level plain-dict / sorted-interval tables with each
leaf collapsed to its precomputed best :class:`FilterRecord`, so a
flow-miss classification is ~6 dict/bisect probes instead of a recursive
node walk through matcher objects.  It charges zero modelled cost and
must only be taken when no meter or tracer observes the lookup (the AIU
enforces this); the metered walk above stays the cost-model spec.

**A verb recompiles what it changed.**  Every node memoises its
compiled form.  An install clears the memo of each node its recursion
visits (it starts at the root: every ancestor of anything it mutates), a
remove those the record's own ``via``/``leaves`` lists name.  The
per-table ``epoch`` bumped on every install/remove is still the one int
compare a lookup pays; the lazy recompile it triggers takes the memo of
a clean subtree and rebuilds the changed path and the edge tables of the
nodes on it.  A first compile is the same walk over an all-dirty table.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..net.addresses import Prefix
from ..net.packet import Packet
from ..sim.cost import NULL_METER
from .filters import Filter, FilterError, PORT_MAX, PortSpec
from .matchers import (
    AmbiguousFilterError,
    ExactMatcher,
    LevelMatcher,
    PrefixMatcher,
    RangeMatcher,
    WILDCARD,
)
from .records import FilterRecord

#: Level names in descent order (§5.1's six-tuple).
LEVELS = ("src", "dst", "protocol", "sport", "dport", "iif")

# Compiled-node kind tags (see DagFilterTable._compile_node).  A compiled
# node is the 3-tuple ``(kind, a, b)``:
#   _C_PREFIX: a = ((shift, {top_bits: child}), ...) longest length first
#   _C_RANGE:  a = sorted segment boundaries, b = children (len(a) + 1)
#   _C_EXACT:  a = {label: child}, b = wildcard child or None
# Children at the last level are the leaf's precomputed best FilterRecord
# (or None for an empty leaf).  lookup_fast never reads the tag — the
# level fixes the kind; only the RP505 audit (codegen_audit) checks it.
_C_PREFIX, _C_RANGE, _C_EXACT = 0, 1, 2

class _DIRTY:
    """``_Node.compiled`` of a node changed since it was last compiled.
    (An empty leaf compiles to None; a class is itself under copy.)"""


def _prefixes_overlap(a: Prefix, b: Prefix) -> bool:
    """Prefixes share addresses iff one covers the other (or a wildcard)."""
    if a.is_wildcard or b.is_wildcard:
        return True
    if a.width != b.width:
        return False
    return a.covers(b) or b.covers(a)


class _Node:
    """One DAG node: a matcher over edge labels, per-edge via-lists
    recording which filters descended each edge (for copy-down), and the
    memo of the subtree's compiled form."""

    __slots__ = ("level", "matcher", "edges", "via", "filters", "owner", "compiled")

    def __init__(self, level: int, matcher: Optional[LevelMatcher], owner: "DagFilterTable"):
        self.level = level
        self.matcher = matcher
        self.edges: Dict[object, "_Node"] = {}
        self.via: Dict[object, List[FilterRecord]] = {}
        self.filters: List[FilterRecord] = []   # leaf nodes only
        # A record installed in two per-family tables shares one
        # leaves/via bookkeeping list; the owner pointer lets each table
        # clean up only its own nodes on removal.
        self.owner = owner
        self.compiled: object = _DIRTY


class DagFilterTable:
    """Set-pruning DAG classifier for one gate and one address family."""

    def __init__(
        self,
        width: int = 32,
        bmp_engine: str = "patricia",
        check_ambiguity: bool = True,
        collapse_wildcards: bool = False,
    ):
        self.width = width
        self.bmp_engine = bmp_engine
        # The pairwise ambiguity pre-flight is O(installed filters) per
        # insert; callers installing sets that are laminar by
        # construction (e.g. repro.workloads.filtersets) may disable it.
        self.check_ambiguity = check_ambiguity
        # §5.1.2 optimization: "collapse multiple nodes into a single
        # node ... when multiple wildcarded edges succeed each other
        # without any branching".  Implemented as a lookup-time skip: a
        # node whose only edge is the wildcard costs one edge access and
        # no match-function probes.  Off by default so the Table 2
        # accounting matches the paper's unoptimized analysis.
        self.collapse_wildcards = collapse_wildcards
        self._wildcard_labels = (
            Prefix(0, 0, width),
            Prefix(0, 0, width),
            WILDCARD,
            PortSpec.wildcard(),
            PortSpec.wildcard(),
            WILDCARD,
        )
        self._root = _Node(0, self._make_matcher(0), self)
        self._records: List[FilterRecord] = []
        #: Bumped on every install/remove; lookup_fast recompiles lazily
        #: when it diverges from the compiled epoch.
        self.epoch = 0
        self._compiled_epoch = -1
        self._compiled_root = None
        #: Recompiles run, and nodes they rebuilt (the last one, and all).
        self.compiles = 0
        self.nodes_compiled = 0
        self.nodes_compiled_last = 0
        # Packet-field extractors, one per level.
        self._extractors: Tuple[Callable[[Packet], object], ...] = (
            lambda p: p.src.value,
            lambda p: p.dst.value,
            lambda p: p.protocol,
            lambda p: p.src_port,
            lambda p: p.dst_port,
            lambda p: p.iif,
        )

    # ------------------------------------------------------------------
    # Level plumbing
    # ------------------------------------------------------------------
    def _make_matcher(self, level: int) -> LevelMatcher:
        name = LEVELS[level]
        if name in ("src", "dst"):
            return PrefixMatcher(self.width, self.bmp_engine)
        if name in ("sport", "dport"):
            return RangeMatcher()
        return ExactMatcher()

    def _labels_for(self, flt: Filter) -> Sequence[object]:
        """Normalize a filter's six fields to this table's label types."""
        return (
            self._norm_prefix(flt.src),
            self._norm_prefix(flt.dst),
            WILDCARD if flt.protocol is None else flt.protocol,
            flt.sport,
            flt.dport,
            WILDCARD if flt.iif is None else flt.iif,
        )

    def _norm_prefix(self, prefix: Prefix) -> Prefix:
        if prefix.is_wildcard:
            return Prefix(0, 0, self.width)
        if prefix.width != self.width:
            raise FilterError(
                f"/{prefix.width} prefix {prefix} in a /{self.width} filter table"
            )
        return prefix

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, record: FilterRecord) -> None:
        """Insert a filter record, maintaining the set-pruning invariant.

        Raises :class:`AmbiguousFilterError` (leaving the table's matches
        unchanged) if a port field partially overlaps an installed one —
        or a label a removed one left behind, which only the insert
        itself finds, part-way down.
        """
        labels = self._labels_for(record.filter)
        if self.check_ambiguity:
            for existing in self._records:
                self._check_ambiguity(record.filter, existing.filter)
        try:
            self._insert(self._root, 0, record, labels)
        except AmbiguousFilterError:
            self._unlink(record)
            raise
        self._records.append(record)
        self.epoch += 1

    @staticmethod
    def _check_ambiguity(new: Filter, old: Filter) -> None:
        """Pre-flight so a failed install leaves the table unchanged.

        Two filters can share a port-level DAG node exactly when all their
        earlier fields pairwise overlap (prefixes overlap iff one covers
        the other, so replication forces a shared node).  A partial port
        overlap at such a node breaks the laminar-range requirement of
        :class:`RangeMatcher`, so we reject it here.
        """
        if not (_prefixes_overlap(new.src, old.src) and _prefixes_overlap(new.dst, old.dst)):
            return
        if new.protocol is not None and old.protocol is not None and new.protocol != old.protocol:
            return
        if new.sport.partially_overlaps(old.sport):
            raise AmbiguousFilterError(
                f"source-port spec {new.sport} of {new} partially overlaps "
                f"{old.sport} of installed {old}"
            )
        if not new.sport.overlaps(old.sport):
            return
        if new.dport.partially_overlaps(old.dport):
            raise AmbiguousFilterError(
                f"destination-port spec {new.dport} of {new} partially overlaps "
                f"{old.dport} of installed {old}"
            )

    def _insert(
        self, node: _Node, level: int, record: FilterRecord, labels: Sequence[object]
    ) -> None:
        node.compiled = _DIRTY
        if level == len(LEVELS):
            if record not in node.filters:
                node.filters.append(record)
                record.leaves.append(node)
            return
        label = labels[level]
        matcher = node.matcher
        child = node.edges.get(label)
        if child is None:
            matcher.add(label)
            child = _Node(
                level + 1,
                self._make_matcher(level + 1) if level + 1 < len(LEVELS) else None,
                self,
            )
            node.edges[label] = child
            node.via[label] = []
            # Copy-down: filters that descended covering labels also match
            # everything under the new, more specific label.  The matcher
            # enumerates covering labels in O(width), not O(labels).
            for other_label in matcher.covering(label):
                for other in list(node.via[other_label]):
                    self._descend(node, label, level, other, self._labels_for(other.filter))
        # The record itself descends its own label...
        self._descend(node, label, level, record, labels)
        # ...and is replicated under every more specific sibling label.
        for sibling in matcher.covered(label):
            self._descend(node, sibling, level, record, labels)

    def _descend(
        self,
        node: _Node,
        label: object,
        level: int,
        record: FilterRecord,
        labels: Sequence[object],
    ) -> None:
        via = node.via[label]
        if record in via:
            return  # already replicated down this edge
        via.append(record)
        record.via.append((node, label))
        self._insert(node.edges[label], level + 1, record, labels)

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def remove(self, record: FilterRecord) -> bool:
        """Remove a filter record and all its replicas.

        Edges created for the filter are left in place (as in the paper's
        kernel); they are harmless because the set-pruning invariant for
        the remaining filters is untouched.
        """
        if record not in self._records:
            return False
        self._records.remove(record)
        self._unlink(record)
        self.epoch += 1
        return True

    def _unlink(self, record: FilterRecord) -> None:
        """Take the record out of this table's leaves and via-lists."""
        kept_leaves = []
        for leaf in record.leaves:
            if leaf.owner is self:
                leaf.compiled = _DIRTY
                if record in leaf.filters:
                    leaf.filters.remove(record)
            else:
                kept_leaves.append(leaf)
        record.leaves[:] = kept_leaves
        kept_via = []
        for node, label in record.via:
            if node.owner is self:
                node.compiled = _DIRTY
                via = node.via.get(label)
                if via is not None and record in via:
                    via.remove(record)
            else:
                kept_via.append((node, label))
        record.via[:] = kept_via
        if not record.leaves:
            record.active = False

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, packet: Packet, meter=NULL_METER) -> Optional[FilterRecord]:
        """Best-matching filter for the packet (§5.1.1 example walk)."""
        # Table 2 rows 1-2: fetching the BMP match function pointer and
        # the index-hash function pointer for this table.
        meter.access(1, "fnptr_bmp")
        meter.access(1, "fnptr_hash")
        node = self._root
        for level in range(len(LEVELS)):
            wildcard = self._wildcard_labels[level]
            if (
                self.collapse_wildcards
                and len(node.edges) == 1
                and wildcard in node.edges
            ):
                # Collapsed wildcard chain: one edge access, no probes.
                meter.access(1, "dag_edge")
                node = node.edges[wildcard]
                continue
            value = self._extractors[level](packet)
            label = node.matcher.best_match(value, meter)
            if label is None:
                return None
            meter.access(1, "dag_edge")
            node = node.edges[label]
        best: Optional[FilterRecord] = None
        for record in node.filters:
            if best is None or record.sort_key() > best.sort_key():
                best = record
        return best

    # ------------------------------------------------------------------
    # Compiled lookup (wall-clock slow-path specialization)
    # ------------------------------------------------------------------
    def ensure_compiled(self) -> None:
        """Recompile what install/remove dirtied since the last compile
        (an int compare when nothing changed)."""
        if self._compiled_epoch != self.epoch:
            before = self.nodes_compiled
            self._compiled_root = self._compile_node(self._root, 0)
            self._compiled_epoch = self.epoch
            self.compiles += 1
            self.nodes_compiled_last = self.nodes_compiled - before

    def _compile_node(self, node: _Node, level: int):
        """Rebuild a dirty node's compiled form from its children's —
        their memos where clean — and memoise it."""
        self.nodes_compiled += 1
        if level == len(LEVELS):
            # Leaf: collapse the replica set to its precomputed best.
            best: Optional[FilterRecord] = None
            for record in node.filters:
                if best is None or record.sort_key() > best.sort_key():
                    best = record
            node.compiled = best
            return best
        children = {
            label: child.compiled if child.compiled is not _DIRTY
            else self._compile_node(child, level + 1)
            for label, child in node.edges.items()
        }
        name = LEVELS[level]
        if name in ("src", "dst"):
            # Per-length dict tables probed longest first — exactly the
            # BMP engine's longest-match over the edge labels.
            by_length: Dict[int, Dict[int, object]] = {}
            for label, child in children.items():
                by_length.setdefault(label.length, {})[label.key_bits()] = child
            tables = tuple(
                (self.width - length, by_length[length])
                for length in sorted(by_length, reverse=True)
            )
            compiled = (_C_PREFIX, tables, None)
        elif name in ("sport", "dport"):
            # Flatten the laminar port labels into elementary segments:
            # cut at every label boundary, then resolve each segment once
            # through the matcher itself so compiled and interpreted
            # most-specific semantics cannot diverge.
            cuts = set()
            for label in node.edges:
                cuts.add(label.low)
                cuts.add(label.high + 1)
            boundaries = sorted(c for c in cuts if 0 < c <= PORT_MAX)
            kids = []
            for index in range(len(boundaries) + 1):
                probe = 0 if index == 0 else boundaries[index - 1]
                label = node.matcher.best_match(probe)
                kids.append(None if label is None else children[label])
            compiled = (_C_RANGE, boundaries, kids)
        else:
            wildcard_child = children.get(WILDCARD)
            exact = {
                label: child
                for label, child in children.items()
                if label != WILDCARD
            }
            compiled = (_C_EXACT, exact, wildcard_child)
        node.compiled = compiled
        return compiled

    def lookup_fast(self, packet: Packet) -> Optional[FilterRecord]:
        """Compiled equivalent of :meth:`lookup`: same record for every
        packet (differentially fuzzed), zero modelled cost, no meter.
        Straight-line per level: the level fixes each node's kind."""
        if self._compiled_epoch != self.epoch:
            self.ensure_compiled()
        node = self._compiled_root
        value = packet.src.value
        for shift, table in node[1]:
            node = table.get(value >> shift)
            if node is not None:
                break
        else:
            return None
        value = packet.dst.value
        for shift, table in node[1]:
            node = table.get(value >> shift)
            if node is not None:
                break
        else:
            return None
        node = node[1].get(packet.protocol, node[2])
        if node is None:
            return None
        cuts, kids = node[1], node[2]
        node = kids[bisect_right(cuts, packet.src_port)] if cuts else kids[0]
        if node is None:
            return None
        cuts, kids = node[1], node[2]
        node = kids[bisect_right(cuts, packet.dst_port)] if cuts else kids[0]
        if node is None:
            return None
        return node[1].get(packet.iif, node[2])

    def lookup_all(self, packet: Packet) -> List[FilterRecord]:
        """All filters matching the packet (testing/diagnostics; uses the
        leaf's replica set, so it also validates the invariant)."""
        node = self._root
        for level in range(len(LEVELS)):
            label = node.matcher.best_match(self._extractors[level](packet))
            if label is None:
                return []
            node = node.edges[label]
        return sorted(node.filters, key=lambda r: r.sort_key(), reverse=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def nodes(self):
        """Every DAG node, root first."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.edges.values())

    def node_count(self) -> int:
        """Total DAG nodes — measures the replication blow-up (§5.1.2)."""
        return sum(1 for _node in self.nodes())

    def records(self) -> List[FilterRecord]:
        return list(self._records)
