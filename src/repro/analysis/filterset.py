"""Filter-set semantic analyzer (RP1xx).

Detects, *exactly*, the pathologies a sane AIU configuration must not
contain:

* **RP101 shadowed filter** — an installed filter that no packet can
  ever select.  Because :meth:`FilterRecord.sort_key` orders by
  specificity before priority, a filter is shadowed precisely when every
  DAG leaf it is replicated into is either unreachable or won by another
  record, so the analysis is a reachability walk over the set-pruning
  DAG itself rather than a pairwise covers() heuristic — it catches
  multi-cover shadowing (a /8 partitioned away by two /9s) that no
  pairwise check can see.
* **RP102 redundant filter** — a bound filter whose removal would leave
  every packet's instance binding unchanged (at every reachable leaf it
  wins, the runner-up is bound to the very same instance).
* **RP103 conflicting bindings** — identical six-tuples at one gate
  bound to different instances with equal priority: installation order
  silently decides which instance gets the traffic.
* **RP104 ambiguous partial overlap** — port specs that partially
  overlap (only possible in tables that bypass the DAG's insert-time
  rejection, e.g. the linear oracle).
* **RP105 instance bound at multiple gates** — usually a configuration
  mistake (one instance's soft state shared across gates), occasionally
  deliberate; a warning.
* **RP106 unreachable DAG branch** — an edge whose label is fully
  covered by more-specific sibling labels; harmless replication debris,
  but operators watching ``node_count`` should know.

The walk reads DAG nodes without mutating them; non-DAG tables (the
linear oracle) are analyzed through a private shadow DAG built from
mirrored records, so the analyzer never touches live data-path state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..aiu.dag import DagFilterTable, LEVELS, _Node
from ..aiu.filters import PortSpec
from ..aiu.matchers import AmbiguousFilterError, WILDCARD
from ..aiu.records import FilterRecord
from ..net.addresses import Prefix, prefix_range
from .diagnostics import AnalysisReport, Diagnostic

#: Exact-match value-space sizes per level (None = unbounded).  Only the
#: protocol level has a finite space a wildcard edge could exhaust.
_EXACT_SPACE = {"protocol": 256, "iif": None}


def _filter_id(record: FilterRecord) -> str:
    bound = record.instance.name if record.instance is not None else "unbound"
    return f"{record.gate}: {record.filter} -> {bound}"


def _intervals_cover(low: int, high: int, intervals: Iterable[Tuple[int, int]]) -> bool:
    """True if the union of ``intervals`` covers all of ``[low, high]``."""
    merged = sorted(i for i in intervals if i[0] <= high and i[1] >= low)
    cursor = low
    for start, stop in merged:
        if start > cursor:
            return False
        cursor = max(cursor, stop + 1)
        if cursor > high:
            return True
    return cursor > high


def _edge_reachable(level: int, label: object, siblings: Sequence[object], width: int) -> bool:
    """Can any packet field value select this edge over its siblings?

    An edge is selected when its label is the *most specific* match for
    the value, so it is unreachable exactly when strictly-more-specific
    sibling labels cover its entire value set.
    """
    name = LEVELS[level]
    if name in ("src", "dst"):
        prefix: Prefix = label  # type: ignore[assignment]
        low, high = prefix_range(prefix)
        inner = [
            prefix_range(s)
            for s in siblings
            if isinstance(s, Prefix) and s.length > prefix.length and prefix.covers(s)
        ]
        return not _intervals_cover(low, high, inner)
    if name in ("sport", "dport"):
        spec: PortSpec = label  # type: ignore[assignment]
        inner = [
            (s.low, s.high)
            for s in siblings
            if isinstance(s, PortSpec) and s != spec and spec.covers(s)
        ]
        return not _intervals_cover(spec.low, spec.high, inner)
    # Exact levels: a specific label always beats the wildcard, so it is
    # always selectable; the wildcard edge dies only if the specific
    # siblings exhaust a finite value space.
    if label != WILDCARD:
        return True
    space = _EXACT_SPACE.get(name)
    if space is None:
        return True
    return len([s for s in siblings if s != WILDCARD]) < space


class _WalkResult:
    """Per-table outcome of the reachability walk."""

    def __init__(self) -> None:
        # record -> list of runner-ups (None = no runner-up) at each
        # reachable leaf the record wins.
        self.wins: Dict[int, List[Optional[FilterRecord]]] = {}
        self.win_records: Dict[int, FilterRecord] = {}
        # record -> an example record that beats it somewhere.
        self.beaten_by: Dict[int, FilterRecord] = {}
        # (level, label-str) -> one representative unreachable edge.
        self.unreachable: Dict[Tuple[int, str], object] = {}


def _walk_dag(dag: DagFilterTable) -> _WalkResult:
    result = _WalkResult()

    def visit(node: _Node, level: int) -> None:
        if level == len(LEVELS):
            best: Optional[FilterRecord] = None
            second: Optional[FilterRecord] = None
            for record in node.filters:
                if best is None or record.sort_key() > best.sort_key():
                    best, second = record, best
                elif second is None or record.sort_key() > second.sort_key():
                    second = record
            if best is None:
                return
            result.wins.setdefault(id(best), []).append(second)
            result.win_records[id(best)] = best
            for record in node.filters:
                if record is not best:
                    result.beaten_by.setdefault(id(record), best)
            return
        labels = list(node.edges)
        for label in labels:
            if _edge_reachable(level, label, labels, dag.width):
                visit(node.edges[label], level + 1)
            else:
                result.unreachable.setdefault((level, str(label)), label)

    visit(dag._root, 0)
    return result


def _shadow_dag(
    records: Sequence[FilterRecord], width: int, diagnostics: List[Diagnostic]
) -> Tuple[DagFilterTable, Dict[int, FilterRecord]]:
    """Mirror ``records`` into a private DAG (original records are never
    installed twice — that would corrupt their leaf/via bookkeeping).

    Install order follows the original ``seq`` so exact-tie behavior
    (latest installed wins) is reproduced by the mirrors' fresh seqs.
    """
    shadow = DagFilterTable(width=width)
    mapping: Dict[int, FilterRecord] = {}
    for record in sorted(records, key=lambda r: r.seq):
        mirror = FilterRecord(
            record.filter, record.gate, record.instance, record.priority
        )
        try:
            shadow.install(mirror)
        except AmbiguousFilterError as exc:
            diagnostics.append(
                Diagnostic(
                    "RP104",
                    f"filter {record.filter} has a partially overlapping port "
                    f"spec with an installed filter: {exc}",
                    subject=_filter_id(record),
                    hint="split the range into nested or disjoint port specs",
                )
            )
            continue
        mapping[id(mirror)] = record
    return shadow, mapping


def analyze_table(
    table: object, width: int, gate: str
) -> Tuple[List[Diagnostic], _WalkResult, Dict[int, FilterRecord]]:
    """Walk one filter table; returns (RP104/RP106 diagnostics, walk
    result over *mirror or real* records, mirror->original mapping)."""
    diagnostics: List[Diagnostic] = []
    records: List[FilterRecord] = table.records()
    if isinstance(table, DagFilterTable):
        dag = table
        mapping = {id(r): r for r in records}
    else:
        dag, mapping = _shadow_dag(records, width, diagnostics)
    result = _walk_dag(dag)
    for (level, label_text), _label in sorted(result.unreachable.items()):
        diagnostics.append(
            Diagnostic(
                "RP106",
                f"DAG edge {label_text!r} at level {LEVELS[level]!r} is fully "
                "covered by more-specific sibling labels; no packet can "
                "select it",
                subject=f"{gate}/{width}-bit table",
                hint="the broader filter only matches through replicas; "
                "consider removing it if RP101 also fires",
            )
        )
    return diagnostics, result, mapping


def _conflicts(records: Sequence[FilterRecord]) -> Tuple[List[Diagnostic], Set[int]]:
    """RP103: identical six-tuples at one gate, equal priority, bound to
    different instances — installation order silently picks the winner.
    Also returns the ids of every record such a group shadows: a
    reported conflict explains its losers, while a priority-resolved
    duplicate is not a conflict, so its loser still gets its own RP101."""
    diagnostics: List[Diagnostic] = []
    losers: Set[int] = set()
    groups: Dict[Tuple, List[FilterRecord]] = {}
    for record in records:
        flt = record.filter
        key = (record.gate, flt.src, flt.dst, flt.protocol, flt.sport, flt.dport, flt.iif)
        groups.setdefault(key, []).append(record)
    for group in groups.values():
        if len(group) < 2:
            continue
        top_priority = max(r.priority for r in group)
        contenders = [r for r in group if r.priority == top_priority]
        instances = {id(r.instance): r.instance for r in contenders if r.instance is not None}
        if len(instances) < 2:
            continue
        names = sorted(
            i.name if hasattr(i, "name") else repr(i) for i in instances.values()
        )
        winner = max(contenders, key=lambda r: r.seq)
        losers.update(id(r) for r in group if r is not winner)
        diagnostics.append(
            Diagnostic(
                "RP103",
                f"{len(contenders)} identical filters {winner.filter} at gate "
                f"{winner.gate!r} with equal priority are bound to different "
                f"instances ({', '.join(names)}); installation order decides "
                "which one gets the traffic",
                subject=_filter_id(winner),
                hint="give the intended winner a higher priority or remove "
                "the duplicates",
            )
        )
    return diagnostics, losers


def analyze_filterset(aiu: object) -> AnalysisReport:
    """Analyze every filter table of an AIU; returns an AnalysisReport."""
    report = AnalysisReport()
    # Per-gate aggregation across address-family tables: a record is
    # shadowed only if it wins nowhere in *any* table of its gate.
    gate_records: Dict[str, Dict[int, FilterRecord]] = {}
    gate_wins: Dict[str, Dict[int, List[Optional[FilterRecord]]]] = {}
    gate_beaten: Dict[str, Dict[int, FilterRecord]] = {}
    for (gate, width), table in sorted(
        aiu._tables.items(), key=lambda item: (item[0][0], item[0][1])
    ):
        diagnostics, result, mapping = analyze_table(table, width, gate)
        report.extend(diagnostics)
        records_here = gate_records.setdefault(gate, {})
        for record in table.records():
            records_here[id(record)] = record
        wins_here = gate_wins.setdefault(gate, {})
        for mirror_id, seconds in result.wins.items():
            original = mapping.get(mirror_id)
            if original is None:
                continue
            resolved = [
                mapping.get(id(s)) if s is not None else None for s in seconds
            ]
            wins_here.setdefault(id(original), []).extend(resolved)
        beaten_here = gate_beaten.setdefault(gate, {})
        for mirror_id, winner in result.beaten_by.items():
            original = mapping.get(mirror_id)
            winner_orig = mapping.get(id(winner))
            if original is not None and winner_orig is not None:
                beaten_here.setdefault(id(original), winner_orig)

    all_records: Dict[int, FilterRecord] = {}
    for records in gate_records.values():
        all_records.update(records)
    conflicts, losers = _conflicts(list(all_records.values()))

    for gate in sorted(gate_records):
        records = gate_records[gate]
        wins = gate_wins.get(gate, {})
        beaten = gate_beaten.get(gate, {})
        for record_id, record in sorted(
            records.items(), key=lambda item: item[1].seq
        ):
            if not record.active:
                continue
            if record_id not in wins:
                if record_id in losers:
                    continue  # explained by RP103 below
                winner = beaten.get(record_id)
                why = (
                    f"every packet it matches is claimed by "
                    f"{winner.filter} (priority {winner.priority})"
                    if winner is not None
                    else "every leaf it reaches is unreachable or won by "
                    "more-specific filters"
                )
                report.add(
                    Diagnostic(
                        "RP101",
                        f"filter {record.filter} at gate {record.gate!r} can "
                        f"never match: {why}",
                        subject=_filter_id(record),
                        hint="remove the filter, raise its priority, or "
                        "narrow the filters covering it",
                    )
                )
                continue
            if record.instance is None:
                continue
            seconds = wins[record_id]
            if seconds and all(
                s is not None and s.instance is record.instance for s in seconds
            ):
                covering = seconds[0]
                report.add(
                    Diagnostic(
                        "RP102",
                        f"filter {record.filter} at gate {record.gate!r} is "
                        f"redundant: wherever it wins, {covering.filter} "
                        "already binds the same instance "
                        f"({getattr(record.instance, 'name', None) or record.instance!r})",
                        subject=_filter_id(record),
                        hint="remove the narrower filter unless it exists "
                        "for priority or accounting reasons",
                    )
                )

    report.extend(conflicts)

    # RP105: one instance bound at several gates.
    by_instance: Dict[int, Tuple[object, Set[str]]] = {}
    for record in all_records.values():
        if record.instance is None or not record.active:
            continue
        entry = by_instance.setdefault(id(record.instance), (record.instance, set()))
        entry[1].add(record.gate)
    for instance, gates in by_instance.values():
        if len(gates) > 1:
            name = instance.name if hasattr(instance, "name") else repr(instance)
            report.add(
                Diagnostic(
                    "RP105",
                    f"instance {name!r} is bound at {len(gates)} gates "
                    f"({', '.join(sorted(gates))}); its per-flow soft state "
                    "is shared across gates",
                    subject=name,
                    hint="create one instance per gate unless sharing is "
                    "deliberate",
                )
            )
    return report


def analyze_records(records: Sequence[FilterRecord], width: int = 32) -> AnalysisReport:
    """Analyze a bare record list (no AIU) by building a shadow DAG."""
    report = AnalysisReport()
    diagnostics: List[Diagnostic] = []
    shadow, mapping = _shadow_dag(records, width, diagnostics)
    report.extend(diagnostics)
    result = _walk_dag(shadow)
    winners = {id(mapping[mid]) for mid in result.wins if mid in mapping}
    conflicts, losers = _conflicts(records)
    for record in sorted(mapping.values(), key=lambda r: r.seq):
        if id(record) not in winners and id(record) not in losers:
            report.add(
                Diagnostic(
                    "RP101",
                    f"filter {record.filter} at gate {record.gate!r} can "
                    "never match",
                    subject=_filter_id(record),
                    hint="remove the filter, raise its priority, or narrow "
                    "the filters covering it",
                )
            )
    report.extend(conflicts)
    return report
