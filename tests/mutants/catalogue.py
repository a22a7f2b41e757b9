"""The mutant catalogue: each row is a defect planted in a copy of
``src/`` and the tests that must fail on it.

A row is ``Mutant(id, file, old, new, fails)``: ``file`` is relative to
``src/``, ``old`` occurs exactly once in it and is replaced by ``new``,
and every id in ``fails`` (pytest node ids, as ``-rf`` prints them)
must then fail.  ``pytest -m mutants`` plants and runs each row
(tests/mutants/test_catalogue.py); tier-1 only checks that every
``old`` is still found once.

The rows are the mutations this repository has used to show that a
check is covered: the ones behind docs/STATIC_ANALYSIS.md "Retired
codes", the ones earlier changes planted by hand, and one for each
planted case of the codegen audit (RP5xx), written as a mutation of
the emitter or compiler that produces it.  A row may name any test.
Rows whose ``fails`` name only tests that call ``repro.analysis`` are
the defects only the audit sees (M9: RP501, R7: RP505); they are why
those codes stay.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    fails: Tuple[str, ...]


ORACLE = "tests/oracle/test_oracle.py::TestOracle::runTest"
AUDIT = "tests/analysis/test_codegen_audit.py::"
PIPELINE = "tests/perf/test_batch_pipeline.py::"
PREFLIGHT = "tests/aiu/test_classifier_differential.py::"
BATCH = "repro/core/batch.py"
DAG = "repro/aiu/dag.py"
BMP = "repro/bmp/base.py"
DRR = "repro/sched/drr.py"
ROUTER = "repro/core/router.py"

MUTANTS = (
    # -- seeds: mutations earlier changes planted by hand ----------------
    Mutant(
        "port-cut-off-by-one", DAG,
        "cuts.add(label.high + 1)",
        "cuts.add(label.high)",
        (ORACLE, "tests/oracle/test_oracle.py::"
         "test_edge_traffic_straddles_port_ends_and_a_removed_covering_filter"),
    ),
    Mutant(
        "bmp-shift-off-by-one", BMP,
        "(self.width - length, by_length[length])",
        "(self.width - length + 1, by_length[length])",
        (ORACLE,),
    ),
    Mutant(
        "unlink-keeps-via-memo", DAG,
        "                node.compiled = _DIRTY\n                via = node.via.get(label)\n",
        "                via = node.via.get(label)\n",
        (ORACLE,),
    ),
    Mutant(
        # The creation hook decided once per compile: a hook bound onto an
        # already active gate is skipped until the plan changes.
        "creation-hook-plan-bool", BATCH,
        "    source = _emit(plan)\n",
        "    source = _emit(plan)\n"
        "    if not any(r.on_flow_created for t in aiu._tables.values()\n"
        "               for r in t.records()):\n"
        "        source = source.replace('fcreated(record, fslot)', 'pass')\n",
        ("tests/oracle/test_oracle.py::"
         "test_hooks_planted_mid_batch_are_heard_at_once_under_packet",),
    ),
    Mutant(
        "removal-hook-before-unlink", "repro/aiu/flow_table.py",
        "                self._release(record)\n                gone.append(record)\n"
        "            record = following\n        return self._notify(gone)\n",
        "                self._notify([record])\n                self._release(record)\n"
        "                gone.append(record)\n            record = following\n"
        "        return len(gone)\n",
        ("tests/aiu/test_flow_hooks.py::"
         "test_a_purge_releases_every_flow_before_a_raising_on_remove",),
    ),
    Mutant(
        "esp-in-counts-below-early-return", "repro/security/esp.py",
        "        self.packets_processed += 1\n        if packet.protocol != PROTO_ESP:\n"
        "            return Verdict.CONTINUE\n",
        "        if packet.protocol != PROTO_ESP:\n            return Verdict.CONTINUE\n"
        "        self.packets_processed += 1\n",
        ("tests/core/test_plugin_accounting.py::"
         "test_direct_call_counts_once[EspInboundInstance]",),
    ),
    Mutant(
        "arrive-keeps-iif", "repro/net/interfaces.py",
        "        packet.iif = self.name\n",
        "",
        (ORACLE,),
    ),
    Mutant(
        "arrive-keeps-fix", "repro/net/interfaces.py",
        "        packet._fix = None\n",
        "",
        (ORACLE,),
    ),
    Mutant(
        "route-memo-rebound", "repro/net/routing.py",
        "        route = Route(prefix, next_hop, interface, metric)\n"
        "        self._routes[prefix] = route\n"
        "        self._engine(prefix.width).insert(prefix, route)\n"
        "        self.version += 1\n        self._memo4.clear()\n",
        "        route = Route(prefix, next_hop, interface, metric)\n"
        "        self._routes[prefix] = route\n"
        "        self._engine(prefix.width).insert(prefix, route)\n"
        "        self.version += 1\n        self._memo4 = {}\n",
        ("tests/perf/test_bound_state.py::"
         "test_loop_defaults_stay_the_live_router_state_after_every_verb",),
    ),
    # -- RP501: free names of the generated loop ------------------------
    Mutant(
        "M1-namespace-drops-TEXC", BATCH,
        '        "TEXC": time_exceeded,\n',
        "",
        (ORACLE,),
    ),
    Mutant(
        "M9-miss-branch-getattr-per-packet", BATCH,
        "            fcreated = frec.on_flow_created\n",
        '            fcreated = getattr(frec, "on_flow_created", None)\n',
        (PIPELINE + "test_warmed_pipeline_passes_codegen_audit",
         AUDIT + "test_warm_router_audits_clean[None-True-lanes]"),
    ),
    # -- RP502 (retired): the loop reads time only from ``now`` ----------
    Mutant(
        "M12-ctx-now-from-the-clock", BATCH,
        "            {ctx}.now = now\n",
        "            {ctx}.now = __import__('time').monotonic()\n",
        (ORACLE, PIPELINE + "test_reentrant_plugin_sees_its_own_context[lanes]",
         PIPELINE + "test_reentrant_plugin_sees_its_own_context[packet]",
         AUDIT + "test_rp502_nondeterministic_builtin",
         AUDIT + "test_rp502_wins_over_rp501_for_forbidden_names"),
    ),
    # -- RP503 (retired): every plugin call inside its fault domain -------
    Mutant(
        "M7-handler-swallows", BATCH,
        'blk(d + 1, f"verdict = on_fault(ginst, {gate!r}, exc, packet, now)")',
        'blk(d + 1, "verdict = None")',
        (ORACLE, AUDIT + "test_rp503_swallowing_handler",
         AUDIT + "test_rp503_on_fault_is_accepted"),
    ),
    Mutant(
        "M10-process-outside-try", BATCH,
        "        try:\n            verdict = ginst.process(packet, ctx_{gi})\n"
        "        except Exception as exc:\n",
        "        if True:\n            verdict = ginst.process(packet, ctx_{gi})\n"
        "        if False:\n",
        (ORACLE, AUDIT + "test_rp503_no_handler_at_all",
         AUDIT + "test_rp503_reraise_is_accepted"),
    ),
    Mutant(
        "M11-dequeue-outside-try", ROUTER,
        "        try:\n            return scheduler.dequeue(at)\n"
        "        except Exception as exc:\n"
        "            self.faults.on_fault(scheduler, GATE_PACKET_SCHEDULING, exc, None, at)\n"
        "            return None\n",
        "        return scheduler.dequeue(at)\n",
        tuple(PIPELINE + f"test_dequeue_faults_mid_batch_until_quarantine_trips[{g}-{a}]"
              for g in ("packet", "lanes") for a in ("drop", "bypass"))
        + (ORACLE, AUDIT + "test_rp503_one_guarded_call_does_not_excuse_another",
           AUDIT + "test_rp503_sees_the_drain_classify_through_on_fault"),
    ),
    # -- RP504 (retired): the loop is the one for the router's plan -------
    Mutant(
        # The scheduler stage's hand-off falls through to the forward emit.
        "M2-drain-never-runs", BATCH,
        "        # Hand-off: the spec's gate, enqueue and drain.\n"
        "        out[{idx}] = router._output(packet, oif, now, NULL)\n        continue\n",
        "        # Hand-off: the spec's gate, enqueue and drain.\n",
        (ORACLE, AUDIT + "test_rp504_scheduler_drain_follows_has_sched"),
    ),
    Mutant(
        "M3b-bounded-plan-cleared", BATCH,
        '        "bounded": table.max_records is not None,\n',
        '        "bounded": False,\n',
        (ORACLE, AUDIT + "test_rp504_loop_without_source_attribute"),
    ),
    Mutant(
        "M4-first-pre-gate-skipped", BATCH,
        '    for pos, (gate, gi) in enumerate(plan["pre"]):\n        blk(3, f"if start',
        '    for pos, (gate, gi) in enumerate(plan["pre"][1:], 1):\n        blk(3, f"if start',
        (ORACLE, AUDIT + "test_rp504_unreferenced_pre_gate"),
    ),
    Mutant(
        "M5-packet-layout-drops-tm-cells", BATCH,
        '            blk(depth, f"cells[{gi}] += 1")\n',
        "            pass\n",
        (ORACLE, AUDIT + "test_rp504_plan_field_missing_marker"),
    ),
    Mutant(
        "M6-loops-keyed-without-telemetry", ROUTER,
        "        key = (self._plan, self._tm_gate_cells is not None)\n",
        "        key = (self._plan, False)\n",
        (ORACLE, AUDIT + "test_rp504_marker_without_plan_field"),
    ),
    Mutant(
        "M8-sweep-fault-classified-in-place", BATCH,
        '            f"return _resume(router, exc, ginst, {gate!r}, {pos}, lane_p,\\n"\n'
        '            "               lane_i, live, j, now, out)"\n',
        '            f"verdict = on_fault(ginst, {gate!r}, exc, packet, now)"\n',
        (ORACLE, AUDIT + "test_rp504_fused_without_on_fault"),
    ),
    Mutant(
        "M14-plan-change-keeps-the-loops", ROUTER,
        "            self._plan = plan\n            self._select_loops()\n",
        "            self._plan = plan\n",
        (ORACLE, AUDIT + "test_rp504_loop_filed_under_the_wrong_plan",
         AUDIT + "test_rp504_audits_cached_loops_of_other_plans"),
    ),
    # -- the scheduling gate's pass-through -------------------------------
    Mutant(
        # Reached through set_scheduler: an instance that queued while the
        # port drained another one becomes the port's scheduler.
        "pass-through-ignores-backlog", DRR,
        "        if self._backlog:\n            return False\n",
        "",
        ("tests/oracle/test_oracle.py::"
         "test_a_gate_scheduler_drains_its_backlog_once_it_is_the_port_s",),
    ),
    Mutant(
        "pass-through-drops-bytes-sent", DRR,
        "        self.bytes_sent += size\n        return True\n",
        "        return True\n",
        (ORACLE,),
    ),
    Mutant(
        "pass-through-not-the-port-s-scheduler", BATCH,
        "                and schedulers.get(oif, ginst) is ginst):\n",
        "                ):\n",
        ("tests/oracle/test_oracle.py::"
         "test_a_gate_scheduler_drains_its_backlog_once_it_is_the_port_s",),
    ),
    Mutant(
        "pass-through-under-quarantine", BATCH,
        " and not qmap and ",
        " and ",
        ("tests/oracle/test_oracle.py::test_a_quarantined_drr_is_intercepted_on_every_front",),
    ),
    Mutant(
        "pass-through-under-an-event-loop", BATCH,
        " and evloop is None\n",
        "\n",
        (PIPELINE + "test_event_loop_owns_the_drain",),
    ),
    Mutant(
        "pass-through-kept-by-an-overriding-subclass", DRR,
        "            cls.pass_through = None\n",
        "            pass\n",
        (ORACLE, "tests/oracle/test_oracle.py::"
         "test_a_faulting_dequeue_is_charged_on_every_front"),
    ),
    # -- the routing gate: L4 switching runs the spec's _route ---------
    Mutant(
        "routing-gate-skipped", BATCH,
        '        blk(depth, "route = router._route(packet, now, NULL)")\n',
        '        blk(depth, "route = rlookup(packet.dst)")\n',
        tuple(PIPELINE + f"test_l4_switching_at_the_routing_gate_matches_scalar[{g}]"
              for g in ("packet", "lanes")),
    ),
    # -- RP505: compiled lookup structures -------------------------------
    Mutant(
        "R1-dag-prefix-tables-shortest-first", DAG,
        "                for length in sorted(by_length, reverse=True)\n",
        "                for length in sorted(by_length)\n",
        (ORACLE,),
    ),
    Mutant(
        "R2-bmp-tables-shortest-first", BMP,
        "            for length in sorted(by_length, reverse=True)\n",
        "            for length in sorted(by_length)\n",
        (ORACLE,),
    ),
    Mutant(
        "R3-range-children-one-short", DAG,
        "            for index in range(len(boundaries) + 1):\n",
        "            for index in range(len(boundaries)):\n",
        (ORACLE,),
    ),
    Mutant(
        "R5-bmp-compile-drops-the-default", BMP,
        "        for prefix, value in self.entries():\n",
        "        for prefix, value in (e for e in self.entries() if e[0].length):\n",
        (ORACLE, "tests/integration/test_examples.py::TestExampleOutputs::"
         "test_diffserv_enforces_profiles"),
    ),
    Mutant(
        "R6-dag-epoch-not-recorded", DAG,
        "            self._compiled_epoch = self.epoch\n",
        "",
        ("tests/aiu/test_classifier_differential.py::"
         "test_a_verb_recompiles_its_path_not_the_table",),
    ),
    Mutant(
        "R7-bmp-epoch-not-recorded", BMP,
        "        self._fast_epoch = self.mutation_epoch\n",
        "",
        (AUDIT + "test_rp505_engine_clean_when_untampered",),
    ),
    # -- the install pre-flight: each half is the only check that refuses
    Mutant(
        "preflight-skips-copied-records", DAG,
        "                    self._check_ambiguity(flt, other.filter)\n",
        "                    pass\n",
        (PREFLIGHT + "test_preflight_decides_as_the_pairwise_check_on_removal_free_histories",
         PREFLIGHT + "test_a_refusal_after_removals_writes_nothing"),
    ),
    Mutant(
        "preflight-skips-covered-siblings", DAG,
        "        for sibling in matcher.covered(label):\n"
        "            self._preflight(node.edges[sibling], level + 1, flt, labels)\n",
        "",
        (PREFLIGHT + "test_preflight_decides_as_the_pairwise_check_on_removal_free_histories",
         PREFLIGHT + "test_a_refusal_after_removals_writes_nothing"),
    ),
    Mutant(
        "R8-dst-level-compiled-as-exact", DAG,
        '        if name in ("src", "dst"):\n            # Per-length',
        '        if name == "src":\n            # Per-length',
        (ORACLE,),
    ),
)
