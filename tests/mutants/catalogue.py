"""The mutant catalogue: each row is a defect planted in a copy of
``src/`` and the tests that must fail on it.

A row is ``Mutant(id, file, old, new, fails)``: ``file`` is relative to
``src/``, ``old`` occurs exactly once in it and is replaced by ``new``
(or, when both are tuples, each ``old`` by its ``new``), and every id in
``fails`` (pytest node ids, as ``-rf`` prints them) must then fail.
``pytest -m mutants`` plants and runs each row
(tests/mutants/test_catalogue.py); tier-1 only checks that every
``old`` is still found once.

The rows are the mutations this repository has used to show that a
check is covered: the ones behind docs/STATIC_ANALYSIS.md "Retired
codes", the ones earlier changes planted by hand, and one for each
planted case of the codegen audit (RP5xx), written as a mutation of
the emitter or compiler that produces it, and one for each plugin lint
code (RP2xx, RP4xx), planting in shipped code the defect the code exists
for.  A row names every tier-1 id that fails on it.  Rows whose
``fails`` name only tests that call ``repro.analysis`` are the defects
only the lint or the audit sees (M9: RP501, R7: RP505, and the RP202,
RP203, RP211, RP401 and RP402 rows).
"""

from typing import Dict, List, NamedTuple, Tuple, Union


class Mutant(NamedTuple):
    id: str
    file: str
    old: Union[str, Tuple[str, ...]]
    new: Union[str, Tuple[str, ...]]
    fails: Tuple[str, ...]

    def edits(self) -> List[Tuple[str, str]]:
        """The ``(old, new)`` replacements the row makes."""
        if isinstance(self.old, str):
            return [(self.old, self.new)]
        return list(zip(self.old, self.new))


ORACLE = "tests/oracle/test_oracle.py::TestOracle::runTest"
AUDIT = "tests/analysis/test_codegen_audit.py::"
SELF_LINT = ("tests/analysis/test_self_lint.py::test_builtin_plugins_lint_clean",
             "tests/analysis/test_self_lint.py::test_full_self_lint_gate_is_clean")
HOTPATH = "tests/analysis/test_hotpath_lint.py::test_bad_pattern_is_flagged"
SHARDLINT = "tests/analysis/test_concurrency_lint.py::"
PIPELINE = "tests/perf/test_batch_pipeline.py::"
PREFLIGHT = "tests/aiu/test_classifier_differential.py::"
PURGE = "tests/aiu/test_purge.py::"
BATCH = "repro/core/batch.py"
DAG = "repro/aiu/dag.py"
BMP = "repro/bmp/base.py"
DRR = "repro/sched/drr.py"
ROUTER = "repro/core/router.py"
STATS = "repro/stats/plugin.py"
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
        "        for record in gone:\n            self._release(record)\n"
        "        return self._notify(gone)\n",
        "        for record in gone:\n            self._notify([record])\n"
        "            self._release(record)\n        return len(gone)\n",
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
    # -- the creation hook inside its fault domain ---------------------
    Mutant(
        "creation-hook-outside-try", BATCH,
        "                try:\n                    fcreated(record, fslot)\n"
        "                except Exception as exc:\n"
        "                    hookf = (hookf or []) + [(frec.instance, _gname, exc)]\n",
        "                fcreated(record, fslot)\n",
        tuple("tests/aiu/test_flow_hooks.py::"
              f"test_a_raising_creation_hook_is_a_fault_at_its_gate[{fail}-{front}]"
              for fail in ("first", "mid-batch", "trips-quarantine")
              for front in ("receive", "receive_batch")),
    ),
    # -- the flow index: each record holds exactly its bound cached flows --
    Mutant(
        # The generated miss branch binds a slot but does not index it:
        # releasing such a flow raises KeyError, so about 130 tier-1 ids
        # fail; the row names the index's own checks.
        "index-miss-branch-skips-the-add", BATCH,
        "            fslot.filter_record = frec\n            frec.flows[record] = None\n",
        "            fslot.filter_record = frec\n",
        (ORACLE, PURGE + "TestIndexUnbounded::runTest", PURGE + "TestIndexBounded::runTest",
         PURGE + "test_create_filter_walks_the_flow_table_once",
         PURGE + "test_remove_filters_across_two_gates_drops_exactly_their_flows",
         *(PURGE + f"test_instance_verbs_walk_the_flow_table_once[{verb}]"
           for verb in ("_deregister", "_purge_instance", "_unload"))),
    ),
    Mutant(
        # A bounded table's hookless victim is recycled still indexed by
        # its old filter record: removing that filter drops its new flow.
        "index-victim-block-skips-the-delete", BATCH,
        "                            del vbound.flows[victim]\n"
        "                            vslot.filter_record = None\n",
        "                            vslot.filter_record = None\n",
        (ORACLE, PURGE + "TestIndexBounded::runTest"),
    ),
    Mutant(
        # A released flow stays in its filter records' indexes: a later
        # verb releases a pool record a second time.
        "index-release-skips-the-delete", "repro/aiu/flow_table.py",
        "                    del bound.flows[record]\n",
        "                    pass\n",
        (ORACLE, PURGE + "TestIndexUnbounded::runTest", PURGE + "TestIndexBounded::runTest",
         PURGE + "test_remove_filters_across_two_gates_drops_exactly_their_flows",
         *(f"tests/core/test_fault_domains.py::"
           f"test_a_raising_removal_hook_is_a_fault_behind_each_verb[{verb}]"
           for verb in ("_unbind", "_remove_filter", "_unload")),
         "tests/core/test_unload_stale.py::TestPurgeInstanceDirect::"
         "test_purge_counts_a_flow_bound_by_a_late_bind",
         *("tests/oracle/test_oracle.py::" + test for test in (
             "test_installer_fires_in_a_traced_batch",
             "test_untraced_installer_parks_the_batching_fronts_by_name",
             "test_a_plugin_filter_at_an_active_gate_waits_for_the_batch_only_under_lanes",
             "test_hooks_planted_mid_batch_are_heard_at_once_under_packet"))),
    ),
    # -- plugin lint (RP2xx, RP4xx): each code's defect in shipped code --
    Mutant(
        # A router alert written to a log file instead of punted to the
        # control handler: every alerted packet blocks on the file.
        "rp201-alert-logged-to-a-file", "repro/options/plugins.py",
        "                if self.handler is not None:\n"
        "                    self.handler(packet, ctx)\n",
        "                with open(\"/dev/null\", \"a\") as log:\n"
        "                    log.write(f\"router alert from {packet.src}\\n\")\n",
        SELF_LINT + (
            "tests/integration/test_full_system.py::TestIPv6OptionsThroughRouter::"
            "test_router_alert_punts_to_control",
            "tests/integration/test_ipv6_path.py::TestOptionsOnPath::"
            "test_router_alert_reaches_handler_on_transit",
            "tests/options/test_option_plugins.py::TestRouterAlert::test_alert_punted_to_handler"),
    ),
    Mutant(
        "rp202-red-draws-from-the-module-random", "repro/sched/red.py",
        "            if self._rng.random() < probability:\n",
        "            if random.random() < probability:\n",
        SELF_LINT,
    ),
    Mutant(
        # The scheduling gate's empty-queue shortcut reads the clock: a
        # data-path root the lint walks since ROOT_METHODS holds it.
        "rp202-drr-pass-through-reads-the-clock", DRR,
        ("from collections import deque\n",
         "one is (inactive, deficit 0, a quantum owed).\"\"\"\n"),
        ("import time\nfrom collections import deque\n",
         "one is (inactive, deficit 0, a quantum owed).\"\"\"\n"
         "        self.passed_at = time.time()\n"),
        SELF_LINT + tuple(f"tests/analysis/test_pmgr_analyze.py::{test}" for test in (
            "test_analyze_command_reports_findings", "test_analyze_json_output",
            "test_show_aiu_analyzed_line_never_fresh_stale")),
    ),
    Mutant(
        "rp203-esp-bare-except", "repro/security/esp.py",
        "        except ValueError:\n",
        "        except:  # noqa: E722\n",
        SELF_LINT,
    ),
    Mutant(
        # A typo'd attribute on the tail-drop branch of the data path's
        # __slots__ queue: AttributeError on the first full queue.
        "rp204-packet-queue-slot-typo", "repro/sched/base.py",
        "            self.drops += 1\n            return False\n",
        "            self.dropped = self.drops + 1\n            return False\n",
        (HOTPATH + "[SlotsInstance-RP204]",
         "tests/sched/test_base_queue.py::TestPacketQueue::test_tail_drop_counts",
         "tests/sched/test_base_queue.py::TestSchedulerBase::test_full_queue_drops",
         "tests/sched/test_fifo_red_altq.py::TestAltqWfq::test_drops_counted",
         "tests/sched/test_fifo_red_altq.py::TestFifo::test_tail_drop",
         "tests/sched/test_hfsc.py::TestRealTime::test_longrun_rt_throughput_tracks_m2_plus_share",
         "tests/sched/test_hfsc.py::TestRealTime::"
         "test_realtime_class_meets_deadline_despite_tiny_share"),
    ),
    Mutant(
        "rp205-ah-outbound-uncharged", "repro/security/ah.py",
        "        icv_input = _authenticated_bytes(packet, inner_proto, packet.payload)\n"
        "        ctx.cycles.charge(len(icv_input) * Costs.SW_AUTH_PER_BYTE, \"sw_auth\")\n",
        "        icv_input = _authenticated_bytes(packet, inner_proto, packet.payload)\n",
        SELF_LINT + ("tests/analysis/test_self_lint.py::test_ah_charges_sw_auth_per_byte",),
    ),
    Mutant(
        "rp206-ah-inbound-catches-exception", "repro/security/ah.py",
        "        except (ValueError, SecurityError):\n",
        "        except Exception:\n",
        (HOTPATH + "[BroadExceptInstance-RP206]",),
    ),
    Mutant(
        "rp207-stats-counts-into-self-stats", STATS,
        ("        self._flows: Dict[Tuple, Dict] = {}\n",
         "        self._collector(packet, record)\n"),
        ("        self._flows: Dict[Tuple, Dict] = {}\n        self.stats: Dict[str, int] = {}\n",
         "        self.stats[self.collector_name] = self.stats.get(self.collector_name, 0) + 1\n"),
        (HOTPATH + "[AdHocMetricsInstance-RP207]", HOTPATH + "[AdHocCounterAugInstance-RP207]",
         "tests/integration/test_deployment.py::TestDeployment::test_monitor_counts_branch_traffic",
         "tests/integration/test_examples.py::test_example_runs[network_monitor.py]",
         "tests/integration/test_full_system.py::TestAllPluginTypesTogether::"
         "test_mixed_traffic_hits_the_right_plugins",
         "tests/integration/test_full_system.py::TestAllPluginTypesTogether::"
         "test_plugin_counts_survive_cache_hits",
         *(f"tests/stats/test_flow_churn.py::test_reinstalled_flow_keeps_its_history[{front}]"
           for front in ("metered", "receive", "receive_batch")),
         *(f"tests/stats/test_stats.py::TestStatisticsPlugin::{test}"
           for test in ("test_protocol_collector", "test_swappable_collector",
                        "test_volume_collector"))),
    ),
    Mutant(
        "rp209-dispatch-by-builtin-hash", "repro/shard/dispatch.py",
        "        s = packet.flow_fold32() % nshards\n",
        "        s = hash(packet.five_tuple()) % nshards\n",
        ("tests/analysis/test_hash_lint.py::test_shard_dispatch_layer_self_lints_clean",
         SELF_LINT[1],
         "tests/shard/test_differential.py::test_flows_never_split_and_stay_ordered"),
    ),
    Mutant(
        "rp211-hwesp-super-process", "repro/security/hw_offload.py",
        "        verdict = EspOutboundInstance.process(self, packet, ctx)\n",
        "        verdict = super().process(packet, ctx)\n",
        SELF_LINT,
    ),
    Mutant(
        # Every stats instance in the process shares one record dict.
        "rp401-stats-flows-in-a-module-global", STATS,
        ("    \"protocols\": collect_protocols,\n}\n",
         "        self._flows: Dict[Tuple, Dict] = {}\n",
         "        slot.private = self._flows.setdefault(\n",
         "            record = self._flows.get(key) or self._flows.setdefault(key, {})\n"),
        ("    \"protocols\": collect_protocols,\n}\nFLOWS: Dict[Tuple, Dict] = {}\n",
         "        self._flows = FLOWS\n",
         "        slot.private = FLOWS.setdefault(\n",
         "            record = FLOWS.get(key) or FLOWS.setdefault(key, {})\n"),
        SELF_LINT,
    ),
    Mutant(
        # The same, one scope down: the record dict on the class.
        "rp402-stats-flows-on-the-class", STATS,
        ("    \"\"\"Counts traffic on bound flows with a swappable collector.\"\"\"\n",
         "        self._flows: Dict[Tuple, Dict] = {}\n"),
        ("    \"\"\"Counts traffic on bound flows with a swappable collector.\"\"\"\n\n"
         "    _flows: Dict[Tuple, Dict] = {}\n",
         ""),
        SELF_LINT,
    ),
    Mutant(
        # The faults topic (a list of records per plugin) sum-merged.
        "rp404-faults-topic-sum-merged", "repro/mgr/format.py",
        "merge=_merge_faults)\n",
        "merge=\"sum\")\n",
        tuple(SHARDLINT + test for test in (
            "test_rp404_flags_unmergeable_leaf", "test_rp404_quiet_on_mergeable_payload",
            "test_rp404_skips_special_merger_topics", "test_live_library_query_is_mergeable"))
        + tuple(f"tests/mgr/test_fanout.py::{test}[{front}]"
                for test in ("test_every_front_reports_the_single_router_configuration",
                             "test_faults_policy_is_not_multiplied_by_the_front")
                for front in ("inline", "mp", "topology", "topology_sharded_node"))
        + (ORACLE, "tests/oracle/test_oracle.py::"
           "test_a_quarantined_drr_is_intercepted_on_every_front"),
    ),
    Mutant(
        # A plugin message that acts only on a shard whose flow table is
        # empty: the children of one fanout end configured differently.
        "rp405-set-weight-only-on-an-empty-flow-table", "repro/sched/base.py",
        "            args[\"instance\"].set_weight(args[\"record\"], args[\"weight\"])\n",
        "            if not self.pcu.aiu.flow_table.active:\n"
        "                args[\"instance\"].set_weight(args[\"record\"], args[\"weight\"])\n",
        (SHARDLINT + "test_rp405_flags_local_state_guarded_config_change",
         SHARDLINT + "test_rp405_quiet_on_unconditional_fanout",
         "tests/sched/test_drr.py::TestMessages::test_set_weight_message"),
    ),
)

#: Each retired lint code: the rows planting the defect it stood for, and
#: the ids it kept whose names do not carry the code.  Every test that
#: kept one of its ids is a must-fail id of one of those rows
#: (tests/mutants/test_catalogue.py; docs/STATIC_ANALYSIS.md "Retired codes").
RETIRED: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "RP204": (("rp204-packet-queue-slot-typo",), ()),
    "RP206": (("rp206-ah-inbound-catches-exception",), ()),
    "RP207": (("rp207-stats-counts-into-self-stats",), ()),
    "RP404": (("rp404-faults-topic-sum-merged",),
              (SHARDLINT + "test_live_library_query_is_mergeable",)),
    "RP405": (("rp405-set-weight-only-on-an-empty-flow-table",), ()),
    "RP502": (("M12-ctx-now-from-the-clock",), ()),
    "RP503": (("M7-handler-swallows", "M10-process-outside-try", "M11-dequeue-outside-try"), ()),
    "RP504": (("M2-drain-never-runs", "M3b-bounded-plan-cleared", "M4-first-pre-gate-skipped",
               "M5-packet-layout-drops-tm-cells", "M6-loops-keyed-without-telemetry",
               "M8-sweep-fault-classified-in-place", "M14-plan-change-keeps-the-loops"), ()),
}
