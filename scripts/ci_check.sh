#!/bin/sh
# The one CI entry point: static-analysis gate, the tier-1 suite, then
# the robustness gates.  Everything here repeats exactly — there is no
# wall-clock floor or ceiling (docs/PERFORMANCE.md "Running the
# benchmark": speed is judged by paired runs of benchmarks/e2e/run.py).
#
# Usage: scripts/ci_check.sh
#
# The static-analysis gate self-lints every built-in plugin (hot-path
# RP2xx and shard-safety RP4xx passes), sweeps the shard/batch layers
# themselves, warms and audits both generated loop layouts (RP5xx), and
# verifies compiled/interpreted equivalence for the classifier DAG and
# all BMP engines (scripts/analyze.py --self-lint), plus ruff/mypy over
# the linted subsystems when those tools are installed.  The tier-1
# suite includes the cost-model invariance goldens; chaos_check.sh runs
# the seeded fault-injection soak and the fault-containment suites; the
# attack gate runs the seeded adversarial-workload soaks against the
# overload governor.  Exits non-zero if any gate fails.

set -eu

cd "$(dirname "$0")/.."

echo "==== static-analysis gate (scripts/analyze.py --self-lint) ===="
python scripts/analyze.py --self-lint

echo "== SARIF output smoke (--self-lint --sarif | json.tool) =="
python scripts/analyze.py --self-lint --sarif | python -m json.tool > /dev/null
echo "ok: SARIF log is valid JSON"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (analysis + shard + topo + fanout + dag + batch + wire codec + drr) =="
    ruff check src/repro/analysis src/repro/shard src/repro/topo \
        src/repro/mgr/fanout.py src/repro/core/aggregate.py \
        src/repro/aiu/dag.py \
        src/repro/core/batch.py src/repro/net/packet.py \
        src/repro/net/headers.py src/repro/net/checksum.py \
        src/repro/sched/base.py src/repro/sched/drr.py scripts/analyze.py
else
    echo "== ruff skipped (not installed) =="
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (analysis strict; shard/batch typed-where-annotated) =="
    mypy --config-file pyproject.toml
else
    echo "== mypy skipped (not installed) =="
fi

echo "==== size (src/ net lines is a tracked metric, ROADMAP aim 2) ===="
find src -name '*.py' | xargs wc -l | tail -1
wc -l src/repro/mgr/fanout.py src/repro/shard/control.py src/repro/topo/control.py
wc -l src/repro/net/packet.py src/repro/net/headers.py src/repro/net/checksum.py \
    src/repro/shard/dispatch.py
wc -l src/repro/core/batch.py src/repro/sched/base.py src/repro/sched/drr.py
wc -l src/repro/aiu/dag.py src/repro/core/router.py

echo "==== recompile ratio (a verb recompiles its path, not the table) ===="
# ensure_compiled() after one create_filter against the first, full
# compile of the same table, at 256 and 1024 filters: <= 0.1, on any box.
PYTHONPATH=src python -m pytest -q tests/perf/test_recompile_ratio.py

echo "==== telemetry gate (pmgr --json schema) ===="
# Every `pmgr show X --json` output must be machine-parseable: drive a
# configured router — a single one, then a 2-shard inline front, whose
# answers come through the fanout's merge — through the real command
# loop and pipe each topic's JSON through python -m json.tool.
PYTHONPATH=src python - <<'EOF' | python -m json.tool > /dev/null
import json
from repro import Router, PluginManager, ShardedRouter
from repro.mgr.format import topic_names
from repro.net import make_udp


def factory(index=0):
    router = Router(name=f"ci/{index}")
    router.add_interface("atm0", prefix="0.0.0.0/0")
    return router


blobs = []
for front in (factory(), ShardedRouter(nshards=2, factory=factory)):
    lines = []
    mgr = PluginManager(front, output=lines.append)
    mgr.run_script("""
modload drr
create drr drr0
bind drr0 - 10.*, *, UDP
telemetry on
trace on sample=1 capacity=16
overload on sample_interval=8
""")
    for i in range(32):
        front.receive(make_udp(f"10.0.0.{i % 4 + 1}", "20.0.0.1", 1000 + i, 9000, iif="atm0"))
    for topic in topic_names():
        lines.clear()
        mgr.run_command(f"show {topic} --json")
        blobs.append(json.loads("\n".join(lines)))
print(json.dumps(blobs))
EOF
echo "ok: all show topics emit valid JSON (single router and 2-shard front)"

echo "==== tier-1 tests (incl. cost-model invariance) ===="
PYTHONPATH=src python -m pytest -x -q

echo "==== robustness gate (scripts/chaos_check.sh) ===="
sh scripts/chaos_check.sh

echo "==== attack gate (seeded adversarial soak) ===="
# Overload protection under seeded attack scenarios (docs/ROBUSTNESS.md):
# bounded occupancy, >= 90% established-flow retention through a SYN
# flood / cache thrash, recovery to NORMAL, governor bit-invisible on
# healthy traffic — plus the flow-table occupancy bound property test.
PYTHONPATH=src python -m pytest -q -m attack tests/sim/test_attack_soak.py
PYTHONPATH=src python -m pytest -q tests/aiu/test_flow_table_bounds.py

echo "==== shard gate (sharded data-path differential suite) ===="
# The sharded front end must be provably equal to a single router:
# per-flow dispositions, ordering, flow stats, telemetry aggregation,
# control-plane fanout, and the mp backend's bit-equality with inline
# (tests/shard/, docs/PERFORMANCE.md "Sharded data path").
PYTHONPATH=src python -m pytest -q -m shard tests/shard/

echo "==== topo gate (multi-router topology suite) ===="
# A topology of one node must be packet-for-packet the bare router, an
# N-hop chain must equal the same hops run standalone, path traces must
# match the data path hop for hop, and the four multi-hop scenarios
# (IPsec tunnel, v6 options, H-FSC aggregation, quarantine reroute)
# must hold their delivery invariants scalar and batched
# (tests/topo/, docs/TOPOLOGY.md).
PYTHONPATH=src python -m pytest -q -m topo tests/topo/

echo "==== benchmark self-tests (benchmarks/e2e/tests) ===="
# The end-to-end benchmark's own checks (oracles, generators, harness
# statistics); not tier-1, so this is where they run.
python -m pytest benchmarks/e2e/tests -q

echo "==== ci_check: all gates passed ===="
