#!/bin/sh
# The one CI entry point: static-analysis gate, the --json topic gate,
# the tier-1 suite (once), the paper rows too slow for tier-1, then the
# benchmark's self-tests.  Everything here repeats exactly — there is no
# wall-clock floor or ceiling
# (docs/PERFORMANCE.md "Running the benchmark": speed is judged by
# paired runs of benchmarks/e2e/run.py).
#
# Usage: scripts/ci_check.sh
#
# The static-analysis gate lints every built-in plugin and the
# shard/batch layers themselves (one pass: hot-path RP2xx and
# shard-safety RP4xx rules), warms and audits both generated loop
# layouts (RP5xx), and verifies compiled/interpreted equivalence for the
# classifier DAG and all BMP engines (scripts/analyze.py --self-lint),
# plus ruff/mypy over the linted subsystems when those tools are
# installed.  pyproject.toml's addopts deselects only the ``paper``
# marker, so the tier-1 run already includes the cost-model goldens, the
# paper's rows (tests/perf/test_paper.py), the recompile ratio, the
# oracle (tests/oracle/), the chaos soak and fault-containment suites
# (scripts/chaos_check.sh runs those alone), the attack soaks, and the
# shard and topo suites; the slow
# ``paper`` rows run right after it.  Exits non-zero if any gate fails.

set -eu

cd "$(dirname "$0")/.."

echo "==== static-analysis gate (scripts/analyze.py --self-lint) ===="
python scripts/analyze.py --self-lint

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (analysis + shard + topo + fanout + aiu + pcu + batch + wire codec + plugins + drr/scfq + daemons) =="
    ruff check src/repro/analysis src/repro/shard src/repro/topo \
        src/repro/mgr/fanout.py src/repro/core/aggregate.py \
        src/repro/aiu/dag.py src/repro/aiu/aiu.py \
        src/repro/aiu/flow_table.py src/repro/aiu/records.py \
        src/repro/core/pcu.py src/repro/core/plugin.py \
        src/repro/core/routing_plugin.py src/repro/options/plugins.py \
        src/repro/stats/plugin.py src/repro/stats/tcp_monitor.py \
        src/repro/security/firewall.py \
        src/repro/core/batch.py src/repro/net/packet.py \
        src/repro/net/headers.py src/repro/net/checksum.py \
        src/repro/security/sa.py src/repro/security/esp.py \
        src/repro/security/ah.py src/repro/security/hw_offload.py \
        src/repro/sched/base.py src/repro/sched/drr.py src/repro/sched/scfq.py \
        src/repro/daemons scripts/analyze.py
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
echo "src/: $(find src -name '*.py' | xargs cat | wc -l)  tests/: $(git ls-files tests | xargs cat | wc -l)"
wc -l src/repro/analysis/*.py
echo "benchmarks/*.py (the paper runner; e2e/ excluded):"
wc -l benchmarks/*.py | tail -1

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

echo "==== tier-1 tests (every test under tests/ but the slow paper rows, once) ===="
PYTHONPATH=src python -m pytest -x -q

echo "==== the paper's slow rows (pytest -m paper: 50k-filter Table 2, the big DAGs, ...) ===="
PYTHONPATH=src python -m pytest -q -m paper tests/perf/test_paper.py

echo "==== benchmark self-tests (benchmarks/e2e/tests) ===="
# The end-to-end benchmark's own checks (oracles, generators, harness
# statistics); not tier-1, so this is where they run.
python -m pytest benchmarks/e2e/tests -q

echo "==== ci_check: all gates passed ===="
