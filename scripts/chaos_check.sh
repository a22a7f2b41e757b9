#!/bin/sh
# One-shot robustness check for developers: run the seeded chaos soak
# (deterministic fault injection through the plugin data path — see
# docs/ROBUSTNESS.md) plus the rest of the fault-containment suite,
# without the rest of tier-1 (scripts/ci_check.sh runs these tests once,
# inside its tier-1 step).
#
# Usage: scripts/chaos_check.sh
#
# The soak's seeds are fixed in tests/sim/test_chaos_soak.py (STORM),
# so every run replays the same fault storm: ~5 % injected faults across
# three plugins over 10k packets, on the metered walk and the generated
# un-metered loops (per packet, and per batch in both layouts), with
# packet-for-packet agreement asserted.  The oracle
# (tests/oracle/test_oracle.py) replays its derandomized histories —
# chaos-wrapped plugins, fault policies, quarantines, governor floods —
# across every executor against the metered walk.
#
# Exits non-zero if containment fails: a fault escapes the router, a
# record fails to reconcile, a quarantine misbehaves, or an executor
# diverges from the metered walk.
#
# Multi-hop containment — quarantine rerouting across an ECMP topology
# and the seeded multi-hop attack soaks (IPsec spoofing, drop-action v6
# options) — is tests/topo/ (`pytest -m topo`), which drives the same
# seeded scenarios through whole networks.

set -eu

cd "$(dirname "$0")/.."

echo "== chaos soak (seeded fault storm) =="
PYTHONPATH=src python -m pytest -q -m chaos tests/sim/test_chaos_soak.py

echo "== the oracle (every executor against the metered walk) =="
PYTHONPATH=src python -m pytest -q tests/oracle/

echo "== fault-domain unit + equivalence suites =="
PYTHONPATH=src python -m pytest -q \
    tests/core/test_faults.py \
    tests/core/test_unload_stale.py \
    tests/perf/test_fault_equivalence.py

echo "== done: containment holds =="
