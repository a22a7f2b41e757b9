#!/usr/bin/env python3
"""End-to-end benchmark of the router-plugins reproduction.

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME]   # everything, by name and unit
    python3 benchmarks/e2e/run.py --aa                           # same code twice, against the bounds
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is what the driver named in BENCHMARK.json runs: one
workload in this process, one JSON object on the last line of stdout
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The first two run each workload in a fresh subprocess
of that form, one at a time.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spec  # noqa: E402


def pin_hash_seed(seed: int) -> None:
    """Re-exec with ``PYTHONHASHSEED`` taken from ``--seed``.  String
    hashing is otherwise random per process, and the dict and set
    layouts it gives moved ``ctl_op_p50_us`` by 13 % between identical
    runs (3 % once pinned).  Ten seeds still sample ten layouts."""
    wanted = str(seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable] + sys.argv)


def brief(value):
    """Detail lines are for reading: four significant digits."""
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, dict):
        return {key: brief(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [brief(item) for item in value]
    return value


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload in this process; result on the last line."""
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the router from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    make = WORKLOADS[workload]
    os.makedirs(OUT, exist_ok=True)
    try:
        if trace:
            result = harness.run_layers(
                make, seed, seconds, os.path.join(OUT, f"trace_{workload}.json"))
            wanted = [name for name, *_ in spec.PER_LAYER]
        else:
            result = harness.run_end_to_end(make, seed, seconds)
            wanted = [name for name, *_ in spec.END_TO_END]
    finally:
        # Worker pools join their children with a timeout; wait them out.
        for worker in multiprocessing.active_children():
            worker.join()

    units = spec.units()
    metrics = result["metrics"]
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={trace} "
          f"input_digest={result['input_digest']}")
    for key, value in result["detail"].items():
        print(f"#   {key} = {brief(value)}")
    for name in wanted:
        print(f"{name:36s} {metrics[name]:>16.6g} {units[name]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{'failed_share':36s} {failed / attempted:>16.6g} share"
          f"   ({failed} of {attempted} packets)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# The whole set, each workload in its own fresh subprocess
# ----------------------------------------------------------------------
def fingerprint(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from repro.shard import usable_cpus

    return {"commit": commit, "python": platform.python_version(), "cpu": cpu,
            "usable_cpus": usable_cpus(), "seed": seed}


def child(workload: str, seed: int, seconds: float, trace: int):
    """Run one measurement in a fresh interpreter; echo its table and
    return (exit code, parsed result line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    print("\n".join(lines))
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    return proc.returncode, result


def run_set(names, seed: int, seconds: float, traces=(0, 1)) -> dict:
    """Every named workload, one at a time.  Returns
    name -> {"ok", "end_to_end", "per_layer", "attempted", "failed"}."""
    results = {}
    for name in names:
        print(f"\n== {name}: {spec.WORKLOADS[name]}")
        row = {"ok": True, "attempted": 0, "failed": 0}
        for trace in traces:
            code, result = child(name, seed, seconds, trace)
            row["ok"] = row["ok"] and code == 0 and result is not None
            if result is not None:
                row["attempted"] += result["attempted"]
                row["failed"] += result["failed"]
                row["per_layer" if trace else "end_to_end"] = {
                    key: entry["value"] for key, entry in result["metrics"].items()}
        results[name] = row
    return results


def record(results: dict, seed: int, seconds: float) -> None:
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fingerprint": fingerprint(seed),
        "seconds": seconds,
        "why": {name: spec.WORKLOADS[name] for name in results},
        "workloads": results,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "latest.json"), "w") as fh:
        json.dump(entry, fh, indent=1)
    with open(os.path.join(OUT, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    print("\nfingerprint: " + json.dumps(entry["fingerprint"]))
    print(f"results: {os.path.join(OUT, 'latest.json')} (+1 line in history.jsonl)")


def run_aa(names, seed: int, seconds: float) -> int:
    """The same code twice, back to back: each end-to-end metric's
    relative difference (in its worse direction) beside its bound."""
    first = run_set(names, seed, seconds, traces=(0,))
    second = run_set(names, seed, seconds, traces=(0,))
    exceeded = not all(row["ok"] for row in (*first.values(), *second.values()))
    print(f"\n{'workload':14s} {'metric':18s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name in names:
        for metric, _unit, better, bound in spec.END_TO_END:
            a = first[name].get("end_to_end", {}).get(metric)
            b = second[name].get("end_to_end", {}).get(metric)
            if a is None or b is None:
                continue
            worse = (a - b) / a if better == "higher" else (b - a) / a
            flag = "  EXCEEDS" if worse > bound else ""
            exceeded = exceeded or worse > bound
            print(f"{name:14s} {metric:18s} {a:12.5g} {b:12.5g} "
                  f"{worse:+9.3f} {bound:6.2f}{flag}")
    return 1 if exceeded else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if argv is None:                # run as a program, not called by a test
            pin_hash_seed(args.seed)
        return run_one(args.workload, args.seed, args.seconds, args.trace)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    if args.aa:
        return run_aa(names, args.seed, args.seconds)
    results = run_set(names, args.seed, args.seconds)
    record(results, args.seed, args.seconds)
    bad = [name for name, row in results.items() if not row["ok"] or row["failed"]]
    for name in bad:
        print(f"FAILED: {name} ({results[name]['failed']} of "
              f"{results[name]['attempted']} packets)", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
