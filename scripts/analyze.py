#!/usr/bin/env python
"""Static-analysis CLI for the plugin router (repro.analysis).

Modes:

    scripts/analyze.py --self-lint
        Lint every built-in plugin and verify compiled/interpreted
        equivalence for the DAG classifier and all BMP engines on a
        seeded filter set.  This is the CI gate.

    scripts/analyze.py <pmgr-script> [more scripts...]
        Run each pmgr configuration script on a scratch router and
        analyze the state it builds (shadowed/redundant filters,
        conflicting bindings, plugin lint, equivalence).

Options:

    --json      emit the machine-readable report instead of text
    --strict    exit non-zero on warnings too, not just errors

Exit status: 0 clean (or warnings without --strict), 1 findings at the
gating severity, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis import AnalysisReport, analyze_script, self_lint  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="analyze.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scripts", nargs="*", help="pmgr configuration scripts")
    parser.add_argument("--self-lint", action="store_true",
                        help="lint built-in plugins + verify engine equivalence")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings as well")
    args = parser.parse_args(argv)

    if not args.self_lint and not args.scripts:
        parser.print_usage(sys.stderr)
        print("analyze.py: need --self-lint and/or at least one script",
              file=sys.stderr)
        return 2

    report = AnalysisReport()
    if args.self_lint:
        report.extend(self_lint())
    for path in args.scripts:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"analyze.py: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        report.extend(analyze_script(text))

    if args.json:
        print(report.to_json())
    else:
        for line in report.render():
            print(line)

    if report.has_errors:
        return 1
    if args.strict and report.warnings():
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
