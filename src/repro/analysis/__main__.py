"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Examples::

    python -m repro.analysis             # scan src/repro, tools, benchmarks
    python -m repro.analysis --format json --output report.json
    python -m repro.analysis --format sarif --output findings.sarif
    python -m repro.analysis --rules DET001,PUR001 src/repro/synth
    python -m repro.analysis --write-baseline      # bootstrap exceptions
    python -m repro.analysis --prune-stale         # drop fixed entries
    python -m repro.analysis --list-rules

Exit status: 0 when every finding is suppressed or baselined and no
baseline entry is stale, 1 when violations or stale entries remain (CI
gates on both; ``--prune-stale`` removes the latter), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.core import Finding, all_rules, run_analysis
from repro.analysis.sarif import to_sarif

REPORT_VERSION = 1

#: Default baseline location, relative to the working directory.
DEFAULT_BASELINE = Path("tools/analysis_baseline.json")

#: Scanned when no paths are given; entries that do not exist under the
#: root are skipped silently (explicitly named paths still error).
DEFAULT_PATHS = ("src/repro", "tools", "benchmarks")


def _build_report(
    findings: list[Finding],
    baselined: list[Finding],
    suppressed: int,
    stale: list,
) -> dict:
    """Assemble the JSON report (schema asserted by the test suite)."""
    return {
        "version": REPORT_VERSION,
        "rules": [
            {"id": rule.id, "title": rule.title, "rationale": rule.rationale}
            for rule in all_rules()
        ],
        "findings": [f.to_json() for f in findings],
        "counts": {
            "findings": len(findings),
            "baselined": len(baselined),
            "suppressed": suppressed,
            "stale_baseline": len(stale),
        },
        "stale_baseline": [
            {"rule": e.rule, "path": e.path, "symbol": e.symbol}
            for e in stale
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis guarding the parallel experiment engine's "
            "invariants: determinism, worker purity, driver protocol, "
            "numpy bit widths, checkpoint/chaos hygiene (store "
            "publication, env handoffs), vectorization."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=[],
        help=(
            "files or directories to scan (default: "
            + ", ".join(DEFAULT_PATHS)
            + "; missing defaults are skipped)"
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the report to FILE (text goes to stdout too)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=str(DEFAULT_BASELINE),
        help=(
            "baseline of accepted findings (default "
            f"{DEFAULT_BASELINE}); a missing file means empty"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline and report accepted findings too",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=(
            "write the current findings to the baseline file with "
            "placeholder justifications (edit before committing)"
        ),
    )
    parser.add_argument(
        "--prune-stale", action="store_true",
        help=(
            "rewrite the baseline dropping entries whose finding no "
            "longer fires (stale entries otherwise exit 1)"
        ),
    )
    parser.add_argument(
        "--rules", metavar="ID,ID", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its rationale and exit",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=".",
        help="directory findings/baseline paths are relative to",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.id}  {rule.title}  [scope: {scope}]")
            print(f"    {rule.rationale}")
        return 0

    root = Path(args.root).resolve()
    paths = []
    defaulted = not args.paths
    for raw in args.paths or DEFAULT_PATHS:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            if defaulted:
                continue  # optional default roots may be absent
            print(
                f"error: no such path {raw!r}", file=sys.stderr
            )
            return 2
        paths.append(path)

    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]

    try:
        findings, suppressed = run_analysis(paths, root, rule_ids)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path

    if args.write_baseline:
        Baseline.write(baseline_path, findings)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}; "
            "edit the justifications before committing",
            file=sys.stderr,
        )
        return 0

    baselined: list[Finding] = []
    stale: list = []
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        remaining = []
        for finding in findings:
            (baselined if baseline.matches(finding) else remaining).append(
                finding
            )
        findings = remaining
        if args.prune_stale:
            pruned = baseline.prune_stale(baseline_path)
            if pruned:
                print(
                    f"pruned {len(pruned)} stale baseline entr"
                    f"{'y' if len(pruned) == 1 else 'ies'} from "
                    f"{baseline_path}",
                    file=sys.stderr,
                )
        stale = baseline.stale_entries()

    report = _build_report(findings, baselined, suppressed, stale)
    if args.format == "sarif":
        payload = json.dumps(to_sarif(findings, all_rules()), indent=2)
        payload += "\n"
    else:
        payload = json.dumps(report, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")

    if args.format in ("json", "sarif"):
        if not args.output:
            print(payload, end="")
    else:
        for finding in findings:
            print(finding.render())
        counts = report["counts"]
        print(
            f"{counts['findings']} finding(s), "
            f"{counts['baselined']} baselined, "
            f"{counts['suppressed']} suppressed"
        )
    for entry in stale:
        print(
            "stale baseline entry (violation fixed? rerun with "
            f"--prune-stale): {entry.rule} {entry.path} :: "
            f"{entry.symbol}",
            file=sys.stderr,
        )
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
