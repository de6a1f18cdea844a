#!/usr/bin/env python
"""Compare a benchmark run against a committed BENCH snapshot.

The perf suite (``pytest benchmarks/test_perf.py -s``) prints one
machine-readable line per benchmark::

    BENCH {"name": ..., "serial_s": ..., "fast_s": ..., "speedup": ...}

This tool extracts those lines from a log (or stdin), pairs them with a
committed snapshot (``BENCH_PR6.json``), and fails when a kernel's
*speedup ratio* regressed. Raw seconds are useless across machines — a
laptop and a CI runner disagree by 3x on everything — but serial and
vectorized paths run on the *same* machine in the same process, so
their ratio cancels hardware speed. The gate therefore compares
ratios, two ways:

* **relative**: current speedup must be at least ``tolerance`` times
  the snapshot speedup (default 0.5 — generous because single-run
  ratios wobble with cache state and CI noise; see docs/PERF.md);
* **absolute**: when the snapshot records a ``floor`` for a benchmark,
  the current speedup must meet it regardless of what the snapshot's
  own ratio was. Floors encode hard acceptance criteria (the Table 4
  sweep must stay >= 8x) and survive snapshot refreshes.

A benchmark present in the snapshot but missing from the run is a
failure (a silently-skipped benchmark is how gates rot); a new
benchmark absent from the snapshot is reported but passes — commit an
updated snapshot (``--update``) to start gating it.

Usage::

    pytest benchmarks/test_perf.py -q -s | tee bench.log
    python tools/bench_compare.py --snapshot BENCH_PR6.json bench.log
    python tools/bench_compare.py --snapshot BENCH_PR6.json bench.log \
        --update BENCH_PR6.json   # refresh after a deliberate change
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SNAPSHOT_VERSION = 1

#: Hard speedup floors (acceptance criteria), re-applied on --update so
#: a refreshed snapshot cannot silently drop a gate.
DEFAULT_FLOORS = {
    "table4_sweep_cold[100k]": 8.0,
    "table4_sweep_warm[100k]": 8.0,
    "speculative_perfect[gcc-100k]": 5.0,
    "exit_kernel[gcc-100k]": 1.5,
    "vc_kernel[gcc-100k]": 1.5,
    "detailed_event_skip[gcc-8k]": 1.2,
}


def parse_bench_lines(text: str) -> dict[str, dict]:
    """Extract ``BENCH {...}`` records from a log, keyed by name."""
    records: dict[str, dict] = {}
    for line in text.splitlines():
        # pytest progress dots may prefix the marker (".BENCH {...}"),
        # so search rather than anchor.
        marker = line.find("BENCH {")
        if marker < 0:
            continue
        payload = json.loads(line[marker + len("BENCH "):])
        records[payload["name"]] = payload
    return records


def load_snapshot(path: Path) -> dict:
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise SystemExit(
            f"unsupported snapshot version {version!r} in {path} "
            f"(expected {SNAPSHOT_VERSION})"
        )
    return snapshot


def write_snapshot(path: Path, records: dict[str, dict]) -> None:
    benchmarks = {
        name: {
            "serial_s": rec["serial_s"],
            "fast_s": rec["fast_s"],
            "speedup": rec["speedup"],
            **(
                {"floor": DEFAULT_FLOORS[name]}
                if name in DEFAULT_FLOORS
                else {}
            ),
        }
        for name, rec in sorted(records.items())
    }
    path.write_text(
        json.dumps(
            {"version": SNAPSHOT_VERSION, "benchmarks": benchmarks},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def compare(
    snapshot: dict, records: dict[str, dict], tolerance: float
) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    baseline = snapshot["benchmarks"]
    for name, entry in sorted(baseline.items()):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: benchmark missing from this run")
            continue
        speedup = record.get("speedup")
        if not speedup:
            failures.append(f"{name}: run reported no speedup ratio")
            continue
        reference = entry["speedup"]
        allowed = tolerance * reference
        status = "ok"
        if speedup < allowed:
            status = "REGRESSION"
            failures.append(
                f"{name}: speedup {speedup:.2f}x < {allowed:.2f}x "
                f"({tolerance:.0%} of snapshot {reference:.2f}x)"
            )
        floor = entry.get("floor")
        if floor is not None and speedup < floor:
            status = "REGRESSION"
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the hard floor "
                f"{floor:.2f}x"
            )
        floor_text = f" floor={floor:.1f}x" if floor is not None else ""
        print(
            f"{status:>10}  {name}: {speedup:.2f}x "
            f"(snapshot {reference:.2f}x{floor_text})"
        )
    for name in sorted(set(records) - set(baseline)):
        print(
            f"{'new':>10}  {name}: {records[name]['speedup']}x "
            "(not in snapshot; --update to gate it)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate benchmark speedup ratios against a snapshot."
    )
    parser.add_argument(
        "log",
        nargs="?",
        help="log file with BENCH lines (default: stdin)",
    )
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR6.json",
        help="committed snapshot to compare against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help=(
            "minimum fraction of the snapshot speedup that still "
            "passes (default 0.5)"
        ),
    )
    parser.add_argument(
        "--update",
        type=Path,
        default=None,
        help="write the run's numbers to this snapshot path and exit",
    )
    args = parser.parse_args(argv)

    text = (
        Path(args.log).read_text(encoding="utf-8")
        if args.log
        else sys.stdin.read()
    )
    records = parse_bench_lines(text)
    if not records:
        print("no BENCH lines found in input", file=sys.stderr)
        return 2

    if args.update is not None:
        write_snapshot(args.update, records)
        print(f"snapshot written: {args.update} ({len(records)} benchmarks)")
        return 0

    snapshot = load_snapshot(args.snapshot)
    failures = compare(snapshot, records, args.tolerance)
    if failures:
        print(
            f"\n{len(failures)} perf regression(s):", file=sys.stderr
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed ({len(snapshot['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
