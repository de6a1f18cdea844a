"""Paper-regeneration benchmark: one workload, timed end to end.

    python3 perfbench/run.py --workload grid-warm --seed 0 --seconds 25 --trace 0

Each repetition runs ``workload.py`` in a fresh process, repeated until
``--seconds`` have passed (and at least a few times), and every
repetition's outputs are checked against the digests recorded in
``digests.json``. The last stdout line is one JSON object: with
``--trace 0`` the end-to-end metrics (medians over repetitions), with
``--trace 1`` the per-layer metrics of traced repetitions, which
alternate with untraced ones so the tracing overhead can be reported.
The command exits nonzero when any output is wrong, a cell fails, or a
workload stops exercising the layers it is meant to (traffic check).

``--record-digests N`` instead records the expected digests for seeds
``0..N-1`` into ``digests.json``; any other seed runs as seed mod N, so
every output is checked. See README.md for the workloads and the
layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracing import LAYERS
from workload import (
    DIGESTS,
    GRID_TASKS,
    ROOT,
    SCALE_TASKS,
    WORKLOADS,
    fold_seed,
)

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: End-to-end metrics (host time, tracing off): (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cell_p50_s", "s"),
    ("cell_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Fewest untraced repetitions a run makes, however short --seconds.
MIN_REPS = 3
#: Fewest repetitions of each kind a traced run makes.
MIN_TRACED_REPS = 2
#: No repetition starts after this many seconds of a run.
LAST_START_S = 110.0
#: A repetition still running after this long is killed and failed.
REP_TIMEOUT_S = 120.0


def traffic_checks(workload: str, rep: dict) -> list[str]:
    """Failed expectations about which layers a workload exercises."""
    layers = rep["layers"]
    expect = {
        "grid-warm": [
            ("synth.trace_builds", "==", 0),
            ("windows.group_calls", ">", 0),
        ],
        "grid-cold-j2": [
            ("synth.trace_builds", "==", rep["benchmarks"]),
            ("evalx.ckpt_records", "==", rep["attempted"]),
        ],
        "scale-gcc": [
            ("predictors.scalar_fallbacks", "==", 0),
            ("windows.group_calls", "==", 0),
        ],
    }[workload]
    failures = []
    for name, op, want in expect:
        got = layers[name]
        if not (got == want if op == "==" else got > want):
            failures.append(f"{name} = {got}, expected {op} {want}")
    return failures


def run_rep(workload, seed, trace, work_dir, cache_dir, *flags):
    """One repetition in a fresh process; returns its record or None.

    ``flags`` are extra ``workload.py`` flags (``--setup-only``,
    ``--record``).
    """
    work_dir.mkdir(parents=True)
    result = work_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--work-dir", str(work_dir), "--cache-dir", str(cache_dir),
        "--result", str(result), *flags,
    ]
    if trace:
        cmd.append("--trace")
    spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The repetition's own pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    record = None
    if code == 0 and result.exists():
        record = json.loads(result.read_text(encoding="utf-8"))
        record.update(spawn_mono=spawn, traced=trace)
    else:
        print(
            f"perfbench: repetition {work_dir.name} failed "
            f"(exit {code})", file=sys.stderr,
        )
    shutil.rmtree(work_dir, ignore_errors=True)
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args, run_dir: Path) -> list:
    """Repetitions until --seconds pass; None marks a failed one."""
    cache = run_dir / "cache" if args.workload == "grid-warm" else None
    if cache is not None:
        # grid-warm reads traces a previous regeneration published:
        # publish this seed's traces before the clock starts. The cache
        # lives and dies with this run, so no other code's traces leak in.
        published = run_rep(
            args.workload, args.seed, False, run_dir / "publish", cache,
            "--setup-only",
        )
        if published is None:
            return [None]
    reps: list = []
    started = time.monotonic()
    while True:
        done = [r for r in reps if r is not None]
        n_traced = sum(1 for r in done if r["traced"])
        n_plain = len(done) - n_traced
        if args.trace:
            enough = min(n_plain, n_traced) >= MIN_TRACED_REPS
        else:
            enough = n_plain >= MIN_REPS
        elapsed = time.monotonic() - started
        if (enough and elapsed >= args.seconds) or elapsed > LAST_START_S:
            return reps
        if len(reps) - len(done) >= MIN_REPS:
            return reps  # repeated failures: stop early, report them
        traced = bool(args.trace) and n_traced < n_plain
        work_dir = run_dir / f"rep-{len(reps)}"
        reps.append(
            run_rep(
                args.workload, args.seed, traced, work_dir,
                cache or work_dir / "cache",
            )
        )


def summarize(args, reps: list) -> tuple[dict, list[str]]:
    """The result object and the human-readable report lines."""
    done = [r for r in reps if r is not None]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    lines = [
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}: {len(reps)} "
        f"repetitions ({len(plain)} untraced, {len(traced)} traced, "
        f"{len(reps) - len(done)} crashed)"
    ]
    problems = []
    expected_cells = max((r["attempted"] for r in done), default=1)
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    crashed = len(reps) - len(done)
    attempted += crashed * expected_cells
    failed += crashed * expected_cells
    if crashed:
        problems.append(f"{crashed} repetitions crashed or timed out")
    for r in done:
        if r["mismatched"]:
            problems.append(f"digest mismatch: {', '.join(r['mismatched'])}")
        for label, error in r["errors"].items():
            problems.append(f"{label} raised {error}")
    lines.append(
        f"  outputs: checked against the digests recorded for seed "
        f"{args.seed}"
    )
    lines.append(f"  ops: {attempted} cells attempted, {failed} failed")

    metrics: dict = {}
    if not args.trace and plain:
        wall = [r["end_mono"] - r["spawn_mono"] for r in plain]
        setup = [r["setup_mono"] - r["spawn_mono"] for r in plain]
        # Cell percentiles are taken per repetition and reported as the
        # median over repetitions, which one slow cell cannot move.
        cells = [r["cell_seconds"] for r in plain]
        p90s = [statistics.quantiles(c, n=10)[-1] for c in cells]
        series = {
            "wall_s": wall,
            "setup_s": setup,
            "sweep_s": [w - s for w, s in zip(wall, setup)],
            "cell_p50_s": [statistics.median(c) for c in cells],
            "cell_p90_s": p90s,
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, unit in END_TO_END:
            q1, q2, q3 = quartiles(series[name])
            metrics[name] = {"value": q2, "unit": unit}
            lines.append(
                f"  {name:<12} {q2:10.4f} {unit:<3} median of "
                f"{len(series[name])} (q1 {q1:.4f}, q3 {q3:.4f})"
            )
        beyond = [sum(s > p for s in c) for c, p in zip(cells, p90s)]
        lines.append(
            f"  cell_p50_s/cell_p90_s: per repetition over {len(cells[0])} "
            f"cell samples ({min(beyond)}-{max(beyond)} beyond p90)"
        )
    if args.trace and traced and plain:
        for r in traced:
            for failure in traffic_checks(args.workload, r):
                problems.append(f"traffic check: {failure}")
        untraced_wall = statistics.median(
            r["end_mono"] - r["spawn_mono"] for r in plain
        )
        traced_wall = statistics.median(
            r["end_mono"] - r["spawn_mono"] for r in traced
        )
        bases = traced[0]["bases"]
        lines.append(
            f"  per-layer self time and counts: median of {len(traced)} "
            "traced repetitions, summed over processes"
        )
        for layer, moves, group in LAYERS:
            lines.append(f"  [{layer}] should move: {moves}")
            for name, unit in group:
                if name == "trace.overhead_s":
                    value = traced_wall - untraced_wall
                    base = (f"traced wall {traced_wall:.3f} s - "
                            f"untraced {untraced_wall:.3f} s")
                else:
                    value = statistics.median(
                        r["layers"][name] for r in traced
                    )
                    base = bases.get(name, "")
                metrics[name] = {"value": value, "unit": unit}
                lines.append(
                    f"    {name:<28} {value:14.4f} {unit:<8} {base}"
                )
        spans = traced[0]["spans"]
        lines.append("  every span of the first traced repetition "
                     "(self s, calls):")
        for name, (calls, self_s) in sorted(
            spans.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(f"    {name:<24} {self_s:9.4f} {calls:8d}")
    if not metrics:
        problems.append("too few repetitions completed to report metrics")
    for problem in problems:
        lines.append(f"  FAILED: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def record_digests(n_seeds: int) -> int:
    """Record the expected output digests for seeds 0..n_seeds-1."""
    recorded = {
        "grid_tasks": GRID_TASKS,
        "scale_tasks": SCALE_TASKS,
        "seeds": n_seeds,
        "grid": {},
        "scale-gcc": {},
    }
    run_dir = WORK / f"record-{os.getpid()}"

    def one(job):
        family, workload, seed = job
        work_dir = run_dir / f"{family}-{seed}"
        rep = run_rep(
            workload, seed, False, work_dir, work_dir / "cache", "--record"
        )
        if rep is None or rep["failed"]:
            raise SystemExit(f"{workload} seed {seed} failed")
        return family, seed, rep["digests"]

    jobs = [
        (family, workload, seed)
        for seed in range(n_seeds)
        for family, workload in (("grid", "grid-warm"),
                                 ("scale-gcc", "scale-gcc"))
    ]
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for family, seed, digests in pool.map(one, jobs):
                recorded[family][str(seed)] = digests
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n",
                       encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.workload is None:
        parser.error("--workload is required")
    folded = fold_seed(args.seed)
    if folded != args.seed:
        print(f"perfbench: seed {args.seed} runs as recorded seed {folded}",
              file=sys.stderr)
        args.seed = folded
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        reps = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result, lines = summarize(args, reps)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
