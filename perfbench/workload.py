"""One repetition of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per repetition::

    python3 perfbench/workload.py --workload grid-warm --seed 3 \\
        --work-dir DIR --cache-dir DIR --result FILE [--trace]

It offsets every benchmark profile's generator seed by ``--seed`` (seed 0
is the committed configuration), sets up the workload's programs and
traces, runs its sweep through the program's public entry points,
hashes every output and compares the hashes with ``digests.json``, and
writes one JSON result to ``--result``. Times are ``time.monotonic()``
readings, which are system-wide on Linux, so the parent can subtract
its own reading taken just before it started this process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Trace length of every benchmark in the paper grid.
GRID_TASKS = 20_000
#: Length of the scale-gcc trace: ten grid traces.
SCALE_TASKS = 200_000
#: Wrong-path tasks fetched before a mispredict resolves in scale-gcc's
#: speculative replay, as ext_repair does on the paper's 4-unit ring.
WRONG_PATH_DEPTH = 4

WORKLOADS = ("grid-warm", "grid-cold-j2", "scale-gcc")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def offset_profiles(seed: int) -> None:
    """Offset every profile's generator seed by ``seed`` (as ext_seeds)."""
    from repro.synth.profiles import PROFILES

    if seed:
        for name, profile in list(PROFILES.items()):
            PROFILES[name] = dataclasses.replace(
                profile, seed=profile.seed + seed
            )


def digest(data) -> str:
    """Hash of one output, as the CLI's ``--json`` would serialise it."""
    text = json.dumps(data, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_family(workload: str) -> str:
    """Key of ``digests.json`` holding this workload's expected digests.

    Both grid workloads regenerate the same outputs: worker count and
    cache state never change a result.
    """
    return "scale-gcc" if workload == "scale-gcc" else "grid"


def _recorded() -> dict:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if (
        recorded["grid_tasks"] != GRID_TASKS
        or recorded["scale_tasks"] != SCALE_TASKS
    ):
        raise SystemExit("digests.json was recorded at other trace lengths")
    return recorded


def fold_seed(seed: int) -> int:
    """The recorded seed a benchmark seed runs as.

    ``digests.json`` holds expected outputs for seeds ``0..N-1``; any
    other seed runs as ``seed mod N``, so every run's outputs are checked
    against recorded digests.
    """
    return seed % _recorded()["seeds"]


def load_expected(workload: str, seed: int) -> dict[str, str]:
    """Recorded digests for (workload, seed); exits if there are none."""
    expected = _recorded()[digest_family(workload)].get(str(seed))
    if expected is None:
        raise SystemExit(
            f"no digests recorded for seed {seed}: run "
            "perfbench/run.py --record-digests N"
        )
    return expected


# -- grid workloads ---------------------------------------------------


def _setup_grid() -> None:
    from repro.synth.profiles import BENCHMARK_NAMES
    from repro.synth.workloads import load_workload

    for name in BENCHMARK_NAMES:
        load_workload(name, GRID_TASKS)


def _sweep_grid(work_dir: Path, jobs: int | None, checkpoint: bool) -> dict:
    """All paper experiments, keep-going, with a cell-metrics stream."""
    from repro.evalx.checkpoint import CheckpointStore
    from repro.evalx.metrics import RunMetrics
    from repro.evalx.registry import EXPERIMENT_IDS, run_experiment

    store = CheckpointStore(work_dir / "checkpoints") if checkpoint else None
    metrics_path = work_dir / "cells.jsonl"
    outputs: dict = {}
    errors: dict[str, str] = {}
    with RunMetrics(metrics_path, progress=False) as recorder:
        for eid in EXPERIMENT_IDS:
            try:
                result = run_experiment(
                    eid,
                    n_tasks=GRID_TASKS,
                    jobs=jobs,
                    keep_going=True,
                    metrics=recorder,
                    checkpoint=store,
                )
            except Exception as exc:  # recorded as failed cells below
                errors[eid] = repr(exc)
                continue
            outputs[eid] = result.data
    records = [
        json.loads(line)
        for line in metrics_path.read_text(encoding="utf-8").splitlines()
    ]
    cells_of = {
        r["experiment"]: r["cells"]
        for r in records
        if r["event"] == "experiment_start"
    }
    finals = [r for r in records if r["event"] == "cell" and r["final"]]
    failed_of = dict.fromkeys(cells_of, 0)
    for record in finals:
        if record["status"] != "ok":
            failed_of[record["experiment"]] += 1
    for eid in errors:
        failed_of[eid] = cells_of.setdefault(eid, 1)
    return {
        "outputs": outputs,
        "errors": errors,
        "cells_of": cells_of,
        "failed_of": failed_of,
        "cell_seconds": [r["wall_seconds"] for r in finals],
        "retries": sum(
            1 for r in records if r["event"] == "cell" and not r["final"]
        ),
    }


# -- scale-gcc --------------------------------------------------------


def _setup_scale():
    from repro.synth.workloads import load_workload

    return load_workload("gcc", SCALE_TASKS)


def _sweep_scale(workload) -> dict:
    """Table 4's five schemes on the paper's timing model, then
    perfect-repair speculative replay of Table 4's PATH predictor."""
    from repro.evalx.experiments import table4
    from repro.predictors.folding import DolcSpec
    from repro.predictors.speculative import SpeculativePathPredictor
    from repro.sim.relaxed import simulate_speculative_exit_prediction
    from repro.sim.timing import TimingConfig, simulate_timing

    def timing(scheme):
        result = simulate_timing(
            workload,
            table4._make_predictor(scheme, workload),
            config=TimingConfig(),
        )
        return {
            "ipc": result.ipc,
            "task_mispredict_rate": result.task_mispredict_rate,
        }

    def speculative():
        return simulate_speculative_exit_prediction(
            workload,
            SpeculativePathPredictor(
                DolcSpec.parse(table4._PATH_SPEC), repair="perfect"
            ),
            wrong_path_depth=WRONG_PATH_DEPTH,
        ).miss_rate

    cells = [(s, lambda s=s: timing(s)) for s in table4.SCHEMES]
    cells.append(("speculative", speculative))
    data: dict = {}
    errors: dict[str, str] = {}
    seconds = []
    for label, fn in cells:
        started = time.perf_counter()
        try:
            data[label] = fn()
        except Exception as exc:  # keep going, like the grid's cells
            errors[label] = repr(exc)
        seconds.append(time.perf_counter() - started)
    return {
        "outputs": {"scale-gcc": data},
        "errors": errors,
        "cells_of": {"scale-gcc": len(cells)},
        "failed_of": {"scale-gcc": len(errors)},
        "cell_seconds": seconds,
        "retries": 0,
    }


# -- one repetition ---------------------------------------------------


def _n_benchmarks(workload: str) -> int:
    """How many benchmark programs and traces the set-up prepares."""
    from repro.synth.profiles import BENCHMARK_NAMES

    return 1 if workload == "scale-gcc" else len(BENCHMARK_NAMES)


def _setup(workload: str):
    return _setup_scale() if workload == "scale-gcc" else _setup_grid()


def _sweep(workload: str, state, work_dir: Path) -> dict:
    if workload == "scale-gcc":
        return _sweep_scale(state)
    if workload == "grid-cold-j2":
        return _sweep_grid(work_dir, jobs=2, checkpoint=True)
    return _sweep_grid(work_dir, jobs=None, checkpoint=False)


def check(sweep: dict, expected: dict[str, str]) -> dict:
    """Digest every output; fail every cell of a mismatched output."""
    digests = {key: digest(data) for key, data in sweep["outputs"].items()}
    mismatched = sorted(
        key for key in expected if digests.get(key) != expected[key]
    )
    failed = dict(sweep["failed_of"])
    for key in mismatched:
        failed[key] = sweep["cells_of"].get(key, 1)
    return {
        "digests": digests,
        "mismatched": mismatched,
        "attempted": sum(sweep["cells_of"].values()),
        "failed": sum(failed.values()),
    }


def _reap_workers(timeout: float = 30.0) -> None:
    """Wait for every pool worker this process started to exit."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            break
        time.sleep(0.01)


def run_once(args) -> dict:
    """Set up and sweep one workload; return the repetition's record."""
    os.environ["REPRO_CACHE_DIR"] = str(args.cache_dir)
    use_source_tree()
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        from repro.evalx.registry import EXPERIMENT_IDS

        tracer = Tracer(work_dir / "spans")
        tracer.install(
            () if args.workload == "scale-gcc" else EXPERIMENT_IDS
        )
    from repro.synth.workloads import cache_counters

    cache_before = cache_counters()
    expected = {} if args.setup_only or args.record else load_expected(
        args.workload, args.seed
    )
    offset_profiles(args.seed)

    def phase(name, fn, *fn_args):
        if tracer is None:
            return fn(*fn_args)
        return tracer.run_span(name, fn, *fn_args)

    state = phase("bench.setup", _setup, args.workload)
    record: dict = {"setup_mono": time.monotonic()}
    if args.setup_only:
        return record
    sweep = phase("bench.sweep", _sweep, args.workload, state, work_dir)
    verdict = check(sweep, expected)
    record["end_mono"] = time.monotonic()
    _reap_workers()
    record.update(verdict)
    record.update(
        benchmarks=_n_benchmarks(args.workload),
        errors=sweep["errors"],
        cell_seconds=sweep["cell_seconds"],
        peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
    )
    if tracer is not None:
        from tracing import layer_metrics

        after = cache_counters()
        totals = tracer.collect(
            {k: after[k] - cache_before.get(k, 0) for k in after}
        )
        tracer.uninstall()
        record["spans"] = totals["spans"]
        record["layers"], record["bases"] = layer_metrics(
            totals, sweep["retries"]
        )
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop once programs and traces are ready (fills the cache)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="digest the outputs without checking them (for recording)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    record = run_once(args)
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
