"""Design-space autotuner: successive halving over the predictor space.

``repro-tune`` searches the D-O-L-C(F) x automaton x table-size x
hysteresis space (:mod:`repro.predictors.design_space`) for predictor
configurations on the accuracy-vs-storage Pareto frontier. The search
is successive halving: every surviving candidate is evaluated on every
benchmark at a short trace length (a *rung*), the best ``1/eta`` are
promoted to the next, longer rung, and the final rung runs the full
trace length. Cheap rungs screen out the bulk of the space; the full
budget is spent only on configurations that earned it.

Each rung is one batch of the :mod:`~repro.evalx.experiments.tune_rung`
driver dispatched through the ordinary engine — so ``--jobs`` fans the
rung over worker processes, ``--checkpoint-dir/--resume`` makes the
search crash-safe, ``--metrics`` records every cell, and
``--inject-faults`` applies the chaos harness.

The determinism contract
------------------------

Every decision the search makes is a pure function of completed rung
results:

* the candidate population derives from the axis lists and ``--seed``
  (:func:`initial_population`);
* the rung trace lengths derive from ``--rung0-tasks/--final-tasks/
  --rungs`` (:func:`rung_schedule`);
* promotion ranks candidates by mean miss rate with the config key as
  the tie-break (:func:`promote`) — no clocks, no iteration-order
  dependence, no hidden RNG.

Rung cells are content-addressed in the checkpoint store, so a search
killed mid-rung and rerun with ``--resume`` replays the completed cells
from disk, recomputes only the missing ones, and reaches byte-identical
promotions, ranking, and frontier artifact.

Frontier artifact schema (``--out``)::

    {
      "tool": "repro-tune",
      "search":   {... every search parameter ...},
      "schedule": [tasks per rung],
      "rungs":    [{"rung": n, "tasks": n, "population": [...],
                    "scores": {key: mean-miss | null},
                    "promoted": [...]}],
      "ranking":  [config keys, best first],
      "frontier": {benchmark: [{"config": key, "storage_bits": n,
                                "miss_rate": x}, ...]}
    }

The artifact carries no timestamps or wall times, by design: two runs
of the same search — interrupted or not — produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.evalx.__main__ import (
    _fault_spec,
    _jobs_arg,
    _nonnegative_int,
    _positive_float,
    _positive_int,
)
from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.registry import run_experiment
from repro.evalx.report import render_frontier
from repro.predictors.design_space import (
    DEFAULT_AUTOMATA,
    DEFAULT_DEPTHS,
    DEFAULT_FOLDS,
    DEFAULT_INDEX_BITS,
    TuneConfig,
    enumerate_space,
)
from repro.utils.rng import DeterministicRng


class TuneError(ReproError):
    """The search cannot proceed (bad spec, empty space, dead rung)."""


@dataclass(frozen=True)
class TuneSpec:
    """Everything that identifies one search (and thus its artifact)."""

    benchmarks: tuple[str, ...] = BENCHMARKS
    budget: int = 16
    eta: int = 2
    rungs: int = 3
    rung0_tasks: int = 5_000
    final_tasks: int = 40_000
    seed: int = 0
    depths: tuple[int, ...] = DEFAULT_DEPTHS
    index_bits: tuple[int, ...] = DEFAULT_INDEX_BITS
    automata: tuple[str, ...] = DEFAULT_AUTOMATA
    folds: tuple[int, ...] = DEFAULT_FOLDS

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise TuneError("at least one benchmark is required")
        if self.budget < 1:
            raise TuneError("budget must be >= 1 candidate")
        if self.eta < 2:
            raise TuneError("eta must be >= 2 (promote a strict subset)")
        if self.rungs < 1:
            raise TuneError("at least one rung is required")
        if self.rung0_tasks < 1:
            raise TuneError("rung0_tasks must be >= 1")
        if self.final_tasks < self.rung0_tasks:
            raise TuneError("final_tasks must be >= rung0_tasks")


def rung_schedule(spec: TuneSpec) -> tuple[int, ...]:
    """Trace length per rung: geometric from rung0 to the full length."""
    if spec.rungs == 1:
        return (spec.final_tasks,)
    ratio = (spec.final_tasks / spec.rung0_tasks) ** (
        1.0 / (spec.rungs - 1)
    )
    tasks = [
        int(round(spec.rung0_tasks * ratio**r))
        for r in range(spec.rungs)
    ]
    tasks[-1] = spec.final_tasks
    return tuple(tasks)


def initial_population(spec: TuneSpec) -> list[str]:
    """The rung-0 candidate keys, sorted.

    When the enumerated space exceeds the budget, a seeded shuffle of
    the sorted space picks the sample — the one random decision in the
    search, and it happens before any cell runs, from the seed alone,
    so a resumed search rebuilds the identical population.
    """
    space = sorted(
        config.key
        for config in enumerate_space(
            depths=spec.depths,
            index_bits=spec.index_bits,
            automata=spec.automata,
            folds=spec.folds,
        )
    )
    if not space:
        raise TuneError("design space is empty for the given axes")
    if spec.budget >= len(space):
        return space
    rng = DeterministicRng(spec.seed).fork("tune-population")
    rng.shuffle(space)
    return sorted(space[: spec.budget])


def score_rung(
    grid: dict[str, dict[str, float | None]],
    population: Sequence[str],
    benchmarks: Sequence[str],
) -> list[tuple[str, float | None]]:
    """Mean miss rate per candidate, or None where any cell failed.

    Pure function of the rung's combined grid: the same completed cells
    always yield the same scores, however they were computed.
    """
    scored: list[tuple[str, float | None]] = []
    for key in population:
        row = grid.get(key, {})
        misses = [row.get(name) for name in benchmarks]
        if any(miss is None for miss in misses):
            scored.append((key, None))
        else:
            scored.append((key, sum(misses) / len(misses)))
    return scored


def promote(
    scored: Sequence[tuple[str, float | None]],
    eta: int,
    keep: int | None = None,
) -> list[str]:
    """The candidates advancing to the next rung, best first.

    Failed candidates (score None) never advance. Ties rank on the
    config key so promotion is deterministic. ``keep`` overrides the
    ``len(scored) // eta`` halving (the final rung keeps everyone to
    produce the full ranking).
    """
    ranked = sorted(
        (score, key) for key, score in scored if score is not None
    )
    if keep is None:
        keep = max(1, len(scored) // eta)
    return [key for _, key in ranked[:keep]]


def pareto_frontier(
    points: Sequence[tuple[str, int, float]],
) -> list[dict]:
    """Non-dominated (storage, miss-rate) points, cheapest first.

    ``points`` holds ``(config key, storage_bits, miss_rate)``. A point
    survives when nothing at equal-or-lower storage predicts better;
    equal (storage, miss) ties keep the lexicographically first key.
    """
    frontier: list[dict] = []
    best_miss: float | None = None
    for storage, miss, key in sorted(
        (storage, miss, key) for key, storage, miss in points
    ):
        if best_miss is None or miss < best_miss:
            frontier.append(
                {
                    "config": key,
                    "storage_bits": storage,
                    "miss_rate": miss,
                }
            )
            best_miss = miss
    return frontier


# -- the search -------------------------------------------------------


def run_search(
    spec: TuneSpec,
    progress: Callable[[str], None] | None = None,
    **engine,
) -> dict:
    """Run the full search; returns the frontier artifact dict.

    Each rung is one :func:`run_experiment` call of the ``tune_rung``
    experiment; ``engine`` keywords (``jobs``, ``keep_going``,
    ``retry``, ``metrics``, ``checkpoint``) pass straight through to it.
    Raises :class:`TuneError` when a rung leaves no live candidate.
    The returned dict is a pure function of the spec and the rung cell
    results — serialising it with :func:`dump_artifact` yields the
    byte-identical artifact on any replay, resumed or not.
    """
    say = progress or (lambda message: None)
    schedule = rung_schedule(spec)
    population = initial_population(spec)
    rungs: list[dict] = []
    ranking: list[str] = []
    final_grid: dict[str, dict[str, float | None]] = {}
    for number, tasks in enumerate(schedule):
        say(
            f"rung {number}: {len(population)} candidate(s) x "
            f"{len(spec.benchmarks)} benchmark(s) at {tasks} tasks"
        )
        result = run_experiment(
            "tune_rung",
            n_tasks=tasks,
            configs=tuple(population),
            benchmarks=tuple(spec.benchmarks),
            **engine,
        )
        grid = result.data["grid"]
        scored = score_rung(grid, population, spec.benchmarks)
        survivors = sum(1 for _, score in scored if score is not None)
        if not survivors:
            raise TuneError(
                f"every candidate failed at rung {number} "
                f"({tasks} tasks); nothing to promote"
            )
        last = number == len(schedule) - 1
        promoted = promote(
            scored, spec.eta, keep=survivors if last else None
        )
        rungs.append(
            {
                "rung": number,
                "tasks": tasks,
                "population": list(population),
                "scores": dict(scored),
                "promoted": list(promoted),
            }
        )
        population = promoted
        if last:
            ranking = promoted
            final_grid = grid
    frontier: dict[str, list[dict]] = {}
    for name in spec.benchmarks:
        points = []
        for key in ranking:
            miss = final_grid.get(key, {}).get(name)
            if miss is None:
                continue
            points.append((key, TuneConfig.parse(key).storage_bits(), miss))
        frontier[name] = pareto_frontier(points)
    return {
        "tool": "repro-tune",
        "search": {
            "benchmarks": list(spec.benchmarks),
            "budget": spec.budget,
            "eta": spec.eta,
            "rungs": spec.rungs,
            "rung0_tasks": spec.rung0_tasks,
            "final_tasks": spec.final_tasks,
            "seed": spec.seed,
            "depths": list(spec.depths),
            "index_bits": list(spec.index_bits),
            "automata": list(spec.automata),
            "folds": list(spec.folds),
        },
        "schedule": list(schedule),
        "rungs": rungs,
        "ranking": ranking,
        "frontier": frontier,
    }


def dump_artifact(artifact: dict) -> str:
    """Canonical JSON serialisation — byte-stable across replays."""
    return json.dumps(artifact, sort_keys=True, indent=2) + "\n"


def render_report(artifact: dict) -> str:
    """Human-readable frontier tables plus the final ranking."""
    sections = []
    for name in artifact["search"]["benchmarks"]:
        sections.append(
            render_frontier(
                artifact["frontier"][name],
                title=f"{name.upper()} accuracy-vs-storage frontier",
            )
        )
    ranking = artifact["ranking"]
    lines = [f"Final ranking ({len(ranking)} candidate(s)):"]
    lines.extend(
        f"  {position + 1}. {key}"
        for position, key in enumerate(ranking)
    )
    sections.append("\n".join(lines))
    return "\n\n".join(sections)


# -- CLI --------------------------------------------------------------


def _eta_arg(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"--eta must be >= 2 so each rung prunes, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description=(
            "Successive-halving search over the predictor design space "
            "(DOLC x automaton x table size x hysteresis) for the "
            "accuracy-vs-storage Pareto frontier."
        ),
    )
    search = parser.add_argument_group("search space and budget")
    search.add_argument(
        "--benchmarks", nargs="+", default=list(BENCHMARKS),
        metavar="NAME", help="workloads to evaluate candidates on",
    )
    search.add_argument(
        "--budget", type=_positive_int, default=16, metavar="N",
        help="rung-0 population size (seeded sample of the space; "
        "default 16)",
    )
    search.add_argument(
        "--eta", type=_eta_arg, default=2, metavar="N",
        help="promotion divisor: each rung keeps ~1/eta (default 2)",
    )
    search.add_argument(
        "--rungs", type=_positive_int, default=3, metavar="N",
        help="number of rungs (default 3)",
    )
    search.add_argument(
        "--rung0-tasks", type=_positive_int, default=5_000, metavar="N",
        help="trace length of the cheapest rung (default 5000)",
    )
    search.add_argument(
        "--final-tasks", type=_positive_int, default=40_000, metavar="N",
        help="trace length of the last rung (default 40000)",
    )
    search.add_argument(
        "--seed", type=_nonnegative_int, default=0, metavar="N",
        help="seed for the population sample (default 0)",
    )
    search.add_argument(
        "--depths", type=_nonnegative_int, nargs="+", default=None,
        metavar="D", help="history depths to search (default 0..7)",
    )
    search.add_argument(
        "--index-bits", type=_positive_int, nargs="+", default=None,
        metavar="B", help="PHT index widths to search (default 10 12 14)",
    )
    search.add_argument(
        "--automata", nargs="+", default=None, metavar="SPEC",
        help="automata to search (default LE LEH-1 LEH-2 LEH-3 "
        "VC2-MRU VC3-MRU)",
    )
    search.add_argument(
        "--folds", type=_positive_int, nargs="+", default=None,
        metavar="F", help="XOR-fold counts to search (default 1 2 3)",
    )
    engine = parser.add_argument_group("execution engine")
    engine.add_argument(
        "--jobs", type=_jobs_arg, default=None, metavar="N",
        help="fan each rung's cells over N worker processes "
        "(0 = one per CPU; default serial)",
    )
    engine.add_argument(
        "--keep-going", action="store_true",
        help="a failed cell drops its candidate from the search "
        "instead of aborting the rung",
    )
    engine.add_argument(
        "--retries", type=_nonnegative_int, default=0, metavar="N",
        help="extra attempts granted to each failing cell (default 0)",
    )
    engine.add_argument(
        "--retry-backoff", type=_positive_float, default=0.25,
        metavar="SECONDS",
        help="delay before a cell's first retry; doubles per retry",
    )
    engine.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="append per-cell JSONL metrics to FILE",
    )
    engine.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="persist every completed rung cell to DIR (crash-safe); "
        "combine with --resume to replay a killed search",
    )
    engine.add_argument(
        "--resume", action="store_true",
        help="serve verified records from --checkpoint-dir; a resumed "
        "search reaches byte-identical promotions and frontier",
    )
    engine.add_argument(
        "--inject-faults", type=_fault_spec, default=None, metavar="SPEC",
        help="chaos harness over the rung cells (see repro.evalx.faults)",
    )
    engine.add_argument(
        "--fault-seed", type=_nonnegative_int, default=0, metavar="N",
        help="seed for the fault injector's victim choice (default 0)",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the frontier artifact JSON to FILE",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    try:
        spec = TuneSpec(
            benchmarks=tuple(args.benchmarks),
            budget=args.budget,
            eta=args.eta,
            rungs=args.rungs,
            rung0_tasks=args.rung0_tasks,
            final_tasks=args.final_tasks,
            seed=args.seed,
            depths=(
                tuple(args.depths)
                if args.depths is not None
                else DEFAULT_DEPTHS
            ),
            index_bits=(
                tuple(args.index_bits)
                if args.index_bits is not None
                else DEFAULT_INDEX_BITS
            ),
            automata=(
                tuple(args.automata)
                if args.automata is not None
                else DEFAULT_AUTOMATA
            ),
            folds=(
                tuple(args.folds)
                if args.folds is not None
                else DEFAULT_FOLDS
            ),
        )
        population = initial_population(spec)
    except TuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.inject_faults:
        _install_fault_plan(
            args.inject_faults, args.fault_seed, population, spec
        )

    from repro.evalx.metrics import RunMetrics
    from repro.evalx.parallel import RetryPolicy

    checkpoint = None
    if args.checkpoint_dir:
        from repro.evalx.checkpoint import CheckpointStore

        checkpoint = CheckpointStore(
            args.checkpoint_dir, resume=args.resume
        )
    metrics = RunMetrics(path=args.metrics)
    with metrics:
        try:
            artifact = run_search(
                spec,
                progress=lambda message: print(
                    f"[{message}]", file=sys.stderr
                ),
                jobs=args.jobs,
                keep_going=args.keep_going,
                retry=RetryPolicy(
                    retries=args.retries,
                    backoff_seconds=args.retry_backoff,
                ),
                metrics=metrics,
                checkpoint=checkpoint,
            )
        except TuneError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(render_report(artifact))
    if args.out:
        Path(args.out).write_text(
            dump_artifact(artifact), encoding="utf-8"
        )
        print(f"[frontier artifact written to {args.out}]", file=sys.stderr)
    return 0


def _install_fault_plan(
    spec_text: str, seed: int, population: list[str], spec: TuneSpec
) -> None:
    """Arm the chaos injector against this search's rung cell labels."""
    from repro.evalx import faults
    from repro.evalx.experiments import tune_rung

    labels = [
        cell.label
        for cell in tune_rung.cells(
            n_tasks=1,
            configs=population,
            benchmarks=spec.benchmarks,
        )
    ]
    plan = faults.FaultPlan.compile(spec_text, seed=seed, labels=labels)
    faults.install(plan)
    print(
        f"[fault injection armed: {len(plan.triggers)} trigger(s) "
        f"from spec {spec_text!r}, seed {seed}]",
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
