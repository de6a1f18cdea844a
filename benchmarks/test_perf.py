"""Performance checks for the vectorized kernels and the --jobs engine.

Each test times a batched kernel against the step-by-step loop (or a
parallel experiment run against the serial one) on a fixed workload and
emits a machine-readable line::

    BENCH {"name": ..., "serial_s": ..., "fast_s": ..., "speedup": ...}

so CI logs and tooling can track the numbers over time. Correctness is
asserted (identical results both ways); speed is reported, not gated —
wall-clock ratios are hardware-dependent, and on a single-CPU box the
``--jobs`` fan-out cannot win.
"""

from __future__ import annotations

import json
import time

from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.experiments.table4 import SCHEMES, _make_predictor
from repro.evalx.registry import run_experiment
from repro.predictors.automata import make_automaton_factory
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.speculative import SpeculativePathPredictor
from repro.predictors.ttb import IdealCorrelatedTargetBuffer
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
)
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.sim.timing import TimingConfig, simulate_timing
from repro.sim.timing.detailed import simulate_timing_detailed
from repro.synth.workloads import load_workload
from repro.utils.rng import DeterministicRng

_TASKS = 100_000


def _report(name: str, serial_s: float, fast_s: float) -> None:
    print(
        "BENCH "
        + json.dumps(
            {
                "name": name,
                "serial_s": round(serial_s, 4),
                "fast_s": round(fast_s, 4),
                "speedup": round(serial_s / fast_s, 2) if fast_s else None,
            }
        )
    )


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_exit_kernel_speedup():
    """Batched ideal exit predictors vs the generic loop, all schemes."""
    workload = load_workload("gcc", n_tasks=_TASKS)
    total_slow = total_fast = 0.0
    for cls in (
        IdealGlobalPredictor, IdealPerTaskPredictor, IdealPathPredictor,
    ):
        for depth in (0, 4, 7):
            looped, slow = _time(
                lambda: simulate_exit_prediction(
                    workload, cls(depth), vectorize=False
                )
            )
            batched, fast = _time(
                lambda: simulate_exit_prediction(
                    workload, cls(depth), vectorize=True
                )
            )
            assert batched == looped
            total_slow += slow
            total_fast += fast
    _report("exit_kernel[gcc-100k]", total_slow, total_fast)


def test_vc_kernel_speedup():
    """Factored voting-counter replay vs the generic loop, ideal PATH.

    The four voting-counter automata of Figure 6, each run forking its
    tie-break stream the way Figure 6 does, so the random variants draw
    identically both ways.
    """
    workload = load_workload("gcc", n_tasks=_TASKS)
    total_slow = total_fast = 0.0
    for spec in ("VC2-MRU", "VC2-RANDOM", "VC3-MRU", "VC3-RANDOM"):
        for depth in (0, 4, 7):
            def run(vectorize: bool):
                factory = make_automaton_factory(
                    spec, DeterministicRng(depth).fork(spec)
                )
                return simulate_exit_prediction(
                    workload,
                    IdealPathPredictor(depth, automaton=factory),
                    vectorize=vectorize,
                )

            looped, slow = _time(lambda: run(False))
            batched, fast = _time(lambda: run(True))
            assert batched == looped
            total_slow += slow
            total_fast += fast
    _report("vc_kernel[gcc-100k]", total_slow, total_fast)


def test_target_kernel_speedup():
    """Batched ideal CTTB vs the generic loop."""
    workload = load_workload("gcc", n_tasks=_TASKS)
    total_slow = total_fast = 0.0
    for depth in (0, 3, 7):
        looped, slow = _time(
            lambda: simulate_indirect_target_prediction(
                workload, IdealCorrelatedTargetBuffer(depth),
                vectorize=False,
            )
        )
        batched, fast = _time(
            lambda: simulate_indirect_target_prediction(
                workload, IdealCorrelatedTargetBuffer(depth),
                vectorize=True,
            )
        )
        assert batched == looped
        total_slow += slow
        total_fast += fast
    _report("target_kernel[gcc-100k]", total_slow, total_fast)


def test_table4_sweep_speedup():
    """Full Table 4 grid — realistic predictors through the timing model.

    5 benchmarks x 5 schemes (Simple/GLOBAL/PER/PATH/Perfect), scalar
    reference loop vs the batched kernels. Two vectorized timings are
    reported: *cold* pays the one-time per-trace derived-column builds
    (header tables, history columns, timing cycle columns), *warm* shows
    the steady-state cost once the memo caches hold them — the number a
    long sweep with repeated traces actually sees.
    """
    def sweep(vectorize: bool) -> dict:
        results = {}
        for name in BENCHMARKS:
            workload = load_workload(name, n_tasks=_TASKS)
            for scheme in SCHEMES:
                predictor = _make_predictor(scheme, workload)
                results[(name, scheme)] = simulate_timing(
                    workload, predictor, vectorize=vectorize
                )
        return results

    serial, serial_s = _time(lambda: sweep(False))
    cold, cold_s = _time(lambda: sweep(True))
    warm, warm_s = _time(lambda: sweep(True))
    assert cold == serial
    assert warm == serial
    _report("table4_sweep_cold[100k]", serial_s, cold_s)
    _report("table4_sweep_warm[100k]", serial_s, warm_s)


def test_speculative_repair_speedup():
    """Speculative-history path predictor, perfect repair, batched replay.

    The batched path evaluates the run as a PHT replay over the
    committed stream plus a level-synchronous wrong-path walk; the
    stepped loop mutates predictor state task by task. A fresh predictor
    is built per run — the stepped loop trains it in place.
    """
    workload = load_workload("gcc", n_tasks=_TASKS)
    spec = DolcSpec.parse("7-5-7-8(3)")
    total_slow = total_fast = 0.0
    for depth in (0, 4):
        looped, slow = _time(
            lambda: simulate_speculative_exit_prediction(
                workload, SpeculativePathPredictor(spec),
                wrong_path_depth=depth, vectorize=False,
            )
        )
        batched, fast = _time(
            lambda: simulate_speculative_exit_prediction(
                workload, SpeculativePathPredictor(spec),
                wrong_path_depth=depth, vectorize=True,
            )
        )
        assert batched == looped
        total_slow += slow
        total_fast += fast
    _report("speculative_perfect[gcc-100k]", total_slow, total_fast)


def test_detailed_timing_event_compression():
    """Cycle-stepped model with event-compressed advance vs full stepping.

    Long tasks (high startup, narrow issue) leave many event-free cycles
    between dispatches, which the compressed advance jumps in one
    accounting step. Both modes run identical phase code at event
    cycles, so the results compare equal field for field.
    """
    workload = load_workload("gcc", n_tasks=8_000)
    config = TimingConfig(task_startup_cycles=16, issue_width=2)
    predictor_a = _make_predictor("PATH", workload)
    predictor_b = _make_predictor("PATH", workload)
    stepped, slow = _time(
        lambda: simulate_timing_detailed(
            workload, predictor_a, config=config, vectorize=False
        )
    )
    compressed, fast = _time(
        lambda: simulate_timing_detailed(
            workload, predictor_b, config=config, vectorize=True
        )
    )
    assert compressed == stepped
    _report("detailed_event_skip[gcc-8k]", slow, fast)


def test_jobs_speedup():
    """figure7 fanned over workers vs serial — identical data either way."""
    kwargs = dict(
        n_tasks=40_000, quick=True, benchmarks=("gcc", "xlisp")
    )
    # Warm the trace caches so both timings measure simulation only.
    for name in kwargs["benchmarks"]:
        load_workload(name, n_tasks=kwargs["n_tasks"])
    serial, serial_s = _time(
        lambda: run_experiment("figure7", **kwargs)
    )
    fanned, fanned_s = _time(
        lambda: run_experiment("figure7", jobs=0, **kwargs)
    )
    assert fanned.data == serial.data
    _report("figure7_jobs[40k]", serial_s, fanned_s)
