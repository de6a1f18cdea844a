"""Performance checks for the batched kernels and the --jobs engine.

Each test times a batched kernel against the step-by-step reference of
:mod:`repro.sim.reference` (or a parallel experiment run against the
serial one, or the grouping layer's dense codes against ``np.unique``)
on a fixed workload and emits a machine-readable line::

    BENCH {"name": ..., "serial_s": ..., "fast_s": ..., "speedup": ...}

so CI logs and tooling can track the numbers over time. Correctness is
asserted (identical results both ways); speed is reported, not gated —
wall-clock ratios are hardware-dependent, and on a single-CPU box the
``--jobs`` fan-out cannot win.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.evalx.experiments.common import BENCHMARKS, CTTB_DOLC_CONFIGS
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
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.sim import reference
from repro.sim.functional import (
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
)
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.sim.timing import machine, simulate_timing
from repro.sim.timing.scan import max_plus_timing_scan
from repro.synth.workloads import load_workload
from repro.utils import windows
from repro.utils.memo import DerivedColumnCache, int64_column
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
                lambda: reference.simulate_exit_prediction(
                    workload, cls(depth)
                )
            )
            batched, fast = _time(
                lambda: simulate_exit_prediction(workload, cls(depth))
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
            def run(simulate):
                factory = make_automaton_factory(
                    spec, DeterministicRng(depth).fork(spec)
                )
                return simulate(
                    workload, IdealPathPredictor(depth, automaton=factory)
                )

            looped, slow = _time(
                lambda: run(reference.simulate_exit_prediction)
            )
            batched, fast = _time(lambda: run(simulate_exit_prediction))
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
            lambda: reference.simulate_indirect_target_prediction(
                workload, IdealCorrelatedTargetBuffer(depth)
            )
        )
        batched, fast = _time(
            lambda: simulate_indirect_target_prediction(
                workload, IdealCorrelatedTargetBuffer(depth)
            )
        )
        assert batched == looped
        total_slow += slow
        total_fast += fast
    _report("target_kernel[gcc-100k]", total_slow, total_fast)


def test_real_target_kernel_speedup():
    """Figure 12's eight real CTTBs and an 11-bit TTB vs the generic loop.

    Every buffer kind replays through the same target-entry kernel; the
    real ones add the D-O-L-C fold (CTTB) or a factorize (TTB).
    """
    workload = load_workload("gcc", n_tasks=_TASKS)
    buffers = [
        lambda spec=spec: CorrelatedTaskTargetBuffer(DolcSpec.parse(spec))
        for spec in CTTB_DOLC_CONFIGS
    ] + [lambda: TaskTargetBuffer(index_bits=11)]
    total_slow = total_fast = 0.0
    for make in buffers:
        looped, slow = _time(
            lambda: reference.simulate_indirect_target_prediction(
                workload, make()
            )
        )
        batched, fast = _time(
            lambda: simulate_indirect_target_prediction(workload, make())
        )
        assert batched == looped
        total_slow += slow
        total_fast += fast
    _report("target_kernel_real[gcc-100k]", total_slow, total_fast)


def test_table4_sweep_speedup():
    """Full Table 4 grid — realistic predictors through the timing model.

    5 benchmarks x 5 schemes (Simple/GLOBAL/PER/PATH/Perfect), stepped
    reference vs the batched kernels. Two batched timings are
    reported: *cold* pays the one-time per-trace derived-column builds
    (header tables, history columns, timing cycle columns), *warm* shows
    the steady-state cost once the memo caches hold them — the number a
    long sweep with repeated traces actually sees.
    """
    def sweep(simulate) -> dict:
        results = {}
        for name in BENCHMARKS:
            workload = load_workload(name, n_tasks=_TASKS)
            for scheme in SCHEMES:
                predictor = _make_predictor(scheme, workload)
                results[(name, scheme)] = simulate(workload, predictor)
        return results

    serial, serial_s = _time(lambda: sweep(reference.simulate_timing))
    cold, cold_s = _time(lambda: sweep(simulate_timing))
    warm, warm_s = _time(lambda: sweep(simulate_timing))
    assert cold == serial
    assert warm == serial
    _report("table4_sweep_cold[100k]", serial_s, cold_s)
    _report("table4_sweep_warm[100k]", serial_s, warm_s)


def test_timing_scan_speedup(monkeypatch):
    """The max-plus timing scan vs the stepped recurrence it replaces.

    The columns are the ones Table 4's PATH cell scans on gcc: one
    ``simulate_timing`` run records the scan's arguments. The scan is
    timed warm (its cycle-column layout built by that run), best of
    three; the stepped recurrence once.
    """
    workload = load_workload("gcc", n_tasks=_TASKS)
    calls = []

    def record(*args):
        calls.append(args)
        return max_plus_timing_scan(*args)

    monkeypatch.setattr(machine, "max_plus_timing_scan", record)
    simulate_timing(workload, _make_predictor("PATH", workload))
    (args,) = calls
    stepped, slow = _time(lambda: reference.stepped_timing(*args))
    runs = [_time(lambda: max_plus_timing_scan(*args)) for _ in range(3)]
    assert all(scanned == stepped for scanned, _ in runs)
    _report("timing_scan[gcc-100k]", slow, min(fast for _, fast in runs))


def test_grouping_speedup(monkeypatch):
    """Dense codes for Figure 7's ideal groupings vs ``np.unique``.

    One pass over the three ideal groupings (GLOBAL, PER, PATH) at
    depths 1-7 on gcc, from an empty grouping memo, records every column
    ``windows.factorize`` codes: the raw address and outcome columns,
    the bit-packed history keys and the path-window pairs. Each column
    is then coded by ``np.unique(..., return_inverse=True)`` and by
    ``factorize``, each timed best of three; the codes and counts must
    agree.
    """
    workload = load_workload("gcc", n_tasks=_TASKS)
    # The int64 columns the ideal predictors group by.
    addrs = int64_column(workload.trace.task_addr)
    outcomes = int64_column(workload.trace.exit_index)
    columns = []
    original = windows.factorize

    def record(values):
        columns.append(values)
        return original(values)

    monkeypatch.setattr(windows, "_GROUPINGS", DerivedColumnCache())
    monkeypatch.setattr(windows, "factorize", record)
    for depth in range(1, 8):
        windows.group_by_global_history(addrs, outcomes, depth)
        windows.group_by_per_key_history(addrs, outcomes, depth)
        windows.group_by_path(addrs, depth)
    monkeypatch.undo()

    def unique_all():
        return [np.unique(values, return_inverse=True) for values in columns]

    def factorize_all():
        return [original(values) for values in columns]

    slow = min(_time(unique_all)[1] for _ in range(3))
    fast = min(_time(factorize_all)[1] for _ in range(3))
    for (codes, count), (unique, inverse) in zip(
        factorize_all(), unique_all()
    ):
        assert count == len(unique)
        assert np.array_equal(codes, inverse.reshape(-1))
    _report("grouping[gcc-100k]", slow, fast)


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
            lambda: reference.simulate_speculative_exit_prediction(
                workload, SpeculativePathPredictor(spec),
                wrong_path_depth=depth,
            )
        )
        batched, fast = _time(
            lambda: simulate_speculative_exit_prediction(
                workload, SpeculativePathPredictor(spec),
                wrong_path_depth=depth,
            )
        )
        assert batched == looped
        total_slow += slow
        total_fast += fast
    _report("speculative_perfect[gcc-100k]", total_slow, total_fast)


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
