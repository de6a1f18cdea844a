"""Bit-identity of the batched simulation kernels vs the stepped reference.

The performance contract: the timing model's max-plus scan, the
realistic predictors' batched columns and the speculative-history replay
must produce results *equal* to the stepped loops of
:mod:`repro.sim.reference`, not merely close. Two hypothesis properties
check the timing kernel: one on raw drawn columns against the stepped
recurrence, at lengths up to 30,000 tasks, every ring size and every
outcome mix; one for every Table 4 scheme on all five synthetic
workload profiles, drawing the trace prefix, every machine parameter
and an optional confidence gate. Fixed grids check the speculative
replay; one checkpoint-resumed sweep shows records served from a
checkpoint store match a fresh run.

(`repro.sim.timing.scan` points here as the scan's equivalence proof.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.experiments.table4 import SCHEMES, _make_predictor
from repro.evalx.registry import run_experiment
from repro.predictors.confidence import ResettingConfidenceEstimator
from repro.predictors.folding import DolcSpec
from repro.predictors.speculative import SpeculativePathPredictor
from repro.sim import reference
from repro.sim.relaxed import simulate_speculative_exit_prediction
from repro.sim.timing import TimingConfig, simulate_timing
from repro.sim.timing.scan import (
    CODE_CORRECT,
    CODE_GATED,
    CODE_MISPREDICT,
    max_plus_timing_scan,
)
from repro.synth.workloads import load_workload
from repro.utils.memo import (
    _PRUNE_THRESHOLD,
    DerivedColumnCache,
    int64_column,
)

_TASKS = 4_000

_CONFIGS = st.builds(
    TimingConfig,
    n_units=st.integers(1, 8),
    issue_width=st.integers(1, 4),
    task_startup_cycles=st.integers(0, 16),
    intra_mispredict_penalty=st.integers(0, 8),
    forward_fraction=st.floats(0.0, 1.0),
    dispatch_interval=st.integers(0, 3),
    task_mispredict_penalty=st.integers(0, 16),
    commit_interval=st.integers(0, 3),
    dependence_aware=st.booleans(),
)

#: An optional confidence gate, as ``(spec, threshold, counter_max)``.
_GATES = st.none() | st.tuples(
    st.sampled_from(["0-0-0-8(1)", "4-5-6-7(2)", "6-5-8-9(3)"]),
    st.integers(1, 8),
    st.integers(8, 64),
)


def _gate(drawn):
    if drawn is None:
        return None
    spec, threshold, counter_max = drawn
    return ResettingConfidenceEstimator(
        DolcSpec.parse(spec), threshold=threshold, counter_max=counter_max
    )


#: Outcome mixes as {code: probability}: all correct, all mispredicted,
#: all gated, and mixtures.
_MIXES = (
    {CODE_CORRECT: 1.0},
    {CODE_MISPREDICT: 1.0},
    {CODE_GATED: 1.0},
    {CODE_CORRECT: 0.88, CODE_MISPREDICT: 0.12},
    {CODE_CORRECT: 0.6, CODE_GATED: 0.2, CODE_MISPREDICT: 0.2},
    {CODE_GATED: 0.5, CODE_MISPREDICT: 0.5},
)

#: Largest per-task exec or forward cycle count, 0 included.
_CYCLE_CAPS = st.sampled_from([0, 1, 8, 60, 5_000])


def _scan_columns(n, seed, exec_cap, forward_cap, mix, mean_run):
    """Cycle columns and outcome codes in runs of about ``mean_run``
    tasks, each run's outcome drawn from ``_MIXES[mix]``."""
    rng = np.random.default_rng(seed)
    exec_cycles = rng.integers(0, exec_cap + 1, n)
    forward_stalls = rng.integers(0, forward_cap + 1, n)
    outcomes, weights = zip(*_MIXES[mix].items())
    run_codes = rng.choice(outcomes, n + 1, p=weights)
    runs = np.cumsum(rng.random(n) < 1 / mean_run)
    return exec_cycles, forward_stalls, run_codes[runs].astype(np.int64)


class TestScanMatchesSteppedRecurrence:
    """The scan against :func:`reference.stepped_timing` on raw columns.

    Lengths reach 30,000 tasks (about 420 chunks of about 70 steps),
    so the padded tail of the last chunk, every chunk-boundary hand-off
    and every ring rotation are exercised.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 30_000),
        seed=st.integers(0, 2**32 - 1),
        exec_cap=_CYCLE_CAPS,
        forward_cap=_CYCLE_CAPS,
        mix=st.integers(0, len(_MIXES) - 1),
        mean_run=st.sampled_from([1, 16, 1_000]),
        n_units=st.integers(1, 8),
        dispatch_interval=st.integers(0, 6),
        mispredict_penalty=st.integers(0, 6),
        commit_interval=st.integers(0, 3),
    )
    # Zero intervals and cycles, every task mispredicted.
    @example(
        n=5_001, seed=0, exec_cap=0, forward_cap=0, mix=1, mean_run=1,
        n_units=3, dispatch_interval=0, mispredict_penalty=0,
        commit_interval=0,
    )
    # Dispatch slower than a redirect: the stall term clips at zero.
    @example(
        n=30_000, seed=1, exec_cap=8, forward_cap=1, mix=4, mean_run=16,
        n_units=4, dispatch_interval=6, mispredict_penalty=1,
        commit_interval=1,
    )
    # Every task gated, on a one-unit ring.
    @example(
        n=997, seed=2, exec_cap=60, forward_cap=60, mix=2, mean_run=1,
        n_units=1, dispatch_interval=1, mispredict_penalty=3,
        commit_interval=1,
    )
    def test_scan_equals_stepped_recurrence(
        self, n, seed, exec_cap, forward_cap, mix, mean_run, n_units,
        dispatch_interval, mispredict_penalty, commit_interval,
    ):
        exec_cycles, forward_stalls, codes = _scan_columns(
            n, seed, exec_cap, forward_cap, mix, mean_run
        )
        machine = (
            n_units, dispatch_interval, mispredict_penalty, commit_interval
        )
        assert max_plus_timing_scan(
            exec_cycles, forward_stalls, codes, *machine
        ) == reference.stepped_timing(
            exec_cycles, forward_stalls, codes, *machine
        )


class TestTimingBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", BENCHMARKS)
    @settings(max_examples=2, deadline=None)
    @given(
        prefix=st.integers(0, 1_500), config=_CONFIGS, gate=_GATES
    )
    # The whole trace on the paper's machine: what every Table 4 cell runs.
    @example(prefix=_TASKS, config=TimingConfig(), gate=None)
    def test_every_scheme_every_profile(
        self, name, scheme, prefix, config, gate
    ):
        workload = load_workload(name, n_tasks=_TASKS)
        stepped = reference.simulate_timing(
            workload, _make_predictor(scheme, workload),
            config=config, limit=prefix, confidence_gate=_gate(gate),
        )
        batched = simulate_timing(
            workload, _make_predictor(scheme, workload),
            config=config, limit=prefix, confidence_gate=_gate(gate),
        )
        assert batched == stepped


class TestSpeculativeReplay:
    @pytest.mark.parametrize(
        "spec", ("7-5-7-8(3)", "4-4-6-8(2)", "0-0-0-9(1)", "2-3-5-6(2)")
    )
    @pytest.mark.parametrize("depth", (0, 1, 4, 7))
    def test_perfect_repair_matches_stepped_loop(self, spec, depth):
        workload = load_workload("compress", n_tasks=_TASKS)
        parsed = DolcSpec.parse(spec)
        stepped = reference.simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            wrong_path_depth=depth,
        )
        batched = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed),
            wrong_path_depth=depth,
        )
        assert batched == stepped

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_perfect_repair_every_profile(self, name):
        workload = load_workload(name, n_tasks=_TASKS)
        parsed = DolcSpec.parse("7-5-7-8(3)")
        stepped = reference.simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed)
        )
        batched = simulate_speculative_exit_prediction(
            workload, SpeculativePathPredictor(parsed)
        )
        assert batched == stepped


class TestCheckpointResumedSweep:
    def test_resumed_sweep_matches_fresh_run(self, tmp_path):
        """Records served from a checkpoint store equal a fresh sweep."""
        kwargs = dict(quick=True, n_tasks=2_000)
        fresh = run_experiment("table4", **kwargs)
        first = run_experiment(
            "table4", checkpoint=CheckpointStore(tmp_path), **kwargs
        )
        resumed = run_experiment(
            "table4",
            checkpoint=CheckpointStore(tmp_path, resume=True),
            **kwargs,
        )
        assert first.data == fresh.data
        assert resumed.data == fresh.data
        # The resume really was served from disk, not recomputed.
        assert list(tmp_path.glob("*.ckpt.json"))


class TestDerivedColumnCache:
    def test_same_anchor_hits_and_new_anchor_rebuilds(self):
        cache = DerivedColumnCache()
        anchor = np.arange(8)
        builds = []

        def build():
            builds.append(None)
            return anchor * 2

        first = cache.get((anchor,), "x2", build)
        second = cache.get((anchor,), "x2", build)
        assert first is second
        assert len(builds) == 1
        other = np.arange(8)
        cache.get((other,), "x2", build)
        assert len(builds) == 2

    def test_tag_distinguishes_parameterisations(self):
        cache = DerivedColumnCache()
        anchor = np.arange(4)
        a = cache.get((anchor,), ("depth", 3), lambda: "d3")
        b = cache.get((anchor,), ("depth", 7), lambda: "d7")
        assert (a, b) == ("d3", "d7")

    def test_dead_anchor_is_not_served_to_an_aliased_id(self):
        cache = DerivedColumnCache()
        anchor = np.arange(16)
        cache.get((anchor,), "tag", lambda: "old")
        del anchor
        fresh = np.arange(16)
        # Even if id() were recycled, the weakref revalidation forces a
        # rebuild rather than serving the dead anchor's value.
        assert cache.get((fresh,), "tag", lambda: "new") == "new"

    def test_unweakrefable_anchor_bypasses_cache(self):
        cache = DerivedColumnCache()
        calls = []
        for _ in range(2):
            cache.get((42,), "t", lambda: calls.append(None))
        assert len(calls) == 2

    def test_live_entries_are_bounded_lru(self):
        cache = DerivedColumnCache()
        anchors = [np.empty(1) for _ in range(_PRUNE_THRESHOLD * 3)]
        for i, anchor in enumerate(anchors):
            cache.get((anchor,), i, lambda i=i: i)
        # Live anchors alone must not grow the table past the bound.
        assert len(cache._entries) == _PRUNE_THRESHOLD
        builds = []
        # The newest entry is still cached ...
        cache.get(
            (anchors[-1],),
            len(anchors) - 1,
            lambda: builds.append("rebuilt"),
        )
        assert builds == []
        # ... and the oldest was evicted, so it rebuilds.
        cache.get((anchors[0],), 0, lambda: builds.append("rebuilt"))
        assert builds == ["rebuilt"]

    def test_hit_refreshes_recency(self):
        cache = DerivedColumnCache()
        keep = np.empty(1)
        cache.get((keep,), "keep", lambda: "kept")
        fillers = []
        for i in range(_PRUNE_THRESHOLD * 2):
            filler = np.empty(1)
            fillers.append(filler)
            cache.get((filler,), i, lambda i=i: i)
            # Touch the sentinel so every eviction takes a filler.
            cache.get((keep,), "keep", lambda: "rebuilt")
        assert cache.get((keep,), "keep", lambda: "rebuilt") == "kept"

    def test_insert_cost_stays_flat_with_live_anchors(self):
        """Regression: once >= _PRUNE_THRESHOLD *live* entries existed,
        every insert rescanned the whole (unbounded) table — O(n^2)
        across a sweep. Eviction must keep inserts O(1)."""
        import time

        cache = DerivedColumnCache()
        anchors = [np.empty(0) for _ in range(20_000)]
        started = time.perf_counter()
        for i, anchor in enumerate(anchors):
            cache.get((anchor,), i, lambda: None)
        elapsed = time.perf_counter() - started
        assert len(cache._entries) == _PRUNE_THRESHOLD
        # The quadratic rescan took tens of seconds here; the LRU pop
        # takes well under one even on a loaded CI box.
        assert elapsed < 5.0

    def test_int64_column_is_canonical_per_source(self):
        narrow = np.arange(10, dtype=np.uint16)
        wide_a = int64_column(narrow)
        wide_b = int64_column(narrow)
        assert wide_a is wide_b
        assert wide_a.dtype == np.int64
        already = np.arange(10, dtype=np.int64)
        assert int64_column(already) is already
