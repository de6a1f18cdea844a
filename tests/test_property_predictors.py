"""Property-based tests on predictor data structures.

Hypothesis strategies generate valid D-O-L-C(F) specifications and outcome
streams; the tests check invariants that must hold for every instance,
plus reference-model equivalence for the LEH automaton, and equality of
the batched kernels with the stepped reference (:mod:`repro.sim.reference`)
for the voting-counter replay, the tournament chooser, training on
single-exit tasks and the confidence gate. Each modelled structure's
batched form is also pinned to its stepped rule: the D-O-L-C fold to
:meth:`DolcSpec.index`, target buffers to one ``_TargetEntry`` per slot,
history windows to one ``deque(maxlen=depth)`` per key, and the
bit-packed row grouping under them to ``np.unique`` over the rows.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.controlflow import ControlFlowType
from repro.isa.task import TaskExit
from repro.predictors.automata import (
    AUTOMATON_SPECS,
    LastExitHysteresis,
    make_automaton_factory,
)
from repro.predictors.confidence import ResettingConfidenceEstimator
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.hybrid import TournamentExitPredictor
from repro.predictors.task_predictor import (
    CttbOnlyTaskPredictor,
    HeaderTaskPredictor,
)
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    TaskTargetBuffer,
    _TargetEntry,
)
from repro.sim import reference
from repro.sim.functional import (
    batched_task_prediction_column,
    simulate_exit_prediction,
    simulate_indirect_target_prediction,
)
from repro.synth.trace import CF_TYPE_CODES
from repro.utils.rng import DeterministicRng
from repro.utils.windows import (
    group_by_global_history,
    group_by_per_key_history,
    group_columns,
)
from tests.helpers import trace_workload

_ADDRESSES = st.integers(min_value=0, max_value=(1 << 32) - 4).map(
    lambda a: a & ~0x3
)


@st.composite
def dolc_specs(draw, max_index_bits=16):
    """Any valid spec with a final index of at most ``max_index_bits``."""
    depth = draw(st.integers(min_value=0, max_value=8))
    folds = draw(st.integers(min_value=1, max_value=3))
    index_bits = draw(st.integers(min_value=4, max_value=max_index_bits))
    total = index_bits * folds
    if depth == 0:
        return DolcSpec(
            depth=0, older_bits=0, last_bits=0,
            current_bits=total, folds=folds,
        )
    if depth == 1:
        last = draw(st.integers(min_value=1, max_value=total - 1))
        return DolcSpec(
            depth=1, older_bits=0, last_bits=last,
            current_bits=total - last, folds=folds,
        )
    # depth >= 2: need (depth-1)*older + last + current == total with
    # older >= 0, last >= 1, current >= 1.
    max_older = (total - 2) // (depth - 1)
    older = draw(st.integers(min_value=0, max_value=max(0, max_older)))
    remaining = total - (depth - 1) * older
    last = draw(st.integers(min_value=1, max_value=remaining - 1))
    return DolcSpec(
        depth=depth, older_bits=older, last_bits=last,
        current_bits=remaining - last, folds=folds,
    )


class TestDolcSpecProperties:
    @settings(max_examples=80)
    @given(dolc_specs(), _ADDRESSES, st.lists(_ADDRESSES, max_size=12))
    def test_index_always_in_range(self, spec, addr, path):
        assert 0 <= spec.index(addr, path) < spec.table_entries

    @settings(max_examples=50)
    @given(dolc_specs())
    def test_parse_round_trips_str(self, spec):
        assert DolcSpec.parse(str(spec)) == spec

    @settings(max_examples=50)
    @given(dolc_specs(), _ADDRESSES, st.lists(_ADDRESSES, max_size=12))
    def test_index_uses_only_last_depth_tasks(self, spec, addr, path):
        prefixed = [0xDEAD_BEE0, 0xFEED_F000] + path
        if spec.depth <= len(path):
            assert spec.index(addr, path) == spec.index(addr, prefixed)

    @settings(max_examples=80)
    @given(dolc_specs(max_index_bits=62), st.lists(_ADDRESSES, max_size=24))
    def test_index_column_is_the_stepped_fold(self, spec, addrs):
        """Row ``i`` of the batched fold is :meth:`DolcSpec.index` of
        address ``i`` with every earlier address as its path, for any
        index that fits the int64 column (no table is built here)."""
        column = spec.index_column(np.array(addrs, dtype=np.int64))
        assert column.tolist() == [
            spec.index(addr, addrs[:i]) for i, addr in enumerate(addrs)
        ]

    @settings(max_examples=50)
    @given(dolc_specs())
    def test_intermediate_width_formula(self, spec):
        if spec.depth == 0:
            expected = spec.current_bits
        else:
            expected = (
                (spec.depth - 1) * spec.older_bits
                + spec.last_bits
                + spec.current_bits
            )
        assert spec.intermediate_bits == expected
        assert spec.intermediate_bits % spec.folds == 0


def _leh_reference(outcomes, bits):
    """Pure-python reference for the LEH automaton's final state."""
    exit_value, confidence = 0, 0
    maximum = (1 << bits) - 1
    for actual in outcomes:
        if actual == exit_value:
            confidence = min(maximum, confidence + 1)
        elif confidence > 0:
            confidence -= 1
        else:
            exit_value, confidence = actual, 0
    return exit_value


class TestLehReferenceModel:
    @settings(max_examples=100)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_reference(self, outcomes, bits):
        automaton = LastExitHysteresis(bits)
        for actual in outcomes:
            automaton.update(actual)
        assert automaton.predict() == _leh_reference(outcomes, bits)


class TestPathPredictorProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                _ADDRESSES,
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_predictions_always_legal(self, steps):
        predictor = PathExitPredictor(DolcSpec.parse("3-6-8-8(2)"))
        for addr, n_exits in steps:
            prediction = predictor.predict(addr, n_exits)
            assert 0 <= prediction < n_exits
            # Feed back an arbitrary legal outcome.
            predictor.update(addr, n_exits, (addr >> 2) % n_exits)

    @settings(max_examples=30)
    @given(st.lists(_ADDRESSES, min_size=1, max_size=40))
    def test_states_bounded_by_table(self, addrs):
        predictor = PathExitPredictor(DolcSpec.parse("2-3-3-5(1)"))
        for addr in addrs:
            predictor.predict(addr, 3)
            predictor.update(addr, 3, 1)
        assert predictor.states_touched() <= predictor.spec.table_entries


@st.composite
def exit_traces(draw):
    """A short legal trace over a few tasks with 1–4 exits each.

    Few tasks and few distinct exits make voting-counter ties common.
    """
    addrs = draw(st.lists(_ADDRESSES, min_size=1, max_size=5, unique=True))
    n_exits_of = {
        addr: draw(st.integers(min_value=1, max_value=4)) for addr in addrs
    }
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(addrs), st.integers(0, 3)),
            max_size=80,
        )
    )
    task_addrs = [addr for addr, _ in steps]
    exits = [choice % n_exits_of[addr] for addr, choice in steps]
    return trace_workload(
        {
            addr: [TaskExit(ControlFlowType.BRANCH, target=addr)] * n_exits
            for addr, n_exits in n_exits_of.items()
        },
        task_addrs,
        exit_index=exits,
    )


_VOTING_SPECS = st.sampled_from(
    ["VC2-MRU", "VC2-RANDOM", "VC3-MRU", "VC3-RANDOM"]
)
_ANY_SPECS = st.sampled_from(AUTOMATON_SPECS)


@st.composite
def exit_predictors(draw, specs=_VOTING_SPECS, update_on_single_exit=False):
    """``(make, spec)``: builds one exit predictor around an automaton."""
    spec = draw(specs)
    depth = draw(st.integers(min_value=0, max_value=3))
    kind = draw(
        st.sampled_from(
            ["ideal-global", "ideal-per", "ideal-path",
             "path", "global", "pertask"]
        )
    )
    dolc = draw(dolc_specs())
    index_bits = draw(st.integers(min_value=2, max_value=8))
    single = {"update_on_single_exit": update_on_single_exit}

    def make(automaton):
        if kind == "ideal-global":
            return IdealGlobalPredictor(depth, automaton, **single)
        if kind == "ideal-per":
            return IdealPerTaskPredictor(depth, automaton, **single)
        if kind == "ideal-path":
            return IdealPathPredictor(depth, automaton, **single)
        if kind == "path":
            return PathExitPredictor(dolc, automaton, **single)
        if kind == "global":
            return GlobalExitPredictor(
                depth, index_bits=index_bits, automaton=automaton, **single
            )
        return PerTaskExitPredictor(
            depth, index_bits=index_bits, hrt_index_bits=2,
            automaton=automaton, **single,
        )

    return make, spec


def _kernel_matches_reference(workload, build):
    """Run ``build()`` = ``(predictor, streams)`` through the reference
    and the kernel: the stats and every tie-break stream's final state
    must agree."""
    outcomes = []
    for simulate in (
        reference.simulate_exit_prediction, simulate_exit_prediction
    ):
        predictor, streams = build()
        stats = simulate(workload, predictor)
        outcomes.append((stats, [rng._random.getstate() for rng in streams]))
    assert outcomes[0] == outcomes[1]


class TestVotingCounterReplay:
    @settings(max_examples=150, deadline=None)
    @given(exit_traces(), exit_predictors(), st.integers(0, 1 << 20))
    def test_batched_matches_loop(self, workload, predictor, seed):
        make, spec = predictor

        def build():
            rng = DeterministicRng(seed).fork(spec)
            return make(make_automaton_factory(spec, rng)), [rng]

        # The random tie-break must draw exactly what the loop draws.
        _kernel_matches_reference(workload, build)


class TestTournamentReplay:
    @settings(max_examples=25, deadline=None)
    @given(
        exit_traces(),
        exit_predictors(_ANY_SPECS),
        exit_predictors(_ANY_SPECS),
        st.integers(0, 1 << 20),
        st.integers(min_value=1, max_value=4),
    )
    def test_batched_matches_loop(
        self, workload, first, second, seed, chooser_bits
    ):
        def build():
            # One tie-break stream per component: they must not share.
            streams = [
                DeterministicRng(seed).fork(f"{k}-{spec}")
                for k, (_, spec) in enumerate((first, second))
            ]
            components = [
                make(make_automaton_factory(spec, rng))
                for (make, spec), rng in zip((first, second), streams)
            ]
            predictor = TournamentExitPredictor(
                *components, chooser_index_bits=chooser_bits
            )
            return predictor, streams

        _kernel_matches_reference(workload, build)


class TestSingleExitUpdates:
    @settings(max_examples=25, deadline=None)
    @given(
        exit_traces(),
        exit_predictors(_ANY_SPECS, update_on_single_exit=True),
        st.integers(0, 1 << 20),
    )
    def test_batched_matches_loop(self, workload, predictor, seed):
        make, spec = predictor

        def build():
            rng = DeterministicRng(seed).fork(spec)
            return make(make_automaton_factory(spec, rng)), [rng]

        _kernel_matches_reference(workload, build)


@st.composite
def gate_streams(draw):
    """``(task_addrs, correct)``: blocks of repeated steps.

    Long same-task, same-outcome blocks build the correct runs that high
    thresholds need; short blocks interleave slots finely.
    """
    addrs = draw(st.lists(_ADDRESSES, min_size=1, max_size=4, unique=True))
    blocks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(addrs),
                st.booleans(),
                st.integers(min_value=1, max_value=120),
            ),
            max_size=10,
        )
    )
    task_addrs = [addr for addr, _, repeat in blocks for _ in range(repeat)]
    correct = [hit for _, hit, repeat in blocks for _ in range(repeat)]
    return task_addrs, correct


_GATE_LIMITS = st.integers(min_value=1, max_value=100).flatmap(
    lambda threshold: st.tuples(
        st.just(threshold), st.integers(min_value=threshold, max_value=200)
    )
)


class TestConfidenceGate:
    @settings(max_examples=150, deadline=None)
    @given(dolc_specs(), gate_streams(), _GATE_LIMITS)
    def test_batched_matches_stepping(self, spec, stream, limits):
        task_addrs, correct = stream
        threshold, counter_max = limits
        flags = ResettingConfidenceEstimator(
            spec, threshold=threshold, counter_max=counter_max
        ).batch_gate_columns(
            np.array(task_addrs, dtype=np.uint32),
            np.array(correct, dtype=bool),
        )
        estimator = ResettingConfidenceEstimator(
            spec, threshold=threshold, counter_max=counter_max
        )
        expected = []
        for addr, hit in zip(task_addrs, correct):
            expected.append(estimator.is_high_confidence(addr))
            estimator.update(addr, hit)
        assert flags.tolist() == expected


_INDIRECT = CF_TYPE_CODES[ControlFlowType.INDIRECT_BRANCH]
_BRANCH = CF_TYPE_CODES[ControlFlowType.BRANCH]


@st.composite
def target_streams(draw):
    """``(slots, targets, indirect)``: writes to at most four slots, so
    every slot is reused heavily, with targets that include 0."""
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from([0, 4, 8, 0x1000]),
                st.booleans(),
            ),
            max_size=120,
        )
    )
    return tuple(list(column) for column in zip(*steps)) or ([], [], [])


def _one_entry_per_slot(slots, targets, writes):
    """What each step reads from one ``_TargetEntry`` per slot (None
    before the slot's first write), training the entry at write steps;
    returns the reads and the number of entries made."""
    entries: dict[int, _TargetEntry] = {}
    reads = []
    for slot, target, write in zip(slots, targets, writes):
        entry = entries.get(slot)
        reads.append(None if entry is None else entry.target)
        if write:
            if entry is None:
                entries[slot] = _TargetEntry(target)
            else:
                entry.update(target)
    return reads, len(entries)


class TestTargetEntryReplay:
    """Every target buffer's batched replay is one hysteresis entry per
    slot: the same misses, entries and stored targets. Slot ``s`` is the
    task at address ``4 * s``, so a 4-bit TTB or depth-0 CTTB index is
    the slot itself."""

    @settings(max_examples=150, deadline=None)
    @given(target_streams())
    def test_batched_matches_one_entry_per_slot(self, stream):
        slots, targets, indirect = stream
        workload = trace_workload(
            {
                4 * slot: [TaskExit(ControlFlowType.INDIRECT_BRANCH)]
                for slot in range(4)
            },
            [4 * slot for slot in slots],
            cf_type=[_INDIRECT if flag else _BRANCH for flag in indirect],
            next_addr=targets,
        )

        # TTB: reads and trains at indirect exits only. A read of an
        # unwritten slot misses, even when the actual target is 0.
        reads, entries = _one_entry_per_slot(slots, targets, indirect)
        stats = simulate_indirect_target_prediction(
            workload, TaskTargetBuffer(index_bits=4)
        )
        assert stats.trials == sum(indirect)
        assert stats.misses == sum(
            read != target
            for read, target, flag in zip(reads, targets, indirect)
            if flag
        )
        assert stats.entries_touched == entries

        # Headerless: every step reads, then trains, the CTTB.
        reads, _ = _one_entry_per_slot(slots, targets, [True] * len(slots))
        cttb = CorrelatedTaskTargetBuffer(DolcSpec(0, 0, 0, 4))
        predicted = batched_task_prediction_column(
            workload, CttbOnlyTaskPredictor(cttb), workload.trace
        )
        assert predicted.tolist() == [read or 0 for read in reads]

        # Header scheme: every step predicts its one indirect exit from
        # the CTTB, which trains only where the trace took one.
        reads, _ = _one_entry_per_slot(slots, targets, indirect)
        predictor = HeaderTaskPredictor(
            workload.program,
            PathExitPredictor(DolcSpec(0, 0, 0, 4)),
            CorrelatedTaskTargetBuffer(DolcSpec(0, 0, 0, 4)),
        )
        predicted = batched_task_prediction_column(
            workload, predictor, workload.trace
        )
        assert predicted.tolist() == [read or 0 for read in reads]


_HISTORY_ADDRS = st.sampled_from([0x100, 0x104, 0x108, 0x2100])


@st.composite
def history_streams(draw, min_size=0):
    """``(addrs, exits)`` over a few tasks, so per-task histories fill."""
    steps = draw(
        st.lists(
            st.tuples(_HISTORY_ADDRS, st.integers(0, 3)),
            min_size=min_size,
            max_size=60,
        )
    )
    return tuple(list(column) for column in zip(*steps)) or ([], [])


def _deque_keys(addrs, exits, depth, per_key):
    """``(addr, window)`` per step, the window read from one
    ``deque(maxlen=depth)`` (one per address when ``per_key``) before
    the step's exit is appended."""
    windows: dict[int, deque] = {}
    keys = []
    for addr, actual in zip(addrs, exits):
        window = windows.setdefault(
            addr if per_key else 0, deque(maxlen=depth)
        )
        keys.append((addr, tuple(window)))
        window.append(actual)
    return keys


def _same_partition(ids, keys) -> bool:
    """Equal ids exactly where the keys are equal."""
    id_of = dict(zip(keys, ids))
    return len(id_of) == len(set(ids)) and [id_of[k] for k in keys] == ids


class TestHistoryWindows:
    """History windows, global and per task, are one
    ``deque(maxlen=depth)`` per key: both for the ideal predictors'
    groupings and for the real GLOBAL/PER history registers."""

    @settings(max_examples=100, deadline=None)
    @given(history_streams(), st.integers(min_value=0, max_value=6))
    def test_ideal_groupings_key_the_deque_window(self, stream, depth):
        addrs, exits = stream
        for group, per_key in (
            (group_by_global_history, False),
            (group_by_per_key_history, True),
        ):
            ids = group(
                np.array(addrs, dtype=np.int64),
                np.array(exits, dtype=np.int64),
                depth,
            )
            keys = _deque_keys(addrs, exits, depth, per_key)
            assert _same_partition(ids.tolist(), keys)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(history_streams(), history_streams(min_size=40)),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=2, max_value=14),
    )
    def test_real_history_indices_match_stepping(
        self, stream, depth, index_bits
    ):
        # Up to 2 * 24 + 14 = 62 key bits, the widest geometry a
        # predictor accepts; long streams fill the deep registers.
        addrs, exits = stream
        for make in (
            lambda: GlobalExitPredictor(depth, index_bits=index_bits),
            lambda: PerTaskExitPredictor(
                depth, index_bits=index_bits, hrt_index_bits=2
            ),
        ):
            stepped = make()
            expected = []
            for addr, actual in zip(addrs, exits):
                expected.append(stepped._index(addr))
                stepped.update(addr, 4, actual)
            plan = make().batch_plan(
                np.array(addrs, dtype=np.uint32),
                np.array(exits, dtype=np.uint8),
            )
            assert plan.group_ids.tolist() == expected


@st.composite
def code_columns(draw):
    """Parallel ``(codes, cardinality)`` columns, each up to 2^30 wide.

    Rows repeat: each row is one of a few distinct rows.
    """
    distinct = draw(st.integers(min_value=1, max_value=8))
    rows = np.array(
        draw(st.lists(st.integers(0, distinct - 1), max_size=40)),
        dtype=np.int64,
    )
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        cardinality = draw(st.integers(min_value=1, max_value=1 << 30))
        values = draw(
            st.lists(
                st.integers(0, cardinality - 1),
                min_size=distinct,
                max_size=distinct,
            )
        )
        columns.append(
            (np.array(values, dtype=np.int64)[rows], cardinality)
        )
    return columns


class TestPackedGrouping:
    """``group_columns`` packs its columns into 62-bit words; no width of
    column may make two rows share a word or reorder them."""

    @settings(max_examples=300, deadline=None)
    @given(code_columns())
    def test_ids_are_np_unique_over_rows(self, columns):
        ids, count = group_columns(columns)
        matrix = np.column_stack([codes for codes, _ in columns])
        unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
        assert ids.tolist() == inverse.reshape(-1).tolist()
        assert count == len(unique)
