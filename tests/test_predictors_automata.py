"""Tests for the multi-way prediction automata (§5.1)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PredictorConfigError
from repro.evalx.registry import run_experiment
from repro.isa.controlflow import MAX_EXITS_PER_TASK
from repro.predictors import automata
from repro.predictors.automata import (
    AUTOMATON_SPECS,
    LastExit,
    LastExitHysteresis,
    VotingCounters,
    automaton_table,
    make_automaton_factory,
    tabulate_automaton,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.speculative import SpeculativePathPredictor
from repro.utils.rng import DeterministicRng

EXITS = st.integers(min_value=0, max_value=3)


class TestLastExit:
    def test_initial_prediction_is_zero(self):
        assert LastExit().predict() == 0

    def test_follows_last_outcome(self):
        automaton = LastExit()
        automaton.update(3)
        assert automaton.predict() == 3
        automaton.update(1)
        assert automaton.predict() == 1

    def test_bits(self):
        assert LastExit.bits_per_entry() == 2


class TestLastExitHysteresis:
    def test_single_anomaly_does_not_flip_leh2(self):
        automaton = LastExitHysteresis(2)
        for _ in range(5):
            automaton.update(2)
        automaton.update(0)
        assert automaton.predict() == 2  # survived one miss
        automaton.update(0)
        automaton.update(0)
        automaton.update(0)
        assert automaton.predict() == 0  # eventually replaced

    def test_leh1_flips_after_two_misses(self):
        automaton = LastExitHysteresis(1)
        automaton.update(1)
        automaton.update(1)
        assert automaton.predict() == 1
        automaton.update(3)  # drains confidence
        assert automaton.predict() == 1
        automaton.update(3)  # confidence zero -> replace
        assert automaton.predict() == 3

    def test_replacement_only_at_zero_confidence(self):
        automaton = LastExitHysteresis(2)
        automaton.update(1)  # exit=1? initial exit is 0, so this decrements
        # Initial state: exit 0, confidence 0 -> first update(1) replaces.
        assert automaton.predict() == 1

    def test_bits_scale_with_hysteresis(self):
        assert LastExitHysteresis(1).bits_per_entry() == 3
        assert LastExitHysteresis(2).bits_per_entry() == 4

    def test_rejects_zero_bits(self):
        with pytest.raises(PredictorConfigError):
            LastExitHysteresis(0)

    @given(st.lists(EXITS, max_size=100))
    def test_prediction_always_a_seen_exit_or_zero(self, outcomes):
        automaton = LastExitHysteresis(2)
        for outcome in outcomes:
            automaton.update(outcome)
        assert automaton.predict() in set(outcomes) | {0}


class TestVotingCounters:
    def test_majority_wins(self):
        automaton = VotingCounters(2, tie_break="mru")
        for _ in range(3):
            automaton.update(2)
        automaton.update(1)
        assert automaton.predict() == 2

    def test_counters_saturate(self):
        automaton = VotingCounters(2, tie_break="mru")
        for _ in range(10):
            automaton.update(3)
        # After saturation, two misses shouldn't immediately flip.
        automaton.update(0)
        assert automaton.predict() == 3

    def test_mru_tie_break(self):
        automaton = VotingCounters(2, tie_break="mru")
        automaton.update(1)
        automaton.update(2)  # counters: 1 and 2 both at 1... 1 decremented
        # exit1: +1 then -1 = 0; exit2: +1 -> highest is exit2 alone.
        assert automaton.predict() == 2

    def test_random_tie_break_needs_rng(self):
        with pytest.raises(PredictorConfigError):
            VotingCounters(2, tie_break="random")

    def test_random_tie_break_draws_among_tied(self):
        rng = DeterministicRng(3)
        automaton = VotingCounters(2, tie_break="random", rng=rng)
        # All counters zero: every exit is tied.
        picks = {automaton.predict() for _ in range(100)}
        assert picks == {0, 1, 2, 3}

    def test_invalid_tie_break(self):
        with pytest.raises(PredictorConfigError):
            VotingCounters(2, tie_break="sometimes")

    def test_bits_accounting(self):
        assert VotingCounters(2, tie_break="mru").bits_per_entry() == 10
        rng = DeterministicRng(0)
        assert (
            VotingCounters(3, tie_break="random", rng=rng).bits_per_entry()
            == 12
        )

    @given(st.lists(EXITS, min_size=1, max_size=60))
    def test_repeated_outcome_eventually_predicted(self, outcomes):
        automaton = VotingCounters(3, tie_break="mru")
        for outcome in outcomes:
            automaton.update(outcome)
        final = outcomes[-1]
        for _ in range(8):
            automaton.update(final)
        assert automaton.predict() == final


class TestFactory:
    def test_all_specs_construct(self):
        rng = DeterministicRng(1)
        for spec in AUTOMATON_SPECS:
            automaton = make_automaton_factory(spec, rng)()
            assert automaton.predict() in range(4)

    def test_unknown_spec_rejected(self):
        for bad in ("XYZ", "LEH-0", "LEH-x", "LEH-", "VC4-MRU"):
            with pytest.raises(PredictorConfigError):
                make_automaton_factory(bad)

    def test_generalised_hysteresis_depths_construct(self):
        # The LEH family is open-ended: any LEH-<k> with k >= 1
        # constructs. Only k <= 4 has a batched form, so only those are
        # design-space points (repro.predictors.design_space).
        for bits in (3, 4, 9):
            automaton = make_automaton_factory(f"LEH-{bits}")()
            assert automaton.bits_per_entry() == 2 + bits

    def test_factories_make_independent_instances(self):
        factory = make_automaton_factory("LEH-2")
        a, b = factory(), factory()
        a.update(3)
        assert b.predict() == 0


class TestTableMemo:
    """``automaton_table`` tabulates once per factory object, and every
    name that needs no rng maps to one shared factory."""

    @pytest.fixture
    def tabulations(self, monkeypatch):
        """Each tabulation's automaton label, starting from an empty memo
        (labels, not factories: the list must not keep a factory alive)."""
        calls = []

        def counting(factory, n_inputs):
            sample = factory()
            calls.append((type(sample).__name__, sample.bits_per_entry()))
            return tabulate_automaton(factory, n_inputs)

        monkeypatch.setattr(automata, "_TABLES", weakref.WeakKeyDictionary())
        monkeypatch.setattr(automata, "tabulate_automaton", counting)
        return calls

    def test_names_share_one_factory(self):
        for spec in ("LE", "LEH-1", "LEH-2", "LEH-4", "VC2-MRU", "VC3-MRU"):
            assert make_automaton_factory(spec) is make_automaton_factory(
                spec, DeterministicRng(3)
            )
        rng = DeterministicRng(3)
        assert make_automaton_factory(
            "VC2-RANDOM", rng
        ) is not make_automaton_factory("VC2-RANDOM", rng)

    def test_a_memo_hit_equals_a_fresh_tabulation(self, tabulations):
        factory = make_automaton_factory("LEH-2")
        first = automaton_table(factory)
        again = automaton_table(make_automaton_factory("LEH-2"))
        fresh = tabulate_automaton(factory, MAX_EXITS_PER_TASK)
        assert again is first
        assert len(tabulations) == 1
        assert np.array_equal(again.transitions, fresh.transitions)
        assert again.transitions.dtype == fresh.transitions.dtype
        assert np.array_equal(again.predictions, fresh.predictions)

    def test_a_new_lambda_factory_still_tabulates(self, tabulations):
        shared = automaton_table(make_automaton_factory("LEH-2"))

        def build():
            return lambda: LastExitHysteresis(2)

        factory = build()
        table = automaton_table(factory)
        assert len(tabulations) == 2
        assert table is not shared
        assert np.array_equal(table.transitions, shared.transitions)
        # The memo holds the factory weakly: dropping it drops its entry.
        alive = weakref.ref(factory)
        del factory
        gc.collect()
        assert alive() is None
        assert len(automata._TABLES) == 1

    def test_speculative_predictor_reads_the_memo(self, tabulations):
        spec = DolcSpec.parse("7-5-7-8(3)")
        first = SpeculativePathPredictor(spec, automaton="LEH-2")
        second = SpeculativePathPredictor(spec, automaton="LEH-2")
        assert first.pht_table is second.pht_table
        assert len(tabulations) == 1

    def test_figures_6_and_7_tabulate_each_automaton_once(
        self, tabulations
    ):
        for experiment in ("figure6", "figure7"):
            run_experiment(experiment, n_tasks=2_000, quick=True)
        # LE, LEH-1 and LEH-2, one table each; voting counters replay
        # factored and tabulate nothing.
        assert sorted(tabulations) == [
            ("LastExit", 2),
            ("LastExitHysteresis", 3),
            ("LastExitHysteresis", 4),
        ]
