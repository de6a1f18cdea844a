"""The paper's findings, pinned, and the model's invariants.

Each finding is defined once, as a claim in :mod:`repro.evalx.claims`.
A test named after it pins the verdict it reaches at its quick length;
``test_every_claim_is_pinned`` sweeps the whole registry, so a new claim
is pinned before it has a test. The invariants read the same data.
"""

import pytest

from repro.evalx.claims import CLAIMS, EXPERIMENTS, scoreboard
from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.registry import run_experiment
from tests.helpers import PARTIAL_AT_QUICK


def test_every_claim_is_pinned(pinned):
    assert PARTIAL_AT_QUICK <= {claim.id for claim in CLAIMS}
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        pinned(claim.id)


def test_quick_grids_keep_their_shape(quick_data):
    """Structure the claims do not read."""
    assert len(quick_data("figure6")["series"]) == 7
    assert len(quick_data("figure10")["configs"]) >= 4
    assert len(quick_data("ext_cttb")["widths"]) >= 3
    for row in quick_data("table3").values():
        assert 0.0 <= row["cttb_only_miss"] <= 1.0
        assert 0.0 <= row["exit_predictor_miss"] <= 1.0


class TestSummary:
    """The ``summary`` driver renders the registry, evaluated on the data
    of the experiments its cells ran."""

    def test_scoreboard_is_the_registry_on_the_same_data(self):
        result = run_experiment("summary", n_tasks=2000, quick=True)
        data = {
            experiment_id: run_experiment(
                experiment_id, n_tasks=2000, quick=True
            ).data
            for experiment_id in EXPERIMENTS
        }
        text, verdicts = scoreboard(data)
        assert result.data == verdicts
        assert list(verdicts) == [claim.id for claim in CLAIMS]
        assert result.text == text
        rows = text.splitlines()[2:]
        assert [row.split()[0] for row in rows] == list(verdicts)


class TestTable2Shapes:
    def test_working_set_ordering_matches_paper(self, pinned):
        pinned("table2.working_set_order")

    def test_static_at_least_distinct(self, quick_data):
        data = quick_data("table2")
        assert list(data) == list(BENCHMARKS)
        for row in data.values():
            assert row["static_tasks"] >= row["distinct_tasks_seen"]


class TestFigure3Shapes:
    def test_single_exit_tasks_dominate_statics(self, pinned):
        pinned("figure3.single_exit_dominates")

    def test_distributions_sum_to_one(self, quick_data):
        data = quick_data("figure3")
        assert list(data) == [*BENCHMARKS, "average"]
        for views in data.values():
            for dist in views.values():
                assert sum(dist.values()) == pytest.approx(1.0)


class TestFigure4Shapes:
    def test_gcc_and_xlisp_have_indirect_exits(self, pinned):
        pinned("figure4.indirect_exits")

    def test_calls_balance_returns_dynamically(self, pinned):
        pinned("figure4.calls_balance_returns")


class TestFigure6Shapes:
    """§5.1: the seven automata stratify into three tiers."""

    def test_last_exit_is_worst(self, pinned):
        pinned("figure6.le_worst")

    def test_leh2_among_best(self, pinned):
        pinned("figure6.leh2_among_best")

    def test_tiers_match_paper(self, pinned):
        pinned("figure6.tiers")


class TestFigure7Shapes:
    """§5.2: PATH beats GLOBAL, and PER except on sc."""

    def test_path_beats_global_at_depth(self, pinned):
        pinned("figure7.path_beats_global")

    def test_sc_is_the_per_exception(self, pinned):
        pinned("figure7.sc_per_exception")

    def test_path_beats_per_on_gcc_and_xlisp(self, pinned):
        pinned("figure7.path_beats_per")

    def test_depth_zero_identical_across_schemes(self, quick_data):
        data = quick_data("figure7")
        for name in BENCHMARKS:
            series = data[name]
            assert set(series) == {"global", "path", "per"}
            assert series["path"][0] == pytest.approx(series["global"][0])
            assert series["path"][0] == pytest.approx(series["per"][0])

    def test_history_helps_path(self, pinned):
        pinned("figure7.history_helps_path")


class TestFigure8Shapes:
    """§5.3: the plain TTB performs very poorly; path correlation fixes it."""

    def test_ttb_miss_rate_is_high(self, pinned):
        pinned("figure8.ttb_poor")

    def test_cttb_beats_ttb_at_depth(self, pinned):
        pinned("figure8.cttb_beats_ttb")

    def test_history_helps_cttb(self, pinned):
        pinned("figure8.history_helps_cttb")


class TestFigure10Shapes:
    """§6.3: real implementations perform close to the ideal."""

    def test_real_tracks_ideal(self, pinned):
        pinned("figure10.real_tracks_ideal")

    def test_depth_beats_depth0_for_real_tables(self, pinned):
        pinned("figure10.depth_helps_real")


class TestFigure11Shapes:
    def test_ideal_states_grow_with_depth(self, pinned):
        pinned("figure11.ideal_states_grow")

    def test_real_states_bounded_by_table(self, quick_data):
        data = quick_data("figure11")
        for name in ("gcc", "espresso"):
            assert max(data[name]["real"]) <= 1 << 14

    def test_gcc_touches_more_states_than_espresso(self, pinned):
        pinned("figure11.gcc_most_states")


class TestFigure12Shapes:
    def test_real_cttb_tracks_ideal_for_xlisp(self, pinned):
        pinned("figure12.real_tracks_ideal_xlisp")

    def test_depth_helps_real_cttb(self, pinned):
        pinned("figure12.depth_helps_real")


class TestTable3Shapes:
    """§5.4 / §6.4.2: header-based prediction beats CTTB-only."""

    def test_cttb_only_worse_everywhere(self, pinned):
        pinned("table3.headers_beat_cttb_only")

    def test_returns_hurt_most_without_ras(self, pinned):
        pinned("table3.returns_need_ras")

    def test_storage_ratio_about_four_x(self, pinned):
        pinned("table3.storage_ratio")


class TestTable4Shapes:
    """§7: better task prediction increases IPC."""

    def test_perfect_is_upper_bound(self, pinned):
        pinned("table4.perfect_bounds")

    def test_path_at_least_ties_everywhere(self, pinned):
        pinned("table4.path_ties_simple")

    def test_path_gains_on_gcc_and_xlisp(self, pinned):
        pinned("table4.path_gains")

    def test_ipcs_in_plausible_band(self, quick_data):
        for ipcs in quick_data("table4").values():
            for value in ipcs.values():
                assert 0.5 < value < 8.0
