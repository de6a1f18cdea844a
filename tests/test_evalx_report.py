"""Tests for report rendering and the experiment registry."""

import pkgutil

import pytest

import repro.evalx.experiments
from repro.errors import ExperimentError
from repro.evalx.registry import ALL_IDS, EXPERIMENT_IDS, run_experiment
from repro.evalx.report import format_percent, render_series, render_table
from repro.evalx.result import ExperimentResult


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 234]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [["1"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_first_column_left_aligned(self):
        text = render_table(["benchmark", "v"], [["gcc", 1]])
        row = text.splitlines()[-1]
        assert row.startswith("gcc")


class TestRenderSeries:
    def test_percent_formatting(self):
        text = render_series(
            "depth", [0, 1], {"path": [0.1, 0.05]}
        )
        assert "10.00%" in text
        assert "5.00%" in text

    def test_raw_formatting(self):
        text = render_series(
            "depth", [0], {"states": [123.0]}, as_percent=False
        )
        assert "123.000" in text

    def test_none_rendered_as_dash(self):
        text = render_series("x", [0], {"s": [None]})
        assert "-" in text.splitlines()[-1]

    def test_format_percent(self):
        assert format_percent(0.123456) == "12.35%"
        assert format_percent(0.1, decimals=1) == "10.0%"


class TestRegistry:
    def test_known_ids(self):
        assert "table2" in EXPERIMENT_IDS
        assert "figure10" in EXPERIMENT_IDS
        assert len(EXPERIMENT_IDS) == 11

    def test_every_driver_module_is_registered(self):
        """A driver missing from the registry drops out of the CLI and
        of the ``all``/``extensions`` sweeps, and so out of every check
        that runs over the registered ids."""
        modules = {
            info.name
            for info in pkgutil.iter_modules(
                repro.evalx.experiments.__path__
            )
            if info.name != "common" and not info.name.startswith("_")
        }
        assert modules == set(ALL_IDS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_result_str_includes_id(self):
        result = ExperimentResult(
            experiment_id="x", title="t", text="body"
        )
        assert "x" in str(result)
        assert "body" in str(result)
