"""Validation of every benchmark workload at calibration scale.

These are the tests that guard the Table 2 / Figure 3–4 calibration: if a
generator or profile change drifts a workload away from its paper targets,
they fail here with the validator's graded report rather than as a
mysteriously wrong figure downstream.
"""

import pytest

from repro.synth.profiles import BENCHMARK_NAMES
from repro.synth.validate import validate_workload
from repro.synth.workloads import load_workload

#: Long enough for the distinct-seen check to engage (>= 100k).
_CALIBRATION_TRACE = 120_000


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def calibrated_workload(request):
    return load_workload(request.param, n_tasks=_CALIBRATION_TRACE)


class TestCalibration:
    def test_structural_and_statistical_checks(self, calibrated_workload):
        report = validate_workload(calibrated_workload)
        assert report.ok, f"\n{report}"

    def test_distinct_seen_within_band(self, calibrated_workload):
        """The working set at 120k tasks sits within a loose band of the
        paper's full-trace figure (gcc is still unfolding at this scale)."""
        seen = calibrated_workload.trace.distinct_tasks_seen()
        target = calibrated_workload.profile.paper.distinct_tasks_seen
        assert 0.3 * target <= seen <= 2.0 * target

    def test_static_tasks_within_band(self, calibrated_workload):
        static = calibrated_workload.program.static_task_count
        target = calibrated_workload.profile.paper.static_tasks
        assert 0.5 * target <= static <= 2.0 * target
