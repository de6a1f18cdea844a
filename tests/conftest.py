"""Shared fixtures: small benchmark workloads and the claimed
experiments' quick-length data, cached per test session."""

from __future__ import annotations

import functools
import os

import pytest

# Tests must not read or write the on-disk trace cache of a real checkout.
os.environ.setdefault("REPRO_CACHE_DIR", "off")

from repro.synth.workloads import load_workload  # noqa: E402

#: Trace length used by fixture workloads: big enough for predictors to
#: train, small enough to keep the suite fast.
SMALL_TRACE = 20_000


@pytest.fixture(scope="session")
def gcc_workload():
    """A small gcc workload (large task working set, indirect exits)."""
    return load_workload("gcc", n_tasks=SMALL_TRACE)


@pytest.fixture(scope="session")
def compress_workload():
    """A small compress workload (tiny working set, noisy branches)."""
    return load_workload("compress", n_tasks=SMALL_TRACE)


@pytest.fixture(scope="session")
def sc_workload():
    """A small sc workload (per-task cyclic behaviour)."""
    return load_workload("sc", n_tasks=SMALL_TRACE)


@pytest.fixture(scope="session")
def xlisp_workload():
    """A small xlisp workload (recursion, calls, indirect calls)."""
    return load_workload("xlisp", n_tasks=SMALL_TRACE)


@pytest.fixture(scope="session")
def quick_data():
    """``quick_data(experiment_id)``: the experiment's ``data`` at the
    quick length its claims are checked at, run once per session."""
    from repro.evalx.claims import QUICK_TASKS
    from repro.evalx.registry import run_experiment

    @functools.cache
    def data(experiment_id):
        return run_experiment(
            experiment_id, n_tasks=QUICK_TASKS.get(experiment_id), quick=True
        ).data

    return data


@pytest.fixture(scope="session")
def pinned(quick_data):
    """``pinned(claim_id)`` asserts the claim's verdict at its quick
    length: PARTIAL for ``tests.helpers.PARTIAL_AT_QUICK``, else
    REPRODUCED."""
    from repro.evalx.claims import CLAIMS, PARTIAL, REPRODUCED, evaluate
    from tests.helpers import PARTIAL_AT_QUICK

    by_id = {claim.id: claim for claim in CLAIMS}

    def check(claim_id):
        claim = by_id[claim_id]
        result = evaluate(claim, quick_data(claim.experiment))
        expected = PARTIAL if claim_id in PARTIAL_AT_QUICK else REPRODUCED
        assert result["verdict"] == expected, (claim_id, result)

    return check
