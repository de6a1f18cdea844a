"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workload  # noqa: E402
from run import traffic_checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

workload.use_source_tree()

from repro.evalx.registry import EXPERIMENT_IDS, run_experiment  # noqa: E402
from repro.synth import profiles  # noqa: E402
from repro.synth.workloads import clear_caches  # noqa: E402

TASKS = 3_000


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """No disk cache, fresh workload caches, profiles restored."""
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    saved = dict(profiles.PROFILES)
    clear_caches()
    yield
    profiles.PROFILES.clear()
    profiles.PROFILES.update(saved)
    clear_caches()


def _bindings() -> dict:
    """Identity of every repro module attribute and class namespace entry."""
    seen = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if inspect.isclass(value):
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = id(member)
    return seen


def _digests(ids, jobs=None) -> dict[str, str]:
    return {
        eid: workload.digest(
            run_experiment(eid, n_tasks=TASKS, jobs=jobs).data
        )
        for eid in ids
    }


def test_uninstall_restores_every_binding(tmp_path):
    tracer = Tracer(tmp_path / "spans")
    tracer.install(EXPERIMENT_IDS)
    tracer.uninstall()  # first install imports the traced modules
    before = _bindings()
    tracer.install(EXPERIMENT_IDS)
    patched = _bindings()
    tracer.uninstall()
    assert patched != before
    assert _bindings() == before


def test_traced_and_untraced_runs_agree(tmp_path):
    ids = ("figure6", "figure8", "table3", "table4")
    plain = _digests(ids)
    clear_caches()
    tracer = Tracer(tmp_path / "spans")
    tracer.install(ids)
    try:
        traced = _digests(ids)
        totals = tracer.collect({})
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics, _ = layer_metrics(totals, cell_retries=0)
    assert metrics["predictors.scalar_fallbacks"] > 0  # figure 6's VC3/RANDOM
    assert metrics["windows.group_calls"] > 0
    assert metrics["sim.timing_scan_s"] > 0


def test_worker_spans_are_collected(tmp_path):
    ids = ("figure7",)
    plain = _digests(ids)
    clear_caches()
    tracer = Tracer(tmp_path / "spans")
    tracer.install(ids)
    try:
        traced = _digests(ids, jobs=2)
        totals = tracer.collect({})
    finally:
        tracer.uninstall()
    assert traced == plain
    assert totals["worker_processes"] >= 1
    assert totals["spans"]["sim.exit"][0] > 0  # cells ran in workers


def test_seed_zero_matches_the_cli_output(tmp_path):
    """The recorded seed-0 digest is the program's own ``--json`` output."""
    out = tmp_path / "out.jsonl"
    env = dict(os.environ, PYTHONPATH=str(workload.ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.evalx", "table4",
         "--tasks", str(workload.GRID_TASKS), "--json", str(out)],
        check=True, cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
    )
    data = json.loads(out.read_text().splitlines()[0])["data"]
    recorded = json.loads(workload.DIGESTS.read_text())
    assert workload.digest(data) == recorded["grid"]["0"]["table4"]


def test_a_seed_changes_every_output():
    recorded = json.loads(workload.DIGESTS.read_text())
    for family in ("grid", "scale-gcc"):
        zero, one = recorded[family]["0"], recorded[family]["1"]
        assert zero.keys() == one.keys()
        assert all(zero[key] != one[key] for key in zero), family
    base = _digests(("table2",))
    clear_caches()
    workload.offset_profiles(1)
    assert _digests(("table2",)) != base


def test_every_seed_is_checked_against_recorded_digests():
    n_seeds = json.loads(workload.DIGESTS.read_text())["seeds"]
    assert workload.fold_seed(n_seeds + 3) == 3
    for name in workload.WORKLOADS:
        assert workload.load_expected(name, workload.fold_seed(10**9 + 7))
    with pytest.raises(SystemExit, match="--record-digests"):
        workload.load_expected("grid-warm", n_seeds)


def test_mismatch_fails_the_experiments_cells():
    sweep = {
        "outputs": {"a": [1], "b": [2]},
        "cells_of": {"a": 3, "b": 4},
        "failed_of": {"a": 0, "b": 1},
    }
    good = {"a": workload.digest([1]), "b": workload.digest([2])}
    assert workload.check(sweep, good)["failed"] == 1
    verdict = workload.check(sweep, dict(good, a="0" * 16))
    assert verdict["mismatched"] == ["a"]
    assert verdict["failed"] == 3 + 1
    assert verdict["attempted"] == 7


def test_traffic_check_fails_loudly_when_a_layer_goes_quiet():
    rep = {
        "benchmarks": 5,
        "attempted": 220,
        "layers": {
            "synth.trace_builds": 5,
            "windows.group_calls": 0,
            "evalx.ckpt_records": 220,
            "predictors.scalar_fallbacks": 0,
        },
    }
    assert traffic_checks("grid-cold-j2", rep) == []
    assert traffic_checks("scale-gcc", rep) == []
    assert len(traffic_checks("grid-warm", rep)) == 2
