"""Tests for the repro.analysis static-analysis pass.

Each rule family gets fixture snippets exercised both ways: code that
must be flagged and near-identical code that must stay clean. On top of
that: suppression comments, baseline semantics (matching, staleness,
justification requirement), the JSON report schema, CLI exit codes, and
the self-check that the repository's own source tree analyses clean
against the committed baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, Finding, all_rules
from repro.analysis.core import run_analysis
from repro.analysis.__main__ import main as analysis_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialize fixture files (auto-creating package __init__.py)."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(tmp_path).parents:
            if str(parent) != ".":
                (tmp_path / parent / "__init__.py").touch()
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def _run(tmp_path: Path, rules: list[str] | None = None):
    findings, suppressed = run_analysis([tmp_path], tmp_path, rules)
    return findings, suppressed


def _rule_ids(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


class TestRuleRegistry:
    def test_all_rules_register_once(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "CKP001", "CKP002",
            "DET001", "DET002", "DET003", "DET004",
            "ENV001", "ENV002",
            "FS001", "FS002", "FS004",
            "NPW001", "NPW002", "NPW003",
            "PROT001", "PROT002", "PROT003",
            "PUR001", "PUR002",
            "VEC001", "VEC002",
        }

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title, rule.id
            assert rule.rationale, rule.id


class TestDeterminismRules:
    def test_flags_global_random_wallclock_and_set_iteration(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import random
                import time
                import numpy as np


                def draw():
                    return random.random()


                def legacy():
                    return np.random.rand(4)


                def stamp():
                    return time.time()


                def order():
                    items = {1, 2, 3}
                    return [x for x in items]
                """,
        })
        findings, _ = _run(tmp_path)
        assert _rule_ids(findings) == [
            "DET001", "DET002", "DET003", "DET004"
        ]
        by_rule = {f.rule: f for f in findings}
        assert by_rule["DET001"].symbol == "draw"
        assert by_rule["DET003"].symbol == "stamp"
        assert by_rule["DET004"].symbol == "order"

    def test_clean_equivalents_pass(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def draw(rng):
                    return rng.random()


                def modern(seed):
                    return np.random.default_rng(seed).integers(0, 4)


                def order():
                    items = {3, 1}
                    return sorted(items)
                """,
        })
        findings, _ = _run(tmp_path)
        assert findings == []

    def test_scope_excludes_non_simulation_code(self, tmp_path):
        _project(tmp_path, {
            "harness/clock.py": """\
                import time


                def stamp():
                    return time.time()
                """,
        })
        findings, _ = _run(tmp_path)
        assert findings == []


class TestPurityRules:
    def test_flags_global_mutation_reachable_from_cell_fn(self, tmp_path):
        _project(tmp_path, {
            "cellsmod.py": """\
                from repro.evalx.parallel import Cell

                _CACHE = {}


                def _impure(x):
                    _CACHE[x] = x
                    return x


                def _pure(x):
                    local = {}
                    local[x] = x
                    return x


                def cells():
                    return [
                        Cell(label="a", fn=_impure, kwargs={}),
                        Cell(label="b", fn=_pure, kwargs={}),
                    ]
                """,
        })
        findings, _ = _run(tmp_path, ["PUR001"])
        assert len(findings) == 1
        assert findings[0].symbol == "_CACHE"
        assert findings[0].line == 3  # anchored at the global's definition

    def test_flags_transitive_mutation_through_helper(self, tmp_path):
        _project(tmp_path, {
            "cellsmod.py": """\
                from repro.evalx.parallel import Cell

                _MEMO = {}


                def _helper(x):
                    _MEMO.setdefault(x, x)
                    return _MEMO[x]


                def _cell(x):
                    return _helper(x)


                def cells():
                    return [Cell(label="a", fn=_cell, kwargs={})]
                """,
        })
        findings, _ = _run(tmp_path, ["PUR001"])
        assert [f.symbol for f in findings] == ["_MEMO"]

    def test_flags_unpicklable_cell_callables(self, tmp_path):
        _project(tmp_path, {
            "cellsmod.py": """\
                from repro.evalx.parallel import Cell


                def cells():
                    def inner(x):
                        return x
                    return [
                        Cell(label="a", fn=lambda x: x, kwargs={}),
                        Cell(label="b", fn=inner, kwargs={}),
                    ]
                """,
        })
        findings, _ = _run(tmp_path, ["PUR002"])
        assert len(findings) == 2

    def test_module_level_fn_with_local_state_passes(self, tmp_path):
        _project(tmp_path, {
            "cellsmod.py": """\
                from repro.evalx.parallel import Cell


                def _cell(x):
                    acc = []
                    acc.append(x)
                    return acc


                def cells():
                    return [Cell(label="a", fn=_cell, kwargs={})]
                """,
        })
        findings, _ = _run(tmp_path, ["PUR001", "PUR002"])
        assert findings == []


class TestProtocolRules:
    _REGISTRY = """\
        EXPERIMENT_IDS = ("good", "monolith", "fragile")
        ALL_IDS = EXPERIMENT_IDS + ("summary",)
        """
    _GOOD = """\
        from repro.evalx.parallel import Cell, is_failure


        def _cell(x):
            return x


        def cells(n_tasks=None, quick=False):
            return [Cell(label="a", fn=_cell, kwargs={})]


        def combine(cells, results, n_tasks=None, quick=False):
            return [None if is_failure(r) else r for r in results]
        """

    def test_conformant_driver_passes(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/good.py": self._GOOD,
        })
        findings, _ = _run(tmp_path)
        assert findings == []

    def test_unregistered_driver_flagged(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/rogue.py": self._GOOD,
        })
        findings, _ = _run(tmp_path, ["PROT001"])
        assert [f.symbol for f in findings] == ["rogue"]

    def test_monolithic_run_driver_flagged(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/monolith.py": """\
                def run(n_tasks=None, quick=False):
                    return 42
                """,
        })
        findings, _ = _run(tmp_path, ["PROT002"])
        assert [f.symbol for f in findings] == ["monolith"]

    def test_combine_without_failure_handling_flagged(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/fragile.py": """\
                from repro.evalx.parallel import Cell


                def _cell(x):
                    return x


                def cells(n_tasks=None, quick=False):
                    return [Cell(label="a", fn=_cell, kwargs={})]


                def combine(cells, results, n_tasks=None, quick=False):
                    return sum(results)
                """,
        })
        findings, _ = _run(tmp_path, ["PROT003"])
        assert [f.symbol for f in findings] == ["fragile.combine"]

    def test_failure_check_through_local_helper_accepted(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/good.py": """\
                from repro.evalx.parallel import Cell, is_failure


                def _cell(x):
                    return x


                def _gap(r):
                    return None if is_failure(r) else r


                def cells(n_tasks=None, quick=False):
                    return [Cell(label="a", fn=_cell, kwargs={})]


                def combine(cells, results, n_tasks=None, quick=False):
                    return [_gap(r) for r in results]
                """,
        })
        findings, _ = _run(tmp_path, ["PROT003"])
        assert findings == []

    def test_common_and_private_modules_exempt(self, tmp_path):
        _project(tmp_path, {
            "pkg/registry.py": self._REGISTRY,
            "pkg/experiments/common.py": "HELPER = 1\n",
            "pkg/experiments/_util.py": "def helper():\n    return 1\n",
        })
        findings, _ = _run(tmp_path)
        assert findings == []


class TestBitwidthRules:
    def test_narrow_shift_and_bare_reduction_flagged(self, tmp_path):
        _project(tmp_path, {
            "kernels.py": """\
                import numpy as np


                def pack(n):
                    codes = np.zeros(n, dtype=np.int16)
                    return codes << 3


                def count(n):
                    mask = np.zeros(n, dtype=bool)
                    return np.cumsum(mask)
                """,
        })
        findings, _ = _run(tmp_path, ["NPW001", "NPW002"])
        assert _rule_ids(findings) == ["NPW001", "NPW002"]

    def test_wide_dtype_and_explicit_accumulator_pass(self, tmp_path):
        _project(tmp_path, {
            "kernels.py": """\
                import numpy as np


                def pack(n):
                    codes = np.zeros(n, dtype=np.int64)
                    return codes << 3


                def count(n):
                    mask = np.zeros(n, dtype=bool)
                    return np.cumsum(mask, dtype=np.int64)
                """,
        })
        findings, _ = _run(tmp_path, ["NPW001", "NPW002"])
        assert findings == []

    def test_unguarded_variable_shift_flagged(self, tmp_path):
        _project(tmp_path, {
            "kernels.py": """\
                import numpy as np


                def pack(values, bits):
                    word = np.asarray(values, dtype=np.int64)
                    return word << bits
                """,
        })
        findings, _ = _run(tmp_path, ["NPW003"])
        assert _rule_ids(findings) == ["NPW003"]

    def test_width_guard_silences_variable_shift(self, tmp_path):
        _project(tmp_path, {
            "kernels.py": """\
                import numpy as np


                def pack(values, bits, used):
                    word = np.asarray(values, dtype=np.int64)
                    if used + bits > 62:
                        raise ValueError("word overflow")
                    return word << bits
                """,
        })
        findings, _ = _run(tmp_path, ["NPW003"])
        assert findings == []


class TestCheckpointRules:
    def test_unfingerprintable_cell_kwargs_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/experiments/driver.py": """\
                from repro.evalx.parallel import Cell


                def cells(n_tasks=None, quick=False):
                    return [
                        Cell(
                            label="bad-set",
                            fn=print,
                            kwargs={"names": {"a", "b"}},
                        ),
                        Cell(
                            label="bad-key",
                            fn=print,
                            kwargs={"table": {1: "x"}},
                        ),
                        Cell(
                            label="bad-lambda",
                            fn=print,
                            kwargs={"hook": lambda: 0},
                        ),
                    ]
                """,
        })
        findings, _ = _run(tmp_path, ["CKP001"])
        assert _rule_ids(findings) == ["CKP001"] * 3
        assert "never be checkpointed" in findings[0].message

    def test_canonical_cell_kwargs_pass(self, tmp_path):
        _project(tmp_path, {
            "evalx/experiments/driver.py": """\
                from repro.evalx.parallel import Cell


                def cells(n_tasks=None, quick=False):
                    widths = [64, 256, 1024]
                    return [
                        Cell(
                            label="ok",
                            fn=print,
                            kwargs={
                                "name": "gcc",
                                "tasks": n_tasks,
                                "widths": widths,
                                "nested": {"a": (1, 2.5, None)},
                            },
                        ),
                    ]
                """,
        })
        findings, _ = _run(tmp_path, ["CKP001"])
        assert findings == []

    def test_cell_outside_experiments_scope_not_scanned(self, tmp_path):
        _project(tmp_path, {
            "helpers/build.py": """\
                from repro.evalx.parallel import Cell

                CELL = Cell(label="x", fn=print, kwargs={"s": {1, 2}})
                """,
        })
        findings, _ = _run(tmp_path, ["CKP001"])
        assert findings == []

    def test_fault_install_outside_optin_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/experiments/sneaky.py": """\
                import os

                from repro.evalx import faults


                def arm(plan):
                    faults.install(plan)


                def arm_by_env(raw):
                    os.environ["REPRO_FAULTS"] = raw
                """,
        })
        findings, _ = _run(tmp_path, ["CKP002"])
        assert _rule_ids(findings) == ["CKP002", "CKP002"]
        assert "arms the chaos injector" in findings[0].message

    def test_fault_install_in_sanctioned_modules_passes(self, tmp_path):
        _project(tmp_path, {
            "repro/evalx/faults.py": """\
                import os


                def install(plan):
                    os.environ["REPRO_FAULTS"] = plan
                """,
            "repro/evalx/__main__.py": """\
                from repro.evalx import faults


                def main(plan):
                    faults.install(plan)
                """,
        })
        findings, _ = _run(tmp_path, ["CKP002"])
        assert findings == []

    def test_other_environ_assignments_pass(self, tmp_path):
        _project(tmp_path, {
            "evalx/parallel.py": """\
                import os


                def publish(directory):
                    os.environ["REPRO_CHECKPOINT_DIR"] = directory
                """,
        })
        findings, _ = _run(tmp_path, ["CKP002"])
        assert findings == []


class TestVectorizationRules:
    def test_scalar_loop_in_vectorized_module_flagged(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace, vectorize=True):
                    state = np.zeros(len(trace), dtype=np.int64)
                    for i in range(1, len(trace)):
                        state[i] = state[i - 1] + 1
                    return state
                """,
        })
        findings, _ = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]
        assert "per-element Python loop" in findings[0].message

    def test_direct_ndarray_iteration_flagged(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace, vectorize=True):
                    exits = np.asarray(trace, dtype=np.int64)
                    total = 0
                    for exit_index in exits:
                        total += int(exit_index)
                    return total
                """,
        })
        findings, _ = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]

    def test_tolist_scalar_path_and_lag_loops_pass(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace, vectorize=True):
                    arr = np.asarray(trace, dtype=np.int64)
                    # Sanctioned scalar reference path: plain Python list.
                    total = 0
                    for value in arr.tolist():
                        total += value
                    # Loop over lags: whole-column work per iteration.
                    windows = np.zeros((4, len(arr)), dtype=np.int64)
                    for lag in range(1, 4):
                        windows[lag, lag:] = arr[: len(arr) - lag]
                    mask = arr > 0
                    for k in range(4):
                        windows[k][mask] = 0
                    return total, windows
                """,
        })
        findings, _ = _run(tmp_path, ["VEC001"])
        assert findings == []

    def test_module_without_vectorize_claim_not_scanned(self, tmp_path):
        _project(tmp_path, {
            "tools/report.py": """\
                import numpy as np


                def tally(values):
                    arr = np.asarray(values, dtype=np.int64)
                    out = np.zeros(len(arr), dtype=np.int64)
                    for i in range(len(arr)):
                        out[i] = arr[i] * 2
                    return out
                """,
        })
        findings, _ = _run(tmp_path, ["VEC001"])
        assert findings == []

    def test_docstring_claim_triggers_scan(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": '''\
                """Vectorized replay kernels for the batched path."""
                import numpy as np


                def replay(codes):
                    state = np.zeros(len(codes), dtype=np.int64)
                    for i in range(1, len(codes)):
                        state[i] = state[i - 1] ^ 1
                    return state
                ''',
        })
        findings, _ = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]

    def test_narrowing_column_store_flagged(self, tmp_path):
        _project(tmp_path, {
            "predictors/columns.py": """\
                import numpy as np


                def pack(rows, keys):
                    column = np.zeros(64, dtype=np.int16)
                    wide = np.asarray(keys, dtype=np.int64)
                    column[rows] = wide << 3
                    return column
                """,
        })
        findings, _ = _run(tmp_path, ["VEC002"])
        assert _rule_ids(findings) == ["VEC002"]
        assert "truncates" in findings[0].message

    def test_wide_column_store_passes(self, tmp_path):
        _project(tmp_path, {
            "predictors/columns.py": """\
                import numpy as np


                def pack(rows, keys):
                    column = np.zeros(64, dtype=np.int64)
                    wide = np.asarray(keys, dtype=np.int64)
                    column[rows] = wide << 3
                    narrow = np.zeros(64, dtype=np.int8)
                    narrow[rows] = np.zeros(len(rows), dtype=np.int8)
                    return column, narrow
                """,
        })
        findings, _ = _run(tmp_path, ["VEC002"])
        assert findings == []


class TestAtomicityRules:
    def test_direct_write_to_shared_path_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/store.py": """\
                def publish(store, cell, text):
                    path = store.path_for(cell)
                    path.write_text(text)
                """,
        })
        findings, _ = _run(tmp_path, ["FS001"])
        assert _rule_ids(findings) == ["FS001"]
        assert findings[0].symbol == "publish"

    def test_tmp_plus_replace_idiom_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/store.py": """\
                import os


                def publish(store, cell, text):
                    path = store.path_for(cell)
                    tmp = path.with_name(f".{cell}.tmp-{os.getpid()}")
                    tmp.write_text(text)
                    os.replace(tmp, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS001", "FS004"])
        assert findings == []

    def test_exclusive_create_for_claim_files_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/claims.py": """\
                def claim(store, cell):
                    path = store.path_for(cell)
                    with open(path, "x") as handle:
                        handle.write("claimed")
                """,
        })
        findings, _ = _run(tmp_path, ["FS001"])
        assert findings == []

    def test_replace_without_fsync_flagged_in_durable_modules(
        self, tmp_path
    ):
        _project(tmp_path, {
            "evalx/checkpoint.py": """\
                import json
                import os


                def save(store, cell, record):
                    path = store.path_for(cell)
                    tmp = path.with_name(f".{cell}.tmp-{os.getpid()}")
                    tmp.write_text(json.dumps(record))
                    os.replace(tmp, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS002"])
        assert _rule_ids(findings) == ["FS002"]
        assert "fsync" in findings[0].message

    def test_fsynced_replace_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/checkpoint.py": """\
                import json
                import os


                def save(store, cell, record):
                    path = store.path_for(cell)
                    tmp = path.with_name(f".{cell}.tmp-{os.getpid()}")
                    with open(tmp, "w") as handle:
                        handle.write(json.dumps(record))
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS002"])
        assert findings == []

    def test_fsync_through_project_helper_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/checkpoint.py": """\
                import json
                import os

                from evalx.fsio import fsync_write_text


                def save(store, cell, record):
                    path = store.path_for(cell)
                    tmp = path.with_name(f".{cell}.tmp-{os.getpid()}")
                    fsync_write_text(tmp, json.dumps(record))
                    os.replace(tmp, path)
                """,
            "evalx/fsio.py": """\
                import os


                def fsync_write_text(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                        handle.flush()
                        os.fsync(handle.fileno())
                """,
        })
        findings, _ = _run(tmp_path, ["FS002"])
        assert findings == []

    def test_fsync_outside_durable_scope_not_required(self, tmp_path):
        # The trace cache is checksummed + regenerated; FS002's scope
        # excludes it even though FS001/FS004 still apply.
        _project(tmp_path, {
            "evalx/tracecache.py": """\
                import os


                def save(store, cell, text):
                    path = store.path_for(cell)
                    tmp = path.with_name(f".{cell}.tmp-{os.getpid()}")
                    tmp.write_text(text)
                    os.replace(tmp, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS002"])
        assert findings == []

    def test_replace_from_unknown_source_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/store.py": """\
                import os


                def publish(store, cell, src):
                    path = store.path_for(cell)
                    os.replace(src, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS004"])
        assert _rule_ids(findings) == ["FS004"]
        assert "sibling temp" in findings[0].message

    def test_replace_from_shared_temp_name_flagged_as_non_pid(
        self, tmp_path
    ):
        _project(tmp_path, {
            "evalx/store.py": """\
                import os


                def publish(store, cell, text):
                    path = store.path_for(cell)
                    tmp = path.with_name(".record.tmp")
                    tmp.write_text(text)
                    os.replace(tmp, path)
                """,
        })
        findings, _ = _run(tmp_path, ["FS004"])
        assert _rule_ids(findings) == ["FS004"]
        assert "pid" in findings[0].message

    def test_fs_rules_scoped_to_store_code(self, tmp_path):
        _project(tmp_path, {
            "scripts/report.py": """\
                def publish(store, cell, text):
                    path = store.path_for(cell)
                    path.write_text(text)
                """,
        })
        findings, _ = _run(tmp_path, ["FS001", "FS002", "FS004"])
        assert findings == []


class TestEnvOrderRules:
    def test_handoff_mutated_between_submits_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os


                def sweep(executor, run, cells, plan):
                    os.environ["REPRO_FAULTS"] = plan
                    executor.submit(run, cells[0])
                    os.environ["REPRO_FAULTS"] = "other"
                    executor.submit(run, cells[1])
                """,
        })
        findings, _ = _run(tmp_path, ["ENV001"])
        assert _rule_ids(findings) == ["ENV001"]
        assert findings[0].line == 7

    def test_restore_after_last_submit_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os


                def sweep(executor, run, cells, plan):
                    previous = os.environ.get("REPRO_FAULTS")
                    os.environ["REPRO_FAULTS"] = plan
                    try:
                        for cell in cells:
                            executor.submit(run, cell)
                    finally:
                        if previous is None:
                            os.environ.pop("REPRO_FAULTS", None)
                        else:
                            os.environ["REPRO_FAULTS"] = previous
                """,
        })
        findings, _ = _run(tmp_path, ["ENV001"])
        assert findings == []

    def test_arming_without_restore_flagged(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os


                def arm(plan):
                    os.environ["REPRO_FAULTS"] = plan
                """,
        })
        findings, _ = _run(tmp_path, ["ENV002"])
        assert _rule_ids(findings) == ["ENV002"]
        assert "REPRO_FAULTS" in findings[0].message

    def test_arming_with_reachable_restore_passes(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os


                def run_with_plan(run, plan):
                    previous = os.environ.get("REPRO_FAULTS")
                    os.environ["REPRO_FAULTS"] = plan
                    try:
                        run()
                    finally:
                        if previous is None:
                            os.environ.pop("REPRO_FAULTS", None)
                        else:
                            os.environ["REPRO_FAULTS"] = previous
                """,
        })
        findings, _ = _run(tmp_path, ["ENV002"])
        assert findings == []

    def test_constant_alias_resolves_to_handoff_key(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os

                CHECKPOINT_ENV = "REPRO_CHECKPOINT_DIR"


                def arm(path):
                    os.environ[CHECKPOINT_ENV] = str(path)
                """,
        })
        findings, _ = _run(tmp_path, ["ENV002"])
        assert _rule_ids(findings) == ["ENV002"]
        assert "REPRO_CHECKPOINT_DIR" in findings[0].message

    def test_arming_modules_are_exempt(self, tmp_path):
        _project(tmp_path, {
            "evalx/faults.py": """\
                import os


                def install(plan):
                    os.environ["REPRO_FAULTS"] = plan
                """,
        })
        findings, _ = _run(tmp_path, ["ENV002"])
        assert findings == []

    def test_other_env_vars_ignored(self, tmp_path):
        _project(tmp_path, {
            "evalx/driver.py": """\
                import os


                def arm():
                    os.environ["PYTHONHASHSEED"] = "0"
                """,
        })
        findings, _ = _run(tmp_path, ["ENV001", "ENV002"])
        assert findings == []


class TestSuppressions:
    def test_targeted_noqa_suppresses_only_that_rule(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import random


                def draw():
                    return random.random()  # repro: noqa[DET001]


                def draw_again():
                    return random.random()
                """,
        })
        findings, suppressed = _run(tmp_path)
        assert suppressed == 1
        assert [f.symbol for f in findings] == ["draw_again"]

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import time


                def stamp():
                    return time.time()  # repro: noqa
                """,
        })
        findings, suppressed = _run(tmp_path)
        assert findings == []
        assert suppressed == 1

    def test_noqa_for_a_different_rule_does_not_suppress(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import time


                def stamp():
                    return time.time()  # repro: noqa[DET001]
                """,
        })
        findings, suppressed = _run(tmp_path)
        assert _rule_ids(findings) == ["DET003"]
        assert suppressed == 0


class TestBaseline:
    def _finding(self, **overrides):
        base = dict(
            rule="DET003", path="sim/kernel.py", line=7, col=4,
            message="wall clock", symbol="stamp",
        )
        base.update(overrides)
        return Finding(**base)

    def test_missing_file_is_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == []
        assert not baseline.matches(self._finding())

    def test_write_load_round_trip_matches_by_symbol(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(path, [self._finding()], justification="reviewed")
        baseline = Baseline.load(path)
        # Line numbers may drift; (rule, path, symbol) still matches.
        assert baseline.matches(self._finding(line=99))
        assert not baseline.matches(self._finding(rule="DET001"))
        assert baseline.stale_entries() == []

    def test_unmatched_entries_reported_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(
            path,
            [self._finding(), self._finding(symbol="gone")],
            justification="reviewed",
        )
        baseline = Baseline.load(path)
        assert baseline.matches(self._finding())
        assert [e.symbol for e in baseline.stale_entries()] == ["gone"]

    def test_empty_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "DET003", "path": "sim/kernel.py",
                "symbol": "stamp", "justification": "   ",
            }],
        }))
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_entry_key_is_rule_path_symbol(self):
        entry = BaselineEntry(
            rule="PUR001", path="a.py", symbol="_CACHE",
            justification="memo",
        )
        assert entry.key == ("PUR001", "a.py", "_CACHE")


class TestCli:
    def _fixture(self, tmp_path):
        return _project(tmp_path, {
            "sim/kernel.py": """\
                import time


                def stamp():
                    return time.time()
                """,
        })

    def test_findings_exit_1_and_json_schema(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        report_path = tmp_path / "report.json"
        code = analysis_main([
            "--root", str(root), "--format", "json",
            "--output", str(report_path), "sim",
        ])
        assert code == 1
        report = json.loads(report_path.read_text())
        assert set(report) == {
            "version", "rules", "findings", "counts", "stale_baseline"
        }
        assert report["version"] == 1
        assert {r["id"] for r in report["rules"]} == {
            rule.id for rule in all_rules()
        }
        (finding,) = report["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "symbol"
        }
        assert finding["rule"] == "DET003"
        assert finding["path"] == "sim/kernel.py"
        assert report["counts"] == {
            "findings": 1, "baselined": 0, "suppressed": 0,
            "stale_baseline": 0,
        }

    def test_baselined_findings_exit_0(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "DET003", "path": "sim/kernel.py",
                "symbol": "stamp",
                "justification": "fixture: intentional clock read",
            }],
        }))
        code = analysis_main([
            "--root", str(root), "--baseline", str(baseline), "sim",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 1 baselined" in out

    def test_no_baseline_flag_reports_accepted_findings(
        self, tmp_path, capsys
    ):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "DET003", "path": "sim/kernel.py",
                "symbol": "stamp", "justification": "fixture",
            }],
        }))
        code = analysis_main([
            "--root", str(root), "--baseline", str(baseline),
            "--no-baseline", "sim",
        ])
        assert code == 1

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        code = analysis_main([
            "--root", str(root), "--rules", "NOPE999", "sim",
        ])
        assert code == 2

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code = analysis_main(["--root", str(tmp_path), "no/such/dir"])
        assert code == 2

    def test_list_rules_exits_0(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_sarif_output_schema(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        sarif_path = tmp_path / "report.sarif"
        code = analysis_main([
            "--root", str(root), "--format", "sarif",
            "--output", str(sarif_path), "sim",
        ])
        assert code == 1
        sarif = json.loads(sarif_path.read_text())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analysis"
        assert {r["id"] for r in driver["rules"]} == {
            rule.id for rule in all_rules()
        }
        (result,) = run["results"]
        assert result["ruleId"] == "DET003"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "sim/kernel.py"
        assert location["region"]["startLine"] > 0
        assert location["region"]["startColumn"] > 0
        fingerprint = result["partialFingerprints"][
            "reproAnalysisSymbol/v1"
        ]
        assert fingerprint == "DET003:sim/kernel.py:stamp"

    def test_sarif_without_output_prints_to_stdout(
        self, tmp_path, capsys
    ):
        root = self._fixture(tmp_path)
        analysis_main([
            "--root", str(root), "--format", "sarif", "sim",
        ])
        out = capsys.readouterr().out
        assert json.loads(out)["version"] == "2.1.0"

    def test_stale_baseline_entry_exits_1(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [
                {
                    "rule": "DET003", "path": "sim/kernel.py",
                    "symbol": "stamp",
                    "justification": "fixture: intentional clock read",
                },
                {
                    "rule": "FS001", "path": "sim/gone.py",
                    "symbol": "removed_long_ago",
                    "justification": "fixture: the violation was fixed",
                },
            ],
        }))
        code = analysis_main([
            "--root", str(root), "--baseline", str(baseline), "sim",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "removed_long_ago" in err

    def test_prune_stale_rewrites_baseline_and_exits_0(
        self, tmp_path, capsys
    ):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [
                {
                    "rule": "DET003", "path": "sim/kernel.py",
                    "symbol": "stamp",
                    "justification": "fixture: intentional clock read",
                },
                {
                    "rule": "FS001", "path": "sim/gone.py",
                    "symbol": "removed_long_ago",
                    "justification": "fixture: the violation was fixed",
                },
            ],
        }))
        code = analysis_main([
            "--root", str(root), "--baseline", str(baseline),
            "--prune-stale", "sim",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "pruned 1 stale baseline entry" in err
        payload = json.loads(baseline.read_text())
        (entry,) = payload["entries"]
        # The live entry survives with its justification intact.
        assert entry["symbol"] == "stamp"
        assert entry["justification"] == (
            "fixture: intentional clock read"
        )

    def test_write_baseline_bootstraps_file(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        code = analysis_main([
            "--root", str(root), "--baseline", str(baseline),
            "--write-baseline", "sim",
        ])
        assert code == 0
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        (entry,) = payload["entries"]
        assert entry["rule"] == "DET003"
        assert entry["symbol"] == "stamp"


class TestRepoSelfCheck:
    def test_repository_source_analyses_clean(self, capsys):
        """The committed tree passes against the committed baseline."""
        code = analysis_main(["--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_committed_baseline_entries_are_justified(self):
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "analysis_baseline.json"
        )
        for entry in baseline.entries:
            assert len(entry.justification) > 20, entry.key
            assert "TODO" not in entry.justification, entry.key
