"""Checkpoint store: fingerprints, verification, and resume semantics.

Covers the tentpole guarantees in isolation: canonical kwargs encoding
(including dataclass and tuple-vs-list unification), content-addressed
fingerprints that miss on any input change, atomic save/load
round-trips, checksum detection of corrupted records, stale-format
rejection, and `run_sharded` populate-then-resume producing identical
results with zero re-executions. Every run reaps the temps that killed
writers left in both stores, serial or pooled, and hands its cells
nothing through the environment.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.evalx.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointCorrupt,
    CheckpointHit,
    CheckpointKeyError,
    CheckpointStore,
    canonical_kwargs,
    canonical_value,
    cell_fingerprint,
    code_version,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import Cell, run_sharded
from repro.evalx.registry import ALL_IDS
from repro.evalx.result import ExperimentResult
from repro.evalx.tune import TuneSpec, initial_population

REPO_ROOT = Path(__file__).resolve().parent.parent


def _double(x):
    return x * 2


@dataclasses.dataclass(frozen=True)
class _Config:
    depth: int
    name: str


class TestCanonicalization:
    def test_primitives_pass_through(self):
        assert canonical_value(None) is None
        assert canonical_value(True) is True
        assert canonical_value(3) == 3
        assert canonical_value(2.5) == 2.5
        assert canonical_value("gcc") == "gcc"

    def test_tuple_and_list_unify(self):
        assert canonical_kwargs({"v": (1, 2)}) == canonical_kwargs(
            {"v": [1, 2]}
        )

    def test_dict_key_order_is_irrelevant(self):
        assert canonical_kwargs({"a": 1, "b": 2}) == canonical_kwargs(
            {"b": 2, "a": 1}
        )

    def test_dataclass_canonicalizes_by_value_and_type(self):
        one = canonical_value(_Config(depth=4, name="ras"))
        two = canonical_value(_Config(depth=4, name="ras"))
        other = canonical_value(_Config(depth=8, name="ras"))
        assert one == two
        assert one != other
        assert "_Config" in one[0]  # type is part of the identity

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(CheckpointKeyError, match="str-keyed"):
            canonical_value({1: "a"})

    def test_unknown_type_rejected(self):
        with pytest.raises(CheckpointKeyError, match="canonically"):
            canonical_value(object())

    def test_set_rejected(self):
        with pytest.raises(CheckpointKeyError):
            canonical_value({"a", "b"})


class TestFingerprint:
    def _cell(self, **kwargs):
        return Cell(label="c", fn=_double, kwargs=kwargs)

    def test_fingerprint_is_stable(self):
        cell = self._cell(x=3)
        assert cell_fingerprint("table2", cell) == cell_fingerprint(
            "table2", cell
        )

    def test_fingerprint_covers_every_input(self):
        base = cell_fingerprint("table2", self._cell(x=3))
        assert cell_fingerprint("figure6", self._cell(x=3)) != base
        assert cell_fingerprint("table2", self._cell(x=4)) != base
        other_fn = Cell(label="c", fn=_quadruple, kwargs={"x": 3})
        assert cell_fingerprint("table2", other_fn) != base

    def test_fingerprint_covers_workload_seed(self):
        plain = Cell(label="c", fn=_double, kwargs={"x": 1})
        loaded = Cell(
            label="c", fn=_double, kwargs={"x": 1},
            workload=("gcc", 1000),
        )
        assert cell_fingerprint("t", plain) != cell_fingerprint(
            "t", loaded
        )

    def test_code_version_in_key(self):
        assert str(CHECKPOINT_FORMAT_VERSION) in code_version()

    def test_unfingerprintable_kwargs_raise(self):
        with pytest.raises(CheckpointKeyError):
            cell_fingerprint("t", self._cell(x={1: 2}))


class TestEveryCellIsResumable:
    """Every cell of every registered driver, at quick and full size,
    pickles (so ``--jobs`` can ship it) and fingerprints (so the
    checkpoint store can persist and resume it). Either failure shows
    only on the path that needs it: serial runs never pickle, and an
    unfingerprintable cell still runs, uncheckpointed."""

    @pytest.mark.parametrize(
        "experiment_id, quick",
        [(eid, quick) for eid in ALL_IDS for quick in (True, False)],
    )
    def test_cells_pickle_and_fingerprint(self, experiment_id, quick):
        module = importlib.import_module(
            f"repro.evalx.experiments.{experiment_id}"
        )
        # A rung's grid is the population the autotuner hands it.
        extra = (
            {"configs": initial_population(TuneSpec())}
            if experiment_id == "tune_rung"
            else {}
        )
        cells = module.cells(quick=quick, **extra)
        assert cells
        for cell in cells:
            pickle.dumps(cell)
            cell_fingerprint(experiment_id, cell)


class TestCodeEditMissesTheStore:
    """Records are keyed by the source of the whole package, so a resumed
    run never serves a cell that other code computed."""

    def test_resume_after_an_edit_recomputes_every_cell(self, tmp_path):
        source = tmp_path / "src"
        shutil.copytree(
            REPO_ROOT / "src" / "repro",
            source / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(source),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )

        def resumed_cells(run: int, *flags: str) -> int:
            metrics = tmp_path / f"m{run}.jsonl"
            subprocess.run(
                [
                    sys.executable, "-m", "repro.evalx", "table2",
                    "--quick", "--tasks", "300",
                    "--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--metrics", str(metrics), *flags,
                ],
                env=env, cwd=tmp_path, capture_output=True, check=True,
                timeout=300,
            )
            records = [
                json.loads(line) for line in metrics.read_text().splitlines()
            ]
            return sum(
                record["event"] == "checkpoint"
                and record["action"] == "resume"
                for record in records
            )

        assert resumed_cells(1) == 0
        assert resumed_cells(2, "--resume") == 5  # unchanged code
        with open(source / "repro" / "sim" / "functional.py", "a") as file:
            file.write("# an edit that changes no result\n")
        assert resumed_cells(3, "--resume") == 0


def _quadruple(x):
    return x * 4


def _stringify(x):
    return str(x)


class TestStoreRoundTrip:
    def test_save_then_load_round_trips_payload(self, tmp_path):
        store = CheckpointStore(tmp_path, resume=True)
        payload = {"rows": [1, 2.5, "three"], "nested": {"a": (1, 2)}}
        assert store.save("f" * 40, "cell", "table2", payload)
        hit = store.load("f" * 40)
        assert isinstance(hit, CheckpointHit)
        assert hit.payload == payload
        assert hit.payload["nested"]["a"] == (1, 2)  # pickle, not JSON

    def test_missing_record_is_a_plain_miss(self, tmp_path):
        assert CheckpointStore(tmp_path).load("0" * 40) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a" * 40, "c", "t", 123)
        names = [p.name for p in tmp_path.iterdir()]
        assert names == ["a" * 40 + ".ckpt.json"]

    def test_unpicklable_payload_fails_soft(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.save("b" * 40, "c", "t", lambda: None) is False
        assert list(tmp_path.iterdir()) == []


class TestCorruptionDetection:
    def _populated(self, tmp_path):
        store = CheckpointStore(tmp_path, resume=True)
        store.save("c" * 40, "cell", "t", {"value": 7})
        return store, store.path_for("c" * 40)

    def test_flipped_payload_bytes_detected(self, tmp_path):
        store, path = self._populated(tmp_path)
        record = json.loads(path.read_text())
        blob = record["payload"]
        record["payload"] = blob[:-4] + ("AAAA" if blob[-4:] != "AAAA"
                                         else "BBBB")
        path.write_text(json.dumps(record))
        result = store.load("c" * 40)
        assert isinstance(result, CheckpointCorrupt)
        assert "checksum" in result.reason or "payload" in result.reason
        assert not path.exists()  # bad record discarded

    def test_binary_garbage_detected(self, tmp_path):
        store, path = self._populated(tmp_path)
        path.write_bytes(b"\xff\xfe not json \x00" * 20)
        result = store.load("c" * 40)
        assert isinstance(result, CheckpointCorrupt)

    def test_truncated_record_detected(self, tmp_path):
        store, path = self._populated(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert isinstance(store.load("c" * 40), CheckpointCorrupt)

    def test_stale_format_version_detected(self, tmp_path):
        store, path = self._populated(tmp_path)
        record = json.loads(path.read_text())
        record["version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_text(json.dumps(record))
        result = store.load("c" * 40)
        assert isinstance(result, CheckpointCorrupt)
        assert "stale" in result.reason

    def test_renamed_record_detected(self, tmp_path):
        # A record copied under another fingerprint's name must not be
        # served for that fingerprint.
        store, path = self._populated(tmp_path)
        other = store.path_for("d" * 40)
        other.write_text(path.read_text())
        result = store.load("d" * 40)
        assert isinstance(result, CheckpointCorrupt)
        assert "fingerprint" in result.reason


# -- run_sharded integration ------------------------------------------

def _fixture_module(calls_path):
    def cells(n_tasks=None, quick=False):
        return [
            Cell(
                label=f"c{v}",
                fn=_counted_double,
                kwargs={"x": v, "calls_path": str(calls_path)},
            )
            for v in (1, 2, 3)
        ]

    def combine(cells, results, n_tasks=None, quick=False):
        return ExperimentResult(
            experiment_id="ckpt-fixture",
            title="checkpoint fixture",
            text=" ".join(str(r) for r in results),
            data={"values": list(results)},
        )

    return SimpleNamespace(
        __name__="tests.ckpt_fixture", cells=cells, combine=combine
    )


def _counted_double(x, calls_path):
    with open(calls_path, "a") as handle:
        handle.write(f"{x}\n")
    return x * 2


class TestRunShardedResume:
    def test_populate_then_resume_is_identical_with_zero_reruns(
        self, tmp_path
    ):
        calls = tmp_path / "calls.txt"
        module = _fixture_module(calls)
        store_dir = tmp_path / "ckpt"

        first = run_sharded(
            module, checkpoint=CheckpointStore(store_dir)
        )
        assert calls.read_text().splitlines() == ["1", "2", "3"]
        assert len(list(store_dir.glob("*.ckpt.json"))) == 3

        second = run_sharded(
            module, checkpoint=CheckpointStore(store_dir, resume=True)
        )
        assert second.text == first.text
        assert second.data == first.data
        # No cell ran again: the calls file is unchanged.
        assert calls.read_text().splitlines() == ["1", "2", "3"]

    def test_without_resume_records_are_ignored_and_refreshed(
        self, tmp_path
    ):
        calls = tmp_path / "calls.txt"
        module = _fixture_module(calls)
        store_dir = tmp_path / "ckpt"
        run_sharded(module, checkpoint=CheckpointStore(store_dir))
        run_sharded(module, checkpoint=CheckpointStore(store_dir))
        # Fresh-run semantics: every cell executed twice.
        assert calls.read_text().splitlines() == ["1", "2", "3"] * 2

    def test_corrupt_record_reexecutes_only_that_cell(self, tmp_path):
        calls = tmp_path / "calls.txt"
        module = _fixture_module(calls)
        store_dir = tmp_path / "ckpt"
        metrics_path = tmp_path / "metrics.jsonl"

        first = run_sharded(
            module, checkpoint=CheckpointStore(store_dir)
        )
        victim = sorted(store_dir.glob("*.ckpt.json"))[0]
        victim.write_bytes(b"\x00garbage\xff" * 30)

        calls.write_text("")
        with RunMetrics(path=metrics_path, progress=False) as metrics:
            second = run_sharded(
                module,
                checkpoint=CheckpointStore(store_dir, resume=True),
                metrics=metrics,
            )
        assert second.text == first.text
        assert len(calls.read_text().splitlines()) == 1  # one re-run

        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        actions = [
            r["action"] for r in records if r["event"] == "checkpoint"
        ]
        assert actions.count("corrupt") == 1
        assert actions.count("resume") == 2
        assert actions.count("saved") == 1  # the re-run was re-persisted
        summary = records[-1]
        assert summary["event"] == "experiment"
        assert summary["resumed"] == 2 and summary["failed"] == 0

    def test_unfingerprintable_cell_runs_but_is_not_checkpointed(
        self, tmp_path
    ):
        def cells(n_tasks=None, quick=False):
            return [
                Cell(label="plain", fn=_double, kwargs={"x": 2}),
                Cell(label="odd", fn=_stringify, kwargs={"x": {1: 2}}),
            ]

        def combine(cells, results, n_tasks=None, quick=False):
            return ExperimentResult(
                experiment_id="odd-fixture",
                title="t",
                text=str(results),
                data={},
            )

        module = SimpleNamespace(
            __name__="tests.odd", cells=cells, combine=combine
        )
        store_dir = tmp_path / "ckpt"
        metrics_path = tmp_path / "m.jsonl"
        with RunMetrics(path=metrics_path, progress=False) as metrics:
            result = run_sharded(
                module,
                checkpoint=CheckpointStore(store_dir, resume=True),
                metrics=metrics,
            )
        assert "{1: 2}" in result.text  # the odd cell still ran
        assert len(list(store_dir.glob("*.ckpt.json"))) == 1
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        odd = [
            r
            for r in records
            if r["event"] == "checkpoint" and r["cell"] == "odd"
        ]
        assert [r["action"] for r in odd] == ["unfingerprintable"]

    def test_resume_served_payload_survives_pickle_exactly(
        self, tmp_path
    ):
        # Tuples, numpy-free nested structures etc. must come back as
        # the exact objects combine() saw the first time.
        calls = tmp_path / "calls.txt"
        module = _fixture_module(calls)
        store_dir = tmp_path / "ckpt"
        first = run_sharded(module, checkpoint=CheckpointStore(store_dir))
        second = run_sharded(
            module, checkpoint=CheckpointStore(store_dir, resume=True)
        )
        assert repr(first.data) == repr(second.data)


# -- run hygiene: orphaned temps and the environment ------------------

def _dead_pid() -> int:
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def _grid_module(fn, workload=None):
    def cells(n_tasks=None, quick=False):
        return [
            Cell(label=f"c{v}", fn=fn, kwargs={"x": v}, workload=workload)
            for v in (1, 2)
        ]

    def combine(cells, results, n_tasks=None, quick=False):
        return ExperimentResult(
            experiment_id="hygiene-fixture",
            title="run hygiene fixture",
            text="",
            data={"values": list(results)},
        )

    return SimpleNamespace(
        __name__="tests.hygiene", cells=cells, combine=combine
    )


def _repro_environ(x):
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


class TestRunHygiene:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_run_reaps_dead_pid_temps_in_both_stores(
        self, tmp_path, monkeypatch, jobs
    ):
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "ckpt"
        cache_dir.mkdir()
        store_dir.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        dead, live = _dead_pid(), os.getpid()
        orphans = [
            cache_dir / f".gcc-0badf00d-s1-n300.npz.tmp-{dead}",
            store_dir / f".{'e' * 40}.ckpt.json.tmp-{dead}",
        ]
        in_flight = [
            cache_dir / f".sc-0badf00d-s1-n300.npz.tmp-{live}",
            store_dir / f".{'f' * 40}.ckpt.json.tmp-{live}",
        ]
        for path in orphans + in_flight:
            path.write_bytes(b"torn")
        keeper = store_dir / f"{'e' * 40}.ckpt.json"
        keeper.write_text("{}")
        result = run_sharded(
            _grid_module(_double, workload=("compress", 300)),
            jobs=jobs,
            checkpoint=CheckpointStore(store_dir),
        )
        assert result.data["values"] == [2, 4]
        assert [path.exists() for path in orphans] == [False, False]
        assert [path.exists() for path in in_flight] == [True, True]
        assert keeper.read_text() == "{}"  # records are never swept
        assert len(list(store_dir.glob("*.ckpt.json"))) == 3

    def test_checkpointed_runs_leave_the_environment_as_found(
        self, tmp_path
    ):
        caller = _repro_environ(0)
        before = dict(os.environ)
        for jobs in (None, 2):
            result = run_sharded(
                _grid_module(_repro_environ),
                jobs=jobs,
                checkpoint=CheckpointStore(tmp_path / f"ckpt-{jobs}"),
            )
            assert dict(os.environ) == before
            assert result.data["values"] == [caller, caller]
