"""Store publication and env handoffs: the two helpers in ``repro.utils.fsio``.

``publish`` is the only way either on-disk store (checkpoint records,
trace-cache entries) reaches its destination, and ``env_handoff`` is the
only way a variable reaches pool workers through ``os.environ``; the
CKP003 analysis rule keeps it that way. These tests pin what the two
helpers promise:

* publication is byte-identical to a plain write, fsyncs before it
  renames (at both store sites), leaves the old destination intact and
  no temp behind when the write fails, and names its temp so that the
  orphan sweep reaps it after a crash;
* a handoff is restored on every exit path, whether the variable was
  set before or not, including around a checkpointed experiment run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.parallel import Cell, run_sharded
from repro.evalx.registry import run_experiment
from repro.evalx.result import ExperimentResult
from repro.synth import workloads
from repro.synth.trace import TaskTrace
from repro.utils.fsio import env_handoff, publish

REPO_ROOT = Path(__file__).resolve().parent.parent


class _FsyncSpy:
    """Counts fsyncs and asserts no ``os.replace`` precedes them."""

    def __init__(self, monkeypatch):
        self.synced = 0
        self.synced_at_publish: list[int] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def fsync(fd):
            self.synced += 1
            real_fsync(fd)

        def replace(src, dst):
            self.synced_at_publish.append(self.synced)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

    def assert_fsync_before_every_replace(self):
        assert self.synced_at_publish, "no publication ran"
        assert self.synced_at_publish == list(
            range(1, len(self.synced_at_publish) + 1)
        ), f"a publication ran before its fsync: {self.synced_at_publish}"


def _write_text(text):
    return lambda handle: handle.write(text.encode("utf-8"))


class TestHelpers:
    def test_text_bytes_identical_to_write_text(self, tmp_path):
        text = "line one\nline two\n"
        durable = tmp_path / "durable.txt"
        plain = tmp_path / "plain.txt"
        publish(durable, _write_text(text))
        plain.write_text(text, encoding="utf-8")
        assert durable.read_bytes() == plain.read_bytes()

    def test_text_helper_fsyncs(self, tmp_path, monkeypatch):
        spy = _FsyncSpy(monkeypatch)
        publish(tmp_path / "x.txt", _write_text("payload"))
        assert spy.synced == 1
        spy.assert_fsync_before_every_replace()

    def test_creates_missing_parent_directories(self, tmp_path):
        destination = tmp_path / "a" / "b" / "record.json"
        publish(destination, _write_text("{}"))
        assert destination.read_text() == "{}"

    @pytest.mark.parametrize("error", [OSError, ValueError, KeyboardInterrupt])
    def test_failed_write_keeps_old_destination_and_no_temp(
        self, tmp_path, error
    ):
        destination = tmp_path / "record.json"
        destination.write_bytes(b"previous record")

        def write(handle):
            handle.write(b"half a new rec")
            raise error("write failed")

        with pytest.raises(error):
            publish(destination, write)
        assert destination.read_bytes() == b"previous record"
        assert sorted(tmp_path.iterdir()) == [destination]

    def test_temp_is_a_pid_named_sibling_the_sweep_recognises(
        self, tmp_path
    ):
        destination = tmp_path / "gcc-0badf00d-s1-n300.npz"
        seen: list[Path] = []
        publish(destination, lambda handle: seen.append(Path(handle.name)))
        (temp,) = seen
        assert temp.parent == destination.parent
        assert f"tmp-{os.getpid()}" in temp.name
        assert workloads._TMP_NAME.match(temp.name)
        # A temp never looks like a record of either store.
        assert not temp.match("*.npz") and not temp.match("*.ckpt.json")

    def test_temp_of_a_killed_publisher_is_reaped(self, tmp_path):
        destination = tmp_path / f"{'c' * 40}.ckpt.json"
        destination.write_bytes(b"previous record")
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from repro.utils.fsio import publish\n"
            "publish(Path(sys.argv[1]),"
            " lambda f: (f.write(b'torn'), f.flush(), os._exit(9)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        killed = subprocess.Popen(
            [sys.executable, "-c", script, str(destination)], env=env
        )
        assert killed.wait(timeout=60) == 9
        orphan = destination.with_name(
            f".{destination.name}.tmp-{killed.pid}"
        )
        assert orphan.read_bytes() == b"torn"
        assert destination.read_bytes() == b"previous record"
        assert workloads.sweep_orphan_tmp_files(tmp_path) == [orphan]
        assert sorted(tmp_path.iterdir()) == [destination]


class TestPublicationSitesAreDurable:
    def test_checkpoint_record_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        spy = _FsyncSpy(monkeypatch)
        store = CheckpointStore(tmp_path)
        assert store.save("a" * 40, "cell", "table2", {"value": 7})
        spy.assert_fsync_before_every_replace()

    def test_trace_cache_entry_fsynced_before_replace(
        self, tmp_path, monkeypatch, gcc_workload
    ):
        spy = _FsyncSpy(monkeypatch)
        destination = tmp_path / "gcc.npz"
        workloads._save_cached(gcc_workload.trace, destination)
        spy.assert_fsync_before_every_replace()
        loaded = TaskTrace.load(destination)
        assert np.array_equal(loaded.task_addr, gcc_workload.trace.task_addr)
        assert sorted(tmp_path.iterdir()) == [destination]

    def test_checkpoint_save_failure_reports_false_without_temp(
        self, tmp_path
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the store directory should be")
        store = CheckpointStore(blocker / "store")
        assert not store.save("b" * 40, "cell", "table2", {"value": 7})
        assert sorted(tmp_path.iterdir()) == [blocker]


_VAR = "REPRO_FSIO_TEST_HANDOFF"


class TestEnvHandoff:
    @pytest.mark.parametrize("previous", [None, "before"])
    def test_restored_on_normal_exit(self, monkeypatch, previous):
        monkeypatch.delenv(_VAR, raising=False)
        if previous is not None:
            monkeypatch.setenv(_VAR, previous)
        with env_handoff(_VAR, "during"):
            assert os.environ[_VAR] == "during"
        assert os.environ.get(_VAR) == previous

    @pytest.mark.parametrize("previous", [None, "before"])
    def test_restored_when_the_block_raises(self, monkeypatch, previous):
        monkeypatch.delenv(_VAR, raising=False)
        if previous is not None:
            monkeypatch.setenv(_VAR, previous)
        with pytest.raises(RuntimeError):
            with env_handoff(_VAR, "during"):
                raise RuntimeError("cell failed")
        assert os.environ.get(_VAR) == previous


def _checkpoint_env_probe():
    return os.environ.get(workloads.CHECKPOINT_ENV)


def _probe_module():
    def cells(n_tasks=None, quick=False):
        return [Cell(label="probe", fn=_checkpoint_env_probe, kwargs={})]

    def combine(cells, results, **kwargs):
        return ExperimentResult(
            experiment_id="probe",
            title="probe",
            text="",
            data={"seen": results[0]},
        )

    return SimpleNamespace(
        __name__="tests.checkpoint_env", cells=cells, combine=combine
    )


class TestCheckpointDirHandoff:
    @pytest.mark.parametrize("previous", [None, "/elsewhere"])
    def test_set_during_the_run_and_restored_after(
        self, tmp_path, monkeypatch, previous
    ):
        monkeypatch.delenv(workloads.CHECKPOINT_ENV, raising=False)
        if previous is not None:
            monkeypatch.setenv(workloads.CHECKPOINT_ENV, previous)
        store = CheckpointStore(tmp_path / "store")
        result = run_sharded(_probe_module(), checkpoint=store)
        assert result.data["seen"] == str(store.directory)
        assert os.environ.get(workloads.CHECKPOINT_ENV) == previous

    @pytest.mark.parametrize("previous", [None, "/elsewhere"])
    def test_run_experiment_leaves_env_as_found(
        self, tmp_path, monkeypatch, previous
    ):
        monkeypatch.delenv(workloads.CHECKPOINT_ENV, raising=False)
        if previous is not None:
            monkeypatch.setenv(workloads.CHECKPOINT_ENV, previous)
        run_experiment(
            "table2",
            n_tasks=300,
            quick=True,
            checkpoint=CheckpointStore(tmp_path / "store"),
        )
        assert list((tmp_path / "store").glob("*.ckpt.json"))
        assert os.environ.get(workloads.CHECKPOINT_ENV) == previous


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
