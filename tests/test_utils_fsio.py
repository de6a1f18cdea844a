"""Store publication: ``repro.utils.fsio.publish``.

``publish`` is the only way a file of either on-disk store (checkpoint
records; the disk cache's program images and traces) reaches its
destination. These tests pin what it promises: publication is
byte-identical to a plain write, fsyncs before it renames (at each of
the three publication sites), leaves the old destination intact and no
temp behind when the write fails, and names its temp so that the orphan
sweep reaps it after a crash. A site added later is kept on ``publish``
by the CKP003 analysis rule, which flags a rename outside
``repro.utils.fsio`` and any in-place write in a store module.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.isa.image import decode_program
from repro.synth import workloads
from repro.synth.profiles import get_profile
from repro.synth.trace import TaskTrace
from repro.utils.fsio import publish
from tests.helpers import assert_same_program

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

    def test_program_image_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # No memo holds a variant profile, so its program is built and
        # its image published.
        profile = get_profile("compress")
        variant = dataclasses.replace(profile, seed=profile.seed + 1)
        spy = _FsyncSpy(monkeypatch)
        program, _ = workloads._load_program(variant)
        spy.assert_fsync_before_every_replace()
        (image,) = tmp_path.iterdir()
        assert image.suffix == ".msx"
        assert_same_program(
            decode_program(image.read_bytes(), "compress"), program
        )

    def test_checkpoint_save_failure_reports_false_without_temp(
        self, tmp_path
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the store directory should be")
        store = CheckpointStore(blocker / "store")
        assert not store.save("b" * 40, "cell", "table2", {"value": 7})
        assert sorted(tmp_path.iterdir()) == [blocker]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
