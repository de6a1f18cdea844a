"""Disk trace cache: atomic publication and corruption tolerance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.synth import workloads


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Point the disk cache at a temp dir, isolating the memory cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    saved_traces = dict(workloads._trace_cache)
    workloads._trace_cache.clear()
    yield tmp_path
    workloads._trace_cache.clear()
    workloads._trace_cache.update(saved_traces)


class TestDiskCache:
    def test_publishes_one_file_and_no_temp_leftovers(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        assert len(list(cache_dir.glob("*.npz"))) == 1
        assert not list(cache_dir.glob("*tmp*"))

    def test_cache_round_trip_is_identical(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        workloads._trace_cache.clear()  # force the disk path
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, second.trace.task_addr
        )
        assert np.array_equal(
            first.trace.next_addr, second.trace.next_addr
        )

    def test_corrupt_cache_file_is_regenerated(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        path.write_bytes(b"this is not a zip archive")
        workloads._trace_cache.clear()
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, second.trace.task_addr
        )
        # The corrupt file was replaced with a loadable one.
        (path,) = cache_dir.glob("*.npz")
        workloads._trace_cache.clear()
        third = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.task_addr, third.trace.task_addr
        )

    def test_truncated_cache_file_is_regenerated(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        path.write_bytes(path.read_bytes()[: 100])
        workloads._trace_cache.clear()
        regenerated = workloads.load_workload("compress", n_tasks=1500)
        assert len(regenerated.trace) == 1500

    def test_disk_cache_enabled_follows_env(self, cache_dir, monkeypatch):
        assert workloads.disk_cache_enabled()
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert not workloads.disk_cache_enabled()

    def test_prewarm_populates_disk(self, cache_dir):
        assert workloads.prewarm_workload("compress", 1500) == "compress"
        assert len(list(cache_dir.glob("*.npz"))) == 1

    def test_cache_disabled_writes_nothing(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        workloads.load_workload("compress", n_tasks=1500)
        assert not list(cache_dir.iterdir())


class TestOrphanTempSweep:
    """Satellite bugfix: stale ``.tmp-<pid>.npz`` files from workers
    killed mid-write must not accumulate forever."""

    @staticmethod
    def _dead_pid() -> int:
        import subprocess

        proc = subprocess.Popen(["true"])
        proc.wait()
        return proc.pid

    def test_dead_pid_tmp_file_is_swept(self, cache_dir):
        orphan = cache_dir / f".x.tmp-{self._dead_pid()}.npz"
        orphan.write_bytes(b"partial write")
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert orphan in removed
        assert not orphan.exists()

    def test_live_recent_tmp_file_is_kept(self, cache_dir):
        import os

        in_flight = cache_dir / f".y.tmp-{os.getpid()}.npz"
        in_flight.write_bytes(b"being written right now")
        assert workloads.sweep_orphan_tmp_files(cache_dir) == []
        assert in_flight.exists()

    def test_old_tmp_file_is_swept_even_with_recycled_pid(self, cache_dir):
        import os
        import time

        stale = cache_dir / f".z.tmp-{os.getpid()}.npz"
        stale.write_bytes(b"hours old")
        ancient = time.time() - 2 * workloads._TMP_MAX_AGE_SECONDS
        os.utime(stale, (ancient, ancient))
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert stale in removed

    def test_real_cache_entries_are_never_touched(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (entry,) = cache_dir.glob("*.npz")
        orphan = cache_dir / f".w.tmp-{self._dead_pid()}.npz"
        orphan.write_bytes(b"junk")
        assert workloads.sweep_orphan_tmp_files(cache_dir) == [orphan]
        assert entry.exists()
        assert not orphan.exists()

    def test_sweep_counts_reaps_in_cache_counters(self, cache_dir):
        before = workloads.cache_counters()["orphan_tmp_reaps"]
        for stem in ("a", "b"):
            orphan = cache_dir / f".{stem}.tmp-{self._dead_pid()}.npz"
            orphan.write_bytes(b"junk")
        workloads.sweep_orphan_tmp_files(cache_dir)
        after = workloads.cache_counters()["orphan_tmp_reaps"]
        assert after == before + 2

    def test_checkpoint_tmp_names_match_the_sweep_pattern(
        self, cache_dir
    ):
        # The checkpoint store's temp naming (no .npz suffix) must be
        # covered by the same sweep as trace-cache temps.
        orphan = cache_dir / f".{'f' * 40}.tmp-{self._dead_pid()}"
        orphan.write_bytes(b"half a checkpoint record")
        removed = workloads.sweep_orphan_tmp_files(cache_dir)
        assert orphan in removed


class TestCacheCounters:
    """Hit/miss accounting consumed by the run metrics stream."""

    def test_build_then_memory_hit(self, cache_dir):
        before = workloads.cache_counters()
        workloads.load_workload("compress", n_tasks=1500)
        mid = workloads.cache_counters()
        assert mid["trace_builds"] == before["trace_builds"] + 1
        workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert (
            after["trace_memory_hits"] == mid["trace_memory_hits"] + 1
        )
        assert after["trace_builds"] == mid["trace_builds"]

    def test_disk_hit_counted_after_memory_cache_cleared(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        workloads._trace_cache.clear()
        before = workloads.cache_counters()
        workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert after["trace_disk_hits"] == before["trace_disk_hits"] + 1
        assert after["trace_builds"] == before["trace_builds"]

    def test_one_workload_object_per_name_and_length(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        assert workloads.load_workload("compress", n_tasks=1500) is first
        assert workloads.load_workload("compress", n_tasks=1000) is not first
        workloads.clear_caches()
        rebuilt = workloads.load_workload("compress", n_tasks=1500)
        assert rebuilt is not first
        assert rebuilt.compiled is not first.compiled

    def test_counters_snapshot_is_a_copy(self, cache_dir):
        snapshot = workloads.cache_counters()
        snapshot["trace_builds"] += 100
        assert workloads.cache_counters() != snapshot


class TestTraceChecksum:
    """Tentpole satellite: cache entries carry a content checksum, so
    bit-level damage that still unzips is a detected miss, not wrong
    simulator input."""

    def test_saved_trace_embeds_checksum(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        with np.load(path) as data:
            assert "checksum" in data

    def test_tampered_column_is_detected_and_regenerated(self, cache_dir):
        from repro.errors import TraceError
        from repro.synth.trace import TaskTrace

        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")

        # Rewrite the file with one column changed but the stale
        # checksum kept — simulates silent bit-rot inside the archive.
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        arrays["exit_index"] = arrays["exit_index"].copy()
        arrays["exit_index"][0] ^= 1
        np.savez_compressed(path, **arrays)

        with pytest.raises(TraceError, match="checksum mismatch"):
            TaskTrace.load(path)

        # The cache layer treats it as a miss and regenerates cleanly.
        workloads._trace_cache.clear()
        second = workloads.load_workload("compress", n_tasks=1500)
        assert np.array_equal(
            first.trace.exit_index, second.trace.exit_index
        )

    def test_legacy_file_without_checksum_still_loads(self, cache_dir):
        from repro.synth.trace import TaskTrace

        workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.npz")
        with np.load(path) as data:
            arrays = {
                name: data[name].copy()
                for name in data.files
                if name != "checksum"
            }
        np.savez_compressed(path, **arrays)
        trace = TaskTrace.load(path)  # unverified, but not rejected
        assert len(trace) == 1500
