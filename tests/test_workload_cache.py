"""Disk cache of program images and traces: atomic publication,
corruption tolerance and a key that covers the code."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import PartitionConfig, compile_program
from repro.isa.image import decode_program
from repro.isa.task import StaticTask
from repro.synth import workloads
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import BENCHMARK_NAMES, PROFILES, get_profile
from tests.helpers import assert_same_program, target_byte_offset

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Point the disk cache at a temp dir, isolating the memory caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    memos = (workloads._program_cache, workloads._trace_cache)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    yield tmp_path
    for memo, entries in zip(memos, saved):
        memo.clear()
        memo.update(entries)


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
        assert rebuilt.program is not first.program

    def test_replaced_profile_is_not_served_the_old_workload(
        self, cache_dir, monkeypatch
    ):
        first = workloads.load_workload("compress", n_tasks=1500)
        other = replace(first.profile, seed=first.profile.seed + 1)
        monkeypatch.setitem(PROFILES, "compress", other)
        second = workloads.load_workload("compress", n_tasks=1500)
        assert second.profile == other
        assert second.program is not first.program
        assert second.trace is not first.trace
        fresh = compile_program(
            SyntheticProgramGenerator(other).generate(),
            name=other.name,
            config=PartitionConfig(
                max_blocks_per_task=other.max_blocks_per_task
            ),
        )
        assert_same_program(second.program, fresh.program)

    def test_equal_profile_shares_the_named_workload(self, cache_dir):
        named = workloads.load_workload("compress", n_tasks=1500)
        profile = get_profile("compress")
        equal = replace(profile, seed=profile.seed + 0)
        assert equal is not profile
        assert workloads.load_workload(equal, n_tasks=1500) is named

    def test_variant_is_built_once_then_read_from_disk(self, cache_dir):
        profile = get_profile("compress")
        variant = replace(profile, max_blocks_per_task=4)
        before = workloads.cache_counters()
        cold = workloads.load_workload(variant, n_tasks=1500)
        mid = workloads.cache_counters()
        for key in ("program_builds", "trace_builds"):
            assert mid[key] == before[key] + 1
        warm = workloads.load_workload(variant, n_tasks=1500)
        after = workloads.cache_counters()
        for key in ("program_builds", "trace_builds"):
            assert after[key] == mid[key]
        for key in ("program_disk_hits", "trace_disk_hits"):
            assert after[key] == mid[key] + 1
        # Not held in memory: each load is a fresh object from disk.
        assert warm is not cold
        assert warm.profile == variant
        assert_same_program(warm.program, cold.program)
        assert np.array_equal(warm.trace.task_addr, cold.trace.task_addr)
        named = workloads.load_workload("compress", n_tasks=1500)
        assert not np.array_equal(warm.trace.task_addr, named.trace.task_addr)
        assert len(list(cache_dir.glob("*.msx"))) == 2

    def test_counters_snapshot_is_a_copy(self, cache_dir):
        snapshot = workloads.cache_counters()
        snapshot["trace_builds"] += 100
        assert workloads.cache_counters() != snapshot


@pytest.fixture()
def collector_state():
    """Restore the cyclic collector's switch after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorDuringBuilds:
    """A build runs with the cyclic collector off and leaves it as found."""

    @staticmethod
    def _variant(cap: int = 5):
        profile = get_profile("compress")
        return replace(profile, max_blocks_per_task=cap)

    def test_off_during_the_build_and_restored_after(
        self, cache_dir, collector_state, monkeypatch
    ):
        seen = []
        run = workloads.TraceExecutor.run

        def recording_run(executor, max_tasks):
            seen.append(gc.isenabled())
            return run(executor, max_tasks)

        monkeypatch.setattr(workloads.TraceExecutor, "run", recording_run)
        gc.enable()
        workloads.load_workload(self._variant(), n_tasks=800)
        assert seen == [False]
        assert gc.isenabled()
        # Nothing the build made stays frozen.
        assert gc.get_freeze_count() == 0

    def test_left_disabled_when_it_was_disabled(
        self, cache_dir, collector_state
    ):
        gc.disable()
        workloads.load_workload(self._variant(), n_tasks=800)
        assert not gc.isenabled()

    def test_restored_when_the_build_raises(
        self, cache_dir, collector_state, monkeypatch
    ):
        def failing_compile(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("compile failed")

        monkeypatch.setattr(workloads, "compile_program", failing_compile)
        gc.enable()
        with pytest.raises(RuntimeError, match="compile failed"):
            workloads.load_workload(self._variant(), n_tasks=800)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="compile failed"):
            workloads.build_program(self._variant(3))
        assert gc.isenabled()

    def test_objects_frozen_by_the_caller_stay_frozen(
        self, cache_dir, collector_state
    ):
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            workloads.load_workload(self._variant(), n_tasks=800)
            assert gc.get_freeze_count() >= frozen
        finally:
            gc.unfreeze()

    def test_build_results_are_freed_without_the_collector(
        self, cache_dir, collector_state
    ):
        """The block table and the workload hold no reference cycles:
        with the collector off, dropping the last reference frees them."""
        gc.disable()
        compiled = workloads.build_program(self._variant())
        workload = workloads.load_workload(self._variant(6), n_tasks=800)
        refs = [weakref.ref(compiled), weakref.ref(workload)]
        del compiled, workload
        assert [ref() for ref in refs] == [None, None]


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


class TestProgramImage:
    """Each benchmark's executable is cached as a checksummed image."""

    def test_image_published_beside_the_trace(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        (image,) = cache_dir.glob("*.msx")
        (trace,) = cache_dir.glob("*.npz")
        assert trace.name.startswith(image.stem + "-n1500")

    def test_warm_load_builds_no_program(self, cache_dir):
        cold = workloads.load_workload("compress", n_tasks=1500)
        workloads.clear_caches()
        before = workloads.cache_counters()
        warm = workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert after["program_disk_hits"] == before["program_disk_hits"] + 1
        assert after["program_builds"] == before["program_builds"]
        assert warm.program is not cold.program
        assert_same_program(warm.program, cold.program)

    def test_trace_miss_keeps_the_decoded_executable(self, cache_dir):
        workloads.load_workload("compress", n_tasks=1500)
        workloads.clear_caches()
        first = workloads.load_workload("compress", n_tasks=1500)
        longer = workloads.load_workload("compress", n_tasks=1600)
        assert longer.program is first.program
        assert workloads.load_workload("compress", n_tasks=1500) is first

    @pytest.mark.parametrize("damage", ["flipped target byte", "truncated"])
    def test_damaged_image_is_detected_and_rebuilt(self, cache_dir, damage):
        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.msx")
        blob = bytearray(path.read_bytes())
        if damage == "truncated":
            del blob[len(blob) // 2:]
        else:
            offset, _ = target_byte_offset(first.program)
            blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))

        workloads.clear_caches()
        before = workloads.cache_counters()
        second = workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert after["program_builds"] == before["program_builds"] + 1
        assert after["program_disk_hits"] == before["program_disk_hits"]
        assert_same_program(second.program, first.program)
        # The damaged image was republished whole.
        assert_same_program(
            decode_program(path.read_bytes(), "compress"), first.program
        )

    @pytest.mark.parametrize("name", ["gcc", "xlisp"])
    def test_warm_workload_simulates_like_cold(self, cache_dir, name):
        from repro.predictors.exit_predictors import PathExitPredictor
        from repro.predictors.folding import DolcSpec
        from repro.predictors.ras import ReturnAddressStack
        from repro.predictors.task_predictor import HeaderTaskPredictor
        from repro.predictors.ttb import CorrelatedTaskTargetBuffer
        from repro.sim.functional import simulate_task_prediction
        from repro.sim.timing import TimingConfig, simulate_timing

        def results(workload):
            def predictor():
                return HeaderTaskPredictor(
                    program=workload.program,
                    exit_predictor=PathExitPredictor(
                        DolcSpec.parse("6-5-8-9(3)")
                    ),
                    cttb=CorrelatedTaskTargetBuffer(
                        DolcSpec.parse("5-5-6-7(3)")
                    ),
                    ras=ReturnAddressStack(depth=32),
                )

            return (
                simulate_timing(
                    workload,
                    predictor(),
                    TimingConfig(dependence_aware=True),
                ),
                simulate_task_prediction(workload, predictor()),
            )

        cold = workloads.load_workload(name, n_tasks=3000)
        expected = results(cold)
        workloads.clear_caches()
        warm = workloads.load_workload(name, n_tasks=3000)
        assert warm.program is not cold.program
        assert results(warm) == expected

    def test_older_format_image_is_rebuilt(self, cache_dir):
        first = workloads.load_workload("compress", n_tasks=1500)
        (path,) = cache_dir.glob("*.msx")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 2)  # format version 2
        blob[-32:] = hashlib.sha256(bytes(blob[:-32])).digest()
        path.write_bytes(bytes(blob))

        workloads.clear_caches()
        before = workloads.cache_counters()
        second = workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        assert after["program_builds"] == before["program_builds"] + 1
        assert_same_program(second.program, first.program)
        assert_same_program(
            decode_program(path.read_bytes(), "compress"), first.program
        )

    def test_warm_grid_builds_no_task_objects(self, cache_dir, monkeypatch):
        """What a warm paper grid runs reads every program's task table
        and never builds its task objects."""
        from repro.evalx.experiments import table2, table3, table4
        from repro.sim.functional import checked_trace, exit_count_column
        from repro.sim.timing import TimingConfig
        from repro.synth.stats_view import compute_stats

        for name in BENCHMARK_NAMES:
            workloads.load_workload(name, n_tasks=1500)
        workloads.clear_caches()
        built = []
        check = StaticTask.__post_init__

        def counting(task):
            built.append(task.address)
            check(task)

        monkeypatch.setattr(StaticTask, "__post_init__", counting)
        before = workloads.cache_counters()
        loaded = []
        for name in BENCHMARK_NAMES:
            workload = workloads.load_workload(name, n_tasks=1500)
            loaded.append(workload)
            trace = checked_trace(workload, None)
            exit_count_column(workload, trace.task_addr)
            compute_stats(workload)
            table2._cell(name, 1500)
        table3._cell("gcc", 1500)
        table4._cell("gcc", "PATH", 1500, TimingConfig())
        after = workloads.cache_counters()
        assert after["program_disk_hits"] == before["program_disk_hits"] + 5
        assert after["program_builds"] == before["program_builds"]
        assert built == []
        assert not any("tfg" in vars(w.program) for w in loaded)


class TestSourceDigest:
    """The cache key covers the code that generates, compiles and
    executes programs, so a disk hit equals a cold build."""

    def test_digest_covers_every_module_the_build_imports(self):
        probe = (
            "import json, sys\n"
            "import repro.synth.generator, repro.synth.executor\n"
            "import repro.compiler, repro.isa.image\n"
            "print(json.dumps(sorted(\n"
            "    m.__file__ for name, m in sys.modules.items()\n"
            "    if name == 'repro' or name.startswith('repro.'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded = {Path(f).resolve() for f in json.loads(done.stdout)}
        digested = set(workloads._build_source_files())
        assert loaded - digested == set()

    def test_changed_digest_misses(self, cache_dir, monkeypatch):
        workloads.load_workload("compress", n_tasks=1500)
        workloads.clear_caches()
        monkeypatch.setattr(workloads, "_source_digest", lambda: "other")
        before = workloads.cache_counters()
        workloads.load_workload("compress", n_tasks=1500)
        after = workloads.cache_counters()
        for key in ("program_builds", "trace_builds"):
            assert after[key] == before[key] + 1
        for key in ("program_disk_hits", "trace_disk_hits"):
            assert after[key] == before[key]


class TestWarmRunBuildsNothing:
    """A second CLI run on one cache generates and compiles nothing."""

    @staticmethod
    def _runs(tmp_path, experiments):
        """Run ``experiments`` twice on one cache: per run, the cell
        records' summed cache counters, every cell's counters by label,
        and the ``--json`` data."""
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        runs = []
        for run in (1, 2):
            metrics = tmp_path / f"m{run}.jsonl"
            output = tmp_path / f"out{run}.json"
            for experiment in experiments:
                subprocess.run(
                    [
                        sys.executable, "-m", "repro.evalx", experiment,
                        "--quick", "--tasks", "2000",
                        "--metrics", str(metrics), "--json", str(output),
                    ],
                    env=env, cwd=tmp_path, capture_output=True,
                    check=True, timeout=300,
                )
            total: dict[str, int] = {}
            by_cell: dict[str, dict[str, int]] = {}
            for line in metrics.read_text().splitlines():
                record = json.loads(line)
                if record["event"] == "cell":
                    cache = record.get("cache", {})
                    by_cell[record["cell"]] = cache
                    for key, value in cache.items():
                        total[key] = total.get(key, 0) + value
            data = [
                json.loads(line)["data"]
                for line in output.read_text().splitlines()
            ]
            runs.append((total, by_cell, data))
        return runs

    def test_second_run_reads_every_program_image(self, tmp_path):
        (cold, _, first), (warm, _, second) = self._runs(
            tmp_path, ["table2"]
        )
        assert cold.get("program_builds") == 5
        assert warm.get("program_builds", 0) == 0
        assert warm.get("program_disk_hits") == 5
        assert second == first

    def test_second_extension_run_builds_no_variant(self, tmp_path):
        (cold, cold_cells, first), (warm, _, second) = self._runs(
            tmp_path, ["ext_seeds", "ext_tasksize"]
        )
        # Ten (benchmark, seed) workloads, then xlisp at caps 2, 4 and
        # 16: its cap 8 is its registered profile, on disk already.
        assert cold.get("program_builds") == 13
        assert cold.get("trace_builds") == 13
        for label, cache in cold_cells.items():
            builds = 0 if label == "xlisp:cap8" else 1
            assert cache.get("program_builds", 0) == builds, label
            assert cache.get("trace_builds", 0) == builds, label
        assert warm.get("program_builds", 0) == 0
        assert warm.get("trace_builds", 0) == 0
        assert second == first
