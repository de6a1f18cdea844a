"""Workload construction and caching.

`load_workload("gcc")` is the one-stop entry point used by examples, tests
and the experiment harness: it generates the profile's synthetic program,
compiles it to tasks, executes it to the requested trace length, and caches
both in memory (per process) and on disk (traces only, under
``.repro-cache/``) so repeated experiment runs don't regenerate.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro.compiler import PartitionConfig, compile_program
from repro.errors import TraceError
from repro.compiler.compiled import CompiledProgram
from repro.synth.executor import TraceExecutor
from repro.synth.generator import (
    GENERATOR_VERSION,
    SyntheticProgramGenerator,
)
from repro.synth.profiles import BenchmarkProfile, get_profile
from repro.synth.trace import TaskTrace
from repro.utils.fsio import publish
from repro.utils.hashing import stable_hash

#: Set the REPRO_CACHE_DIR environment variable to move the trace cache.
_CACHE_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class Workload:
    """A ready-to-simulate workload: profile, compiled program, and trace."""

    profile: BenchmarkProfile
    compiled: CompiledProgram
    trace: TaskTrace

    @property
    def name(self) -> str:
        """Benchmark name (profile name)."""
        return self.profile.name

    def exit_counts(self) -> dict[int, int]:
        """Map task address -> number of header exits (simulator helper)."""
        return {
            task.address: task.n_exits
            for task in self.compiled.program.tfg
        }


_program_cache: dict[str, CompiledProgram] = {}
#: One Workload per (benchmark, length): identity-keyed derived-column
#: caches anchored on it then hit in every cell that loads it.
_trace_cache: dict[tuple[str, int], Workload] = {}

#: Monotonically increasing per-process cache accounting. The parallel
#: scheduler snapshots these around each cell and reports the deltas in
#: its metrics stream, so a run shows where trace generation actually
#: happened (parent prewarm vs worker regeneration).
_cache_stats = {
    "program_memory_hits": 0,
    "program_builds": 0,
    "trace_memory_hits": 0,
    "trace_disk_hits": 0,
    "trace_builds": 0,
    "orphan_tmp_reaps": 0,
}


def cache_counters() -> dict[str, int]:
    """Snapshot of this process's workload-cache hit/miss counters."""
    return dict(_cache_stats)


def build_program(name: str) -> CompiledProgram:
    """Generate and compile the named benchmark's program (memoised)."""
    compiled = _program_cache.get(name)
    if compiled is not None:
        _cache_stats["program_memory_hits"] += 1
    if compiled is None:
        _cache_stats["program_builds"] += 1
        profile = get_profile(name)
        program_cfg = SyntheticProgramGenerator(profile).generate()
        compiled = compile_program(
            program_cfg,
            name=profile.name,
            config=PartitionConfig(
                max_blocks_per_task=profile.max_blocks_per_task
            ),
        )
        _program_cache[name] = compiled
    return compiled


def _cache_dir() -> Path | None:
    """Directory for on-disk trace caching, or None to disable.

    Defaults to ``.repro-cache`` in the working directory; set
    ``REPRO_CACHE_DIR=off`` to disable.
    """
    configured = os.environ.get(_CACHE_ENV, ".repro-cache")
    if configured.lower() in ("off", "none", ""):
        return None
    return Path(configured)


def disk_cache_enabled() -> bool:
    """Whether traces are persisted to disk (see ``REPRO_CACHE_DIR``)."""
    return _cache_dir() is not None


#: Temp files from a process killed mid-publish: both stores leave
#: ``.{name}.tmp-{pid}`` (see :func:`repro.utils.fsio.publish`). Older
#: trace-cache writers left ``.{stem}.tmp-{pid}.npz``, still reaped.
_TMP_NAME = re.compile(r"^\..+\.tmp-(\d+)(?:\.npz)?$")

#: A temp file older than this is orphaned even if its pid was recycled.
_TMP_MAX_AGE_SECONDS = 3600.0


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but isn't ours
    return True


def sweep_orphan_tmp_files(cache_dir: Path | None = None) -> list[Path]:
    """Delete stale ``.tmp-<pid>`` leftovers from an atomic-write dir.

    A process killed between writing its temp file and ``os.replace``
    leaves the temp behind forever; without this sweep they accumulate
    one per crashed pid. Applies to both trace-cache entries and
    checkpoint records — both stores publish through
    :func:`repro.utils.fsio.publish`. A temp file is orphaned when
    its owning pid is dead, or when it is older than an hour
    (pid-recycling guard). Files being written right now belong to live
    pids and are recent, so they are never touched. Returns the paths
    removed; the count lands in the ``orphan_tmp_reaps`` cache counter.
    :func:`repro.evalx.parallel.run_sharded` sweeps the trace cache and
    its checkpoint store's directory once per run, before any cell runs.
    """
    if cache_dir is None:
        cache_dir = _cache_dir()
    if cache_dir is None or not cache_dir.is_dir():
        return []
    removed: list[Path] = []
    for tmp_path in cache_dir.iterdir():
        match = _TMP_NAME.match(tmp_path.name)
        if match is None:
            continue
        try:
            age = time.time() - tmp_path.stat().st_mtime
        except OSError:
            continue  # already gone (concurrent sweep)
        if _pid_alive(int(match.group(1))) and age < _TMP_MAX_AGE_SECONDS:
            continue
        try:
            tmp_path.unlink()
            removed.append(tmp_path)
        except OSError:
            pass
    _cache_stats["orphan_tmp_reaps"] += len(removed)
    return removed


def prewarm_workload(name: str, n_tasks: int | None = None) -> str:
    """Generate one workload and publish its trace to the disk cache.

    The parallel experiment scheduler runs this once per distinct
    (benchmark, length) before fanning cells out, so worker processes
    find warm cache entries instead of each regenerating the same trace.
    Returns the benchmark name (a picklable acknowledgement for pools).
    """
    load_workload(name, n_tasks)
    return name


def load_workload(name: str, n_tasks: int | None = None) -> Workload:
    """Return the named benchmark workload with an ``n_tasks``-long trace.

    ``n_tasks`` defaults to the profile's ``default_dynamic_tasks``. Traces
    are cached in memory and on disk keyed by (benchmark, length, seed).
    Repeated calls return the *same* ``Workload`` object until the
    program is rebuilt (e.g. after :func:`clear_caches`).
    """
    profile = get_profile(name)
    if n_tasks is None:
        n_tasks = profile.default_dynamic_tasks
    compiled = build_program(name)

    workload = _trace_cache.get((name, n_tasks))
    if workload is not None:
        _cache_stats["trace_memory_hits"] += 1
        if workload.compiled is compiled and workload.profile is profile:
            return workload
        trace = workload.trace
    else:
        trace = _load_or_run(profile, compiled, n_tasks)
    workload = Workload(profile=profile, compiled=compiled, trace=trace)
    _trace_cache[(name, n_tasks)] = workload
    return workload


def _profile_fingerprint(profile: BenchmarkProfile) -> str:
    """Cache-key component covering every generation-relevant input.

    Any profile parameter change or generator semantics change must miss
    the cache, otherwise stale traces would disagree with the regenerated
    program's task addresses.
    """
    return format(
        stable_hash(f"v{GENERATOR_VERSION}:{profile!r}") & 0xFFFF_FFFF, "08x"
    )


def _trace_matches_program(
    trace: TaskTrace, compiled: CompiledProgram
) -> bool:
    """Cheap consistency check: every traced task must exist statically."""
    addresses = np.fromiter(
        (task.address for task in compiled.program.tfg), dtype=np.uint32
    )
    return bool(np.isin(trace.task_addr, addresses).all())


def _try_load_cached(
    cache_path: Path, compiled: CompiledProgram
) -> TaskTrace | None:
    """Load a cached trace, treating any damage as a cache miss.

    A parallel run killed mid-write (before atomic writes existed) or a
    truncated disk can leave an unreadable ``.npz``; regenerating is
    always safe, so corruption must never crash an experiment.
    """
    if not cache_path.exists():
        return None
    try:
        trace = TaskTrace.load(cache_path)
    except (OSError, ValueError, EOFError, BadZipFile, TraceError):
        trace = None
    if trace is not None and _trace_matches_program(trace, compiled):
        return trace
    try:
        cache_path.unlink()  # corrupt, or stale from an older build
    except OSError:
        pass  # another process already replaced or removed it
    return None


def _save_cached(trace: TaskTrace, cache_path: Path) -> None:
    """Publish a trace to the disk cache atomically and durably.

    Goes through :func:`repro.utils.fsio.publish`, so concurrent workers
    generating the same workload can never observe a half-written cache
    entry — the worst case is redundant generation, last writer wins.
    """
    publish(cache_path, trace.save)


def trace_cache_path(name: str, n_tasks: int | None = None) -> Path | None:
    """Disk-cache entry path for a (benchmark, length), or None if off.

    The file may or may not exist; this only computes where it lives.
    """
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    profile = get_profile(name)
    if n_tasks is None:
        n_tasks = profile.default_dynamic_tasks
    return cache_dir / (
        f"{profile.name}-{_profile_fingerprint(profile)}"
        f"-s{profile.seed}-n{n_tasks}.npz"
    )


def _load_or_run(
    profile: BenchmarkProfile, compiled: CompiledProgram, n_tasks: int
) -> TaskTrace:
    cache_path = trace_cache_path(profile.name, n_tasks)
    if cache_path is not None:
        cached = _try_load_cached(cache_path, compiled)
        if cached is not None:
            _cache_stats["trace_disk_hits"] += 1
            return cached
    _cache_stats["trace_builds"] += 1
    executor = TraceExecutor(
        compiled,
        seed=profile.seed,
        phase_period=profile.phase_period,
    )
    trace = executor.run(n_tasks)
    if cache_path is not None:
        _save_cached(trace, cache_path)
    return trace


def clear_caches() -> None:
    """Drop the in-memory program and trace caches (tests use this)."""
    _program_cache.clear()
    _trace_cache.clear()
