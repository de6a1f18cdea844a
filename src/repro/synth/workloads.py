"""Workload construction and caching.

`load_workload("gcc")` is the one-stop entry point used by examples, tests
and the experiment harness: it generates the profile's synthetic program,
compiles it to tasks, executes it to the requested trace length, and caches
both in memory (per process) and on disk (under ``.repro-cache/``) so
repeated experiment runs build nothing. A name stands for the profile
registered under it; any other :class:`BenchmarkProfile` (another seed,
another task-size cap) loads the same way. The disk holds each profile's
executable as a checksummed program image (:mod:`repro.isa.image`) beside
its traces, all keyed by a fingerprint of the profile and of the source
code that builds them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import os
import re
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro.compiler import PartitionConfig, compile_program
from repro.errors import EncodingError, TraceError
from repro.compiler.compiled import CompiledProgram
from repro.isa.image import decode_program, encode_program
from repro.isa.program import MultiscalarProgram
from repro.synth.executor import TraceExecutor
from repro.synth.generator import SyntheticProgramGenerator
from repro.synth.profiles import PROFILES, BenchmarkProfile, get_profile
from repro.synth.trace import TaskTrace
from repro.utils.fsio import publish
from repro.utils.hashing import stable_hash

#: Set the REPRO_CACHE_DIR environment variable to move the disk cache.
_CACHE_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class Workload:
    """A ready-to-simulate workload: profile, executable, and trace."""

    profile: BenchmarkProfile
    program: MultiscalarProgram
    trace: TaskTrace

    @property
    def name(self) -> str:
        """Benchmark name (profile name)."""
        return self.profile.name

    def exit_counts(self) -> dict[int, int]:
        """Map task address -> number of header exits (simulator helper)."""
        table = self.program.table
        return dict(zip(table.addrs.tolist(), table.n_exits.tolist()))


#: One entry per registered profile: its executable, or once a trace had
#: to be executed, its compiled program (the executable plus the block
#: table :class:`TraceExecutor` runs), which keeps the same executable
#: object.
_program_cache: dict[
    BenchmarkProfile, MultiscalarProgram | CompiledProgram
] = {}
#: One Workload per (registered profile, length): identity-keyed
#: derived-column caches anchored on it then hit in every cell that loads it.
_trace_cache: dict[tuple[BenchmarkProfile, int], Workload] = {}

#: Monotonically increasing per-process cache accounting. The parallel
#: scheduler snapshots these around each cell and reports the deltas in
#: its metrics stream, so a run shows where programs were built and
#: traces generated (parent prewarm vs worker regeneration).
_cache_stats = {
    "program_memory_hits": 0,
    "program_disk_hits": 0,
    "program_builds": 0,
    "trace_memory_hits": 0,
    "trace_disk_hits": 0,
    "trace_builds": 0,
    "orphan_tmp_reaps": 0,
}


def cache_counters() -> dict[str, int]:
    """Snapshot of this process's workload-cache hit/miss counters."""
    return dict(_cache_stats)


def _memoised(profile: BenchmarkProfile) -> bool:
    """Whether ``profile`` is the one registered under its name.

    Only those are held in memory: they are the workloads many cells
    load. A variant (another seed or task-size cap) is loaded by one
    cell, so it is read from the disk cache and freed with that cell.
    """
    return PROFILES.get(profile.name) == profile


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector out of one build.

    A build allocates hundreds of thousands of objects and leaves no
    cyclic garbage, so every collection during it is wasted work: about
    a tenth of a cold build. The collector is disabled for the build and
    its previous state restored afterwards, also when the build raises.

    When it was enabled, every object the build made is then moved into
    the oldest generation (``gc.freeze()`` then ``gc.unfreeze()``, when
    nothing else is frozen), as if it had survived the young collections
    it skipped. Left young, the build's objects would be traversed by
    the next young collections and then count towards a full one, due
    soon after; a forked pool worker that runs it touches, and so
    copies, every page it inherited. Nothing stays frozen: garbage is
    collected as before, by the next full collection.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def build_program(benchmark: str | BenchmarkProfile) -> CompiledProgram:
    """Generate and compile a benchmark's program.

    A name stands for its registered profile; a registered profile's
    build is memoised. An executable this process already holds
    (decoded from its image) replaces the compiled one, which equals it:
    every workload of a profile then shares one executable object.
    """
    profile = (
        get_profile(benchmark) if isinstance(benchmark, str) else benchmark
    )
    cached = _program_cache.get(profile)
    if isinstance(cached, CompiledProgram):
        _cache_stats["program_memory_hits"] += 1
        return cached
    _cache_stats["program_builds"] += 1
    with _collector_paused():
        program_cfg = SyntheticProgramGenerator(profile).generate()
        compiled = compile_program(
            program_cfg,
            name=profile.name,
            config=PartitionConfig(
                max_blocks_per_task=profile.max_blocks_per_task
            ),
        )
    if cached is not None:
        compiled.program = cached
    if _memoised(profile):
        _program_cache[profile] = compiled
    return compiled


def _load_program(
    profile: BenchmarkProfile,
) -> tuple[MultiscalarProgram, CompiledProgram | None]:
    """The profile's executable: from memory, its image, or a build.

    Also returns the compiled program when one is at hand, so a trace
    executed right after a build needs no second build. A damaged or
    unreadable image is a miss: the program is rebuilt and its image
    republished.
    """
    cached = _program_cache.get(profile)
    if cached is not None:
        _cache_stats["program_memory_hits"] += 1
        if isinstance(cached, CompiledProgram):
            return cached.program, cached
        return cached, None
    image_path = _entry_path(profile, ".msx")
    if image_path is not None:
        try:
            program = decode_program(image_path.read_bytes(), profile.name)
        except (OSError, EncodingError):
            pass
        else:
            _cache_stats["program_disk_hits"] += 1
            if _memoised(profile):
                _program_cache[profile] = program
            return program, None
    compiled = build_program(profile)
    if image_path is not None:
        blob = encode_program(compiled.program)
        publish(image_path, lambda handle: handle.write(blob))
    return compiled.program, compiled


def _cache_dir() -> Path | None:
    """Directory of the disk cache (program images, traces), or None.

    Defaults to ``.repro-cache`` in the working directory; set
    ``REPRO_CACHE_DIR=off`` to disable.
    """
    configured = os.environ.get(_CACHE_ENV, ".repro-cache")
    if configured.lower() in ("off", "none", ""):
        return None
    return Path(configured)


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
    """Load one workload, publishing its image and trace to the disk cache.

    The parallel experiment scheduler runs this once per distinct
    (benchmark, length) before fanning cells out, so worker processes
    find warm cache entries instead of each regenerating the same trace.
    Returns the benchmark name (a picklable acknowledgement for pools).
    """
    load_workload(name, n_tasks)
    return name


def load_workload(
    benchmark: str | BenchmarkProfile, n_tasks: int | None = None
) -> Workload:
    """Return a benchmark workload with an ``n_tasks``-long trace.

    ``benchmark`` is a profile, or a name standing for the profile
    registered under it. ``n_tasks`` defaults to the profile's
    ``default_dynamic_tasks``. Executables and traces are cached on disk
    keyed by the whole profile. A registered profile's are also held in
    memory: repeated calls return the *same* ``Workload`` object until
    :func:`clear_caches`. Any other profile is read from disk afresh.
    """
    profile = (
        get_profile(benchmark) if isinstance(benchmark, str) else benchmark
    )
    if n_tasks is None:
        n_tasks = profile.default_dynamic_tasks
    workload = _trace_cache.get((profile, n_tasks))
    if workload is not None:
        _cache_stats["trace_memory_hits"] += 1
        return workload
    with _collector_paused():
        program, compiled = _load_program(profile)
        trace_path = _entry_path(profile, f"-n{n_tasks}.npz")
        trace = _try_load_cached(trace_path, program)
        if trace is not None:
            _cache_stats["trace_disk_hits"] += 1
        else:
            _cache_stats["trace_builds"] += 1
            trace = TraceExecutor(
                compiled if compiled is not None else build_program(profile),
                seed=profile.seed,
                phase_period=profile.phase_period,
            ).run(n_tasks)
            if trace_path is not None:
                _save_cached(trace, trace_path)
    workload = Workload(profile=profile, program=program, trace=trace)
    if _memoised(profile):
        _trace_cache[(profile, n_tasks)] = workload
    return workload


#: The source that decides a program image or a trace: every ``repro``
#: module that generating, compiling, executing and encoding a program
#: imports (a test checks the list is complete). Paths are relative to
#: the ``repro`` package; a directory stands for every module in it.
_BUILD_SOURCES = (
    "__init__.py", "errors.py", "cfg", "compiler", "isa",
    "synth/__init__.py", "synth/behavior.py", "synth/executor.py",
    "synth/generator.py", "synth/profiles.py", "synth/trace.py",
    "synth/workloads.py", "utils/__init__.py", "utils/bits.py",
    "utils/fsio.py", "utils/hashing.py", "utils/memo.py", "utils/rng.py",
    "utils/stats.py",
)
_PACKAGE = Path(__file__).resolve().parent.parent


def _source_files(entries: tuple[str, ...]) -> list[Path]:
    """The ``repro`` modules ``entries`` name, in digest order.

    Entries are paths relative to the package; a directory stands for
    every module under it.
    """
    files: list[Path] = []
    for entry in entries:
        path = _PACKAGE / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


@functools.cache
def source_digest(entries: tuple[str, ...]) -> str:
    """SHA-256 over the named modules' package-relative names and bytes.

    Read once per process and entry list.
    """
    digest = hashlib.sha256()
    for path in _source_files(entries):
        digest.update(path.relative_to(_PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _build_source_files() -> list[Path]:
    """The files :data:`_BUILD_SOURCES` names, in digest order."""
    return _source_files(_BUILD_SOURCES)


def _source_digest() -> str:
    """The build sources' digest: read on first use of the disk cache."""
    return source_digest(_BUILD_SOURCES)


def _profile_fingerprint(profile: BenchmarkProfile) -> str:
    """Cache-key component covering every input of a program or trace.

    A change to the profile, or to the source of any module that builds
    programs and traces, misses the cache: a disk hit is exactly what a
    cold build would give.
    """
    return format(
        stable_hash(f"{_source_digest()}:{profile!r}") & 0xFFFF_FFFF, "08x"
    )


def _entry_path(profile: BenchmarkProfile, suffix: str) -> Path | None:
    """Where a disk-cache entry of ``profile`` lives, or None if off."""
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    return cache_dir / (
        f"{profile.name}-{_profile_fingerprint(profile)}"
        f"-s{profile.seed}{suffix}"
    )


def _trace_matches_program(
    trace: TaskTrace, program: MultiscalarProgram
) -> bool:
    """Cheap consistency check: every traced task must exist statically."""
    return bool(np.isin(trace.task_addr, program.table.addrs).all())


def _try_load_cached(
    cache_path: Path | None, program: MultiscalarProgram
) -> TaskTrace | None:
    """Load a cached trace (none while the cache is off), treating any
    damage as a cache miss.

    A truncated disk or bit-rot can leave an unreadable or checksum-failing
    ``.npz``; regenerating is always safe, so corruption must never crash
    an experiment. A trace naming a task its executable lacks is damage
    too: image and trace are separate files.
    """
    if cache_path is None or not cache_path.exists():
        return None
    try:
        trace = TaskTrace.load(cache_path)
    except (OSError, ValueError, EOFError, BadZipFile, TraceError):
        trace = None
    if trace is not None and _trace_matches_program(trace, program):
        return trace
    try:
        cache_path.unlink()
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


def clear_caches() -> None:
    """Drop the in-memory program and trace caches (tests use this)."""
    _program_cache.clear()
    _trace_cache.clear()
