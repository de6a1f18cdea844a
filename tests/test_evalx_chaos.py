"""Graceful interrupts and kill-and-resume of the experiment engine.

A pooled CLI run is hard-killed (SIGKILL — no cleanup whatsoever)
partway through a checkpointed sweep, then restarted with ``--resume``
and must complete with byte-identical output and without re-running the
finished cells. A fixture cell that never returns pins the victim, so
the kill always lands mid-sweep. Around it: a corrupted record detected
and re-run, and SIGTERM/KeyboardInterrupt handling.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import Cell, run_sharded
from repro.evalx.result import ExperimentResult
from tests.helpers import corrupt_file, hung_cli_command, kill_process_group


def _identity(x):
    return x


# -- graceful interrupts ----------------------------------------------

def _self_sigterm(x):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(5)  # the handler's KeyboardInterrupt lands before this ends
    return x


def _interrupt_module(calls_path):
    def cells(n_tasks=None, quick=False):
        return [
            Cell(
                label="first",
                fn=_counted_identity,
                kwargs={"x": 1, "calls_path": str(calls_path)},
            ),
            Cell(label="boom", fn=_self_sigterm, kwargs={"x": 2}),
            Cell(
                label="never",
                fn=_counted_identity,
                kwargs={"x": 3, "calls_path": str(calls_path)},
            ),
        ]

    def combine(cells, results, n_tasks=None, quick=False):
        return ExperimentResult(
            experiment_id="interrupt-fixture",
            title="t",
            text=str(results),
            data={},
        )

    return SimpleNamespace(
        __name__="tests.interrupt", cells=cells, combine=combine
    )


def _sigterm_is_default(x):
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


def _sigterm_module():
    def cells(n_tasks=None, quick=False):
        return [
            Cell(label=f"c{x}", fn=_sigterm_is_default, kwargs={"x": x})
            for x in range(2)
        ]

    def combine(cells, results, n_tasks=None, quick=False):
        return ExperimentResult(
            experiment_id="sigterm-fixture",
            title="t",
            text=str(results),
            data={"defaults": results},
        )

    return SimpleNamespace(
        __name__="tests.sigterm", cells=cells, combine=combine
    )


def _counted_identity(x, calls_path):
    with open(calls_path, "a") as handle:
        handle.write(f"{x}\n")
    return x


class TestGracefulInterrupt:
    def test_pool_workers_keep_default_sigterm(self):
        """A broken pool's teardown SIGTERMs its surviving workers; one
        that inherited the scheduler's handler raised KeyboardInterrupt
        instead of dying and could hang its parent's exit."""
        result = run_sharded(_sigterm_module(), jobs=2)
        assert result.data["defaults"] == [True, True]

    def test_sigterm_flushes_metrics_and_leaves_store_resumable(
        self, tmp_path
    ):
        calls = tmp_path / "calls.txt"
        module = _interrupt_module(calls)
        store_dir = tmp_path / "ckpt"
        metrics_path = tmp_path / "metrics.jsonl"

        with RunMetrics(path=metrics_path, progress=False) as metrics:
            with pytest.raises(KeyboardInterrupt):
                run_sharded(
                    module,
                    checkpoint=CheckpointStore(store_dir),
                    metrics=metrics,
                )

        # The signal handler was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) in (
            signal.SIG_DFL, signal.default_int_handler,
        )
        # The first cell completed and was persisted; the third never ran.
        assert calls.read_text().splitlines() == ["1"]
        assert len(list(store_dir.glob("*.ckpt.json"))) == 1

        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        interrupts = [r for r in records if r["event"] == "interrupt"]
        assert len(interrupts) == 1
        assert interrupts[0]["signal"] == "SIGTERM"
        # end_experiment still ran: the stream is well-formed.
        assert records[-1]["event"] == "experiment"

    def test_resume_after_interrupt_completes_the_sweep(self, tmp_path):
        calls = tmp_path / "calls.txt"
        module = _interrupt_module(calls)
        store_dir = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_sharded(module, checkpoint=CheckpointStore(store_dir))

        # Second run: no signal this time (replace the bomb cell).
        def calm_cells(n_tasks=None, quick=False):
            cells = module.cells()
            return [
                cells[0],
                Cell(label="boom", fn=_identity, kwargs={"x": 2}),
                cells[2],
            ]

        calm = SimpleNamespace(
            __name__="tests.interrupt",
            cells=calm_cells,
            combine=module.combine,
        )
        result = run_sharded(
            calm, checkpoint=CheckpointStore(store_dir, resume=True)
        )
        assert result.text == "[1, 2, 3]"
        # "first" was served from the store, not re-run.
        assert calls.read_text().splitlines() == ["1", "3"]


# -- the CLI acceptance scenario: SIGKILL mid-run, resume, compare -----

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    # The repository root lets a victim import tests.helpers.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _run_cli(args, env, **popen_kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.evalx", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
        **popen_kwargs,
    )


def _strip_timing(stdout: str) -> str:
    return "\n".join(
        line
        for line in stdout.splitlines()
        if not line.startswith("[table2 completed in")
    )


@pytest.mark.slow
class TestKillAndResumeCLI:
    """SIGKILL a pooled checkpointed run; ``--resume`` must finish it
    byte-identically and without re-running completed cells."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        cache = tmp_path / "trace-cache"
        env = _cli_env(cache)
        store = tmp_path / "ckpt"
        base = ["table2", "--quick", "--tasks", "4000"]

        reference = _run_cli(base, env)
        assert reference.returncode == 0, reference.stderr

        # The xlisp cell never returns, so the run cannot finish before
        # the kill lands; SIGKILL gives it zero chance to clean up —
        # exactly an OOM-killer or CI-preemption death. The run gets
        # its own session so the kill takes its pool workers too.
        victim = subprocess.Popen(
            hung_cli_command(
                "repro.evalx.experiments.table2",
                "xlisp",
                "repro.evalx.__main__",
                [
                    *base,
                    "--jobs", "2",
                    "--checkpoint-dir", str(store),
                    "--metrics", str(tmp_path / "killed.jsonl"),
                ],
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(list(store.glob("*.ckpt.json"))) >= 2:
                    break
                if victim.poll() is not None:
                    pytest.fail(
                        "run finished before the kill could land"
                    )
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint records appeared in time")
            assert victim.poll() is None, "the run ended before the kill"
        finally:
            orphans = kill_process_group(victim)
        assert orphans == [], f"workers outlived the kill: {orphans}"

        persisted = len(list(store.glob("*.ckpt.json")))
        assert 2 <= persisted < 5  # killed mid-sweep, records survived

        resume = _run_cli(
            [
                *base,
                "--checkpoint-dir", str(store),
                "--resume",
                "--metrics", str(tmp_path / "resumed.jsonl"),
            ],
            env,
        )
        assert resume.returncode == 0, resume.stderr
        assert _strip_timing(resume.stdout) == _strip_timing(
            reference.stdout
        )

        records = [
            json.loads(line)
            for line in (tmp_path / "resumed.jsonl")
            .read_text()
            .splitlines()
        ]
        resumed = [
            r
            for r in records
            if r["event"] == "checkpoint" and r["action"] == "resume"
        ]
        assert len(resumed) == persisted  # every survivor was served
        summary = records[-1]
        assert summary["event"] == "experiment"
        assert summary["cells"] == 5 and summary["failed"] == 0
        assert summary["resumed"] == persisted

    def test_corrupted_record_is_detected_and_rerun_exit_zero(
        self, tmp_path
    ):
        cache = tmp_path / "trace-cache"
        env = _cli_env(cache)
        store = tmp_path / "ckpt"
        base = ["table2", "--quick", "--tasks", "4000"]

        populate = _run_cli(
            [*base, "--checkpoint-dir", str(store)], env
        )
        assert populate.returncode == 0, populate.stderr
        reference = _strip_timing(populate.stdout)

        victim = sorted(store.glob("*.ckpt.json"))[2]
        corrupt_file(victim)

        resume = _run_cli(
            [
                *base,
                "--checkpoint-dir", str(store),
                "--resume",
                "--metrics", str(tmp_path / "m.jsonl"),
            ],
            env,
        )
        assert resume.returncode == 0, resume.stderr
        assert _strip_timing(resume.stdout) == reference

        records = [
            json.loads(line)
            for line in (tmp_path / "m.jsonl").read_text().splitlines()
        ]
        actions = [
            r["action"] for r in records if r["event"] == "checkpoint"
        ]
        assert actions.count("corrupt") == 1
        assert actions.count("resume") == 4
        assert actions.count("saved") == 1  # the re-run re-persisted
        summary = records[-1]
        assert summary["event"] == "experiment"
        assert summary["cells"] == 5 and summary["failed"] == 0
