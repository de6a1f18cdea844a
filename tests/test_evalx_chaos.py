"""Chaos harness: fault injection, graceful interrupts, kill-and-resume.

The acceptance scenario from the robustness issue lives here: a pooled
CLI run is hard-killed (SIGKILL — no cleanup whatsoever) partway through
a checkpointed sweep, then restarted with ``--resume`` and must complete
with byte-identical output and without re-running the finished cells.
Around it: the fault-spec grammar, deterministic victim selection,
inert-by-default guarantees, each worker-side fault action driven
through the real scheduler, and SIGTERM/KeyboardInterrupt handling.
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

from repro.evalx import faults
from repro.evalx.checkpoint import CheckpointStore
from repro.evalx.faults import (
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    parse_spec,
)
from repro.evalx.metrics import RunMetrics
from repro.evalx.parallel import (
    Cell,
    execute_cells,
    is_failure,
    run_sharded,
)
from repro.evalx.result import ExperimentResult
from tests.helpers import kill_process_group


class TestSpecGrammar:
    def test_full_clause_parses(self):
        (clause,) = parse_spec("hang(2.5)@gcc:*#3~2")
        assert clause.action == "hang"
        assert clause.seconds == 2.5
        assert clause.glob == "gcc:*"
        assert clause.count == 3
        assert clause.attempt == 2

    def test_defaults(self):
        (clause,) = parse_spec("raise")
        assert (clause.glob, clause.count, clause.attempt) == ("*", 1, 1)

    def test_multiple_clauses(self):
        clauses = parse_spec("kill@gcc, raise@*#2, corrupt-checkpoint@sc")
        assert [c.action for c in clauses] == [
            "kill", "raise", "corrupt-checkpoint"
        ]

    @pytest.mark.parametrize(
        "bad", ["", "explode@x", "hang@x", "raise@", "kill#x", "42"]
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)


class TestPlanDeterminism:
    LABELS = [f"bench{i}:cfg{j}" for i in range(4) for j in range(3)]

    def test_same_inputs_same_victims(self):
        one = FaultPlan.compile("raise@*#3", seed=7, labels=self.LABELS)
        two = FaultPlan.compile(
            "raise@*#3", seed=7, labels=list(reversed(self.LABELS))
        )
        assert one.triggers == two.triggers  # label order is irrelevant

    def test_seed_changes_victims(self):
        one = FaultPlan.compile("raise@*#2", seed=1, labels=self.LABELS)
        two = FaultPlan.compile("raise@*#2", seed=2, labels=self.LABELS)
        assert one.triggers != two.triggers

    def test_glob_restricts_victims(self):
        plan = FaultPlan.compile(
            "kill@bench2:*#99", seed=0, labels=self.LABELS
        )
        assert all(
            t.label.startswith("bench2:") for t in plan.triggers
        )
        assert len(plan.triggers) == 3  # count capped at the matches

    def test_json_round_trip(self):
        plan = FaultPlan.compile(
            "hang(1.5)@*#2,corrupt-trace@bench0:cfg0",
            seed=9,
            labels=self.LABELS,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert all(
            t.action == "corrupt-trace" for t in plan.store_triggers()
        )


class TestInertByDefault:
    """Satellite guarantee: no plan installed means zero behaviour change."""

    def test_fire_is_a_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.fire("any-cell", 1)  # must not raise, hang, or exit

    def test_install_uninstall_round_trip(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        plan = FaultPlan.compile("raise@a", seed=0, labels=["a", "b"])
        with faults.armed(plan):
            assert faults.active_plan() == plan
        assert faults.active_plan() is None


class TestCliDisarmsOnReturn:
    """``--inject-faults`` arms its plan only for the CLI's own run."""

    @pytest.mark.parametrize("previous", [None, "preset"])
    def test_plan_does_not_leak_past_main(self, monkeypatch, previous):
        from repro.evalx.__main__ import main
        from repro.evalx.registry import run_experiment

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        if previous is not None:
            preset = FaultPlan.compile("raise@nothing", seed=0, labels=[])
            previous = preset.to_json()
            monkeypatch.setenv(faults.ENV_VAR, previous)
        status = main([
            "table2", "--quick", "--tasks", "300", "--keep-going",
            "--inject-faults", "raise@gcc*", "--fault-seed", "1",
        ])
        assert status == 1  # the planned gcc cell failed, as a gap
        assert os.environ.get(faults.ENV_VAR) == previous
        library = run_experiment(
            "table2", n_tasks=300, quick=True, keep_going=True
        )
        assert library.failures == ()


def _identity(x):
    return x


def _install_for_test(monkeypatch, spec, labels, seed=0):
    plan = FaultPlan.compile(spec, seed=seed, labels=labels)
    monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
    return plan


class TestWorkerSideFaults:
    """Each action driven through the real scheduler, serial and pooled."""

    def _cells(self):
        return [
            Cell(label=f"c{v}", fn=_identity, kwargs={"x": v})
            for v in (1, 2, 3)
        ]

    def test_raise_fault_fails_the_planned_cell_only(self, monkeypatch):
        _install_for_test(monkeypatch, "raise@c2", ["c1", "c2", "c3"])
        results = execute_cells(self._cells(), keep_going=True)
        assert results[0] == 1 and results[2] == 3
        assert is_failure(results[1])
        assert "injected fault" in results[1].error

    def test_raise_fault_on_attempt_one_only_lets_retry_succeed(
        self, monkeypatch
    ):
        from repro.evalx.parallel import RetryPolicy

        _install_for_test(monkeypatch, "raise@c2~1", ["c1", "c2", "c3"])
        results = execute_cells(
            self._cells(),
            retry=RetryPolicy(retries=1, backoff_seconds=0.01),
        )
        assert results == [1, 2, 3]  # attempt 2 is not a victim

    def test_kill_fault_crashes_worker_and_is_attributed(
        self, monkeypatch
    ):
        _install_for_test(monkeypatch, "kill@c2", ["c1", "c2", "c3"])
        results = execute_cells(self._cells(), jobs=2, keep_going=True)
        assert results[0] == 1 and results[2] == 3
        assert is_failure(results[1])
        assert results[1].kind == "crash"

    def test_hang_fault_trips_the_cell_timeout(self, monkeypatch):
        from repro.evalx.parallel import RetryPolicy

        _install_for_test(monkeypatch, "hang(5)@c2", ["c1", "c2", "c3"])
        started = time.monotonic()
        results = execute_cells(
            self._cells(),
            jobs=2,
            keep_going=True,
            retry=RetryPolicy(timeout_seconds=0.5),
        )
        assert is_failure(results[1]) and results[1].kind == "timeout"
        assert time.monotonic() - started < 5


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
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop(faults.ENV_VAR, None)
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

        # A hang fault pins the last cell so the run cannot finish
        # before the kill lands; SIGKILL gives it zero chance to clean
        # up — exactly an OOM-killer or CI-preemption death. The run
        # gets its own session so the kill takes its pool workers too.
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.evalx", *base,
                "--jobs", "2",
                "--checkpoint-dir", str(store),
                "--inject-faults", "hang(120)@xlisp",
                "--fault-seed", "7",
                "--metrics", str(tmp_path / "killed.jsonl"),
            ],
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
        faults.corrupt_file(victim)

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


class TestAnyAttemptWildcard:
    """``~0`` fires on *every* attempt — the poison-cell grammar.

    A default clause (``~1``) lets retries succeed; ``~0`` models a
    cell that misbehaves no matter which attempt touches it.
    """

    def test_parse_attempt_zero(self):
        (clause,) = parse_spec("kill@gcc~0")
        assert clause.action == "kill"
        assert clause.glob == "gcc"
        assert clause.attempt == 0

    def test_wildcard_fires_on_every_attempt(self, monkeypatch):
        plan = FaultPlan.compile(
            "raise@poison~0", seed=0, labels=["poison", "clean"]
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        for attempt in (1, 2, 7):
            with pytest.raises(InjectedFault):
                faults.fire("poison", attempt)
        faults.fire("clean", 1)  # untargeted labels stay clean

    def test_default_attempt_still_fires_once(self, monkeypatch):
        plan = FaultPlan.compile(
            "raise@poison", seed=0, labels=["poison"]
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        with pytest.raises(InjectedFault):
            faults.fire("poison", 1)
        faults.fire("poison", 2)  # the retry succeeds
