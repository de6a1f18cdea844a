"""Tests for the repro.analysis static-analysis pass.

Each of the two rules (CKP003, VEC001) gets fixture snippets exercised
both ways: code that must be flagged and near-identical code that must
stay clean. On top of that: baseline semantics (matching, staleness,
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


def _run(tmp_path: Path, rules: list[str] | None = None) -> list[Finding]:
    return run_analysis([tmp_path], tmp_path, rules)


def _rule_ids(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


class TestRuleRegistry:
    def test_all_rules_register_once(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert set(ids) == {"CKP003", "VEC001"}

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.title, rule.id
            assert rule.rationale, rule.id


class TestCheckpointRules:
    def test_other_environ_assignments_pass(self, tmp_path):
        # A copy of os.environ built for a child process is not this
        # process's environment: writing into it is no CKP finding.
        _project(tmp_path, {
            "repro/evalx/launch.py": """\
                import os


                def child_env(directory):
                    env = dict(os.environ)
                    env["REPRO_CACHE_DIR"] = directory
                    env.pop("PYTHONPATH", None)
                    return env
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []


class TestVectorizationRules:
    def test_scalar_loop_in_vectorized_module_flagged(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace):
                    state = np.zeros(len(trace), dtype=np.int64)
                    for i in range(1, len(trace)):
                        state[i] = state[i - 1] + 1
                    return state
                """,
        })
        findings = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]
        assert "per-element Python loop" in findings[0].message

    def test_direct_ndarray_iteration_flagged(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace):
                    exits = np.asarray(trace, dtype=np.int64)
                    total = 0
                    for exit_index in exits:
                        total += int(exit_index)
                    return total
                """,
        })
        findings = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]

    def test_tolist_scalar_path_and_lag_loops_pass(self, tmp_path):
        _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace):
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
        findings = _run(tmp_path, ["VEC001"])
        assert findings == []

    def test_module_outside_kernel_packages_not_scanned(self, tmp_path):
        _project(tmp_path, {
            "tools/report.py": '''\
                """Vectorized tallies (the claim alone does not matter)."""
                import numpy as np


                def tally(values, vectorize=True):
                    arr = np.asarray(values, dtype=np.int64)
                    out = np.zeros(len(arr), dtype=np.int64)
                    for i in range(len(arr)):
                        out[i] = arr[i] * 2
                    return out
                ''',
        })
        findings = _run(tmp_path, ["VEC001"])
        assert findings == []

    @pytest.mark.parametrize("package", ["sim", "predictors", "utils"])
    def test_kernel_package_scanned_without_a_claim(self, tmp_path, package):
        _project(tmp_path, {
            f"{package}/kernel.py": """\
                import numpy as np


                def replay(codes):
                    state = np.zeros(len(codes), dtype=np.int64)
                    for i in range(1, len(codes)):
                        state[i] = state[i - 1] ^ 1
                    return state
                """,
        })
        findings = _run(tmp_path, ["VEC001"])
        assert _rule_ids(findings) == ["VEC001"]


class TestPublicationRule:
    """CKP003: only ``repro.utils.fsio`` renames files into place, no
    module edits ``os.environ``, and the two store modules never write
    in place."""

    def test_replace_and_rename_outside_fsio_flagged(self, tmp_path):
        _project(tmp_path, {
            "repro/evalx/report.py": """\
                import os
                from os import replace


                def publish(tmp, path):
                    os.replace(tmp, path)


                def publish_by_name(tmp, path):
                    replace(tmp, path)


                def move(tmp, path):
                    os.rename(tmp, path)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert _rule_ids(findings) == ["CKP003"] * 3
        assert [f.symbol for f in findings] == [
            "publish", "publish_by_name", "move"
        ]
        assert "fsio.publish" in findings[0].message

    def test_environ_mutations_flagged(self, tmp_path):
        _project(tmp_path, {
            "repro/evalx/parallel.py": """\
                import os
                from os import environ


                def arm(directory):
                    os.environ["REPRO_STORE_DIR"] = directory
                    environ["REPRO_PLAN"] = "{}"
                    os.environ["PATH"] += ":/opt/bin"
                    del os.environ["REPRO_PLAN"]
                    os.environ.pop("REPRO_STORE_DIR", None)
                    environ.setdefault("A", "1")
                    os.environ.update({"B": "2"})
                    os.environ.clear()
                    os.putenv("C", "3")
                    os.unsetenv("C")
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert [f.line for f in findings] == list(range(6, 16))
        assert all("Cell kwargs" in f.message for f in findings)

    def test_environ_reads_pass(self, tmp_path):
        _project(tmp_path, {
            "repro/synth/config.py": """\
                import os


                def cache_dir():
                    configured = os.environ.get("REPRO_CACHE_DIR", "")
                    return configured or os.environ["HOME"]
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []

    def test_in_place_writes_in_store_modules_flagged(self, tmp_path):
        _project(tmp_path, {
            "repro/evalx/checkpoint.py": """\
                import numpy as np


                def save(path, text, blob, column):
                    path.write_text(text)
                    path.write_bytes(blob)
                    with open(path, "w") as handle:
                        handle.write(text)
                    with open(path, mode="ab") as handle:
                        handle.write(blob)
                    np.save(path, column)
                    np.savez_compressed(path, column=column)
                """,
            "repro/synth/workloads.py": """\
                def save(path, blob):
                    with open(path, "r+b") as handle:
                        handle.write(blob)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        checkpoint_lines = [5, 6, 7, 9, 11, 12]
        assert [(f.path, f.line) for f in findings] == [
            ("repro/evalx/checkpoint.py", line) for line in checkpoint_lines
        ] + [("repro/synth/workloads.py", 2)]
        assert "in place" in findings[0].message

    def test_writes_on_a_computed_path_flagged(self, tmp_path):
        # The receiver is a call or a subscript, so the call has no
        # dotted name; it still writes the store file in place.
        _project(tmp_path, {
            "repro/evalx/checkpoint.py": """\
                class Store:
                    def save(self, fingerprint, data, text):
                        self.path_for(fingerprint).write_bytes(data)
                        self.paths[fingerprint].write_text(text)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert [f.line for f in findings] == [3, 4]
        assert {f.symbol for f in findings} == {"Store.save"}
        assert "in place" in findings[0].message

    def test_reads_and_exclusive_create_in_store_modules_pass(
        self, tmp_path
    ):
        _project(tmp_path, {
            "repro/evalx/checkpoint.py": """\
                import numpy as np


                def load(path, claim):
                    with open(path, "rb") as handle:
                        handle.read()
                    with open(claim, "x") as handle:
                        handle.write("claimed")
                    return path.read_text(), np.load(path)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []

    def test_store_module_publishing_through_fsio_passes(self, tmp_path):
        _project(tmp_path, {
            "repro/synth/workloads.py": """\
                from repro.utils import fsio
                from repro.utils.fsio import publish


                def save_cached(trace, cache_path):
                    publish(cache_path, trace.save)


                def save_record(path, data):
                    fsio.publish(path, lambda handle: handle.write(data))
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []

    def test_fsio_itself_is_exempt(self, tmp_path):
        _project(tmp_path, {
            "repro/utils/fsio.py": """\
                import os


                def publish(destination, write):
                    tmp_path = destination.with_name(
                        f".{destination.name}.tmp-{os.getpid()}"
                    )
                    with open(tmp_path, "wb") as handle:
                        write(handle)
                        os.fsync(handle.fileno())
                    os.replace(tmp_path, destination)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []

    def test_environ_writes_in_fsio_flagged(self, tmp_path):
        _project(tmp_path, {
            "repro/utils/fsio.py": """\
                import os


                def export(name, value):
                    previous = os.environ.get(name)
                    os.environ[name] = value
                    if previous is None:
                        os.environ.pop(name, None)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert [f.line for f in findings] == [6, 8]
        assert {f.symbol for f in findings} == {"export"}

    def test_writes_outside_store_modules_pass(self, tmp_path):
        _project(tmp_path, {
            "repro/evalx/tune.py": """\
                def dump(path, text):
                    path.write_text(text)
                    with open(path, "w") as handle:
                        handle.write(text)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []

    def test_scope_leaves_harness_code_alone(self, tmp_path):
        _project(tmp_path, {
            "benchmarks/conftest.py": """\
                import os

                os.environ.setdefault("REPRO_CACHE_DIR", "off")
                """,
            "tools/publish.py": """\
                import os


                def publish(tmp, path):
                    os.replace(tmp, path)
                """,
        })
        findings = _run(tmp_path, ["CKP003"])
        assert findings == []


def _write_baseline(path: Path, findings: list[Finding]) -> None:
    """A baseline accepting each of ``findings``, with a justification."""
    path.write_text(json.dumps({
        "version": 1,
        "entries": [
            {
                "rule": f.rule, "path": f.path, "symbol": f.symbol,
                "justification": "reviewed",
            }
            for f in findings
        ],
    }))


class TestBaseline:
    def _finding(self, **overrides):
        base = dict(
            rule="VEC001", path="sim/kernel.py", line=7, col=4,
            message="per-element loop", symbol="simulate",
        )
        base.update(overrides)
        return Finding(**base)

    def test_missing_file_is_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == []
        assert not baseline.matches(self._finding())

    def test_write_load_round_trip_matches_by_symbol(self, tmp_path):
        path = tmp_path / "baseline.json"
        _write_baseline(path, [self._finding()])
        baseline = Baseline.load(path)
        # Line numbers may drift; (rule, path, symbol) still matches.
        assert baseline.matches(self._finding(line=99))
        assert not baseline.matches(self._finding(rule="CKP003"))
        assert baseline.stale_entries() == []

    def test_unmatched_entries_reported_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        _write_baseline(
            path, [self._finding(), self._finding(symbol="gone")]
        )
        baseline = Baseline.load(path)
        assert baseline.matches(self._finding())
        assert [e.symbol for e in baseline.stale_entries()] == ["gone"]

    def test_empty_justification_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "VEC001", "path": "sim/kernel.py",
                "symbol": "simulate", "justification": "   ",
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
            rule="VEC001", path="a.py", symbol="replay",
            justification="sequential core",
        )
        assert entry.key == ("VEC001", "a.py", "replay")


class TestCli:
    def _fixture(self, tmp_path):
        return _project(tmp_path, {
            "sim/kernel.py": """\
                import numpy as np


                def simulate(trace):
                    state = np.zeros(len(trace), dtype=np.int64)
                    for i in range(1, len(trace)):
                        state[i] = state[i - 1] + 1
                    return state
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
        assert report["version"] == 2
        assert {r["id"] for r in report["rules"]} == {
            rule.id for rule in all_rules()
        }
        (finding,) = report["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "symbol"
        }
        assert finding["rule"] == "VEC001"
        assert finding["path"] == "sim/kernel.py"
        assert report["counts"] == {
            "findings": 1, "baselined": 0, "stale_baseline": 0,
        }

    def test_baselined_findings_exit_0(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "VEC001", "path": "sim/kernel.py",
                "symbol": "simulate",
                "justification": "fixture: sequential by design",
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
                "rule": "VEC001", "path": "sim/kernel.py",
                "symbol": "simulate", "justification": "fixture",
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
        assert result["ruleId"] == "VEC001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "sim/kernel.py"
        assert location["region"]["startLine"] > 0
        assert location["region"]["startColumn"] > 0
        fingerprint = result["partialFingerprints"][
            "reproAnalysisSymbol/v1"
        ]
        assert fingerprint == "VEC001:sim/kernel.py:simulate"

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
                    "rule": "VEC001", "path": "sim/kernel.py",
                    "symbol": "simulate",
                    "justification": "fixture: sequential by design",
                },
                {
                    "rule": "CKP003", "path": "sim/gone.py",
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
                    "rule": "VEC001", "path": "sim/kernel.py",
                    "symbol": "simulate",
                    "justification": "fixture: sequential by design",
                },
                {
                    "rule": "CKP003", "path": "sim/gone.py",
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
        assert entry["symbol"] == "simulate"
        assert entry["justification"] == (
            "fixture: sequential by design"
        )


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
