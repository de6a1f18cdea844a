#!/usr/bin/env python
"""Regenerate ``results/`` and EXPERIMENTS.md's claims table at 300k tasks.

Runs every paper experiment and extension through ``run_experiment`` at
300,000 tasks, serially, and compares what it would write with the
committed files:

* ``results/paper.json`` and ``results/extensions.json`` — each
  experiment's ``data``;
* ``results/paper.txt`` and ``results/extensions.txt`` — each result as
  ``python -m repro.evalx`` prints it, without the timing lines;
* the claims table (:mod:`repro.evalx.claims` evaluated on that data),
  between the claims markers in EXPERIMENTS.md;
* the two frontier tables of the default design-space search
  (``python -m repro.evalx.tune --benchmarks gcc xlisp``), between the
  tune markers in EXPERIMENTS.md.

Exits nonzero when any of them differs.

Usage::

    python tools/results.py            # regenerate and check
    python tools/results.py --update   # write the files

A run takes about 2 minutes on a 2-vCPU VM with a warm trace cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.evalx.claims import scoreboard  # noqa: E402
from repro.evalx.registry import (  # noqa: E402
    EXPERIMENT_IDS,
    EXTENSION_IDS,
    run_experiment,
)
from repro.evalx.report import render_frontier  # noqa: E402
from repro.evalx.tune import TuneSpec, run_search  # noqa: E402

TASKS = 300_000
RESULTS = ROOT / "results"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
CLAIMS = ("<!-- claims:begin (tools/results.py writes this block) -->",
          "<!-- claims:end -->")
TUNE = ("<!-- tune:begin (tools/results.py writes this block) -->",
        "<!-- tune:end -->")
#: The benchmarks of the design-space search EXPERIMENTS.md quotes.
TUNE_BENCHMARKS = ("gcc", "xlisp")


def frontier_tables() -> str:
    """The default search's frontier tables, as ``repro-tune`` prints them."""
    artifact = run_search(TuneSpec(benchmarks=TUNE_BENCHMARKS))
    return "\n\n".join(
        render_frontier(
            artifact["frontier"][name],
            title=f"{name.upper()} accuracy-vs-storage frontier",
        )
        for name in TUNE_BENCHMARKS
    )


def with_block(text: str, markers: tuple[str, str], body: str) -> str:
    """``text`` with the lines between ``markers`` replaced by ``body``
    in a fenced text block."""
    begin, end = markers
    head, rest = text.split(begin, 1)
    tail = rest.split(end, 1)[1]
    return f"{head}{begin}\n```text\n{body}\n```\n{end}{tail}"


def regenerate() -> dict[Path, str]:
    """Every generated file's path and its new content."""
    files: dict[Path, str] = {}
    data = {}
    for name, ids in (("paper", EXPERIMENT_IDS), ("extensions", EXTENSION_IDS)):
        results = [run_experiment(eid, n_tasks=TASKS) for eid in ids]
        data.update((r.experiment_id, r.data) for r in results)
        files[RESULTS / f"{name}.json"] = json.dumps(
            {r.experiment_id: r.data for r in results}, indent=1, default=str
        ) + "\n"
        files[RESULTS / f"{name}.txt"] = "\n\n".join(map(str, results)) + "\n"
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    text = with_block(text, CLAIMS, scoreboard(data)[0])
    files[EXPERIMENTS_MD] = with_block(text, TUNE, frontier_tables())
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="write the files instead of checking them")
    args = parser.parse_args(argv)
    files = regenerate()
    if args.update:
        RESULTS.mkdir(exist_ok=True)
        for path, text in files.items():
            path.write_text(text, encoding="utf-8")
        print(f"wrote {len(files)} files")
        return 0
    stale = [path.relative_to(ROOT) for path, text in files.items()
             if not path.exists() or path.read_text(encoding="utf-8") != text]
    for path in stale:
        print(f"STALE {path}: rerun with --update")
    print(f"results {'stale' if stale else 'ok'}: {len(files)} files")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
