#!/usr/bin/env python
"""Lint CI smoke scripts for kill-window discipline.

The chaos/tune smoke jobs SIGKILL a live run mid-sweep to prove
checkpoint recovery. That only tests what it claims to when the kill
window is deterministic and the kill hits exactly the intended
process:

* **Pinned victims** — a step that ``kill -9``s a run must first wedge
  it with a ``hang(...)`` fault glob (``--inject-faults 'hang(...)'``).
  Without the pin, a fast runner finishes the sweep before the kill
  lands and the "recovery" assertion silently tests an uninterrupted
  run.
* **PID targeting** — the kill must target a shell variable captured
  from ``$!`` (``victim=$!`` ... ``kill -9 "$victim"``). Pattern kills
  are banned: ``pkill -f <pattern>`` famously matches its own
  invoking shell or an unrelated concurrent run (the pattern appears in
  the command line of more processes than the intended one).

The workflow file is parsed line-wise on purpose: the CI analysis job
installs no YAML library, and steps are recognisable from ``- name:``
and ``run:`` lines alone.

Usage::

    python tools/smoke_lint.py .github/workflows/ci.yml [more.yml ...]

Exit status: 0 when every step passes, 1 with one message per
violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_NAME_RE = re.compile(r"^\s*-\s+name:\s*(?P<name>.+?)\s*$")
_KILL9_RE = re.compile(r"\bkill\s+(-9|-KILL|-s\s+KILL)\b")
_KILL9_VAR_RE = re.compile(
    r"""\bkill\s+(?:-9|-KILL|-s\s+KILL)\s+"?\$\{?\w+\}?"?"""
)
_PKILL_F_RE = re.compile(r"\bpkill\b[^\n]*\s-f\b")
_PID_CAPTURE_RE = re.compile(r"\b\w+=\$!")
_HANG_PIN_RE = re.compile(r"--inject-faults\s+\S*hang\(")


def split_steps(text: str) -> list[tuple[str, str]]:
    """``(step name, step text)`` for each named workflow step.

    Step text runs until the next ``- name:`` line; job boundaries do
    not matter because every check is intra-step.
    """
    steps: list[tuple[str, str]] = []
    name: str | None = None
    lines: list[str] = []
    for line in text.splitlines():
        match = _NAME_RE.match(line)
        if match is not None:
            if name is not None:
                steps.append((name, "\n".join(lines)))
            name = match.group("name").strip("\"'")
            lines = []
        elif name is not None:
            lines.append(line)
    if name is not None:
        steps.append((name, "\n".join(lines)))
    return steps


def lint_step(name: str, body: str) -> list[str]:
    """Violation messages for one step (empty when clean)."""
    problems: list[str] = []
    if _PKILL_F_RE.search(body):
        problems.append(
            f"step {name!r} uses 'pkill -f': pattern kills match the "
            "invoking shell and unrelated processes — capture the pid "
            "with 'victim=$!' and 'kill -9 \"$victim\"' instead"
        )
    kills = _KILL9_RE.findall(body)
    if not kills:
        return problems
    if not _HANG_PIN_RE.search(body):
        problems.append(
            f"step {name!r} SIGKILLs a process without pinning the "
            "victim via an '--inject-faults ...hang(...)' fault glob; "
            "on a fast runner the run finishes before the kill lands "
            "and the recovery assertion tests nothing"
        )
    for line in body.splitlines():
        if _KILL9_RE.search(line) and not _KILL9_VAR_RE.search(line):
            problems.append(
                f"step {name!r} SIGKILLs a non-variable target "
                f"({line.strip()!r}); kill must target a pid captured "
                "in a shell variable (victim=$! ... kill -9 "
                '"$victim")'
            )
    if not _PID_CAPTURE_RE.search(body):
        problems.append(
            f"step {name!r} SIGKILLs without capturing the victim pid "
            "from '$!' in the same step; the kill target's provenance "
            "must be visible where the kill happens"
        )
    return problems


def lint_file(path: Path) -> list[str]:
    problems: list[str] = []
    for name, body in split_steps(path.read_text(encoding="utf-8")):
        for message in lint_step(name, body):
            problems.append(f"{path}: {message}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(
            "usage: python tools/smoke_lint.py WORKFLOW.yml [...]",
            file=sys.stderr,
        )
        return 2
    problems: list[str] = []
    for raw in args:
        path = Path(raw)
        if not path.exists():
            print(f"error: no such file {raw!r}", file=sys.stderr)
            return 2
        problems.extend(lint_file(path))
    for message in problems:
        print(message, file=sys.stderr)
    if problems:
        print(f"{len(problems)} smoke-lint violation(s)", file=sys.stderr)
        return 1
    print("smoke-lint: kill-window discipline ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
