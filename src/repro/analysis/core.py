"""Analysis framework: findings, rules, parsed modules.

The framework parses every Python file under the scanned roots once into
a :class:`ModuleInfo` (AST + dotted module name) and hands each module
in a rule's scope to that :class:`Rule`. Every rule is a flat AST walk
over one module.

A finding is accepted only through the baseline file (see
:mod:`repro.analysis.baseline`), where each entry carries a
justification and goes stale once its finding stops firing.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path, PurePosixPath


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes:
        rule: Rule id, e.g. ``"VEC001"``.
        path: Posix-style path of the file, relative to the scan root.
        line: 1-based source line of the violation.
        col: 0-based column of the violation.
        message: Human-readable description, including the fix direction.
        symbol: Stable anchor for baseline matching — the enclosing
            function/class qualname, or ``"<module>"``. Baselines match
            on (rule, path, symbol) so entries survive unrelated edits
            that shift line numbers.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str

    def render(self) -> str:
        """One-line text-report form (``path:line:col RULE message``)."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def to_json(self) -> dict:
        """JSON-report form (stable key order via dataclass fields)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class ModuleInfo:
    """One parsed source file.

    Attributes:
        relpath: Posix path relative to the scan root (finding/baseline key).
        dotted: Dotted module name inferred from ``__init__.py`` package
            structure (``"repro.synth.workloads"``), or the bare stem for
            a stray file.
        tree: Parsed AST.
    """

    relpath: str
    dotted: str
    tree: ast.Module

    def segments(self) -> tuple[str, ...]:
        """Dotted-name segments, for sub-package scope matching."""
        return tuple(self.dotted.split("."))


class Rule:
    """Base class for one analysis rule.

    Subclasses set the class attributes and implement
    :meth:`check_module`. ``scope`` restricts a rule to modules whose
    dotted name contains one of the given segment sequences (e.g.
    ``("sim",)`` matches ``repro.sim.functional``); ``None`` scans
    everything.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    scope: tuple[str, ...] | None = None

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether this rule scans the given module (scope filter)."""
        if self.scope is None:
            return True
        segments = module.segments()
        for entry in self.scope:
            want = tuple(entry.split("."))
            if any(
                segments[i : i + len(want)] == want
                for i in range(len(segments) - len(want) + 1)
            ):
                return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for one in-scope module."""
        raise NotImplementedError


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULES[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    _load_rules()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    _load_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_RULES)}"
        ) from None


def _load_rules() -> None:
    """Import the rule modules so their ``@register_rule`` decorators run."""
    from repro.analysis import rules  # noqa: F401  (import for side effect)


def _dotted_name(path: Path) -> str:
    """Infer a dotted module name by walking up through ``__init__.py``s."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def load_module(path: Path, root: Path) -> ModuleInfo | None:
    """Parse one file into a :class:`ModuleInfo`; None on syntax errors.

    Unparseable files are skipped rather than fatal: the analyzer runs in
    CI next to the test suite, which reports syntax errors far better.
    """
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    try:
        relpath = str(PurePosixPath(path.relative_to(root).as_posix()))
    except ValueError:
        relpath = path.as_posix()
    return ModuleInfo(relpath=relpath, dotted=_dotted_name(path), tree=tree)


def load_modules(paths: Sequence[Path], root: Path) -> list[ModuleInfo]:
    """Parse every ``.py`` file under ``paths``, each file once."""
    modules: list[ModuleInfo] = []
    seen: set[Path] = set()
    for entry in paths:
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            module = load_module(file, root)
            if module is not None:
                modules.append(module)
    return modules


def run_analysis(
    paths: Sequence[Path],
    root: Path,
    rule_ids: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the selected rules over the given paths.

    Returns every finding, sorted by location. Baseline filtering is the
    caller's concern (the CLI applies it after this, so library users
    can see everything).
    """
    modules = load_modules(paths, root)
    rules = (
        all_rules()
        if rule_ids is None
        else [get_rule(rule_id) for rule_id in rule_ids]
    )
    findings = [
        finding
        for rule in rules
        for module in modules
        if rule.applies_to(module)
        for finding in rule.check_module(module)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
