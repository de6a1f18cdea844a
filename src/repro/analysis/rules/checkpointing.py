"""CKP rules: checkpoint-store and chaos-harness hygiene.

The checkpoint store (:mod:`repro.evalx.checkpoint`) fingerprints every
cell by canonicalizing its kwargs; a kwarg the canonicalizer rejects
means the cell silently loses crash-safety (it runs but is never
persisted or resumed). CKP001 flags the statically detectable cases at
the ``Cell(...)`` construction site, where the fix is cheapest.

The fault injector (:mod:`repro.evalx.faults`) is inert unless a plan is
explicitly installed — that guarantee is what lets chaos code ship in
the production scheduler. CKP002 flags any code path that arms the
injector outside the sanctioned opt-ins (the injector module itself and
the ``--inject-faults`` CLI path), where an accidental install would
corrupt real experiment runs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    register_rule,
)
from repro.analysis.rules._shared import (
    ImportMap,
    dotted_call_name,
    enclosing_qualnames,
    resolve_dotted,
)

#: Modules allowed to arm the fault injector: the injector itself and
#: the CLI entry points that implement the explicit ``--inject-faults``
#: opt-in (the experiment CLI and the tuner). Tests live outside the
#: scanned roots.
_FAULT_INSTALL_ALLOWED = (
    "repro.evalx.faults",
    "repro.evalx.__main__",
    "repro.evalx.tune",
)

#: The env var whose presence arms the injector (kept in sync with
#: :data:`repro.evalx.faults.ENV_VAR` by a unit test).
_FAULT_ENV_VAR = "REPRO_FAULTS"


def _unfingerprintable_reason(node: ast.expr) -> str | None:
    """Why a kwargs value expression defeats canonicalization, if it does.

    Mirrors :func:`repro.evalx.checkpoint.canonical_value` statically:
    literals made of None/bool/int/float/str, lists/tuples and str-keyed
    dicts are fine; names, calls and attribute loads are unknowable and
    pass (the runtime check still covers them). Only constructs that can
    *never* canonicalize are flagged.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set (unordered; not JSON-canonical)"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression (not picklable or canonical)"
    if isinstance(node, ast.Lambda):
        return "a lambda (has no stable import path)"
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (bytes, complex)
    ):
        return f"a {type(node.value).__name__} literal (not JSON-canonical)"
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if key is None:
                continue  # ``**spread``: contents unknowable, pass
            if isinstance(key, ast.Constant) and not isinstance(
                key.value, str
            ):
                return (
                    f"a dict with non-str key {key.value!r} "
                    "(fingerprints require str-keyed dicts)"
                )
        for value in node.values:
            reason = _unfingerprintable_reason(value)
            if reason is not None:
                return reason
    if isinstance(node, (ast.List, ast.Tuple)):
        for item in node.elts:
            reason = _unfingerprintable_reason(item)
            if reason is not None:
                return reason
    return None


@register_rule
class UnfingerprintableCellKwargs(Rule):
    id = "CKP001"
    title = "cell kwargs defeat checkpoint fingerprinting"
    rationale = (
        "A Cell whose kwargs cannot be canonicalized still runs, but is "
        "silently excluded from checkpoint/resume — a killed sweep "
        "re-runs it from scratch every time. Keep kwargs to "
        "None/bool/int/float/str, lists/tuples, str-keyed dicts, or "
        "dataclasses of those."
    )
    scope = ("evalx.experiments",)

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        qualnames = enclosing_qualnames(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func)
            if dotted is None or dotted.rpartition(".")[2] != "Cell":
                continue
            kwargs_value = None
            for keyword in node.keywords:
                if keyword.arg == "kwargs":
                    kwargs_value = keyword.value
            if len(node.args) >= 3 and kwargs_value is None:
                kwargs_value = node.args[2]
            if kwargs_value is None:
                continue
            reason = _unfingerprintable_reason(kwargs_value)
            if reason is not None:
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=kwargs_value.lineno,
                    col=kwargs_value.col_offset,
                    message=(
                        f"Cell kwargs contain {reason}; this cell can "
                        "never be checkpointed or resumed"
                    ),
                    symbol=qualnames.get(id(node), "<module>"),
                )


@register_rule
class FaultInjectionWithoutOptIn(Rule):
    id = "CKP002"
    title = "fault injector armed outside the explicit opt-in"
    rationale = (
        "Chaos faults (raise/hang/kill/corrupt) must stay inert unless "
        "the user passed --inject-faults; arming the injector from "
        "library code would sabotage real experiment runs. Only the "
        "injector module and the CLI opt-in path may install a plan."
    )
    scope = None  # the whole tree: an accidental install anywhere is a bug

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if module.dotted in _FAULT_INSTALL_ALLOWED:
            return
        qualnames = enclosing_qualnames(module.tree)
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_call_name(node.func)
                if dotted is None:
                    continue
                resolved = resolve_dotted(dotted, imports)
                if resolved == "repro.evalx.faults.install" or (
                    resolved.endswith(".install")
                    and resolved.startswith("repro.evalx.faults.")
                ):
                    yield Finding(
                        rule=self.id,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            "faults.install() arms the chaos injector; "
                            "only the --inject-faults CLI path may do "
                            "this"
                        ),
                        symbol=qualnames.get(id(node), "<module>"),
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if self._is_fault_env_store(target, imports):
                        yield Finding(
                            rule=self.id,
                            path=module.relpath,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"assigning os.environ[{_FAULT_ENV_VAR!r}]"
                                " arms the chaos injector; only the "
                                "--inject-faults CLI path may do this"
                            ),
                            symbol=qualnames.get(id(node), "<module>"),
                        )

    @staticmethod
    def _is_fault_env_store(target: ast.expr, imports: ImportMap) -> bool:
        """Whether a store target is ``os.environ["REPRO_FAULTS"]``."""
        if not isinstance(target, ast.Subscript):
            return False
        container = dotted_call_name(target.value)
        if container is None:
            return False
        if resolve_dotted(container, imports) != "os.environ":
            return False
        key = target.slice
        return (
            isinstance(key, ast.Constant) and key.value == _FAULT_ENV_VAR
        )
