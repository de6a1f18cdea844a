"""CKP rules: checkpoint-store hygiene.

The checkpoint store (:mod:`repro.evalx.checkpoint`) fingerprints every
cell by canonicalizing its kwargs; a kwarg the canonicalizer rejects
means the cell silently loses crash-safety (it runs but is never
persisted or resumed). CKP001 flags the statically detectable cases at
the ``Cell(...)`` construction site, where the fix is cheapest.

Crash-safety also rests on one publication discipline that
:mod:`repro.utils.fsio` implements once: store files are published with
an fsynced pid-unique sibling temp plus ``os.replace``. And a cell's
result must depend on its kwargs alone, so nothing hands engine state to
workers through the environment. CKP003 flags ``os.replace``/
``os.rename`` outside that module, any ``os.environ`` mutation anywhere
in ``repro`` (that module included), and any in-place write in the two
store modules.
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


#: The one module allowed to rename files into place.
_PUBLISHER = "repro.utils.fsio"

#: Modules that own an on-disk store, where any in-place write is flagged.
_STORE_MODULES = ("repro.evalx.checkpoint", "repro.synth.workloads")

_RENAMES = frozenset({"os.replace", "os.rename"})
_ENV_CALLS = frozenset({"os.putenv", "os.unsetenv"})
_ENV_MUTATORS = frozenset({"pop", "popitem", "setdefault", "update", "clear"})
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_NUMPY_WRITERS = frozenset(
    {"numpy.save", "numpy.savez", "numpy.savez_compressed"}
)
_ENV_MESSAGE = (
    "mutates os.environ; pass what a cell needs through its Cell kwargs, "
    "never through the environment"
)


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of an ``open(path, mode)`` call (None if dynamic)."""
    mode: ast.expr | None = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@register_rule
class PublicationOutsideFsio(Rule):
    id = "CKP003"
    title = "store file renamed outside repro.utils.fsio, or env written"
    rationale = (
        "Checkpoint records and trace-cache entries are read by other "
        "processes and must survive a crash: publish them only with "
        "repro.utils.fsio.publish (fsynced pid-unique sibling temp, then "
        "os.replace). Renames anywhere else, and in-place writes in the "
        "two store modules, bypass that guarantee. A cell's result is a "
        "function of its kwargs alone, so no module writes os.environ: "
        "pool workers would inherit the write, and a caller would see "
        "it outlive the run."
    )
    scope = ("repro",)

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        publisher = module.dotted == _PUBLISHER
        in_store = module.dotted in _STORE_MODULES
        qualnames = enclosing_qualnames(module.tree)
        imports = ImportMap.of(module.tree)

        def resolve(node: ast.expr) -> str | None:
            dotted = dotted_call_name(node)
            return None if dotted is None else resolve_dotted(dotted, imports)

        for node in ast.walk(module.tree):
            message: str | None = None
            if isinstance(node, ast.Subscript):
                if isinstance(node.ctx, (ast.Store, ast.Del)) and (
                    resolve(node.value) == "os.environ"
                ):
                    message = _ENV_MESSAGE
            elif isinstance(node, ast.Call):
                name = resolve(node.func)
                if name is not None:
                    message = self._call_violation(
                        node, name, in_store, publisher
                    )
            else:
                continue
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                    symbol=qualnames.get(id(node), "<module>"),
                )

    @classmethod
    def _call_violation(
        cls, call: ast.Call, name: str, in_store: bool, publisher: bool
    ) -> str | None:
        """Why a call (resolved to ``name``) breaks CKP003, if it does."""
        receiver, _, method = name.rpartition(".")
        if name in _RENAMES and not publisher:
            return (
                f"{name}() publishes a file outside {_PUBLISHER}; use "
                "fsio.publish(path, write)"
            )
        if name in _ENV_CALLS or (
            receiver == "os.environ" and method in _ENV_MUTATORS
        ):
            return _ENV_MESSAGE
        return cls._in_place_write(call, name, method) if in_store else None

    @staticmethod
    def _in_place_write(
        call: ast.Call, name: str, method: str
    ) -> str | None:
        """Why a store-module call writes a file in place, if it does."""
        if method in _WRITE_METHODS and isinstance(call.func, ast.Attribute):
            how = f".{method}(...)"
        elif name in _NUMPY_WRITERS:
            how = f"{name}(...)"
        elif name in ("open", "io.open"):
            mode = _open_mode(call)
            # "x" only ever creates a new file; w/a/+ modify one in place.
            if mode is None or "x" in mode or not set(mode) & set("wa+"):
                return None
            how = f"open(..., {mode!r})"
        else:
            return None
        return (
            f"{how} writes a file in place in a store module; a reader "
            "or a crash can see it torn — publish it with "
            "fsio.publish(path, write)"
        )
