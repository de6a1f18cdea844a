"""CKP003: crash-safe store publication and no environment writes.

Crash-safety rests on one publication discipline that
:mod:`repro.utils.fsio` implements once: store files are published with
an fsynced pid-unique sibling temp plus ``os.replace``. And a cell's
result must depend on its kwargs alone, so nothing hands engine state to
workers through the environment. CKP003 flags ``os.replace``/
``os.rename`` outside that module, any ``os.environ`` mutation anywhere
in ``repro`` (that module included), and any in-place write in the two
store modules.

No test sees these edits: a plain write or an unsynced rename gives the
same bytes until a crash lands mid-write, and the durability tests cover
only the publication sites that exist today.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register_rule
from repro.analysis.rules._shared import (
    ImportMap,
    dotted_call_name,
    enclosing_qualnames,
    resolve_dotted,
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

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
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
                message = self._call_violation(
                    node, resolve(node.func), in_store, publisher
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
        cls,
        call: ast.Call,
        name: str | None,
        in_store: bool,
        publisher: bool,
    ) -> str | None:
        """Why a call breaks CKP003, if it does.

        ``name`` is the call target resolved through the module's
        imports, or None when the target is no dotted name (as in
        ``self.path_for(fp).write_bytes(data)``, whose receiver is a
        call).
        """
        if name in _RENAMES and not publisher:
            return (
                f"{name}() publishes a file outside {_PUBLISHER}; use "
                "fsio.publish(path, write)"
            )
        receiver, _, method = (name or "").rpartition(".")
        if name in _ENV_CALLS or (
            receiver == "os.environ" and method in _ENV_MUTATORS
        ):
            return _ENV_MESSAGE
        return cls._in_place_write(call, name) if in_store else None

    @staticmethod
    def _in_place_write(call: ast.Call, name: str | None) -> str | None:
        """Why a store-module call writes a file in place, if it does.

        A ``.write_text``/``.write_bytes`` call counts whatever its
        receiver is.
        """
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            how = f".{func.attr}(...)"
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
