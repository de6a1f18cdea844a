"""VEC rules: vectorization-contract lint for the batched kernels.

The performance contract of the simulation kernels is that every module
of the kernel packages (``sim``, ``predictors``, ``utils``) does its
per-trace work in whole-array numpy operations; the few sequential loops
that remain (stepped reference paths, hysteresis replays whose stored
value is an address) iterate over plain Python lists (``.tolist()``).
Two regressions are easy to introduce and invisible to the test suite
(which checks answers, not complexity):

* a per-element Python ``for`` loop creeping back over ndarray state
  (VEC001): each ``arr[i]`` read/write costs a numpy scalar box (~1µs),
  so one stray loop quietly erases a 10x kernel win while every test
  stays green;
* a narrowing store into a bit-packed column (VEC002): writing an
  int64 value into an int8/int16/int32 column truncates silently —
  numpy raises nothing — corrupting packed history keys only for
  traces long enough to exercise the high bits.

Dtype inference is shared with the NPW rules (:mod:`.bitwidth`):
function-local, from array constructors with ``dtype=`` and
``.astype`` calls. Sanctioned scalar reference paths iterate over
``.tolist()`` materialisations, which the inference deliberately does
not track — so only loops over live ndarray state are flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, ModuleInfo, register_rule
from repro.analysis.rules._shared import ImportMap, dotted_call_name
from repro.analysis.rules.bitwidth import (
    _NARROW_INT,
    _WIDE_INT,
    _BitwidthRule,
    _DtypeScope,
    _scope_nodes,
)


def _loop_var_names(target: ast.expr) -> set[str]:
    """Names bound by a ``for`` target (handles tuple unpacking)."""
    return {
        node.id
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _mentions_any(node: ast.expr, names: set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node)
    )


def _scalar_index(index: ast.expr, loop_vars: set[str]) -> bool:
    """Whether a subscript index selects one element per iteration.

    ``arr[i]`` / ``arr[i + 1, 2]`` with ``i`` a loop variable is
    per-element work. An index containing a slice (``arr[:, k]``) or a
    name from outside the loop (``arr[mask, k]`` — typically a whole
    column or boolean mask) does batched work per iteration and is a
    legitimate loop-over-lags/chunks shape, not a scalar loop.
    """
    for sub in ast.walk(index):
        if isinstance(sub, ast.Slice):
            return False
        if isinstance(sub, ast.Name) and sub.id not in loop_vars:
            return False
    return True


@register_rule
class PerElementLoop(_BitwidthRule):
    id = "VEC001"
    title = "per-element Python loop over ndarray state"
    rationale = (
        "The kernel packages promise whole-array updates; a Python loop "
        "doing per-element arr[i] reads/writes costs a numpy scalar box "
        "each iteration and silently erases the batched kernel's win. "
        "Batch the update, or iterate over .tolist() where a sequential "
        "loop is unavoidable."
    )
    scope = ("sim", "predictors", "utils")

    def check_scope(
        self,
        module: ModuleInfo,
        qualname: str,
        scope: ast.AST,
        dtypes: _DtypeScope,
        imports: ImportMap,
    ) -> Iterator[Finding]:
        for node in _scope_nodes(scope):
            if not isinstance(node, ast.For):
                continue
            # Direct element iteration: ``for x in ndarray``.
            if dtypes.dtype_of(node.iter) is not None:
                yield self._finding(
                    module, qualname, node,
                    "iterates over a numpy array element by element",
                )
                continue
            # Counted loop indexing into ndarray state per iteration.
            if not self._is_counted(node.iter):
                continue
            loop_vars = _loop_var_names(node.target)
            hit = self._indexed_subscript(node, loop_vars, dtypes)
            if hit is not None:
                yield self._finding(
                    module, qualname, node,
                    "indexes ndarray state per iteration "
                    f"(line {hit.lineno})",
                )

    @staticmethod
    def _is_counted(iter_expr: ast.expr) -> bool:
        if not isinstance(iter_expr, ast.Call):
            return False
        dotted = dotted_call_name(iter_expr.func)
        return dotted in ("range", "enumerate")

    @staticmethod
    def _indexed_subscript(
        loop: ast.For, loop_vars: set[str], dtypes: _DtypeScope
    ) -> ast.Subscript | None:
        for stmt in loop.body:
            subscripts = [
                sub for sub in ast.walk(stmt)
                if isinstance(sub, ast.Subscript)
            ]
            # In a chain like arr[k][mask], only the outermost subscript
            # describes what one iteration actually selects.
            chained = {id(sub.value) for sub in subscripts}
            for sub in subscripts:
                if (
                    id(sub) not in chained
                    and dtypes.dtype_of(sub.value) is not None
                    and _mentions_any(sub.slice, loop_vars)
                    and _scalar_index(sub.slice, loop_vars)
                ):
                    return sub
        return None

    def _finding(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.For,
        detail: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"per-element Python loop {detail} in a kernel "
                "module; batch the update or iterate over .tolist() "
                "where the loop is sequential"
            ),
            symbol=qualname,
        )


@register_rule
class NarrowingColumnStore(_BitwidthRule):
    id = "VEC002"
    title = "64-bit value stored into a narrow bit-packed column"
    rationale = (
        "numpy subscript assignment casts silently: storing an int64 "
        "expression into an int8/int16/int32 column drops the high "
        "bits with no error, corrupting packed keys only on traces "
        "long enough to reach them. Widen the column to int64 or mask "
        "the value explicitly before the store."
    )

    def check_scope(
        self,
        module: ModuleInfo,
        qualname: str,
        scope: ast.AST,
        dtypes: _DtypeScope,
        imports: ImportMap,
    ) -> Iterator[Finding]:
        for node in _scope_nodes(scope):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AugAssign):
                target, value = node.target, node.value
            if not isinstance(target, ast.Subscript):
                continue
            assert value is not None
            column_dtype = dtypes.dtype_of(target.value)
            value_dtype = dtypes.dtype_of(value)
            if column_dtype in _NARROW_INT and value_dtype in _WIDE_INT:
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"stores a {value_dtype} value into a "
                        f"{column_dtype} column; numpy truncates "
                        "silently — widen the column to int64 or mask "
                        "explicitly before the store"
                    ),
                    symbol=qualname,
                )
