"""VEC001: vectorization-contract lint for the batched kernels.

The performance contract of the simulation kernels is that every module
of the kernel packages (``sim``, ``predictors``, ``utils``) does its
per-trace work in whole-array numpy operations; the few sequential loops
that remain (stepped reference paths, hysteresis replays whose stored
value is an address) iterate over plain Python lists (``.tolist()``).
A per-element Python ``for`` loop creeping back over ndarray state is
invisible to the test suite, which checks answers, not complexity: each
``arr[i]`` read/write costs a numpy scalar box (~1µs), so one stray loop
quietly erases a 10x kernel win while every test stays green.

Array inference is function-local: a name counts as a numpy array when
it is assigned from a numpy array constructor or an ``.astype`` call in
the same scope. Sanctioned scalar reference paths iterate over
``.tolist()`` materialisations, which the inference deliberately does
not track — so only loops over live ndarray state are flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register_rule
from repro.analysis.rules._shared import (
    ImportMap,
    dotted_call_name,
    resolve_dotted,
    walk_scopes,
)

#: numpy constructors that produce arrays.
_ARRAY_CTORS = frozenset(
    {"zeros", "ones", "empty", "full", "array", "asarray", "arange",
     "fromiter", "zeros_like", "ones_like", "empty_like", "full_like",
     "frombuffer", "fromfile"}
)

#: Array methods whose result is still an array of the receiver's kind.
_ARRAY_PRESERVING = frozenset({"copy", "reshape", "ravel", "flatten", "T"})


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of one scope, without descending into nested defs."""
    stack = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


class _ArrayNames:
    """Which expressions of one scope are numpy arrays."""

    def __init__(self, scope: ast.AST, imports: ImportMap) -> None:
        self.imports = imports
        self.names: set[str] = set()
        # Two passes so chains like a = np.zeros(...); b = a.copy() work
        # regardless of statement order quirks in the walk.
        for _ in range(2):
            for node in _scope_nodes(scope):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self.is_array(node.value)
                ):
                    self.names.add(node.targets[0].id)

    def is_array(self, node: ast.expr) -> bool:
        """Whether the expression is inferred to be a numpy array."""
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr == "astype" and node.args)
                or (
                    func.attr in _ARRAY_PRESERVING
                    and self.is_array(func.value)
                )
            ):
                return True
            dotted = dotted_call_name(func)
            if dotted is None:
                return False
            resolved = resolve_dotted(dotted, self.imports)
            return (
                resolved.startswith("numpy.")
                and resolved.rpartition(".")[2] in _ARRAY_CTORS
            )
        if isinstance(node, ast.BinOp):
            return self.is_array(node.left) or self.is_array(node.right)
        if isinstance(node, ast.Subscript):
            return self.is_array(node.value)
        return False


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
class PerElementLoop(Rule):
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

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        for qualname, scope in walk_scopes(module.tree):
            arrays = _ArrayNames(scope, imports)
            for node in _scope_nodes(scope):
                if not isinstance(node, ast.For):
                    continue
                # Direct element iteration: ``for x in ndarray``.
                if arrays.is_array(node.iter):
                    yield self._finding(
                        module, qualname, node,
                        "iterates over a numpy array element by element",
                    )
                    continue
                # Counted loop indexing into ndarray state per iteration.
                if not self._is_counted(node.iter):
                    continue
                loop_vars = _loop_var_names(node.target)
                hit = self._indexed_subscript(node, loop_vars, arrays)
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
        loop: ast.For, loop_vars: set[str], arrays: _ArrayNames
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
                    and arrays.is_array(sub.value)
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
