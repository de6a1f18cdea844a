"""AST helpers shared by the rule implementations.

These are deliberately *local* inferences: names are resolved through a
module's own import statements and assignments, never by executing
anything. That keeps the analyzer deterministic, fast, and safe to run
on broken working trees — at the cost of missing aliases smuggled
through data structures, which the rules accept as out of scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field


def dotted_call_name(func: ast.expr) -> str | None:
    """Flatten ``a.b.c`` / ``name`` call targets to a dotted string."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class ImportMap:
    """A module's import statements, resolved to dotted names.

    Attributes:
        modules: local alias -> imported module ("np" -> "numpy").
        names: local name -> (module, attr) for ``from m import a [as b]``.
    """

    modules: dict[str, str] = field(default_factory=dict)
    names: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def of(cls, tree: ast.Module) -> ImportMap:
        imports = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        # ``import a.b as c`` binds c -> a.b
                        imports.modules[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds a -> a
                        top = alias.name.split(".")[0]
                        imports.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports: not resolvable here
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports.names[local] = (node.module, alias.name)
        return imports


def resolve_dotted(dotted: str, imports: ImportMap) -> str:
    """Expand a call's dotted name through the module's imports.

    ``np.random.rand`` -> ``numpy.random.rand``; a bare ``time`` imported
    via ``from time import time`` -> ``time.time``. Unresolvable names
    come back unchanged.
    """
    head, _, rest = dotted.partition(".")
    if head in imports.modules:
        base = imports.modules[head]
        return f"{base}.{rest}" if rest else base
    if head in imports.names:
        module, attr = imports.names[head]
        expanded = f"{module}.{attr}"
        return f"{expanded}.{rest}" if rest else expanded
    return dotted


def walk_scopes(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.AST, list[ast.stmt]]]:
    """Yield ``(qualname, scope_node, body)`` for the module and each def.

    The module itself comes first with qualname ``"<module>"``. Class
    bodies are traversed for the defs inside them but are not scopes of
    their own (class-level statements execute at import, i.e. in the
    module scope for our purposes).
    """
    yield "<module>", tree, tree.body

    def visit(node: ast.AST, prefix: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child, child.body
                yield from visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def enclosing_qualnames(tree: ast.Module) -> dict[int, str]:
    """Map ``id(node)`` -> qualname of the def/module enclosing it.

    Each scope claims only its own nodes: descent stops at nested
    function/lambda boundaries, which the inner scope's own entry in
    :func:`walk_scopes` covers.
    """
    table: dict[int, str] = {}
    for qualname, scope, _body in walk_scopes(tree):
        stack = [scope]
        while stack:
            node = stack.pop()
            table[id(node)] = qualname
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue  # owned by the inner scope's walk
                stack.append(child)
    return table


def local_names(scope: ast.AST) -> set[str]:
    """Names bound locally in a function scope (params + stores).

    Over-approximates: any Name stored anywhere in the body counts, plus
    parameters, ``for`` targets and ``with ... as`` targets. Names
    declared ``global`` are excluded.
    """
    names: set[str] = set()
    globals_declared: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            names.add(arg.arg)
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            globals_declared.update(node.names)
    return names - globals_declared


def call_dtype_name(call: ast.Call) -> str | None:
    """Extract the dtype keyword of a call as a plain name, if present."""
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return _dtype_name(keyword.value)
    return None


def _dtype_name(node: ast.expr) -> str | None:
    """Normalise a dtype expression (``np.int32``, ``"int32"``, ``bool``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def dtype_of_astype(call: ast.Call) -> str | None:
    """dtype name of an ``x.astype(...)`` call, or None."""
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "astype"
        and call.args
    ):
        return _dtype_name(call.args[0])
    return None
