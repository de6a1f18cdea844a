"""AST helpers shared by the two rules (CKP003 and VEC001).

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


def walk_scopes(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(qualname, scope_node)`` for the module and each def.

    The module itself comes first with qualname ``"<module>"``. Class
    bodies are traversed for the defs inside them but are not scopes of
    their own (class-level statements execute at import, i.e. in the
    module scope for our purposes).
    """
    yield "<module>", tree

    def visit(node: ast.AST, prefix: str) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
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
    for qualname, scope in walk_scopes(tree):
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
