"""Per-function control-flow graphs for the flow-sensitive rules.

The statement-local rules (DET/NPW/CKP) get away with ``ast.walk``; the
concurrency rules cannot. Whether an env-var handoff happens before
or between executor submissions, whether a temp file is fsynced on
*every* path into its ``os.replace`` — these are questions about
orderings along paths, so they need a CFG.

The graph is deliberately statement-granular: one :class:`CFGNode` per
simple statement, plus a node for each branch condition, loop header
and ``with`` header, and synthetic entry/exit nodes. Edges out of a
branch carry the condition expression and the polarity of the taken
arm, which is what lets the dataflow engine do path-sensitive
refinement (``if path is None: return`` proves ``path`` is set on the
fall-through edge).

Exception flow is over-approximated the standard way: every statement
inside a ``try`` gets an extra edge to each handler's entry (and to the
``finally`` body, which also flows on to the function exit), so a
may-analysis sees both the completed and the interrupted ordering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Function-like scopes a CFG can be built for.
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class CFGEdge:
    """One directed edge. ``cond``/``polarity`` label branch arms.

    ``cond`` is the branch condition expression (``None`` for
    unconditional edges, loop back edges, and exception edges);
    ``polarity`` says whether this edge is the arm taken when ``cond``
    evaluates truthy.
    """

    dst: int
    cond: ast.expr | None = None
    polarity: bool = True


@dataclass
class CFGNode:
    """One CFG node: a statement, a condition, or a synthetic marker.

    ``kind`` is ``"entry"``/``"exit"`` for the synthetic nodes,
    ``"cond"`` for branch/loop conditions (``stmt`` is the ``If``/
    ``While`` statement, ``expr`` its test), ``"for"`` for loop headers,
    ``"with"`` for ``with`` headers, and ``"stmt"`` for everything else.
    """

    index: int
    kind: str
    stmt: ast.stmt | None = None
    expr: ast.expr | None = None
    edges: list[CFGEdge] = field(default_factory=list)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, fn: FunctionNode) -> None:
        self.fn = fn
        self.nodes: list[CFGNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        builder = _Builder(self)
        last = builder.build_body(fn.body, self.entry)
        self.add_edge(last, self.exit)

    # -- construction primitives --------------------------------------

    def _new(
        self,
        kind: str,
        stmt: ast.stmt | None = None,
        expr: ast.expr | None = None,
    ) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt, expr=expr)
        self.nodes.append(node)
        return node.index

    def add_edge(
        self,
        src: int,
        dst: int,
        cond: ast.expr | None = None,
        polarity: bool = True,
    ) -> None:
        edges = self.nodes[src].edges
        edge = CFGEdge(dst=dst, cond=cond, polarity=polarity)
        if edge not in edges:
            edges.append(edge)

    # -- queries ------------------------------------------------------

    def successors(self, index: int) -> list[CFGEdge]:
        return self.nodes[index].edges

    def statement_nodes(self) -> list[CFGNode]:
        """Every node carrying a real statement (incl. cond/for/with)."""
        return [n for n in self.nodes if n.stmt is not None]

    def reaches(self, src: int, targets: set[int]) -> bool:
        """Whether any node in ``targets`` is forward-reachable from
        ``src`` (following edges out of ``src`` itself)."""
        seen: set[int] = set()
        stack = [edge.dst for edge in self.nodes[src].edges]
        while stack:
            index = stack.pop()
            if index in targets:
                return True
            if index in seen:
                continue
            seen.add(index)
            stack.extend(edge.dst for edge in self.nodes[index].edges)
        return False


@dataclass
class _Frame:
    """Loop / try context the builder threads through nested blocks.

    ``break_to``/``continue_to`` are the current loop's exits;
    ``handlers`` are the entry nodes exceptions may jump to from inside
    the enclosing ``try`` (handler entries plus the finally entry).
    """

    break_to: int | None = None
    continue_to: int | None = None
    handlers: tuple[int, ...] = ()


class _Builder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.frames: list[_Frame] = []

    # A fresh no-op join point (modelled as a synthetic node with no
    # statement) keeps edge bookkeeping simple after branches.
    def _join(self) -> int:
        return self.cfg._new("join")

    def _exception_targets(self) -> tuple[int, ...]:
        for frame in reversed(self.frames):
            if frame.handlers:
                return frame.handlers
        return ()

    def _loop_frame(self) -> _Frame | None:
        for frame in reversed(self.frames):
            if frame.break_to is not None:
                return frame
        return None

    def build_body(self, body: list[ast.stmt], pred: int) -> int:
        """Wire a statement list after ``pred``; returns the tail node.

        The returned node is the fall-through point; statements that
        never fall through (return/raise/break/continue) route their
        flow to the proper target and yield a dead join node, which
        simply ends up unreachable.
        """
        current = pred
        for stmt in body:
            current = self.build_stmt(stmt, current)
        return current

    def build_stmt(self, stmt: ast.stmt, pred: int) -> int:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            cond = cfg._new("cond", stmt=stmt, expr=stmt.test)
            cfg.add_edge(pred, cond)
            self._wire_exceptions(cond)
            join = self._join()
            true_entry = self._join()
            cfg.add_edge(cond, true_entry, cond=stmt.test, polarity=True)
            cfg.add_edge(self.build_body(stmt.body, true_entry), join)
            false_entry = self._join()
            cfg.add_edge(cond, false_entry, cond=stmt.test, polarity=False)
            cfg.add_edge(self.build_body(stmt.orelse, false_entry), join)
            return join

        if isinstance(stmt, ast.While):
            header = cfg._new("cond", stmt=stmt, expr=stmt.test)
            cfg.add_edge(pred, header)
            self._wire_exceptions(header)
            after = self._join()
            body_entry = self._join()
            cfg.add_edge(header, body_entry, cond=stmt.test, polarity=True)
            self.frames.append(_Frame(break_to=after, continue_to=header))
            body_tail = self.build_body(stmt.body, body_entry)
            self.frames.pop()
            cfg.add_edge(body_tail, header)  # back edge
            else_entry = self._join()
            cfg.add_edge(header, else_entry, cond=stmt.test, polarity=False)
            cfg.add_edge(self.build_body(stmt.orelse, else_entry), after)
            return after

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            header = cfg._new("for", stmt=stmt)
            cfg.add_edge(pred, header)
            self._wire_exceptions(header)
            after = self._join()
            body_entry = self._join()
            cfg.add_edge(header, body_entry)  # iteration produced an item
            self.frames.append(_Frame(break_to=after, continue_to=header))
            body_tail = self.build_body(stmt.body, body_entry)
            self.frames.pop()
            cfg.add_edge(body_tail, header)  # back edge
            else_entry = self._join()
            cfg.add_edge(header, else_entry)  # iterator exhausted
            cfg.add_edge(self.build_body(stmt.orelse, else_entry), after)
            return after

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = cfg._new("with", stmt=stmt)
            cfg.add_edge(pred, header)
            self._wire_exceptions(header)
            return self.build_body(stmt.body, header)

        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, pred)

        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = cfg._new("stmt", stmt=stmt)
            cfg.add_edge(pred, node)
            if isinstance(stmt, ast.Raise):
                for target in self._exception_targets():
                    cfg.add_edge(node, target)
            cfg.add_edge(node, cfg.exit)
            return self._join()  # dead fall-through

        if isinstance(stmt, (ast.Break, ast.Continue)):
            node = cfg._new("stmt", stmt=stmt)
            cfg.add_edge(pred, node)
            frame = self._loop_frame()
            if frame is not None:
                target = (
                    frame.break_to
                    if isinstance(stmt, ast.Break)
                    else frame.continue_to
                )
                if target is not None:
                    cfg.add_edge(node, target)
            else:
                cfg.add_edge(node, cfg.exit)  # malformed code; stay safe
            return self._join()  # dead fall-through

        if isinstance(stmt, ast.Match):
            subject = cfg._new("stmt", stmt=stmt)
            cfg.add_edge(pred, subject)
            self._wire_exceptions(subject)
            join = self._join()
            cfg.add_edge(subject, join)  # no case matched
            for case in stmt.cases:
                case_entry = self._join()
                cfg.add_edge(subject, case_entry)
                cfg.add_edge(self.build_body(case.body, case_entry), join)
            return join

        # Nested defs/classes: opaque single nodes (their bodies get
        # their own CFG when a rule asks for one).
        node = cfg._new("stmt", stmt=stmt)
        cfg.add_edge(pred, node)
        self._wire_exceptions(node)
        return node

    def _wire_exceptions(self, node: int) -> None:
        """Statements inside a try may jump to its handlers mid-flight."""
        for target in self._exception_targets():
            self.cfg.add_edge(node, target)

    def _build_try(self, stmt: ast.Try, pred: int) -> int:
        cfg = self.cfg
        after = self._join()
        handler_entries = [self._join() for _ in stmt.handlers]
        final_entry = self._join() if stmt.finalbody else None

        targets = tuple(handler_entries) + (
            (final_entry,) if final_entry is not None else ()
        )
        self.frames.append(_Frame(handlers=targets))
        body_entry = self._join()
        cfg.add_edge(pred, body_entry)
        body_tail = self.build_body(stmt.body, body_entry)
        self.frames.pop()

        else_tail = self.build_body(stmt.orelse, body_tail)
        normal_tails = [else_tail]
        for entry, handler in zip(handler_entries, stmt.handlers):
            normal_tails.append(self.build_body(handler.body, entry))

        if final_entry is not None:
            for tail in normal_tails:
                cfg.add_edge(tail, final_entry)
            final_tail = self.build_body(stmt.finalbody, final_entry)
            cfg.add_edge(final_tail, after)
            # The finally body also runs on the exceptional/return
            # routes, after which the interruption propagates onward.
            cfg.add_edge(final_tail, cfg.exit)
        else:
            for tail in normal_tails:
                cfg.add_edge(tail, after)
        return after


def build_cfg(fn: FunctionNode) -> CFG:
    """Build the CFG of one function definition."""
    return CFG(fn)


def function_defs(tree: ast.Module) -> list[tuple[str, FunctionNode]]:
    """Every function in a module as ``(qualname, node)``, outermost
    first, with the same qualname convention the baseline uses
    (``Class.method``, ``outer.<locals>.inner``)."""
    out: list[tuple[str, FunctionNode]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                out.append((qualname, child))
                visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out
