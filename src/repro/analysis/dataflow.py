"""Forward dataflow over :mod:`repro.analysis.cfg` + call summaries.

Two layers:

* A generic worklist engine (:func:`run_forward`) for *may*-analyses:
  an :class:`Analysis` supplies the initial state, a transfer function
  over one CFG node, a join, and an optional edge refinement hook that
  sees branch conditions with their polarity — the mechanism behind
  "``path`` is set on the fall-through of ``if path is None:
  return``". States must come from a finite lattice (tag sets keyed by
  variable name, in practice), so the fixpoint terminates.

* Project-wide *call summaries* (:func:`summarize_paths`) in the same
  spirit as the purity rules' call-graph BFS: every function in the
  project is summarized once — does it return a shared-directory path,
  does it write its path parameters, does it fsync them — and call
  sites apply the summary by callee name. Two bottom-up passes resolve
  helper-wrapping-helper chains one level deep, which covers the
  repo's actual idioms (``fsync_write_text``, ``path_for`` wrappers)
  without a full SCC solver.

Name resolution is deliberately the same local flavour as the rest of
the analyzer: summaries are keyed by the callee's final dotted segment,
so ``self.store.path_for(...)`` matches the summary of any project
function named ``path_for``. Collisions merge conservatively (union of
effects); the rules accept that imprecision in exchange for never
executing anything.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.analysis.astutil import dotted_call_name
from repro.analysis.cfg import CFG
from repro.analysis.core import Project

#: A dataflow state: variable (or flag) name -> set of abstract tags.
State = dict[str, frozenset[str]]


def join_states(a: State, b: State) -> State:
    """Pointwise union — the may-analysis join."""
    out: State = dict(a)
    for key, tags in b.items():
        existing = out.get(key)
        out[key] = tags if existing is None else existing | tags
    return out


class Analysis:
    """One forward may-analysis: subclass and override the hooks."""

    def initial(self) -> State:
        return {}

    def transfer(self, node_index: int, cfg: CFG, state: State) -> State:
        """Abstract effect of one CFG node (must not mutate ``state``)."""
        return state

    def refine(
        self, cond: ast.expr, polarity: bool, state: State
    ) -> State:
        """Sharpen the state along one branch arm (default: no-op)."""
        return state


def run_forward(
    cfg: CFG, analysis: Analysis, max_passes: int = 64
) -> list[State]:
    """Iterate ``analysis`` to fixpoint; returns each node's IN state.

    ``max_passes`` bounds full sweeps as a safety net against a
    non-monotone transfer; the tag lattices the rules use converge in
    a handful of passes even through nested loops.
    """
    n = len(cfg.nodes)
    in_states: list[State] = [{} for _ in range(n)]
    in_states[cfg.entry] = analysis.initial()
    worklist: list[int] = [cfg.entry]
    visited: set[int] = set()
    seen_passes = 0
    while worklist and seen_passes < max_passes * n:
        seen_passes += 1
        index = worklist.pop(0)
        visited.add(index)
        out = analysis.transfer(index, cfg, in_states[index])
        for edge in cfg.nodes[index].edges:
            moved = out
            if edge.cond is not None:
                moved = analysis.refine(edge.cond, edge.polarity, out)
            merged = join_states(in_states[edge.dst], moved)
            changed = merged != in_states[edge.dst]
            if changed:
                in_states[edge.dst] = merged
            # Successors must be visited at least once even when the
            # join is a no-op (empty states joining empty states), or
            # propagation never leaves the entry node.
            if (changed or edge.dst not in visited) and (
                edge.dst not in worklist
            ):
                worklist.append(edge.dst)
    return in_states


def strip_not(cond: ast.expr) -> tuple[ast.expr, bool]:
    """Peel ``not`` wrappers; returns (inner, flipped) where ``flipped``
    is True when an odd number of negations was removed."""
    flipped = False
    while isinstance(cond, ast.UnaryOp) and isinstance(cond.op, ast.Not):
        cond = cond.operand
        flipped = not flipped
    return cond, flipped


# -- call summaries ---------------------------------------------------

#: Functions whose *name* seeds the shared-path-producer set: these are
#: the repo's actual shared-root constructors (checkpoint store records,
#: the trace cache). Summaries extend the set transitively to wrappers
#: that return one of these.
SEED_PRODUCERS = frozenset({"path_for", "trace_cache_path"})


@dataclass
class PathSummary:
    """What one function does to filesystem paths.

    Attributes:
        returns_shared: The function's return value is a path under a
            shared root (it is itself a producer).
        writes_params: 0-based indices of path parameters the function
            writes file content through.
        syncs_params: Indices of path parameters the function fsyncs
            before returning (the durability half of tmp+replace).
    """

    returns_shared: bool = False
    writes_params: set[int] = field(default_factory=set)
    syncs_params: set[int] = field(default_factory=set)

    def merge(self, other: PathSummary) -> None:
        self.returns_shared = self.returns_shared or other.returns_shared
        self.writes_params |= other.writes_params
        self.syncs_params |= other.syncs_params


class SummaryMap:
    """Project-wide path summaries, keyed by bare function name."""

    def __init__(self) -> None:
        self._by_name: dict[str, PathSummary] = {}

    def get(self, name: str) -> PathSummary | None:
        return self._by_name.get(name)

    def add(self, name: str, summary: PathSummary) -> None:
        existing = self._by_name.get(name)
        if existing is None:
            self._by_name[name] = summary
        else:
            existing.merge(summary)

    def is_producer(self, name: str) -> bool:
        if name in SEED_PRODUCERS:
            return True
        summary = self._by_name.get(name)
        return summary is not None and summary.returns_shared


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def expr_is_shared(expr: ast.expr, summaries: SummaryMap) -> bool:
    """Whether an expression syntactically builds a shared-root path.

    Recognizes calls to producers, ``<x>.directory / ...`` joins, and
    path derivations (``/``, ``with_name``, ``with_suffix``,
    ``.parent``) over a shared base. Variables are *not* resolved here
    — the dataflow rules do that with their environment; this is the
    environment-free core used by both the rules and the summarizer.
    """
    if isinstance(expr, ast.Call):
        # Checked before name flattening so chains whose base is itself
        # a call still resolve: ``path_for(c).with_name("t.tmp")``.
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            "with_name",
            "with_suffix",
        ):
            return expr_is_shared(expr.func.value, summaries)
        dotted = dotted_call_name(expr.func)
        if dotted is not None:
            name = dotted.rpartition(".")[2]
            if summaries.is_producer(name):
                return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return expr_is_shared(expr.left, summaries)
    if isinstance(expr, ast.Attribute):
        if expr.attr in ("directory", "parent"):
            # ``store.directory`` (the shared root itself) or a parent
            # of something already shared.
            if expr.attr == "directory":
                return True
            return expr_is_shared(expr.value, summaries)
    return False


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, summaries: SummaryMap
) -> PathSummary:
    """One function's path summary from a single ordered walk.

    Flow-insensitive on purpose: a summary answers "does this helper
    ever write/sync its parameter", which the callers' flow-sensitive
    analyses then place at the call site's program point.
    """
    summary = PathSummary()
    params = _param_names(fn)
    param_set = set(params)
    #: local var -> the path variable its file handle was opened on.
    handle_of: dict[str, str] = {}

    def note_write(name: str | None) -> None:
        if name in param_set:
            summary.writes_params.add(params.index(name))

    def note_sync(name: str | None) -> None:
        if name in param_set:
            summary.syncs_params.add(params.index(name))

    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if expr_is_shared(node.value, summaries):
                summary.returns_shared = True
        if isinstance(node, (ast.Assign, ast.withitem)):
            # ``h = open(p, ...)`` / ``with open(p, ...) as h``
            value = (
                node.value
                if isinstance(node, ast.Assign)
                else node.context_expr
            )
            target: ast.expr | None
            if isinstance(node, ast.Assign):
                target = node.targets[0] if len(node.targets) == 1 else None
            else:
                target = node.optional_vars
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and dotted_call_name(value.func) == "open"
                and value.args
                and isinstance(value.args[0], ast.Name)
            ):
                handle_of[target.id] = value.args[0].id
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_call_name(node.func)
        if dotted is None:
            continue
        name = dotted.rpartition(".")[2]
        if name in ("write_text", "write_bytes") and isinstance(
            node.func, ast.Attribute
        ):
            base = node.func.value
            if isinstance(base, ast.Name):
                note_write(base.id)
        elif name == "write" and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name):
                note_write(handle_of.get(base.id))
        elif dotted.endswith("os.fsync") or dotted == "fsync":
            if node.args:
                arg = node.args[0]
                # ``os.fsync(h.fileno())`` or ``os.fsync(fd)``
                if (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and arg.func.attr == "fileno"
                    and isinstance(arg.func.value, ast.Name)
                ):
                    note_sync(handle_of.get(arg.func.value.id))
                elif isinstance(arg, ast.Name):
                    note_sync(handle_of.get(arg.id, arg.id))
        else:
            callee = summaries.get(name)
            if callee is not None:
                # Apply the callee's effects to our own parameters.
                for position, arg_node in enumerate(node.args):
                    if not isinstance(arg_node, ast.Name):
                        continue
                    if position in callee.writes_params:
                        note_write(arg_node.id)
                    if position in callee.syncs_params:
                        note_sync(arg_node.id)
    return summary


def summarize_paths(
    project: Project,
    extra_functions: Iterable[
        ast.FunctionDef | ast.AsyncFunctionDef
    ] = (),
) -> SummaryMap:
    """Summaries for every function in the project (plus extras).

    Two passes: the first summarizes leaves, the second re-runs with
    the first pass's map so wrappers inherit callee effects and
    producer-returning wrappers join the producer set.
    """
    functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = list(
        extra_functions
    )
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(node)
    summaries = SummaryMap()
    for _ in range(2):
        fresh = SummaryMap()
        for fn in functions:
            fresh.add(fn.name, _summarize_function(fn, summaries))
        summaries = fresh
    return summaries


#: Type of the per-node visitor some rules use for plain CFG walks.
NodeVisitor = Callable[[int, State], None]
