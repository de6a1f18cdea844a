"""FS rules: atomic-write discipline for on-disk stores.

Every durable artifact the engine shares between processes — checkpoint
records and trace-cache entries — must be published with one of
exactly two idioms:

* **tmp + replace**: write a pid-unique *sibling* temp file, then
  ``os.replace`` it over the destination (atomic on POSIX, same
  filesystem by construction when the temp is a sibling);
* **O_EXCL create**: ``open(path, "x")`` for claim-style files where
  exactly one creator must win.

A bare ``open(path, "w")``/``write_text`` on a shared path is a torn
read waiting to happen: any concurrent reader can observe a truncated
or half-written file. The FS rules check the discipline
flow-sensitively — a path variable's provenance (shared root, sibling
temp, unknown) is tracked through assignments, ``with`` bindings,
branches and loops via the CFG/dataflow engine, and helper effects
(``fsync_write_text``) come from project call summaries.

* **FS001** — direct overwrite-mode write to a shared path.
* **FS002** — ``os.replace`` publication whose temp content was never
  fsynced (durability-critical modules only): after a crash+power cut
  the rename can survive while the data does not, publishing an empty
  record.
* **FS004** — ``os.replace`` onto a shared path whose source is not a
  pid-unique sibling temp (cross-filesystem rename, or concurrent
  writers truncating each other's temp).
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.analysis.cfg import CFG, CFGNode, build_cfg, function_defs
from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    register_rule,
)
from repro.analysis.dataflow import (
    Analysis,
    State,
    SummaryMap,
    expr_is_shared,
    run_forward,
    summarize_paths,
)
from repro.analysis.rules._shared import dotted_call_name

# Abstract tags a path variable can carry.
SHARED = "shared"  #: under a shared store root
TMP = "tmp"  #: sibling temp derived from a shared path
TMP_NOPID = "tmp-nopid"  #: sibling temp whose name is not pid-unique
WRITTEN = "written"  #: file content written through this path
SYNCED = "synced"  #: os.fsync'd after the write

#: Writer calls that truncate/overwrite their target.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_NUMPY_WRITERS = frozenset({"save", "savez", "savez_compressed"})


def _mode_of(call: ast.Call) -> str | None:
    """The literal mode of an ``open(...)`` call (None when dynamic)."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _tmpish_name(arg: ast.expr) -> tuple[bool, bool]:
    """(is_tmp_name, is_pid_unique) for a ``with_name`` argument."""
    texts: list[str] = []
    has_pid = False
    for node in ast.walk(arg):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            texts.append(node.value)
        if isinstance(node, ast.Attribute) and node.attr == "getpid":
            has_pid = True
        if isinstance(node, ast.Name) and node.id == "getpid":
            has_pid = True
    joined = "".join(texts)
    is_tmp = joined.startswith(".") or ".tmp" in joined or "tmp-" in joined
    return is_tmp, has_pid


def own_exprs(node: CFGNode) -> list[ast.expr]:
    """The expressions evaluated *at* this CFG node (no nested bodies)."""
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == "cond":
        return [node.expr] if node.expr is not None else []
    if node.kind == "for" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.expr] = []
        for item in stmt.items:
            out.append(item.context_expr)
        return out
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(
        stmt,
        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
    ):
        return []
    # Simple statements: every expression they contain is their own.
    return [
        child for child in ast.walk(stmt) if isinstance(child, ast.expr)
    ]


def node_calls(node: CFGNode) -> list[ast.Call]:
    """Every call evaluated at this node, in source order."""
    calls: list[ast.Call] = []
    seen: set[int] = set()
    for expr in own_exprs(node):
        for child in ast.walk(expr):
            if isinstance(child, ast.Call) and id(child) not in seen:
                seen.add(id(child))
                calls.append(child)
    return calls


class PathFlow(Analysis):
    """Tracks path provenance + write/sync status through one function."""

    def __init__(self, summaries: SummaryMap) -> None:
        self.summaries = summaries

    # -- expression kinds ---------------------------------------------

    def kind_of(self, expr: ast.expr, state: State) -> frozenset[str]:
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.Call):
            dotted = dotted_call_name(expr.func)
            if dotted is not None:
                name = dotted.rpartition(".")[2]
                if self.summaries.is_producer(name):
                    return frozenset({SHARED})
                if name in ("with_name", "with_suffix") and isinstance(
                    expr.func, ast.Attribute
                ):
                    base = self.kind_of(expr.func.value, state)
                    if SHARED in base or TMP in base:
                        if not expr.args:
                            return base
                        is_tmp, has_pid = _tmpish_name(expr.args[0])
                        if is_tmp:
                            tags = {TMP}
                            if not has_pid:
                                tags.add(TMP_NOPID)
                            return frozenset(tags)
                        return frozenset({SHARED})
            return frozenset()
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
            left = self.kind_of(expr.left, state)
            if SHARED in left:
                return frozenset({SHARED})
            return frozenset()
        if isinstance(expr, ast.Attribute):
            if expr.attr == "directory":
                return frozenset({SHARED})
            if expr.attr == "parent":
                return self.kind_of(expr.value, state)
        if expr_is_shared(expr, self.summaries):
            return frozenset({SHARED})
        return frozenset()

    # -- transfer -----------------------------------------------------

    def transfer(self, node_index: int, cfg: CFG, state: State) -> State:
        node = cfg.nodes[node_index]
        stmt = node.stmt
        if stmt is None:
            return state
        new: State = dict(state)

        def add_tags(name: str, tags: set[str]) -> None:
            new[name] = new.get(name, frozenset()) | frozenset(tags)

        def path_var_of_handle(handle: str) -> str | None:
            for tag in new.get(handle, frozenset()):
                if tag.startswith("handleof:"):
                    return tag.split(":", 1)[1]
            return None

        # ``with open(p, mode) as h`` binds a handle.
        if node.kind == "with" and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            for item in stmt.items:
                self._bind_handle(
                    item.optional_vars, item.context_expr, new
                )
        # Assignments: strong update for single-name targets.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if not self._bind_handle(target, stmt.value, new):
                    new[target.id] = self.kind_of(stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                new[stmt.target.id] = self.kind_of(stmt.value, state)

        for call in node_calls(node):
            dotted = dotted_call_name(call.func)
            if dotted is None:
                continue
            name = dotted.rpartition(".")[2]
            receiver = (
                call.func.value
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if name in _WRITE_METHODS and isinstance(receiver, ast.Name):
                add_tags(receiver.id, {WRITTEN})
            elif name == "write" and isinstance(receiver, ast.Name):
                path_var = path_var_of_handle(receiver.id)
                if path_var is not None:
                    add_tags(path_var, {WRITTEN})
            elif name == "dump" and len(call.args) >= 2:
                sink = call.args[1]
                if isinstance(sink, ast.Name):
                    path_var = path_var_of_handle(sink.id)
                    if path_var is not None:
                        add_tags(path_var, {WRITTEN})
            elif name == "fsync":
                self._apply_fsync(call, new, path_var_of_handle)
            else:
                summary = self.summaries.get(name)
                if summary is not None:
                    for position, arg in enumerate(call.args):
                        if not isinstance(arg, ast.Name):
                            continue
                        if position in summary.writes_params:
                            add_tags(arg.id, {WRITTEN})
                        if position in summary.syncs_params:
                            add_tags(arg.id, {SYNCED})
        return new

    def _bind_handle(
        self, target: ast.expr | None, value: ast.expr, state: State
    ) -> bool:
        """Record ``h -> handleof:p`` for ``h = open(p, ...)``."""
        if not isinstance(target, ast.Name):
            return False
        if (
            isinstance(value, ast.Call)
            and dotted_call_name(value.func) == "open"
            and value.args
            and isinstance(value.args[0], ast.Name)
        ):
            state[target.id] = frozenset(
                {f"handleof:{value.args[0].id}"}
            )
            return True
        return False

    @staticmethod
    def _apply_fsync(
        call: ast.Call,
        state: State,
        path_var_of_handle: Callable[[str], str | None],
    ) -> None:
        if not call.args:
            return
        arg = call.args[0]
        target: str | None = None
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "fileno"
            and isinstance(arg.func.value, ast.Name)
        ):
            target = path_var_of_handle(arg.func.value.id)
        elif isinstance(arg, ast.Name):
            target = path_var_of_handle(arg.id) or arg.id
        if target is not None:
            state[target] = state.get(target, frozenset()) | frozenset(
                {SYNCED}
            )


def _is_os_replace(call: ast.Call) -> bool:
    dotted = dotted_call_name(call.func)
    return dotted in ("os.replace", "replace")


def analyses_for_module(
    module: ModuleInfo, summaries: SummaryMap
) -> Iterator[tuple[str, CFG, PathFlow, list[State]]]:
    """(qualname, cfg, analysis, per-node IN states) for each function."""
    for qualname, fn in function_defs(module.tree):
        cfg = build_cfg(fn)
        analysis = PathFlow(summaries)
        states = run_forward(cfg, analysis)
        yield qualname, cfg, analysis, states


class _FSRule(Rule):
    """Shared driver: run the path-flow analysis, dispatch to check()."""

    scope = ("evalx", "synth")

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = summarize_paths(project)
        for module in project.modules:
            if not self.applies_to(module):
                continue
            for qualname, cfg, analysis, states in analyses_for_module(
                module, summaries
            ):
                for node in cfg.nodes:
                    if node.stmt is None:
                        continue
                    yield from self.check_node(
                        module,
                        qualname,
                        cfg,
                        analysis,
                        node,
                        states[node.index],
                    )

    def check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        cfg: CFG,
        analysis: PathFlow,
        node: CFGNode,
        state: State,
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=qualname,
        )


@register_rule
class NonAtomicSharedWrite(_FSRule):
    id = "FS001"
    title = "overwrite-mode write to a shared store path"
    rationale = (
        "Shared-directory artifacts (checkpoint records, trace-cache "
        "entries) are read concurrently by other processes; "
        "open(path, 'w')/write_text on the destination lets readers "
        "observe truncated or half-written files. Publish via a "
        "pid-unique sibling temp + os.replace, or open(path, 'x') for "
        "claim files."
    )

    def check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        cfg: CFG,
        analysis: PathFlow,
        node: CFGNode,
        state: State,
    ) -> Iterator[Finding]:
        for call in node_calls(node):
            dotted = dotted_call_name(call.func)
            if dotted is None:
                continue
            name = dotted.rpartition(".")[2]
            target: ast.expr | None = None
            how = ""
            if dotted in ("open", "io.open"):
                mode = _mode_of(call)
                if mode is None or "w" not in mode:
                    continue
                if call.args:
                    target = call.args[0]
                how = f"open(..., {mode!r})"
            elif name in _WRITE_METHODS and isinstance(
                call.func, ast.Attribute
            ):
                target = call.func.value
                how = f".{name}(...)"
            elif (
                name in _NUMPY_WRITERS
                and dotted.startswith(("np.", "numpy."))
                and call.args
            ):
                target = call.args[0]
                how = f"{name}(...)"
            if target is None:
                continue
            kinds = analysis.kind_of(target, state)
            if SHARED in kinds and TMP not in kinds:
                yield self._finding(
                    module,
                    qualname,
                    call,
                    f"{how} overwrites a shared store path in place; "
                    "concurrent readers can observe a torn file — write "
                    "a pid-unique sibling temp and os.replace it, or "
                    "use open(path, 'x') for claim files",
                )


@register_rule
class ReplaceWithoutFsync(_FSRule):
    id = "FS002"
    title = "os.replace publication without fsync on the temp"
    rationale = (
        "The rename can be durable while the temp's data blocks are "
        "not: after a crash + power loss the store can hold a "
        "zero-length or partial record under a committed name. "
        "Durability-critical records (the checkpoint store) must "
        "flush+fsync the temp before os.replace."
    )
    #: Only the module whose records are durable state; the trace
    #: cache (checksummed, regenerated on damage) is exempt.
    scope = ("evalx.checkpoint",)

    def check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        cfg: CFG,
        analysis: PathFlow,
        node: CFGNode,
        state: State,
    ) -> Iterator[Finding]:
        for call in node_calls(node):
            if not _is_os_replace(call) or len(call.args) < 2:
                continue
            src, dst = call.args[0], call.args[1]
            if SHARED not in analysis.kind_of(dst, state):
                continue
            if not isinstance(src, ast.Name):
                continue
            tags = state.get(src.id, frozenset())
            if WRITTEN in tags and SYNCED not in tags:
                yield self._finding(
                    module,
                    qualname,
                    call,
                    f"temp file {src.id!r} is os.replace'd into a "
                    "durable record without fsync; a crash can publish "
                    "an empty/partial file under a committed name — "
                    "flush and os.fsync the handle before the rename "
                    "(see repro.utils.fsio)",
                )


@register_rule
class UnsafeReplaceSource(_FSRule):
    id = "FS004"
    title = "os.replace source is not a pid-unique sibling temp"
    rationale = (
        "os.replace is only atomic within one filesystem, and a temp "
        "name shared by concurrent writers lets them truncate each "
        "other mid-publication. Derive the temp from the destination "
        "(path.with_name) and embed os.getpid() in its name."
    )

    def check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        cfg: CFG,
        analysis: PathFlow,
        node: CFGNode,
        state: State,
    ) -> Iterator[Finding]:
        for call in node_calls(node):
            if not _is_os_replace(call) or len(call.args) < 2:
                continue
            src, dst = call.args[0], call.args[1]
            if SHARED not in analysis.kind_of(dst, state):
                continue
            src_kinds = analysis.kind_of(src, state)
            if TMP not in src_kinds:
                yield self._finding(
                    module,
                    qualname,
                    call,
                    "os.replace onto a shared path from a source that "
                    "is not a sibling temp of the destination; a "
                    "cross-filesystem rename is not atomic — derive "
                    "the temp via dst.with_name('.<name>.tmp-<pid>')",
                )
            elif TMP_NOPID in src_kinds:
                yield self._finding(
                    module,
                    qualname,
                    call,
                    "publication temp name is not pid-unique; two "
                    "concurrent writers share the same temp and can "
                    "truncate each other mid-write — embed os.getpid() "
                    "in the temp name",
                )
