"""ENV rules: fault/checkpoint env-var handoff ordering.

Pooled runs hand two pieces of state to subprocess workers through the
environment: the fault plan (``REPRO_FAULTS``) and the checkpoint
directory (``REPRO_CHECKPOINT_DIR``). ``ProcessPoolExecutor`` workers
inherit the parent's environment when they are *spawned* — at the first
submit — so both variables must be armed before any submission, stay
untouched while the pool is live, and be restored only after the last
submission. Mutating them mid-fan-out gives different workers different
plans (a nondeterministic sweep), and arming without restoring leaks
the handoff into every later run in the same process.

* **ENV001** — a handoff variable is mutated on a CFG path *between*
  executor submissions (a submit happened before, another is still
  reachable after).
* **ENV002** — a handoff variable is armed with no restore
  (``os.environ.pop`` / reassignment of the saved previous value)
  reachable on any path, outside the modules whose whole job is
  arming the environment (the faults module, the CLI mains, the
  tuner).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.cfg import CFG, CFGNode, build_cfg, function_defs
from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    register_rule,
)
from repro.analysis.dataflow import Analysis, State, run_forward
from repro.analysis.rules._shared import dotted_call_name
from repro.analysis.rules.atomicity import node_calls, own_exprs

#: Canonical handoff keys and the constant names the repo binds them to.
_KEY_ALIASES = {
    "REPRO_FAULTS": "REPRO_FAULTS",
    "REPRO_CHECKPOINT_DIR": "REPRO_CHECKPOINT_DIR",
    "ENV_VAR": "REPRO_FAULTS",
    "_FAULT_ENV_VAR": "REPRO_FAULTS",
    "CHECKPOINT_ENV": "REPRO_CHECKPOINT_DIR",
}

#: Modules whose purpose is arming the environment for child processes
#: (suffix-matched on the dotted name, so fixture trees qualify too).
_ARMING_ALLOWED = (
    "evalx.faults",
    "evalx.__main__",
    "evalx.tune",
)

#: Calls that fan work out to pool workers.
_SUBMIT_NAMES = frozenset({"submit", "execute_cells"})

_SUBMITTED = "<submitted>"
_SAVED = "saved-env"


def _handoff_key(expr: ast.expr) -> str | None:
    """The canonical handoff key an env subscript/argument names."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return _KEY_ALIASES.get(expr.value)
    if isinstance(expr, ast.Name):
        return _KEY_ALIASES.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return _KEY_ALIASES.get(expr.attr)
    return None


def _is_environ(expr: ast.expr) -> bool:
    dotted = dotted_call_name(expr)
    return dotted in ("os.environ", "environ")


def _env_subscript_key(expr: ast.expr) -> str | None:
    """Key of an ``os.environ[<key>]`` subscript, when a handoff key."""
    if isinstance(expr, ast.Subscript) and _is_environ(expr.value):
        return _handoff_key(expr.slice)
    return None


class _EnvOp:
    """One mutation of a handoff variable at one CFG node."""

    def __init__(
        self, node: CFGNode, key: str, anchor: ast.AST, arming: bool
    ) -> None:
        self.node = node
        self.key = key
        self.anchor = anchor
        self.arming = arming


def _env_ops(node: CFGNode, state: State) -> list[_EnvOp]:
    """Handoff mutations performed at this node.

    ``arming`` distinguishes installing a new value from restoring a
    previously saved one: ``os.environ.pop`` and ``del`` are restores,
    as is reassignment of a variable that dataflow-carries the saved
    ``os.environ.get(...)`` snapshot.
    """
    stmt = node.stmt
    ops: list[_EnvOp] = []
    if stmt is None:
        return ops
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            key = _env_subscript_key(target)
            if key is None:
                continue
            restoring = (
                isinstance(stmt.value, ast.Name)
                and _SAVED in state.get(stmt.value.id, frozenset())
            )
            ops.append(_EnvOp(node, key, stmt, arming=not restoring))
    if isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            key = _env_subscript_key(target)
            if key is not None:
                ops.append(_EnvOp(node, key, stmt, arming=False))
    for call in node_calls(node):
        dotted = dotted_call_name(call.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        if not call.args:
            continue
        key = _handoff_key(call.args[0])
        if key is None:
            continue
        if parts[-1] == "pop" and len(parts) >= 2 and _is_environ(
            call.func.value  # type: ignore[union-attr]
        ):
            ops.append(_EnvOp(node, key, call, arming=False))
        elif parts[-1] in ("setdefault", "putenv") and (
            parts[0] == "os" or _is_environ_receiver(call)
        ):
            ops.append(_EnvOp(node, key, call, arming=True))
    return ops


def _is_environ_receiver(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and _is_environ(
        call.func.value
    )


def _is_submit(call: ast.Call) -> bool:
    dotted = dotted_call_name(call.func)
    if dotted is None:
        return False
    return dotted.rpartition(".")[2] in _SUBMIT_NAMES


class _HandoffFlow(Analysis):
    """Tags saved-env snapshots and the first executor submission."""

    def transfer(self, node_index: int, cfg: CFG, state: State) -> State:
        node = cfg.nodes[node_index]
        new: State | None = None
        stmt = node.stmt
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and dotted_call_name(stmt.value.func)
            in ("os.environ.get", "environ.get", "os.getenv", "getenv")
        ):
            new = dict(state)
            new[stmt.targets[0].id] = frozenset({_SAVED})
        if any(_is_submit(call) for call in node_calls(node)):
            new = dict(state) if new is None else new
            new[_SUBMITTED] = frozenset({"yes"})
        return state if new is None else new


def _function_flows(
    module: ModuleInfo,
) -> Iterator[tuple[str, CFG, list[State]]]:
    for qualname, fn in function_defs(module.tree):
        cfg = build_cfg(fn)
        yield qualname, cfg, run_forward(cfg, _HandoffFlow())


class _ENVRule(Rule):
    scope = ("evalx", "synth")

    def _finding(
        self,
        module: ModuleInfo,
        qualname: str,
        anchor: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=getattr(anchor, "lineno", 1),
            col=getattr(anchor, "col_offset", 0),
            message=message,
            symbol=qualname,
        )


@register_rule
class HandoffMutatedMidFanout(_ENVRule):
    id = "ENV001"
    title = "env handoff mutated between executor submissions"
    rationale = (
        "Spawned pool workers snapshot the environment at submission; "
        "changing REPRO_FAULTS/REPRO_CHECKPOINT_DIR after one submit "
        "and before another hands different workers different plans — "
        "a nondeterministic sweep. Arm the handoff once before the "
        "first submit and restore it only after the last."
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for qualname, cfg, states in _function_flows(module):
            submit_nodes = {
                node.index
                for node in cfg.nodes
                if node.stmt is not None
                and any(_is_submit(call) for call in node_calls(node))
            }
            if not submit_nodes:
                continue
            for node in cfg.nodes:
                if node.stmt is None:
                    continue
                state = states[node.index]
                for op in _env_ops(node, state):
                    if "yes" not in state.get(
                        _SUBMITTED, frozenset()
                    ):
                        continue
                    if cfg.reaches(node.index, submit_nodes):
                        yield self._finding(
                            module,
                            qualname,
                            op.anchor,
                            f"{op.key} mutated on a path between "
                            "executor submissions; workers spawned "
                            "after this point see a different handoff "
                            "than earlier ones — move the mutation "
                            "before the first submit or after the "
                            "last",
                        )


@register_rule
class HandoffArmedWithoutRestore(_ENVRule):
    id = "ENV002"
    title = "env handoff armed without a reachable restore"
    rationale = (
        "Arming REPRO_FAULTS/REPRO_CHECKPOINT_DIR without restoring "
        "the previous value leaks the handoff into every subsequent "
        "run in the same process (and its children). Save the prior "
        "value, arm, and restore in a finally block."
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        dotted = module.dotted
        for allowed in _ARMING_ALLOWED:
            if dotted == allowed or dotted.endswith("." + allowed):
                return
        for qualname, cfg, states in _function_flows(module):
            arming: list[_EnvOp] = []
            restores: dict[str, set[int]] = {}
            for node in cfg.nodes:
                if node.stmt is None:
                    continue
                for op in _env_ops(node, states[node.index]):
                    if op.arming:
                        arming.append(op)
                    else:
                        restores.setdefault(op.key, set()).add(
                            node.index
                        )
            for op in arming:
                targets = restores.get(op.key, set())
                if targets and cfg.reaches(op.node.index, targets):
                    continue
                yield self._finding(
                    module,
                    qualname,
                    op.anchor,
                    f"{op.key} armed with no restore on any "
                    "subsequent path; the handoff leaks into later "
                    "runs in this process — snapshot the previous "
                    "value and restore it in a finally block",
                )
