"""Synthetic program generation.

Builds a :class:`repro.cfg.graph.ProgramCFG` from a benchmark profile: a
layered call DAG of functions, each function a CFG assembled from structural
constructs (if / if-else / loop / call / switch / indirect call / straight
code), every decision point carrying a behaviour model from
:mod:`repro.synth.behavior`.

``main`` is a driver that calls each first-level hot function in turn and
returns; the executor re-enters ``main`` when it returns, so a program can
produce traces of any length. Cold functions are generated but never called,
reproducing the paper's gap between static tasks and distinct tasks seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from repro.cfg.basicblock import BasicBlock, Terminator, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, ProgramCFG
from repro.synth.behavior import (
    BiasedChoice,
    ChoiceBehavior,
    DepthGuardChoice,
    HistoryParityChoice,
    LoopBehavior,
    PathCorrelatedChoice,
    PeriodicChoice,
    PhaseChoice,
    TaskWindowChoice,
)
from repro.synth.profiles import BenchmarkProfile
from repro.utils.rng import DeterministicRng

_CONSTRUCTS = (
    "if", "ifelse", "loop", "call", "switch", "icall", "straight",
)
_BRANCH_BEHAVIORS = ("biased", "periodic", "history", "pathcorr")

# Module-level names for the kinds of the terminators built once per
# block: reading a member off the enum class costs several times more.
_JUMP = TerminatorKind.JUMP
_COND_BRANCH = TerminatorKind.COND_BRANCH
_CALL = TerminatorKind.CALL
_RETURN = TerminatorKind.RETURN
_INDIRECT_JUMP = TerminatorKind.INDIRECT_JUMP
_INDIRECT_CALL = TerminatorKind.INDIRECT_CALL


@dataclass
class _FunctionPlan:
    """What the generator decided about one function before building it."""

    name: str
    level: int
    is_cold: bool
    callees: tuple[str, ...]  # functions this one may call
    recursive: bool


class SyntheticProgramGenerator:
    """Generates a whole program CFG from a :class:`BenchmarkProfile`."""

    def __init__(self, profile: BenchmarkProfile) -> None:
        self._profile = profile
        self._rng = DeterministicRng(profile.seed).fork("generator")

    def generate(self) -> ProgramCFG:
        """Build the program CFG; ``compile_program`` validates it."""
        plans = self._plan_functions()
        program = ProgramCFG(main="main")
        program.add_function(self._build_main(plans))
        for plan in plans:
            builder = _FunctionBuilder(
                plan,
                self._profile,
                self._rng.fork(f"fn:{plan.name}"),
                depth_scale=0.55 ** (plan.level - 1),
            )
            program.add_function(builder.build())
        return program

    def _plan_functions(self) -> list[_FunctionPlan]:
        """Lay hot functions out on call levels; cold functions call nothing."""
        profile = self._profile
        plans: list[_FunctionPlan] = []
        names_by_level: dict[int, list[str]] = {
            level: [] for level in range(1, profile.call_levels + 1)
        }
        for index in range(profile.n_hot_functions):
            # Spread functions across levels, denser near the leaves, the way
            # real call graphs fan out.
            level = 1 + min(
                profile.call_levels - 1,
                int(
                    (index / max(1, profile.n_hot_functions))
                    * profile.call_levels
                ),
            )
            names_by_level[level].append(f"f{index}")
        callee_sets: dict[str, list[str]] = {}
        for level in range(1, profile.call_levels + 1):
            deeper: list[str] = []
            for other in range(level + 1, profile.call_levels + 1):
                deeper.extend(names_by_level[other])
            for name in names_by_level[level]:
                callee_sets[name] = list(self._pick_callees(deeper))
        self._ensure_coverage(names_by_level, callee_sets)
        for level in range(1, profile.call_levels + 1):
            for name in names_by_level[level]:
                recursive = (
                    profile.recursion_depth > 0
                    and self._rng.uniform() < 0.5
                )
                plans.append(
                    _FunctionPlan(
                        name=name,
                        level=level,
                        is_cold=False,
                        callees=tuple(callee_sets[name]),
                        recursive=recursive,
                    )
                )
        for index in range(profile.n_cold_functions):
            plans.append(
                _FunctionPlan(
                    name=f"cold{index}",
                    level=1 + index % profile.call_levels,
                    is_cold=True,
                    callees=(),
                    recursive=False,
                )
            )
        return plans

    def _ensure_coverage(
        self,
        names_by_level: dict[int, list[str]],
        callee_sets: dict[str, list[str]],
    ) -> None:
        """Guarantee every hot function below level 1 has at least one caller.

        Without this, random callee selection strands a fraction of the hot
        functions, collapsing the dynamic task working set.
        """
        called = {
            callee for callees in callee_sets.values() for callee in callees
        }
        for level in sorted(names_by_level):
            if level == 1:
                continue
            shallower: list[str] = []
            for other in range(1, level):
                shallower.extend(names_by_level[other])
            if not shallower:
                continue
            for name in names_by_level[level]:
                if name not in called:
                    caller = self._rng.choice(shallower)
                    callee_sets[caller].append(name)
                    called.add(name)

    def _pick_callees(self, candidates: list[str]) -> tuple[str, ...]:
        """Choose up to 4 distinct callees from deeper levels."""
        if not candidates:
            return ()
        count = min(len(candidates), self._rng.randint(1, 4))
        picked: list[str] = []
        pool = list(candidates)
        for _ in range(count):
            choice = self._rng.choice(pool)
            pool.remove(choice)
            picked.append(choice)
        return tuple(picked)

    def _build_main(self, plans: list[_FunctionPlan]) -> ControlFlowGraph:
        """Main calls every level-1 hot function in sequence, then returns."""
        cfg = ControlFlowGraph("main", entry_label="main.entry")
        level1 = [p.name for p in plans if p.level == 1 and not p.is_cold]
        if not level1:
            level1 = [p.name for p in plans if not p.is_cold][:1]
        labels = [f"main.call{i}" for i in range(len(level1))]
        ret_label = "main.ret"
        first = labels[0] if labels else ret_label
        entry = BasicBlock(
            label="main.entry",
            terminator=Terminator(
                kind=_JUMP, successors=(first,)
            ),
            instruction_count=self._rng.randint(
                *self._profile.block_instructions
            ),
        )
        cfg.add_block(entry)
        for index, callee in enumerate(level1):
            next_label = (
                labels[index + 1] if index + 1 < len(labels) else ret_label
            )
            cfg.add_block(
                BasicBlock(
                    label=labels[index],
                    terminator=Terminator(
                        kind=_CALL,
                        callee=callee,
                        successors=(next_label,),
                    ),
                    instruction_count=self._rng.randint(
                        *self._profile.block_instructions
                    ),
                )
            )
        cfg.add_block(
            BasicBlock(
                label=ret_label,
                terminator=Terminator(kind=_RETURN),
                instruction_count=1,
            )
        )
        return cfg


class _FunctionBuilder:
    """Builds one function's CFG from sampled constructs.

    Construction works backwards from a continuation label: a sequence of
    constructs is emitted last-to-first, each construct receiving the label
    of what follows it.
    """

    def __init__(
        self,
        plan: _FunctionPlan,
        profile: BenchmarkProfile,
        rng: DeterministicRng,
        depth_scale: float = 1.0,
    ) -> None:
        self._plan = plan
        self._profile = profile
        self._rng = rng
        self._depth_scale = depth_scale
        self._cfg = ControlFlowGraph(
            plan.name, entry_label=f"{plan.name}.entry"
        )
        self._counter = 0
        self._called: set[str] = set()
        # Deeper (leaf-ward) functions are smaller and less loopy, the way
        # real utility functions are; this keeps the dynamic call/return
        # fraction realistic despite loop amplification of branch records.
        construct_weights = [
            profile.w_if, profile.w_ifelse, profile.w_loop * depth_scale,
            profile.w_call if plan.callees else 0.0,
            profile.w_switch, profile.w_icall if plan.callees else 0.0,
            profile.w_straight,
        ]
        if not any(construct_weights):
            construct_weights[-1] = 1.0  # leaf of straight code
        # Each weight table is summed once, not once per draw.
        self._construct_cum_weights = list(accumulate(construct_weights))
        self._branch_cum_weights = list(
            accumulate(
                (
                    profile.w_biased,
                    profile.w_periodic,
                    profile.w_history,
                    profile.w_pathcorr,
                )
            )
        )

    def build(self) -> ControlFlowGraph:
        """Assemble the function: constructs in front of a RETURN block."""
        ret_label = self._new_label("ret")
        self._add_block(
            ret_label, Terminator(kind=_RETURN), size=1
        )
        lo, hi = self._profile.constructs_per_function
        count = max(2, round(self._rng.randint(lo, hi) * self._depth_scale))
        cont = ret_label
        if self._plan.recursive:
            cont = self._emit_recursion(cont)
        body_entry = self._emit_sequence(count, cont, depth=0)
        # Guarantee every planned callee has at least one call site, so the
        # call graph's coverage promise holds at the block level too.
        for callee in self._plan.callees:
            if callee not in self._called:
                label = self._new_label("covcall")
                self._add_block(
                    label,
                    Terminator(
                        kind=_CALL,
                        callee=callee,
                        successors=(body_entry,),
                    ),
                )
                self._called.add(callee)
                body_entry = label
        self._add_block(
            f"{self._plan.name}.entry",
            Terminator(kind=_JUMP, successors=(body_entry,)),
        )
        return self._cfg

    # -- construct emission -------------------------------------------------

    def _emit_sequence(self, count: int, cont: str, depth: int) -> str:
        """Emit ``count`` constructs ending at ``cont``; return the entry."""
        label = cont
        for _ in range(count):
            label = self._emit_construct(label, depth)
        return label

    def _emit_construct(self, cont: str, depth: int) -> str:
        kind = self._rng.weighted_choice(
            _CONSTRUCTS, cum_weights=self._construct_cum_weights
        )
        if depth >= 3:
            # Bound structural nesting. Calls, indirect calls and switches
            # don't nest (their sub-blocks are plain jumps), so they stay
            # available; everything else flattens to straight-line code.
            if kind not in ("call", "icall", "switch"):
                kind = "straight"
        elif depth >= 2 and kind in ("loop", "ifelse"):
            kind = "if"
        emit = getattr(self, f"_emit_{kind}")
        return emit(cont, depth)

    def _emit_if(self, cont: str, depth: int) -> str:
        then_entry = self._emit_sequence(
            self._rng.randint(1, 2), cont, depth + 1
        )
        label = self._new_label("if")
        self._add_block(
            label,
            Terminator(
                kind=_COND_BRANCH,
                successors=(then_entry, cont),
                behavior=self._branch_behavior(),
            ),
        )
        return label

    def _emit_ifelse(self, cont: str, depth: int) -> str:
        then_entry = self._emit_sequence(
            self._rng.randint(1, 2), cont, depth + 1
        )
        else_entry = self._emit_sequence(
            self._rng.randint(1, 2), cont, depth + 1
        )
        label = self._new_label("ife")
        self._add_block(
            label,
            Terminator(
                kind=_COND_BRANCH,
                successors=(then_entry, else_entry),
                behavior=self._branch_behavior(),
            ),
        )
        return label

    def _emit_loop(self, cont: str, depth: int) -> str:
        header = self._new_label("loop")
        body_entry = self._emit_sequence(
            self._rng.randint(1, 3), header, depth + 1
        )
        trips = self._rng.choice(self._profile.trip_count_choices)
        self._add_block(
            header,
            Terminator(
                kind=_COND_BRANCH,
                successors=(body_entry, cont),
                behavior=LoopBehavior(trips),
            ),
        )
        return header

    def _emit_call(self, cont: str, depth: int) -> str:
        label = self._new_label("call")
        callee = self._rng.choice(self._plan.callees)
        self._called.add(callee)
        self._add_block(
            label,
            Terminator(
                kind=_CALL,
                callee=callee,
                successors=(cont,),
            ),
        )
        return label

    def _emit_switch(self, cont: str, depth: int) -> str:
        lo, hi = self._profile.switch_arity
        arity = self._rng.randint(lo, hi)
        cases = []
        for index in range(arity):
            case_label = self._new_label(f"case{index}")
            self._add_block(
                case_label,
                Terminator(kind=_JUMP, successors=(cont,)),
            )
            cases.append(case_label)
        label = self._new_label("switch")
        behavior = self._indirect_behavior(arity)
        self._add_block(
            label,
            Terminator(
                kind=_INDIRECT_JUMP,
                successors=tuple(cases),
                behavior=behavior,
            ),
        )
        return label

    def _emit_icall(self, cont: str, depth: int) -> str:
        callees = self._plan.callees
        if len(callees) < 2:
            return self._emit_call(cont, depth)
        label = self._new_label("icall")
        self._called.update(callees)
        behavior = self._indirect_behavior(len(callees))
        self._add_block(
            label,
            Terminator(
                kind=_INDIRECT_CALL,
                callees=callees,
                successors=(cont,),
                behavior=behavior,
            ),
        )
        return label

    def _emit_straight(self, cont: str, depth: int) -> str:
        label = self._new_label("str")
        self._add_block(
            label, Terminator(kind=_JUMP, successors=(cont,))
        )
        return label

    def _emit_recursion(self, cont: str) -> str:
        """Guarded self-call: while depth allows, call ourselves again."""
        call_label = self._new_label("reccall")
        self._add_block(
            call_label,
            Terminator(
                kind=_CALL,
                callee=self._plan.name,
                successors=(cont,),
            ),
        )
        guard = self._new_label("recguard")
        self._add_block(
            guard,
            Terminator(
                kind=_COND_BRANCH,
                successors=(call_label, cont),
                behavior=DepthGuardChoice(
                    self._profile.recursion_depth,
                    self._profile.recursion_p,
                ),
            ),
        )
        return guard

    # -- helpers -------------------------------------------------------------

    def _branch_behavior(self) -> ChoiceBehavior:
        profile = self._profile
        kind = self._rng.weighted_choice(
            _BRANCH_BEHAVIORS, cum_weights=self._branch_cum_weights
        )
        if kind == "biased":
            return BiasedChoice(self._rng.choice(profile.bias_choices))
        if kind == "periodic":
            return PeriodicChoice(self._rng.choice(profile.periodic_patterns))
        if kind == "pathcorr":
            return PathCorrelatedChoice(
                self._rng.choice(profile.pathcorr_windows),
                noise=profile.pathcorr_noise,
            )
        return HistoryParityChoice(
            self._rng.choice(profile.history_masks),
            noise=profile.history_noise,
        )

    def _indirect_behavior(self, n_choices: int) -> ChoiceBehavior:
        """Behaviour for switches / indirect calls: mostly path-correlated."""
        profile = self._profile
        if self._rng.uniform() < profile.switch_phase_fraction:
            return PhaseChoice(n_choices, noise=profile.switch_noise)
        return TaskWindowChoice(
            n_choices,
            window=self._rng.choice(profile.switch_window_choices),
            noise=profile.switch_noise,
        )

    def _new_label(self, stem: str) -> str:
        self._counter += 1
        return f"{self._plan.name}.{stem}{self._counter}"

    def _add_block(
        self, label: str, terminator: Terminator, size: int | None = None
    ) -> None:
        if size is None:
            size = self._rng.randint(*self._profile.block_instructions)
        # One 16-bit draw per block (a stable cost on the generation
        # stream) seeds both register masks: two registers defined, two
        # used, drawn from the 16 architectural registers.
        salt = self._rng.randint(0, 0xFFFF)
        self._cfg.add_block(
            BasicBlock(
                label=label,
                terminator=terminator,
                instruction_count=size,
                annotations={
                    "defs_mask": (1 << (salt & 15))
                    | (1 << ((salt >> 4) & 15)),
                    "uses_mask": (1 << ((salt >> 8) & 15))
                    | (1 << ((salt >> 12) & 15)),
                },
            )
        )
