"""Deterministic fault injection (chaos) for the experiment engine.

The scheduler's repair paths — retry/backoff, per-cell timeout, worker
crash recovery, keep-going gaps, and checkpoint resume — are worth
nothing if they are only exercised by hand-built unit fixtures. This
module makes them drivable end to end against the real scheduler: a
seeded :class:`FaultPlan` decides up front exactly which cell attempts
misbehave and how, and the plan travels to subprocess workers through an
environment variable so pooled runs misbehave identically to serial
ones.

**Inert by default.** Nothing here fires unless a plan was explicitly
armed — via ``--inject-faults SPEC --fault-seed N`` on the CLI (which
wraps its run in :func:`armed`) or by exporting ``REPRO_FAULTS``
directly. The worker-side hook (:func:`fire`) returns immediately when
the environment variable is unset, and the CKP002 analysis rule flags
any code path that arms a plan outside the CLI opt-in.

Spec grammar — comma-separated clauses::

    SPEC    := CLAUSE ("," CLAUSE)*
    CLAUSE  := ACTION ["(" SECONDS ")"] ["@" GLOB] ["#" COUNT] ["~" ATTEMPT]
    ACTION  := "raise" | "hang" | "kill"
             | "corrupt-checkpoint" | "corrupt-trace"

``GLOB`` is an fnmatch pattern over cell labels (default ``*``);
``COUNT`` is how many matching cells the clause hits (default 1) —
when fewer than the matches, victims are chosen by a deterministic
seeded draw over the *sorted* labels, so the same spec + seed + grid
always picks the same cells regardless of scheduling order; ``ATTEMPT``
is the 1-based attempt the fault fires on (default 1, so retries
succeed), and ``~0`` is the any-attempt wildcard — the fault fires on
*every* attempt, which models a poison cell that no retry can rescue
(``raise@gcc:*~0``).
``SECONDS`` is required for ``hang`` and ignored elsewhere.

Examples::

    kill@gcc:*                    # hard-kill the worker running one gcc cell
    raise@*#2                     # two cells (seeded choice) raise once
    hang(30)@espresso:*           # one espresso cell sleeps past its timeout
    raise@*~2,corrupt-checkpoint@compress

Worker-side actions (``raise``, ``hang``, ``kill``) fire inside
:func:`fire` at the top of the cell runner; store-side actions
(``corrupt-checkpoint``, ``corrupt-trace``) are applied by the parent
scheduler, which corrupts the matching record on disk so checksum
detection and regeneration run for real.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import re
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.utils.fsio import env_handoff

#: A JSON-encoded :class:`FaultPlan` in this variable arms the injector;
#: subprocess pool workers inherit it from the parent's environment.
ENV_VAR = "REPRO_FAULTS"

#: Actions executed inside the worker, at the top of the cell runner.
WORKER_ACTIONS = frozenset({"raise", "hang", "kill"})

#: Actions the parent applies to on-disk records before execution.
STORE_ACTIONS = frozenset({"corrupt-checkpoint", "corrupt-trace"})

#: Exit status of a ``kill``-faulted worker (distinctive in waitpid logs).
KILL_EXIT_STATUS = 41


class FaultSpecError(ReproError):
    """An ``--inject-faults`` spec does not parse."""


class InjectedFault(ReproError):
    """The error a ``raise``-faulted cell attempt throws."""


_CLAUSE_RE = re.compile(
    r"^(?P<action>[a-z][a-z-]*)"
    r"(?:\((?P<seconds>[0-9]*\.?[0-9]+)\))?"
    r"(?:@(?P<glob>[^#~]+))?"
    r"(?:#(?P<count>[0-9]+))?"
    r"(?:~(?P<attempt>[0-9]+))?$"
)


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec."""

    action: str
    glob: str = "*"
    count: int = 1
    attempt: int = 1
    seconds: float = 0.0


def parse_spec(spec: str) -> tuple[FaultClause, ...]:
    """Parse a fault spec into clauses, validating the grammar."""
    clauses = []
    for raw in spec.split(","):
        text = raw.strip()
        if not text:
            continue
        match = _CLAUSE_RE.match(text)
        if match is None:
            raise FaultSpecError(
                f"bad fault clause {text!r}; expected "
                "ACTION[(SECONDS)][@GLOB][#COUNT][~ATTEMPT]"
            )
        action = match.group("action")
        known = WORKER_ACTIONS | STORE_ACTIONS
        if action not in known:
            raise FaultSpecError(
                f"unknown fault action {action!r}; known: {sorted(known)}"
            )
        seconds = match.group("seconds")
        if action == "hang" and seconds is None:
            raise FaultSpecError(
                "hang needs an explicit duration, e.g. hang(30)"
            )
        clauses.append(
            FaultClause(
                action=action,
                glob=match.group("glob") or "*",
                count=int(match.group("count") or 1),
                attempt=int(match.group("attempt") or 1),
                seconds=float(seconds) if seconds else 0.0,
            )
        )
    if not clauses:
        raise FaultSpecError("empty fault spec")
    return tuple(clauses)


@dataclass(frozen=True)
class FaultTrigger:
    """One armed fault: a concrete (cell label, attempt, action)."""

    label: str
    attempt: int
    action: str
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """The full set of armed triggers for one run.

    Built once, parent-side, from the spec + seed + the grid's cell
    labels (:meth:`compile`); serialized into ``REPRO_FAULTS`` so every
    worker sees the identical plan.
    """

    triggers: tuple[FaultTrigger, ...]
    seed: int = 0
    spec: str = ""

    @classmethod
    def compile(
        cls, spec: str, seed: int, labels: list[str] | tuple[str, ...]
    ) -> FaultPlan:
        """Resolve a spec against concrete cell labels, deterministically.

        Victim choice depends only on (spec, seed, sorted labels) —
        never on scheduling or completion order — so a chaos run is
        exactly reproducible.
        """
        distinct = sorted(set(labels))
        triggers: list[FaultTrigger] = []
        for index, clause in enumerate(parse_spec(spec)):
            matches = fnmatch.filter(distinct, clause.glob)
            if len(matches) > clause.count:
                rng = random.Random(f"{seed}:{index}:{clause.action}")
                matches = sorted(rng.sample(matches, clause.count))
            triggers.extend(
                FaultTrigger(
                    label=label,
                    attempt=clause.attempt,
                    action=clause.action,
                    seconds=clause.seconds,
                )
                for label in matches
            )
        return cls(triggers=tuple(triggers), seed=seed, spec=spec)

    def to_json(self) -> str:
        """Env-var wire form."""
        return json.dumps(
            {
                "seed": self.seed,
                "spec": self.spec,
                "triggers": [
                    {
                        "label": t.label,
                        "attempt": t.attempt,
                        "action": t.action,
                        "seconds": t.seconds,
                    }
                    for t in self.triggers
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, raw: str) -> FaultPlan:
        data = json.loads(raw)
        return cls(
            triggers=tuple(
                FaultTrigger(
                    label=t["label"],
                    attempt=int(t["attempt"]),
                    action=t["action"],
                    seconds=float(t.get("seconds", 0.0)),
                )
                for t in data.get("triggers", ())
            ),
            seed=int(data.get("seed", 0)),
            spec=str(data.get("spec", "")),
        )

    def store_triggers(self) -> tuple[FaultTrigger, ...]:
        """The parent-side (record-corrupting) triggers."""
        return tuple(
            t for t in self.triggers if t.action in STORE_ACTIONS
        )


def armed(plan: FaultPlan) -> AbstractContextManager[None]:
    """Arm the injector for a block, and for pool workers spawned in it.

    On exit the previous ``REPRO_FAULTS`` value, or its absence, comes
    back, so a plan never outlives the run that armed it. The only
    in-tree callers are the ``--inject-faults`` CLI paths and tests:
    arming a plan anywhere else defeats the explicit opt-in and is
    flagged by the CKP002 analysis rule.
    """
    return env_handoff(ENV_VAR, plan.to_json())


_plan_cache: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The armed plan, or None when the injector is inert."""
    global _plan_cache
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _plan_cache is None or _plan_cache[0] != raw:
        try:
            _plan_cache = (raw, FaultPlan.from_json(raw))
        except (ValueError, KeyError, TypeError) as exc:
            raise FaultSpecError(f"unparseable {ENV_VAR} value: {exc}")
    return _plan_cache[1]


def fire(label: str, attempt: int) -> None:
    """Worker-side hook: misbehave if this attempt is a planned victim.

    Called at the top of every cell attempt. Inert (one env lookup)
    unless a plan is armed. Store-side actions are not fired here —
    the parent applies those to the records it owns.
    """
    if not os.environ.get(ENV_VAR):
        return
    plan = active_plan()
    if plan is None:
        return
    for trigger in plan.triggers:
        if (
            trigger.label == label
            and trigger.attempt in (0, attempt)
            and trigger.action in WORKER_ACTIONS
        ):
            if trigger.action == "raise":
                raise InjectedFault(
                    f"injected fault: cell {label!r} attempt {attempt}"
                )
            if trigger.action == "hang":
                time.sleep(trigger.seconds)
                return
            if trigger.action == "kill":
                os._exit(KILL_EXIT_STATUS)


def corrupt_file(path: str | Path, flip_bytes: int = 16) -> bool:
    """Deliberately damage an on-disk record (chaos store action).

    Inverts ``flip_bytes`` bytes in the middle of the file — enough to
    defeat any checksum while keeping the length plausible, which is
    exactly the damage a torn write or bad sector produces. Returns
    whether the file existed and was corrupted.
    """
    path = Path(path)
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return False
    if not data:
        return False
    start = len(data) // 2
    for offset in range(start, min(start + flip_bytes, len(data))):
        data[offset] ^= 0xFF
    try:
        path.write_bytes(bytes(data))
    except OSError:
        return False
    return True
