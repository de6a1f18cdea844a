"""Per-layer tracing from outside the program.

:class:`Tracer` wraps each layer's public functions and methods wherever
they are bound (every ``repro`` module attribute that *is* the original
object is replaced, so ``from x import f`` bindings are covered too) and
records, per span name, the call count and the *self* time: a span's
duration minus the time its child spans cover. Counters for the traffic
a layer handles (memo hits, rows replayed, per-task fallbacks) are kept
beside the spans.

Forked ``--jobs`` workers inherit the installed wrappers. Their totals
start from zero at fork and are rewritten to ``<trace_dir>/worker-<pid>.json``
each time the worker's outermost span closes, because pool workers leave
through ``os._exit`` and never run exit handlers. :meth:`Tracer.collect`
sums the parent's and every worker's totals.

Nothing here changes what the program computes: wrappers pass arguments
and results through untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

#: Modules whose bindings the tracer patches. Importing them up front
#: means every ``from ... import`` binding exists before patching.
_MODULES = (
    "repro.compiler",
    "repro.compiler.pipeline",
    "repro.synth.generator",
    "repro.synth.executor",
    "repro.synth.trace",
    "repro.synth.workloads",
    "repro.utils.windows",
    "repro.utils.memo",
    "repro.predictors",
    "repro.predictors.automata",
    "repro.predictors.pht",
    "repro.predictors.ideal",
    "repro.predictors.exit_predictors",
    "repro.predictors.task_predictor",
    "repro.predictors.ttb",
    "repro.predictors.speculative",
    "repro.sim.functional",
    "repro.sim.relaxed",
    "repro.sim.timing",
    "repro.sim.timing.machine",
    "repro.sim.timing.scan",
    "repro.evalx.checkpoint",
    "repro.evalx.parallel",
    "repro.evalx.registry",
)

#: Per-process counters, reported summed over processes.
COUNTERS = (
    "memo.hits",
    "memo.misses",
    "predictors.plans",
    "predictors.replay_rows",
    "sim.calls",
    "sim.fallbacks",
    "synth.tasks",
    "evalx.ckpt_records",
)

#: The tracer a forked child must reset; set while one is installed.
_active: Tracer | None = None


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._start_worker()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Tracer:
    """Span and counter recorder with install/uninstall of wrappers.

    Args:
        trace_dir: Directory forked workers write their totals to.
    """

    def __init__(self, trace_dir: str | Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: dict[str, list[float]] = {}  # name -> [calls, self_s]
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []  # open spans' child seconds
        self._sims: list[dict] = []  # open simulate_* calls
        self._patches: list[tuple[object, str, object]] = []
        self._worker = False
        self._cache_base: dict[str, int] = {}

    # -- recording ----------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([0.0])

    def _exit(self, names: tuple[str, ...], elapsed: float) -> None:
        """Close the innermost span, booking its self time to ``names``."""
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        for name in names:
            entry = self.spans.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed - child
        if self._worker and not self._stack:
            self._flush_worker()

    def span(self, name: str, fn):
        """``fn`` wrapped to record one ``name`` span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit((name,), time.perf_counter() - started)

        return wrapper

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one ``name`` span."""
        return self.span(name, fn)(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self._worker and not self._stack:
            self._flush_worker()

    def _declined(self) -> None:
        """A batched kernel declined inside the open simulate_* call."""
        if self._sims:
            self._sims[-1]["declined"] = True

    # -- worker processes ---------------------------------------------

    def _start_worker(self) -> None:
        from repro.synth.workloads import cache_counters

        self.spans = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._sims = []
        self._worker = True
        self._cache_base = cache_counters()

    def _flush_worker(self) -> None:
        from repro.synth.workloads import cache_counters

        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_name(f".{path.name}.tmp")
        tmp.write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "counters": self.counters,
                    "cache": _delta(cache_counters(), self._cache_base),
                }
            ),
            encoding="utf-8",
        )
        os.replace(tmp, path)

    def collect(self, parent_cache: dict[str, int]) -> dict:
        """Totals over this process and every worker that flushed.

        ``parent_cache`` is this process's workload-cache counter delta
        over the traced region (see ``repro.synth.workloads``).
        """
        spans = {name: list(v) for name, v in self.spans.items()}
        counters = dict(self.counters)
        cache = dict(parent_cache)
        workers = sorted(self.trace_dir.glob("worker-*.json"))
        for path in workers:
            part = json.loads(path.read_text(encoding="utf-8"))
            for name, (calls, self_s) in part["spans"].items():
                entry = spans.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
            for name, value in part["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in part["cache"].items():
                cache[name] = cache.get(name, 0) + value
        return {
            "spans": spans,
            "counters": counters,
            "cache": cache,
            "worker_processes": len(workers),
        }

    # -- installation -------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every repro module."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _replace_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def _classes_defining(self, attr: str):
        """Every repro class whose own namespace defines ``attr``."""
        seen = []
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for value in vars(module).values():
                if (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and attr in value.__dict__
                    and value not in seen
                ):
                    seen.append(value)
        return seen

    def install(self, experiment_ids=()) -> None:
        """Wrap every traced layer; ``experiment_ids`` get ``combine`` spans."""
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        for name in _MODULES:
            importlib.import_module(name)
        experiments = [
            importlib.import_module(f"repro.evalx.experiments.{eid}")
            for eid in experiment_ids
        ]
        from repro.compiler.pipeline import compile_program
        from repro.evalx.checkpoint import CheckpointStore
        from repro.evalx.registry import run_experiment
        from repro.predictors.automata import tabulate_automaton
        from repro.predictors.pht import PackedPatternTable
        from repro.sim import functional, relaxed
        from repro.sim.timing.machine import simulate_timing
        from repro.sim.timing.scan import max_plus_timing_scan
        from repro.synth.executor import TraceExecutor
        from repro.synth.generator import SyntheticProgramGenerator
        from repro.synth.trace import TaskTrace
        from repro.synth.workloads import load_workload, prewarm_workload
        from repro.utils import windows
        from repro.utils.memo import DerivedColumnCache

        plain = {
            compile_program: "compiler.compile",
            load_workload: "synth.load_workload",
            prewarm_workload: "evalx.prewarm",
            run_experiment: "evalx.engine",
            max_plus_timing_scan: "sim.timing_scan",
        }
        for fn in (
            windows.factorize,
            windows.group_by_path,
            windows.group_by_global_history,
            windows.group_by_per_key_history,
        ):
            plain[fn] = "windows.group"
        for original, name in plain.items():
            self._replace(original, self.span(name, original))
        for module in experiments:
            self._replace(
                module.combine, self.span("evalx.combine", module.combine)
            )

        self._replace(
            tabulate_automaton,
            self._declines(tabulate_automaton, "predictors.tabulate"),
        )
        self._replace(
            functional.batched_task_prediction_column,
            self._declines(functional.batched_task_prediction_column),
        )
        sims = {
            functional.simulate_exit_prediction: "sim.exit",
            functional.simulate_indirect_target_prediction: "sim.target",
            functional.simulate_task_prediction: "sim.task",
            relaxed.simulate_speculative_exit_prediction: "sim.speculative",
            simulate_timing: "sim.timing",
        }
        for original, name in sims.items():
            self._replace(original, self._simulate(name, original))

        self._replace_method(
            SyntheticProgramGenerator, "generate",
            lambda fn: self.span("synth.generate", fn),
        )
        self._replace_method(TraceExecutor, "run", self._execute)
        for attr in ("save", "load"):
            self._replace_method(
                TaskTrace, attr, lambda fn: self.span("synth.trace_io", fn)
            )
        self._replace_method(DerivedColumnCache, "get", self._memo_get)
        self._replace_method(PackedPatternTable, "replay", self._replay)
        self._replace_method(CheckpointStore, "save", self._ckpt_save)
        for cls in self._classes_defining("batch_plan"):
            self._replace_method(
                cls, "batch_plan",
                lambda fn: self._declines(
                    fn, "predictors.plan", "predictors.plans"
                ),
            )
        for cls in self._classes_defining("batch_predicted_addrs"):
            self._replace_method(
                cls, "batch_predicted_addrs",
                lambda fn: self.span("predictors.task_batch", fn),
            )
        for cls in self._classes_defining("batch_slot_ids"):
            self._replace_method(cls, "batch_slot_ids", self._declines)
        _active = self

    def uninstall(self) -> None:
        """Put every original function and method back."""
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _active is self:
            _active = None

    # -- wrapper factories --------------------------------------------

    def _simulate(self, name: str, fn):
        """A simulate_* entry point: span, plus per-task-loop detection.

        The call took the per-task loop when it was asked to
        (``vectorize=False``), when the predictor, buffer or confidence
        gate advertises no batched form, when a speculative predictor
        repairs history other than perfectly, or when a batched form
        declined (returned None) inside the call. ``sim.exit`` self time
        spent on such calls is also booked to ``sim.exit_scalar``.
        """
        kernels = {
            "sim.exit": ("batch_plan", "predict_column"),
            "sim.target": ("batch_slot_ids",),
            "sim.task": ("batch_predicted_addrs",),
            "sim.timing": ("batch_predicted_addrs",),
            "sim.speculative": ("pht_factory",),
        }[name]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            model = list(bound.arguments.values())[1]
            gate = bound.arguments.get("confidence_gate")
            frame = {
                "declined": not bound.arguments.get("vectorize", True)
                or not any(hasattr(model, k) for k in kernels)
                or getattr(model, "repair_policy", "perfect") != "perfect"
                or (gate is not None
                    and not hasattr(gate, "batch_gate_columns"))
            }
            self._sims.append(frame)
            self._enter()
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._sims.pop()
                self.count("sim.calls")
                names = (name,)
                if frame["declined"]:
                    self.count("sim.fallbacks")
                    if name == "sim.exit":
                        names = (name, "sim.exit_scalar")
                self._exit(names, elapsed)

        return wrapper

    def _declines(
        self, fn, span: str | None = None, counter: str | None = None
    ):
        """``fn``, optionally spanned and counted, whose None result marks
        the open simulate_* call as having declined a batched kernel."""
        inner = self.span(span, fn) if span else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.count(counter)
            result = inner(*args, **kwargs)
            if result is None:
                self._declined()
            return result

        return wrapper

    def _execute(self, fn):
        inner = self.span("synth.execute", fn)

        @functools.wraps(fn)
        def wrapper(executor, max_tasks, *args, **kwargs):
            trace = inner(executor, max_tasks, *args, **kwargs)
            self.count("synth.tasks", len(trace))
            return trace

        return wrapper

    def _memo_get(self, fn):
        @functools.wraps(fn)
        def wrapper(cache, anchors, tag, build):
            built = []

            def traced_build():
                built.append(True)
                return self.run_span("memo.build", build)

            value = fn(cache, anchors, tag, traced_build)
            self.count("memo.misses" if built else "memo.hits")
            return value

        return wrapper

    def _replay(self, fn):
        inner = self.span("predictors.replay", fn)

        @functools.wraps(fn)
        def wrapper(table, group_ids, inputs):
            self.count("predictors.replay_rows", len(group_ids))
            return inner(table, group_ids, inputs)

        return wrapper

    def _ckpt_save(self, fn):
        inner = self.span("evalx.ckpt_write", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved = inner(*args, **kwargs)
            if saved:
                self.count("evalx.ckpt_records")
            return saved

        return wrapper


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in after}


#: Per-layer metrics grouped by layer: (layer, the end-to-end metric it
#: should move and on which workload, ((metric, unit), ...)). A ``_s``
#: metric is the self time of the span of the same stem, summed over
#: processes.
LAYERS = (
    (
        "synth.generator / compiler",
        "setup_s on all three; largest share on grid-warm",
        (
            ("synth.generate_s", "s"),
            ("compiler.compile_s", "s"),
            ("compiler.calls", "count"),
        ),
    ),
    (
        "synth.executor / trace cache",
        "setup_s on scale-gcc and grid-cold-j2; zero builds on grid-warm",
        (
            ("synth.execute_s", "s"),
            ("synth.tasks_per_s", "tasks/s"),
            ("synth.trace_io_s", "s"),
            ("synth.trace_builds", "count"),
            ("synth.trace_disk_hits", "count"),
        ),
    ),
    (
        "utils.windows",
        "sweep_s on grid-warm (Figures 6, 7 and 10)",
        (("windows.group_s", "s"), ("windows.group_calls", "count")),
    ),
    (
        "utils.memo",
        "sweep_s on grid-warm",
        (
            ("memo.hits", "count"),
            ("memo.misses", "count"),
            ("memo.hit_ratio", "ratio"),
            ("memo.build_s", "s"),
        ),
    ),
    (
        "predictors",
        "fallbacks: sweep_s and cell_p90_s on grid-warm; replay and task "
        "batching: sweep_s on scale-gcc",
        (
            ("predictors.tabulate_s", "s"),
            ("predictors.plans", "count"),
            ("predictors.scalar_fallbacks", "count"),
            ("predictors.batched_ratio", "ratio"),
            ("predictors.replay_s", "s"),
            ("predictors.replay_rows", "count"),
            ("predictors.task_batch_s", "s"),
        ),
    ),
    (
        "sim.functional",
        "sweep_s and cell_p90_s on grid-warm",
        (
            ("sim.exit_s", "s"),
            ("sim.exit_scalar_s", "s"),
            ("sim.target_s", "s"),
            ("sim.task_s", "s"),
        ),
    ),
    (
        "sim.relaxed / sim.timing",
        "sweep_s on scale-gcc",
        (
            ("sim.speculative_s", "s"),
            ("sim.timing_s", "s"),
            ("sim.timing_scan_s", "s"),
        ),
    ),
    (
        "evalx",
        "wall_s on grid-cold-j2; no change on grid-warm",
        (
            ("evalx.prewarm_s", "s"),
            ("evalx.ckpt_write_s", "s"),
            ("evalx.ckpt_records", "count"),
            ("evalx.combine_s", "s"),
            ("evalx.engine_s", "s"),
            ("evalx.cell_retries", "count"),
        ),
    ),
    ("benchmark", "none", (("trace.overhead_s", "s"),)),
)

#: Every per-layer metric: (name, unit).
LAYER_METRICS = tuple(metric for _, _, group in LAYERS for metric in group)


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(totals: dict, cell_retries: int):
    """Per-layer metrics from :meth:`Tracer.collect` totals.

    Returns ``(metrics, bases)``: every :data:`LAYER_METRICS` entry but
    ``trace.overhead_s`` (which needs an untraced run), and for each
    ratio the count it is taken over.
    """
    spans, counters, cache = (
        totals["spans"], totals["counters"], totals["cache"]
    )
    metrics: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if unit == "s" and name != "trace.overhead_s":
            metrics[name] = spans.get(name[: -len("_s")], [0, 0.0])[1]
    gets = counters["memo.hits"] + counters["memo.misses"]
    sims = counters["sim.calls"]
    tasks = counters["synth.tasks"]
    metrics.update(
        {
            "compiler.calls": spans.get("compiler.compile", [0])[0],
            "synth.tasks_per_s": _ratio(tasks, metrics["synth.execute_s"]),
            "synth.trace_builds": cache.get("trace_builds", 0),
            "synth.trace_disk_hits": cache.get("trace_disk_hits", 0),
            "windows.group_calls": spans.get("windows.group", [0])[0],
            "memo.hits": counters["memo.hits"],
            "memo.misses": counters["memo.misses"],
            "memo.hit_ratio": _ratio(counters["memo.hits"], gets),
            "predictors.plans": counters["predictors.plans"],
            "predictors.scalar_fallbacks": counters["sim.fallbacks"],
            "predictors.batched_ratio": _ratio(
                sims - counters["sim.fallbacks"], sims
            ),
            "predictors.replay_rows": counters["predictors.replay_rows"],
            "evalx.ckpt_records": counters["evalx.ckpt_records"],
            "evalx.cell_retries": cell_retries,
        }
    )
    bases = {
        "synth.tasks_per_s": f"{tasks} tasks synthesized",
        "memo.hit_ratio": f"{gets} memo lookups",
        "predictors.batched_ratio": f"{sims} simulate_* calls",
    }
    return metrics, bases
