"""The paper's findings as data: one entry per claim this repository checks.

A :class:`Claim` measures values from one experiment's ``data`` and
states the predicate, with its tolerance, that those values must meet.
The paper's value comes from the drivers' own constants (``PaperStats``,
``PAPER_CTTB_ONLY``, ``PAPER_IPC``, ...), never from a copy here. A
claim's verdict is:

* ``DEVIATION`` when the predicate fails;
* ``PARTIAL`` when it holds but a measured value lies outside the band
  the paper states (magnitude claims that carry one);
* ``REPRODUCED`` otherwise.

This is the one place a finding, its tolerance and its trace length are
written. The ``summary`` experiment renders the registry; the test suite
pins every verdict at the quick lengths of :data:`QUICK_TASKS`; and
``tools/results.py`` writes EXPERIMENTS.md's scoreboard from the
300k-task data in ``results/``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.evalx.experiments.common import BENCHMARKS
from repro.evalx.experiments.figure8 import PAPER_TTB_MISS
from repro.evalx.experiments.table3 import (
    PAPER_CTTB_ONLY,
    PAPER_EXIT_PREDICTOR,
)
from repro.evalx.experiments.table4 import PAPER_IPC, PAPER_PATH_GAIN
from repro.evalx.registry import EXPERIMENT_IDS, EXTENSION_IDS
from repro.evalx.report import render_table
from repro.synth.profiles import get_profile

ORDERING = "ordering"
MAGNITUDE = "magnitude"

REPRODUCED = "REPRODUCED"
PARTIAL = "PARTIAL"
DEVIATION = "DEVIATION"

#: Trace length at which each experiment's claims are checked in quick
#: mode, where it differs from quick mode's 40k tasks. gcc's task working
#: set unfolds slowly, so the claims that depend on its size need longer
#: traces.
QUICK_TASKS = {
    "table2": 120_000,
    "figure7": 120_000,
    "figure11": 120_000,
    "ext_tasksize": 30_000,
    "ext_seeds": 60_000,
    "ext_ablations": 60_000,
}

#: How a unit renders one measured or paper value.
_FORMATS: dict[str, Callable[[float], str]] = {
    "pct": lambda v: f"{v * 100:.1f}%",
    "pp": lambda v: f"{v * 100:+.2f}pp",
    "rel": lambda v: f"{v * 100:+.1f}%",
    "x": lambda v: f"{v:.1f}x",
    "ipc": lambda v: f"{v:+.3f}",
    "count": lambda v: f"{v:.0f}",
}


@dataclass(frozen=True)
class Claim:
    """One finding of the paper, checked on one experiment's ``data``.

    Attributes:
        id: ``<experiment>.<finding>``; the prefix names the registered
            experiment whose ``data`` the claim reads.
        source: Where the paper states it (table, figure or section).
        kind: ``ordering`` (who beats whom) or ``magnitude`` (how much).
        unit: Key of :data:`_FORMATS` for measured and paper values.
        finding: The finding in one sentence, naming what is measured.
        measure: ``data`` -> the measured values, one per benchmark or
            point the finding covers.
        holds: The predicate over those values, tolerance included.
        paper: The paper's values of the same measure, where it gives
            them. For a magnitude claim their range is the band the
            measured values must fall in to count as REPRODUCED.
    """

    id: str
    source: str
    kind: str
    unit: str
    finding: str
    measure: Callable[[Any], list[float]]
    holds: Callable[[list[float]], bool]
    paper: tuple[float, ...] | None = None

    @property
    def experiment(self) -> str:
        return self.id.split(".", 1)[0]


def evaluate(claim: Claim, data: Mapping | None) -> dict | None:
    """``{"verdict", "measured"}`` of ``claim`` on its experiment's
    ``data``; None when the experiment is a ``--keep-going`` gap."""
    if data is None:
        return None
    measured = [float(value) for value in claim.measure(data)]
    if not claim.holds(measured):
        verdict = DEVIATION
    elif claim.kind == MAGNITUDE and claim.paper and not (
        min(claim.paper) <= min(measured)
        and max(measured) <= max(claim.paper)
    ):
        verdict = PARTIAL
    else:
        verdict = REPRODUCED
    return {"verdict": verdict, "measured": measured}


def scoreboard(data_by_experiment: Mapping[str, Any]) -> tuple[str, dict]:
    """Evaluate every claim; return the rendered table and the verdicts.

    ``data_by_experiment`` maps each id of :data:`EXPERIMENTS` to its
    ``data``, or to None for a gap; a gap's claims render as ``-`` rows
    and are left out of the returned verdicts.
    """
    rows = []
    verdicts: dict[str, dict] = {}
    for claim in CLAIMS:
        result = evaluate(claim, data_by_experiment[claim.experiment])
        if result is not None:
            verdicts[claim.id] = result
        rows.append([
            claim.id, claim.source, claim.finding,
            _render(claim.unit, claim.paper),
            _render(claim.unit, result and result["measured"]),
            result["verdict"] if result else "-",
        ])
    text = render_table(
        ["Claim", "Source", "Finding", "Paper", "Measured", "Verdict"],
        rows,
        left_columns=3,
    )
    return text, verdicts


def _render(unit: str, values) -> str:
    """One value, or the range of several; ``-`` for none."""
    if not values:
        return "-"
    fmt = _FORMATS[unit]
    low, high = min(values), max(values)
    return fmt(low) if low == high else f"{fmt(low)} to {fmt(high)}"


# -- measures shared by several claims or by a claim and the paper ---------

_REAL_SCHEMES = ("Simple", "GLOBAL", "PER", "PATH")
_GCC_XLISP = ("gcc", "xlisp")


def _deepest(data, names, a: str, b: str) -> list[float]:
    """``a - b`` at the deepest depth (the last point), per benchmark."""
    return [data[n][a][-1] - data[n][b][-1] for n in names]


def _best_minus_first(data, names, key: str) -> list[float]:
    """Best point with history minus the depth-0 point, per benchmark."""
    return [min(data[n][key][1:]) - data[n][key][0] for n in names]


def _working_set_margins(seen: Mapping[str, int]) -> list[float]:
    """gcc's lead over the next largest working set, and the next
    smallest's lead over compress."""
    return [seen["gcc"] - max(v for n, v in seen.items() if n != "gcc"),
            min(v for n, v in seen.items() if n != "compress")
            - seen["compress"]]


def _le_margins(data) -> list[float]:
    """LE minus the worst other automaton, at every depth but 0."""
    series = data["series"]
    return [
        series["LE"][i] - max(v[i] for n, v in series.items() if n != "LE")
        for i, depth in enumerate(data["depths"])
        if depth != 0
    ]


def _real_minus_ideal(data, names, start: int = 0) -> list[float]:
    return [
        real - ideal
        for n in names
        for ideal, real in zip(data[n]["ideal"][start:],
                               data[n]["real"][start:])
    ]


def _headerless_penalty(cttb_only, header) -> list[float]:
    """Extra misses of CTTB-only prediction, relative to the header's."""
    return [cttb_only[n] / header[n] - 1 for n in cttb_only]


def _perfect_margin(ipcs) -> list[float]:
    """Perfect's IPC over the best real scheme's, per benchmark."""
    return [r["Perfect"] - max(r[s] for s in _REAL_SCHEMES)
            for r in ipcs.values()]


def _path_over_simple(ipcs) -> list[float]:
    return [r["PATH"] - r["Simple"] for r in ipcs.values()]


def _path_gain(ipcs) -> list[float]:
    """PATH's IPC gain over the next-best real scheme, gcc and xlisp."""
    return [
        ipcs[n]["PATH"] / max(ipcs[n][s] for s in _REAL_SCHEMES[:3]) - 1
        for n in _GCC_XLISP
    ]


def _cap_ratios(data, key: str, top, bottom) -> list[float]:
    """``key`` at cap ``top(caps)`` over ``key`` at ``bottom(caps)``."""
    return [by_cap[top(by_cap)][key] / by_cap[bottom(by_cap)][key]
            for by_cap in data.values()]


def _gated_lead(data, penalty: str, pick) -> list[float]:
    """``pick`` of the gated IPCs minus the ungated IPC, per benchmark."""
    return [
        pick(v for k, v in row[penalty].items() if k.startswith("gated"))
        - row[penalty]["ungated"]
        for row in data.values()
    ]


def _ablation(data, other: str) -> float:
    """The paper's configuration's miss rate minus ``other``'s."""
    return data["paper"]["miss_rate"] - data[other]["miss_rate"]


_TABLE2_PAPER = {n: get_profile(n).paper.distinct_tasks_seen
                 for n in BENCHMARKS}

CLAIMS: tuple[Claim, ...] = (
    Claim("table2.working_set_order", "Table 2", ORDERING, "count",
          "gcc's working set is largest, compress's smallest (lead, tasks)",
          lambda d: _working_set_margins(
              {n: r["distinct_tasks_seen"] for n, r in d.items()}),
          lambda v: min(v) >= 0,
          paper=tuple(_working_set_margins(_TABLE2_PAPER))),
    Claim("figure3.single_exit_dominates", "Figure 3", ORDERING, "pp",
          "Single-exit tasks are the commonest static tasks (lead, share)",
          lambda d: [d[n]["static"][1] - max(
              s for k, s in d[n]["static"].items() if k != 1)
              for n in BENCHMARKS],
          lambda v: min(v) >= 0),
    Claim("figure4.indirect_exits", "Figure 4", MAGNITUDE, "pct",
          "gcc and xlisp end >0.5% of tasks on indirect exits (share)",
          lambda d: [d[n]["dynamic"]["indirect_branch"]
                     + d[n]["dynamic"]["indirect_call"] for n in _GCC_XLISP],
          lambda v: min(v) > 0.005),
    Claim("figure4.calls_balance_returns", "Figure 4", MAGNITUDE, "pp",
          "Returns balance calls within 5 points (|returns - calls|)",
          lambda d: [abs(r["dynamic"]["return"] - r["dynamic"]["call"]
                         - r["dynamic"]["indirect_call"])
                     for r in d.values()],
          lambda v: max(v) <= 0.05),
    Claim("figure4.gcc_branch_share", "Figure 4", MAGNITUDE, "pct",
          "Branches end over a fifth of gcc's dynamic tasks (share)",
          lambda d: [d["gcc"]["dynamic"]["branch"]], lambda v: v[0] > 0.2),
    Claim("figure6.le_worst", "Figure 6", ORDERING, "pp",
          "LE is the worst automaton at depth > 0, within 0.2pp (LE - worst)",
          _le_margins, lambda v: min(v) >= -0.002),
    Claim("figure6.leh2_among_best", "Figure 6", ORDERING, "pp",
          "LEH-2 beats LE, and LEH-1, VC2-MRU within 0.2pp (LEH-2 - each)",
          lambda d: [d["series"]["LEH-2"][-1] - d["series"][rival][-1]
                     for rival in ("LE", "LEH-1", "VC2-MRU")],
          lambda v: v[0] <= 0 and max(v[1:]) <= 0.002),
    Claim("figure6.tiers", "Figure 6", MAGNITUDE, "pp",
          "LEH-2 ~ VC3-MRU and LEH-1 ~ VC2-MRU within 0.5pp (|difference|)",
          lambda d: [abs(d["series"][a][-1] - d["series"][b][-1])
                     for a, b in (("LEH-2", "VC3-MRU"), ("LEH-1", "VC2-MRU"))],
          lambda v: max(v) <= 0.005),
    Claim("figure7.path_beats_global", "Figure 7", ORDERING, "pp",
          "Ideal PATH <= GLOBAL + 0.3pp off compress (PATH - GLOBAL)",
          lambda d: _deepest(d, ("gcc", "espresso", "sc", "xlisp"), "path",
                             "global"),
          lambda v: max(v) <= 0.003),
    Claim("figure7.sc_per_exception", "Figure 7", ORDERING, "pp",
          "PER beats PATH on sc (PER - PATH)",
          lambda d: _deepest(d, ("sc",), "per", "path"),
          lambda v: max(v) < 0),
    Claim("figure7.path_beats_per", "Figure 7", ORDERING, "pp",
          "PATH beats PER on gcc and xlisp (PATH - PER)",
          lambda d: _deepest(d, _GCC_XLISP, "path", "per"),
          lambda v: max(v) < 0),
    Claim("figure7.history_helps_path", "Figure 7", ORDERING, "pp",
          "History helps ideal PATH on gcc, espresso, xlisp (deepest - d0)",
          lambda d: [d[n]["path"][-1] - d[n]["path"][0]
                     for n in ("gcc", "espresso", "xlisp")],
          lambda v: max(v) < 0),
    Claim("figure8.ttb_poor", "§5.3", MAGNITUDE, "pct",
          "A plain infinite TTB misses over 25% of indirect targets",
          lambda d: [d[n]["ttb"] for n in PAPER_TTB_MISS],
          lambda v: min(v) > 0.25, paper=tuple(PAPER_TTB_MISS.values())),
    Claim("figure8.cttb_beats_ttb", "Figure 8", ORDERING, "pp",
          "With history the ideal CTTB beats the plain TTB (best - TTB)",
          lambda d: [min(d[n]["cttb"][1:]) - d[n]["ttb"] for n in _GCC_XLISP],
          lambda v: max(v) < 0),
    Claim("figure8.history_helps_cttb", "Figure 8", ORDERING, "pp",
          "History helps the ideal CTTB (best - depth 0)",
          lambda d: _best_minus_first(d, _GCC_XLISP, "cttb"),
          lambda v: max(v) < 0),
    Claim("figure10.real_tracks_ideal", "Figure 10", MAGNITUDE, "pp",
          "Off gcc, real 8KB PHTs stay -0.5 to +5pp of ideal (real - ideal)",
          lambda d: _real_minus_ideal(d, ("espresso", "xlisp", "compress",
                                          "sc")),
          lambda v: -0.005 <= min(v) and max(v) <= 0.05),
    Claim("figure10.depth_helps_real", "Figure 10", ORDERING, "pp",
          "History helps the real PHT on gcc, espresso, xlisp (best - d0)",
          lambda d: _best_minus_first(d, ("gcc", "espresso", "xlisp"),
                                      "real"),
          lambda v: max(v) < 0),
    Claim("figure11.ideal_states_grow", "Figure 11", ORDERING, "x",
          "Ideal PHT states grow with depth on gcc, espresso (deepest / d0)",
          lambda d: [d[n]["ideal"][-1] / d[n]["ideal"][0]
                     for n in ("gcc", "espresso")],
          lambda v: min(v) > 1),
    Claim("figure11.gcc_most_states", "Figure 11", ORDERING, "x",
          "gcc touches more ideal states than espresso (gcc / espresso)",
          lambda d: [d["gcc"]["ideal"][-1] / d["espresso"]["ideal"][-1]],
          lambda v: v[0] > 1),
    Claim("figure12.real_tracks_ideal_xlisp", "Figure 12", MAGNITUDE, "pp",
          "xlisp's real 8KB CTTB is within 10pp of ideal (real - ideal)",
          lambda d: _real_minus_ideal(d, ("xlisp",), start=1),
          lambda v: max(v) <= 0.10),
    Claim("figure12.depth_helps_real", "Figure 12", ORDERING, "pp",
          "History helps the real CTTB on gcc and xlisp (best - depth 0)",
          lambda d: _best_minus_first(d, _GCC_XLISP, "real"),
          lambda v: max(v) < 0),
    Claim("table3.headers_beat_cttb_only", "Table 3", MAGNITUDE, "rel",
          "CTTB-only misses at least as often as headers (extra misses)",
          lambda d: _headerless_penalty(
              {n: r["cttb_only_miss"] for n, r in d.items()},
              {n: r["exit_predictor_miss"] for n, r in d.items()}),
          lambda v: min(v) >= 0,
          paper=tuple(_headerless_penalty(PAPER_CTTB_ONLY,
                                          PAPER_EXIT_PREDICTOR))),
    Claim("table3.returns_need_ras", "Table 3", ORDERING, "pp",
          "Returns miss less with a RAS on gcc, xlisp (header - CTTB-only)",
          lambda d: [d[n]["return_miss_header"]
                     - d[n]["return_miss_cttb_only"] for n in _GCC_XLISP],
          lambda v: max(v) < 0),
    Claim("table3.storage_ratio", "Table 3", MAGNITUDE, "x",
          "CTTB-only needs 2.5-6x the header scheme's storage",
          lambda d: [d["gcc"]["cttb_only_kbytes"]
                     / d["gcc"]["exit_predictor_kbytes"]],
          lambda v: 2.5 < v[0] < 6.0),
    Claim("table4.perfect_bounds", "Table 4", ORDERING, "ipc",
          "Perfect bounds every real scheme's IPC (Perfect - best real)",
          _perfect_margin, lambda v: min(v) >= 0,
          paper=tuple(_perfect_margin(PAPER_IPC))),
    Claim("table4.path_ties_simple", "Table 4", ORDERING, "ipc",
          "PATH's IPC >= Simple's - 0.02 everywhere (PATH - Simple)",
          _path_over_simple, lambda v: min(v) >= -0.02,
          paper=tuple(_path_over_simple(PAPER_IPC))),
    Claim("table4.path_gains", "Table 4", MAGNITUDE, "rel",
          "PATH has the best real IPC on gcc, xlisp (gain over next best)",
          _path_gain, lambda v: min(v) > 0, paper=PAPER_PATH_GAIN),
    Claim("ext_repair.perfect_repair_exact", "§3.1", MAGNITUDE, "rel",
          "Perfect repair gives the idealised miss rate (ratio - 1)",
          lambda d: [p / i - 1 for p, i in zip(
              d["series"]["speculative/perfect"],
              d["series"]["idealised (paper §3.1)"])],
          lambda v: max(map(abs, v)) <= 1e-6),
    Claim("ext_repair.no_repair_never_helps", "§3.1", ORDERING, "pp",
          "Unrepaired history never helps, within 0.1pp (none - perfect)",
          lambda d: [n - p for n, p in zip(d["series"]["speculative/none"],
                                           d["series"]["speculative/perfect"])],
          lambda v: min(v) >= -0.001),
    Claim("ext_ras.deeper_never_worse", "§4.2", ORDERING, "pp",
          "The deepest RAS misses no more than depth 1 (deepest - depth 1)",
          lambda d: [r[-1] - r[0] for r in d["series"].values()],
          lambda v: max(v) <= 1e-9),
    Claim("ext_ras.deep_stack_nearly_perfect", "§4.2", MAGNITUDE, "pct",
          "A deep RAS misses < 5% of gcc's, xlisp's, espresso's returns",
          lambda d: [d["series"][n][-1] for n in ("gcc", "xlisp",
                                                   "espresso")],
          lambda v: max(v) < 0.05),
    Claim("ext_cttb.capacity_helps", "§6.4.1", ORDERING, "pp",
          "The largest CTTB <= the smallest + 2pp (largest - smallest)",
          lambda d: [r[-1] - r[0] for r in d["series"].values()],
          lambda v: max(v) <= 0.02),
    Claim("ext_hybrid.tournament_near_best", "Extension", ORDERING, "pp",
          "The tournament is within 1pp of its better part (t - better)",
          lambda d: [t - min(p, q) for t, p, q in zip(
              d["series"]["tournament"], d["series"]["PATH"],
              d["series"]["PER"])],
          lambda v: max(v) <= 0.01),
    Claim("ext_hybrid.tournament_sc", "Extension", ORDERING, "pp",
          "On sc the tournament misses no more than PATH (t - PATH)",
          lambda d: [d["series"]["tournament"][d["benchmarks"].index("sc")]
                     - d["series"]["PATH"][d["benchmarks"].index("sc")]],
          lambda v: v[0] <= 0),
    Claim("ext_tasksize.bigger_tasks", "§3.2", ORDERING, "x",
          "Bigger caps give fewer static, longer dynamic tasks (ratios)",
          lambda d: _cap_ratios(d, "static_tasks", min, max)
          + _cap_ratios(d, "insns_per_task", max, min),
          lambda v: min(v) >= 1),
    Claim("ext_tasksize.miss_rates_sane", "§3.2", MAGNITUDE, "pct",
          "Every task-size cap keeps exit misses below 50%",
          lambda d: [p["miss_rate"] for by_cap in d.values()
                     for p in by_cap.values()],
          lambda v: 0 <= min(v) and max(v) < 0.5),
    Claim("ext_confidence.high_accuracy", "Extension", MAGNITUDE, "pct",
          "High-confidence predictions are over 90% accurate",
          lambda d: [r["high_accuracy"] for r in d.values()],
          lambda v: min(v) > 0.9),
    Claim("ext_confidence.coverage", "Extension", MAGNITUDE, "pct",
          "High confidence covers over 10% of predictions, not all",
          lambda d: [r["coverage"] for r in d.values()],
          lambda v: 0.1 < min(v) and max(v) < 1.0),
    Claim("ext_dominance.real_path_beats_ideal_global", "§6.3", ORDERING,
          "pp", "Real PATH <= ideal GLOBAL + 0.2pp on 3+ benchmarks "
          "(difference)",
          lambda d: [r["real_path"] - r["ideal_global"] for r in d.values()],
          lambda v: sum(x <= 0.002 for x in v) >= 3),
    Claim("ext_static.path_beats_static", "Extension", ORDERING, "pp",
          "PATH <= static hints + 0.5pp everywhere (PATH - static)",
          lambda d: [r["path"] - r["static"] for r in d.values()],
          lambda v: max(v) <= 0.005),
    Claim("ext_seeds.path_beats_global", "Extension", ORDERING, "pp",
          "PATH <= GLOBAL + 0.3pp at 70% of (benchmark, seed) points",
          lambda d: [p["path"] - p["global"] for by_seed in d.values()
                     for p in by_seed.values()],
          lambda v: sum(x <= 0.003 for x in v) >= int(0.7 * len(v))),
    Claim("ext_seeds.per_wins_sc", "Extension", ORDERING, "pp",
          "PER beats PATH on sc under every seed (PER - PATH)",
          lambda d: [p["per"] - p["path"] for p in d["sc"].values()],
          lambda v: max(v) < 0),
    Claim("ext_gating.cheap_recovery_loses", "Extension", ORDERING, "ipc",
          "Cheap recovery: weakest gating gains <= 0.02 IPC (over ungated)",
          lambda d: _gated_lead(d, "penalty3", min),
          lambda v: max(v) <= 0.02),
    Claim("ext_gating.expensive_recovery_wins", "Extension", ORDERING,
          "ipc", "40-cycle recovery: best gating wins on 4+ benchmarks "
          "(over ungated)",
          lambda d: _gated_lead(d, "penalty40", max),
          lambda v: sum(x > 0 for x in v) >= 4),
    Claim("ext_ablations.single_exit_updates", "§6.1", ORDERING, "pp",
          "Skipping single-exit PHT updates costs <= 1pp (skip - update)",
          lambda d: [_ablation(d, "single_exit_updates")],
          lambda v: v[0] <= 0.01),
    Claim("ext_ablations.folding", "§6.1", ORDERING, "pp",
          "Folding misses <= 2pp more than truncating (folded - truncated)",
          lambda d: [_ablation(d, "truncated")], lambda v: v[0] <= 0.02),
    Claim("ext_ablations.taper", "§6.1", MAGNITUDE, "pp",
          "A tapered index is within 5pp of a uniform one (|difference|)",
          lambda d: [abs(_ablation(d, "uniform"))], lambda v: v[0] < 0.05),
)

#: Every experiment some claim reads, in registry order.
EXPERIMENTS = tuple(
    experiment_id
    for experiment_id in EXPERIMENT_IDS + EXTENSION_IDS
    if any(claim.experiment == experiment_id for claim in CLAIMS)
)
