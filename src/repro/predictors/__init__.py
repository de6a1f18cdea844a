"""Inter-task control-flow prediction — the paper's core contribution.

Contents map onto the paper's sections:

* :mod:`repro.predictors.automata` — multi-way prediction automata (§5.1):
  voting counters, last-exit, last-exit-with-hysteresis.
* :mod:`repro.predictors.folding` — the D-O-L-C (F) path index construction
  (§6.1–6.2, Figure 9).
* :mod:`repro.predictors.exit_predictors` — real (finite-table) exit
  predictors: PATH, GLOBAL, PER, and the task-address-indexed "Simple"
  baseline (§6.3, Table 4).
* :mod:`repro.predictors.ideal` — ideal (alias-free) GLOBAL / PER / PATH
  history schemes (§5.2, Figure 7).
* :mod:`repro.predictors.ras` — return address stack (§4.2, §5.3).
* :mod:`repro.predictors.ttb` — task target buffer and correlated task
  target buffer, finite and ideal (§5.3, §6.4, Figures 8 and 12).
* :mod:`repro.predictors.task_predictor` — composed next-task predictors:
  exit predictor + header + RAS + CTTB, the CTTB-only headerless scheme
  (§5.4, Table 3), and a perfect oracle.
* :mod:`repro.predictors.headers` — a program's task headers as one
  table (§2.1), read by every batched simulator.
"""

from repro.predictors.automata import (
    AUTOMATON_SPECS,
    LastExit,
    LastExitHysteresis,
    MultiwayAutomaton,
    VotingCounters,
    make_automaton_factory,
)
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.exit_predictors import (
    GlobalExitPredictor,
    PathExitPredictor,
    PerTaskExitPredictor,
    SimpleExitPredictor,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.ideal import (
    IdealGlobalPredictor,
    IdealPathPredictor,
    IdealPerTaskPredictor,
)
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.ttb import (
    CorrelatedTaskTargetBuffer,
    IdealCorrelatedTargetBuffer,
    TaskTargetBuffer,
)
from repro.predictors.task_predictor import (
    CttbOnlyTaskPredictor,
    HeaderTaskPredictor,
    PerfectTaskPredictor,
)
from repro.predictors.hybrid import TournamentExitPredictor
from repro.predictors.confidence import (
    ConfidenceStats,
    ResettingConfidenceEstimator,
    simulate_confidence,
)
from repro.predictors.speculative import SpeculativePathPredictor
from repro.predictors.static_hints import StaticHintExitPredictor

__all__ = [
    "MultiwayAutomaton",
    "LastExit",
    "LastExitHysteresis",
    "VotingCounters",
    "AUTOMATON_SPECS",
    "make_automaton_factory",
    "ExitPredictor",
    "NextTaskPredictor",
    "DolcSpec",
    "PathExitPredictor",
    "GlobalExitPredictor",
    "PerTaskExitPredictor",
    "SimpleExitPredictor",
    "IdealPathPredictor",
    "IdealGlobalPredictor",
    "IdealPerTaskPredictor",
    "ReturnAddressStack",
    "TaskTargetBuffer",
    "CorrelatedTaskTargetBuffer",
    "IdealCorrelatedTargetBuffer",
    "HeaderTaskPredictor",
    "CttbOnlyTaskPredictor",
    "PerfectTaskPredictor",
    "TournamentExitPredictor",
    "ResettingConfidenceEstimator",
    "ConfidenceStats",
    "simulate_confidence",
    "SpeculativePathPredictor",
    "StaticHintExitPredictor",
]
