"""The tunable predictor design space: DOLC x automaton points.

The paper explores the D-O-L-C(F) index family by hand-picking one
configuration per history depth (Figures 9-11). This module makes the
whole family enumerable so the autotuner (:mod:`repro.evalx.tune`) can
search it: a :class:`TuneConfig` names one candidate — an index spec
plus the automaton stored in each PHT entry — and carries its exact
storage cost, so search results rank on an accuracy-vs-storage Pareto
frontier instead of accuracy alone.

Bit allocation follows the paper's §6.1 heuristics: recent control flow
matters most, so the current task gets at least as many bits as the
last task, which gets at least as many as each older task
(``O <= L <= C``). :func:`allocate_dolc` produces the canonical such
split for a (depth, index width, folds) triple, and
:func:`enumerate_space` crosses those splits with the automaton family.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.predictors.automata import make_automaton_factory
from repro.predictors.folding import DolcSpec

#: History depths searched by default: the paper's full 0..7 axis.
DEFAULT_DEPTHS = (0, 1, 2, 3, 4, 5, 6, 7)

#: PHT index widths searched by default (1K-16K entries).
DEFAULT_INDEX_BITS = (10, 12, 14)

#: Automata searched by default. The VC-RANDOM variants are left out:
#: Figure 6 puts each within about 0.1pp of its MRU twin, so they would
#: only double the voting-counter points of the search.
DEFAULT_AUTOMATA = ("LE", "LEH-1", "LEH-2", "LEH-3", "VC2-MRU", "VC3-MRU")

#: XOR-fold counts searched by default.
DEFAULT_FOLDS = (1, 2, 3)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the design space: an index spec plus an automaton.

    Attributes:
        dolc: The ``D-O-L-C(F)`` index spec, in the paper's notation.
        automaton: Automaton name per :func:`make_automaton_factory`
            (e.g. ``LEH-2``); generalised hysteresis depths like
            ``LEH-3`` are part of the searchable space.
    """

    dolc: str
    automaton: str

    @property
    def key(self) -> str:
        """Canonical identity, ``"<dolc>/<automaton>"``; stable across
        runs, so rung promotions and frontier artifacts key on it."""
        return f"{self.dolc}/{self.automaton}"

    @classmethod
    def parse(cls, key: str) -> "TuneConfig":
        """Invert :attr:`key` (validates both halves)."""
        dolc, _, automaton = key.partition("/")
        config = cls(dolc=dolc, automaton=automaton)
        config.spec()  # raises PredictorConfigError on a bad spec
        make_automaton_factory(automaton)  # raises on a bad name
        return config

    def spec(self) -> DolcSpec:
        """The parsed index spec."""
        return DolcSpec.parse(self.dolc)

    def storage_bits(self) -> int:
        """Exact PHT cost: entries x per-entry automaton bits."""
        entry_bits = make_automaton_factory(self.automaton)().bits_per_entry()
        return self.spec().table_entries * entry_bits

    def build_predictor(self):
        """A fresh :class:`~repro.predictors.exit_predictors.PathExitPredictor`
        for this point."""
        from repro.predictors.exit_predictors import PathExitPredictor

        return PathExitPredictor(self.spec(), automaton=self.automaton)


def allocate_dolc(
    depth: int, index_bits: int, folds: int = 1
) -> DolcSpec | None:
    """Canonical O/L/C split for one (depth, index width, fold) triple.

    The intermediate index is ``folds * index_bits`` wide and must be
    divided over the path per §6.1's recency heuristic: every older
    task contributes at most as many bits as the last task, which
    contributes at most as many as the current task. Returns None when
    no such split exists (e.g. depth 0 with more than one fold, where
    the single current-task field cannot be folded against anything).
    """
    if depth < 0 or index_bits < 1 or folds < 1:
        return None
    width = folds * index_bits
    if depth == 0:
        # No path history: the unfolded current-task field is the index.
        if folds != 1:
            return None
        return DolcSpec(0, 0, 0, index_bits, 1)
    if depth == 1:
        current = (width + 1) // 2
        last = width - current
        if last < 1:
            return None
        return DolcSpec(1, 0, last, current, folds)
    for older in range(max(1, width // (2 * depth)), 0, -1):
        rest = width - older * (depth - 1)
        if rest < 2:
            continue
        last = rest // 2
        current = rest - last
        if older <= last <= current:
            return DolcSpec(depth, older, last, current, folds)
    return None


def enumerate_space(
    depths: Sequence[int] = DEFAULT_DEPTHS,
    index_bits: Sequence[int] = DEFAULT_INDEX_BITS,
    automata: Sequence[str] = DEFAULT_AUTOMATA,
    folds: Sequence[int] = DEFAULT_FOLDS,
) -> list[TuneConfig]:
    """Every valid design point over the given axes, in a stable order.

    Points whose (depth, width, fold) triple admits no §6.1-respecting
    bit split are skipped; distinct triples that canonicalise to the
    same D-O-L-C(F) string are deduplicated. The order is a pure
    function of the axis sequences, which is what lets a resumed search
    rebuild the identical candidate population.
    """
    configs: dict[str, TuneConfig] = {}
    for depth in depths:
        for bits in index_bits:
            for fold in folds:
                spec = allocate_dolc(depth, bits, fold)
                if spec is None:
                    continue
                for automaton in automata:
                    config = TuneConfig(dolc=str(spec), automaton=automaton)
                    configs.setdefault(config.key, config)
    return list(configs.values())
