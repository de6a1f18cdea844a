"""The result record every experiment driver returns."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExperimentResult:
    """One reproduced table or figure.

    Attributes:
        experiment_id: Registry id, e.g. ``"figure7"``.
        title: Human-readable description matching the paper's caption.
        text: Rendered report — the same rows/series the paper presents.
        data: Raw numbers keyed by experiment-specific names; the
            claims of :mod:`repro.evalx.claims` are evaluated on these.
        failures: :class:`~repro.evalx.parallel.CellFailure` records for
            cells that failed under ``--keep-going``; empty on a clean
            run. The report text renders these as gaps.
    """

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    failures: tuple = ()

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"
