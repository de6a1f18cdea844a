"""Baseline file: intentional, justified exceptions to the analysis rules.

A baseline entry matches findings by ``(rule, path, symbol)`` — not line
number — so entries survive unrelated edits. Every entry must carry a
non-empty justification: the baseline is a reviewed list of "yes, we
mean it" decisions, not a dumping ground for unread warnings. It is the
only way to accept a finding; there are no inline suppressions.

File format (JSON, sorted, newline-terminated — diff-friendly)::

    {
      "version": 1,
      "entries": [
        {
          "rule": "VEC001",
          "path": "src/repro/sim/timing/scan.py",
          "symbol": "max_plus_timing_scan",
          "justification": "pass 2 propagates chunk-entry states ..."
        }
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding

BASELINE_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, with the reason it is acceptable."""

    rule: str
    path: str
    symbol: str
    justification: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)


class Baseline:
    """A loaded baseline file, tracking which entries actually matched."""

    def __init__(self, entries: list[BaselineEntry]) -> None:
        self.entries = entries
        self._by_key = {entry.key: entry for entry in entries}
        self._matched: set[tuple[str, str, str]] = set()

    @classmethod
    def load(cls, path: Path) -> Baseline:
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls([])
        payload = json.loads(path.read_text(encoding="utf-8"))
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {version!r} in {path} "
                f"(expected {BASELINE_VERSION})"
            )
        entries = []
        for raw in payload.get("entries", []):
            entry = BaselineEntry(
                rule=raw["rule"],
                path=raw["path"],
                symbol=raw["symbol"],
                justification=raw.get("justification", ""),
            )
            if not entry.justification.strip():
                raise ValueError(
                    f"baseline entry {entry.key} in {path} has no "
                    "justification; every accepted finding needs one"
                )
            entries.append(entry)
        return cls(entries)

    def matches(self, finding: Finding) -> bool:
        """Whether the finding is baselined (and mark the entry as used)."""
        key = (finding.rule, finding.path, finding.symbol)
        if key in self._by_key:
            self._matched.add(key)
            return True
        return False

    def stale_entries(self) -> list[BaselineEntry]:
        """Entries that matched nothing — fixed violations to prune."""
        return [
            entry
            for entry in self.entries
            if entry.key not in self._matched
        ]

    def prune_stale(self, path: Path) -> list[BaselineEntry]:
        """Rewrite the baseline keeping only entries that matched.

        Call after every finding has been checked through
        :meth:`matches`. Returns the dropped (stale) entries; their
        justifications are discarded with them, so pruning is safe to
        run blindly in CI — a violation that comes back later must be
        re-justified from scratch.
        """
        stale = self.stale_entries()
        if not stale:
            return []
        kept = [e for e in self.entries if e.key in self._matched]
        entries = [
            {
                "rule": e.rule,
                "path": e.path,
                "symbol": e.symbol,
                "justification": e.justification,
            }
            for e in sorted(
                kept, key=lambda e: (e.path, e.rule, e.symbol)
            )
        ]
        payload = {"version": BASELINE_VERSION, "entries": entries}
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        self.entries = kept
        return stale
