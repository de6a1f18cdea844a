"""Durable per-cell result store: crash-safe checkpoint and resume.

The paper's central repair mechanism is checkpoint-and-restore — the
speculative path predictor snapshots its history at every prediction and
repairs locally on a misprediction instead of squashing the whole window
(Section 5; :mod:`repro.predictors.speculative`). The experiment engine
gets the same treatment here: every completed cell is persisted the
moment it finishes, so a run killed mid-sweep (SIGKILL, OOM, CI
preemption, Ctrl-C) restarts from its last completed cell instead of
squashing hours of simulation.

Design, in the same discipline as the trace cache
(:mod:`repro.synth.workloads`):

* **Content-addressed** — each record is keyed by a fingerprint of
  (experiment id, cell fn qualname, canonicalized kwargs, workload seed,
  code version). Any change to the code version, the sweep's
  configuration, or the cell's inputs misses the store, so resuming can
  never mix results from different sweeps.
* **Atomic and durable** — records are published with
  :func:`repro.utils.fsio.publish` (fsynced pid-unique sibling temp,
  then ``os.replace``); a crash mid-write leaves only a ``.tmp-<pid>``
  file, which the workload prewarm sweep reaps
  (:func:`repro.synth.workloads.sweep_orphan_tmp_files`).
* **Verified** — each record embeds a SHA-256 checksum of its pickled
  payload plus the fingerprint it was stored under. A corrupt, stale,
  truncated or tampered record is reported as a typed
  :class:`CheckpointCorrupt` event and transparently re-executed —
  never a crash, never a silently wrong result.

Resumed payloads round-trip through pickle, so a resumed sweep's
:class:`~repro.evalx.result.ExperimentResult` is byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import pickle
import time
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.synth.generator import GENERATOR_VERSION
from repro.utils.fsio import publish

#: Bump when the record envelope or fingerprint recipe changes; old
#: records then miss the store (stale) instead of being misread.
CHECKPOINT_FORMAT_VERSION = 1

#: Completed-cell records are ``<fingerprint>.ckpt.json``.
RECORD_SUFFIX = ".ckpt.json"


class CheckpointKeyError(ReproError):
    """A cell's kwargs cannot be canonically fingerprinted.

    Raised when a kwarg value is not built from JSON-canonical pieces
    (None/bool/int/float/str, lists/tuples, str-keyed dicts, or
    dataclasses of those). Such a cell still runs — it just cannot be
    checkpointed, and the run records an ``unfingerprintable`` event.
    The CKP001 analysis rule flags the statically detectable cases.
    """


@dataclasses.dataclass(frozen=True)
class CheckpointCorrupt:
    """Typed event: a record failed verification and was discarded.

    The affected cell is transparently re-executed; this object only
    feeds the metrics stream (``event: "checkpoint", action:
    "corrupt"``) so the damage is visible, not silent.

    Attributes:
        fingerprint: The store key whose record failed.
        path: Filesystem path of the bad record (already deleted).
        reason: What failed — checksum mismatch, unreadable JSON,
            missing fields, fingerprint mismatch, or undecodable payload.
    """

    fingerprint: str
    path: str
    reason: str


@dataclasses.dataclass(frozen=True)
class CheckpointHit:
    """A verified record: the cell's payload, exactly as computed."""

    fingerprint: str
    payload: Any


def code_version() -> str:
    """Version component of every fingerprint.

    Couples records to both the checkpoint format and the synthetic
    workload generator semantics: a generator bump regenerates traces,
    so cached cell results computed from the old traces must miss too.
    """
    return f"ckpt{CHECKPOINT_FORMAT_VERSION}:gen{GENERATOR_VERSION}"


def canonical_value(value: Any) -> Any:
    """Reduce a kwarg value to a canonical JSON-able form.

    Dict keys are sorted by the JSON dump; tuples and lists unify to
    lists (a cell fn receiving ``(1, 2)`` vs ``[1, 2]`` computes the
    same thing); dataclasses canonicalize to ``[qualname, fields...]``
    so config objects like ``TimingConfig`` fingerprint by value.
    Anything else raises :class:`CheckpointKeyError`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CheckpointKeyError(
                    f"dict key {key!r} is not a string; checkpoint "
                    "fingerprints require str-keyed dicts"
                )
            out[key] = canonical_value(item)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return [
            f"{cls.__module__}.{cls.__qualname__}",
            canonical_value(dataclasses.asdict(value)),
        ]
    raise CheckpointKeyError(
        f"value of type {type(value).__name__} cannot be canonically "
        "fingerprinted (use None/bool/int/float/str, lists/tuples, "
        "str-keyed dicts, or dataclasses of those)"
    )


def canonical_kwargs(kwargs: dict) -> str:
    """Canonical JSON encoding of a cell's kwargs (fingerprint input)."""
    return json.dumps(
        canonical_value(dict(kwargs)),
        sort_keys=True,
        separators=(",", ":"),
    )


def cell_fingerprint(experiment_id: str, cell) -> str:
    """Content address of one cell's result.

    Covers everything that determines the payload: the code version,
    the driver (experiment id), the cell function's import path, its
    canonicalized kwargs, and the workload profile's seed (the one
    input a cell reads that is not in its kwargs). Raises
    :class:`CheckpointKeyError` for kwargs that cannot be canonicalized.
    """
    fn = cell.fn
    seed = None
    if cell.workload is not None:
        from repro.synth.profiles import get_profile

        seed = get_profile(cell.workload[0]).seed
    key = "\n".join(
        (
            code_version(),
            experiment_id,
            f"{fn.__module__}.{fn.__qualname__}",
            canonical_kwargs(cell.kwargs),
            repr(seed),
        )
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]


class CheckpointStore:
    """One directory of verified per-cell result records.

    Args:
        directory: Where records live; created on first save.
        resume: When true, :meth:`load` serves existing verified
            records (the ``--resume`` path). When false the store only
            persists — an existing record is ignored and overwritten,
            giving fresh-run semantics with a warm store for the *next*
            resume.
    """

    def __init__(self, directory: str | Path, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.resume = resume

    def path_for(self, fingerprint: str) -> Path:
        """Record path for a fingerprint."""
        return self.directory / f"{fingerprint}{RECORD_SUFFIX}"

    def load(
        self, fingerprint: str, label: str = "?"
    ) -> CheckpointHit | CheckpointCorrupt | None:
        """Fetch a verified record, if one exists.

        Returns ``None`` when no record exists (a plain miss), a
        :class:`CheckpointHit` when the record verifies, and a
        :class:`CheckpointCorrupt` (with the bad file already removed)
        when anything about it fails verification.
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            return self._corrupt(path, fingerprint, f"unreadable: {exc}")
        try:
            record = json.loads(raw)
        except ValueError as exc:
            return self._corrupt(path, fingerprint, f"bad JSON: {exc}")
        if not isinstance(record, dict):
            return self._corrupt(path, fingerprint, "record is not an object")
        missing = [
            key
            for key in ("version", "fingerprint", "payload_sha256", "payload")
            if key not in record
        ]
        if missing:
            return self._corrupt(
                path, fingerprint, f"missing fields: {missing}"
            )
        if record["version"] != CHECKPOINT_FORMAT_VERSION:
            return self._corrupt(
                path,
                fingerprint,
                f"format version {record['version']!r} != "
                f"{CHECKPOINT_FORMAT_VERSION} (stale)",
            )
        if record["fingerprint"] != fingerprint:
            return self._corrupt(
                path,
                fingerprint,
                "embedded fingerprint does not match the record's name "
                "(renamed or tampered)",
            )
        try:
            blob = base64.b64decode(record["payload"], validate=True)
        except (ValueError, TypeError) as exc:
            return self._corrupt(path, fingerprint, f"bad payload: {exc}")
        digest = hashlib.sha256(blob).hexdigest()
        if digest != record["payload_sha256"]:
            return self._corrupt(
                path,
                fingerprint,
                f"payload checksum mismatch ({digest[:12]}... != "
                f"{str(record['payload_sha256'])[:12]}...)",
            )
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # unpicklable despite a good checksum
            return self._corrupt(path, fingerprint, f"unpicklable: {exc!r}")
        return CheckpointHit(fingerprint=fingerprint, payload=payload)

    def save(
        self,
        fingerprint: str,
        label: str,
        experiment_id: str,
        payload: Any,
    ) -> bool:
        """Persist one completed cell's payload atomically.

        Returns False (instead of raising) when the payload cannot be
        pickled or the disk write fails: checkpointing is an overlay —
        a failed save costs only resumability, never the run.
        """
        try:
            blob = pickle.dumps(payload)
        except Exception:
            return False
        record = {
            "version": CHECKPOINT_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "experiment": experiment_id,
            "cell": label,
            "created_ts": time.time(),
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        data = (json.dumps(record) + "\n").encode("utf-8")
        try:
            publish(self.path_for(fingerprint), lambda f: f.write(data))
        except OSError:
            return False
        return True

    @staticmethod
    def _corrupt(
        path: Path, fingerprint: str, reason: str
    ) -> CheckpointCorrupt:
        """Discard a bad record so re-execution replaces it cleanly."""
        try:
            path.unlink()
        except OSError:
            pass  # already gone, or read-only: re-execution still wins
        return CheckpointCorrupt(
            fingerprint=fingerprint, path=str(path), reason=reason
        )
