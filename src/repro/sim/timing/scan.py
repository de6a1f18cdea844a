"""Event-compressed timing evaluation as a max-plus (tropical) scan.

The task-granularity timing model (:mod:`repro.sim.timing.machine`) is a
chain of ``max``/``+`` recurrences per dynamic task::

    start_i  = max(dispatch_i, unit_free_i)
    finish_i = max(start_i + exec_i, finish_{i-1} + forward_i)
    commit_i = max(finish_i, commit_{i-1} + commit_interval)

with ``dispatch_{i+1}`` set by the prediction outcome (``+ interval`` on a
correct prediction, ``finish_i`` on a gated one, ``finish_i + penalty`` on
a mispredict). Once the per-task prediction outcomes are known — the
batched predictors supply them as a column — the whole chain is linear in
the *max-plus semiring*, so it can be evaluated without a per-task Python
loop.

* **Ring elimination.** ``unit_free_i`` is the commit time of the task
  that last ran on the same unit, ``commit_{i-N}`` for an ``N``-unit
  ring, *except* that a squash clamps the unit-free times down to the
  restart point. The clamp is removable: if any task in ``[i-N, i-1]``
  mispredicted, ``dispatch_i`` already dominates the clamped unit-free
  time (dispatch is monotone and a mispredict at ``j`` forces
  ``dispatch_{j+1} = finish_j + penalty``, an upper bound of every
  clamped entry), so ``start_i = dispatch_i``; otherwise no clamp was
  live in the window and ``start_i = max(dispatch_i, commit_{i-N})``.
  The window is ``N`` shifted ORs of the mispredict column.

* **State.** After task ``i`` the state is the ``2 + N`` vector
  ``(dispatch_{i+1}, finish_i, u_0 .. u_{N-1})``, where unit slot
  ``u_s`` holds the commit time of the last task with ``index % N ==
  s``. Task ``i`` reads ``commit_{i-N}`` from ``u_{i % N}`` and
  ``commit_{i-1}`` from ``u_{(i-1) % N}``, then overwrites
  ``u_{i % N}`` with ``commit_i``; no separate commit component is
  needed. The machine starts with every component 0.

* **Chunks.** The ``n`` tasks are cut into ``n_chunks`` chunks of ``K``
  steps, ``K`` a multiple of ``N`` near ``sqrt(n / 6)`` (so a chunk
  starts on slot 0), and the last chunk is padded at its tail with
  zero-cycle correct tasks. Per-step columns are laid out steps-major,
  ``(K, n_chunks)``: row ``k`` holds step ``k`` of every chunk,
  contiguously, so every numpy operation below runs over whole rows.
  The exec and forward layouts are cached per cycle column, so every
  scheme swept over one trace shares them.

* **Three passes.** Pass 1 composes each chunk's max-plus matrix: one
  ``(2 + N, n_chunks)`` coefficient array per output component, row
  ``j`` holding the coefficient of entry component ``j``, updated by
  ``K`` row-wide steps. Pass 2 propagates the entry state from chunk to
  chunk, ``n_chunks - 1`` steps of one ``(2 + N, 2 + N)`` matrix each.
  Pass 3 re-runs the recurrence on values inside every chunk at once,
  reads the final commit at the last real task, and sums the stalls.

* **Sentinel.** :data:`_NEG` is the semiring's minus infinity. Every
  coefficient starts at 0 or ``_NEG`` and stays ``>= _NEG`` after every
  step: the finish coefficient is a max that includes ``finish +
  forward``, with ``forward >= 0``; dispatch adds a non-negative
  interval or penalty to a coefficient ``>= _NEG``; a unit slot takes a
  max that includes finish. A masked unit term adds ``_NEG`` to a
  coefficient ``>= _NEG``, so no sum adds more than two sentinels, and
  two land exactly on ``INT64_MIN`` without wrapping. Cycle counts and
  intervals are non-negative and far below ``2**62``.

* **Stalls.** A mispredict at task ``i`` costs ``max(0, finish_i +
  penalty - dispatch_i - interval)`` cycles, which is ``max(F - D, d -
  p) + (p - d)`` with ``F, D`` the task's finish and dispatch and ``d,
  p`` the interval and penalty. Pass 3 sums the first term over the
  mispredicted steps and adds ``count * (p - d)`` once.

The scan's equivalence proofs are the hypothesis properties in
``tests/test_sim_timing_vectorized.py``: one draws raw columns (lengths
up to 30,000, every ring size and outcome mix) against the stepped
recurrence :func:`repro.sim.reference.stepped_timing`, the other draws
trace prefixes, every :class:`~repro.sim.timing.config.TimingConfig`
field and a confidence gate against
:func:`repro.sim.reference.simulate_timing`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.memo import DerivedColumnCache

#: "Minus infinity" of the max-plus semiring. Chosen so one addition of
#: two sentinels lands exactly on INT64_MIN without wrapping.
_NEG = np.int64(-(1 << 62))

#: Per-step prediction outcome codes.
CODE_CORRECT = 0
CODE_GATED = 1
CODE_MISPREDICT = 2

#: Steps-major layouts of cycle columns, per (column, chunk length).
_LAYOUTS = DerivedColumnCache()


def _steps_major(column: np.ndarray, chunk: int) -> np.ndarray:
    """``column`` as ``(chunk, n_chunks)`` rows, zero-padded at the tail
    of the last chunk."""
    n = len(column)
    n_chunks = -(-n // chunk)
    full = (n_chunks - 1) * chunk
    rows = np.zeros((chunk, n_chunks), dtype=column.dtype)
    rows[:, :-1] = column[:full].reshape(n_chunks - 1, chunk).T
    rows[: n - full, -1] = column[full:]
    return rows


def max_plus_timing_scan(
    exec_cycles: np.ndarray,
    forward_stalls: np.ndarray,
    codes: np.ndarray,
    n_units: int,
    dispatch_interval: int,
    mispredict_penalty: int,
    commit_interval: int,
) -> tuple[int, int]:
    """Evaluate the timing recurrences over a whole trace at once.

    ``exec_cycles`` and ``forward_stalls`` are per-task int64 cycle
    columns; ``codes`` holds :data:`CODE_CORRECT` / :data:`CODE_GATED` /
    :data:`CODE_MISPREDICT` per task. Returns ``(total_cycles,
    mispredict_stall_cycles)``, bit-identical to the stepped model.
    """
    n = len(exec_cycles)
    if n == 0:
        return 0, 0
    ring = int(n_units)
    d_step = np.int64(dispatch_interval)
    penalty = np.int64(mispredict_penalty)
    c_step = np.int64(commit_interval)
    chunk = max(int(round((n / 6) ** 0.5)) // ring * ring, ring)
    n_chunks = -(-n // chunk)
    last = n - 1 - (n_chunks - 1) * chunk  # final real step of the last chunk
    state = 2 + ring

    exec_rows = _LAYOUTS.get(
        (exec_cycles,), chunk, lambda: _steps_major(exec_cycles, chunk)
    )
    forward_rows = _LAYOUTS.get(
        (forward_stalls,), chunk, lambda: _steps_major(forward_stalls, chunk)
    )
    missed = codes == CODE_MISPREDICT
    masked = np.zeros(n, dtype=bool)
    for shift in range(1, min(ring + 1, n)):
        np.logical_or(masked[shift:], missed[: n - shift], out=masked[shift:])
    redirect_rows = _steps_major(codes != CODE_CORRECT, chunk)
    missed_rows = _steps_major(missed, chunk)
    masked_rows = _steps_major(masked, chunk)

    row = np.empty(n_chunks, dtype=np.int64)  # exec, or -inf if masked
    pen = np.empty(n_chunks, dtype=np.int64)  # penalty, or 0 if not missed

    # Pass 1: coef[c] maps the chunk's entry state to output component c
    # (0 dispatch, 1 finish, 2 + s unit slot s); row j of it is the
    # coefficient of entry component j. The identity starts every chunk.
    coef = np.full((state, state, n_chunks), _NEG, dtype=np.int64)
    coef[np.arange(state), np.arange(state)] = 0
    dispatch, finish, units = coef[0], coef[1], list(coef[2:])
    spare = np.empty((state, n_chunks), dtype=np.int64)
    tmp = np.empty((state, n_chunks), dtype=np.int64)
    for k in range(chunk):
        slot, prev = k % ring, (k - 1) % ring
        np.copyto(row, exec_rows[k])
        np.copyto(row, _NEG, where=masked_rows[k])
        np.multiply(missed_rows[k], penalty, out=pen)
        np.add(dispatch, exec_rows[k], out=spare)
        np.add(units[slot], row, out=tmp)
        np.maximum(spare, tmp, out=spare)
        np.add(finish, forward_rows[k], out=tmp)
        np.maximum(spare, tmp, out=spare)  # the new finish
        finish, spare = spare, finish
        np.add(units[prev], c_step, out=tmp)
        np.maximum(finish, tmp, out=units[slot])
        np.add(dispatch, d_step, out=dispatch)
        np.add(finish, pen, out=tmp)
        np.copyto(dispatch, tmp, where=redirect_rows[k])

    # Pass 2: the entry state of every chunk, in chunk order. A Python
    # loop, but of about sqrt(6n) steps, each one whole (2 + N, 2 + N)
    # matrix operation; chunk j + 1's entry needs chunk j's, and a
    # log-depth composition of the chunk matrices measured no faster at
    # 200k tasks.
    mats = np.stack([dispatch, finish, *units]).transpose(2, 0, 1).copy()
    entry = np.zeros((n_chunks, state), dtype=np.int64)
    scratch = np.empty((state, state), dtype=np.int64)
    for j in range(n_chunks - 1):
        np.add(mats[j], entry[j], out=scratch)
        np.maximum.reduce(scratch, axis=1, out=entry[j + 1])

    # Pass 3: values inside every chunk at once, from its entry state.
    values = entry.T.copy()
    dispatch, finish, units = values[0], values[1], list(values[2:])
    spare = np.empty(n_chunks, dtype=np.int64)
    tmp = np.empty(n_chunks, dtype=np.int64)
    stalls = np.zeros(n_chunks, dtype=np.int64)
    floor = d_step - penalty
    total_cycles = 0
    for k in range(chunk):
        slot, prev = k % ring, (k - 1) % ring
        np.copyto(row, exec_rows[k])
        np.copyto(row, _NEG, where=masked_rows[k])
        np.add(dispatch, exec_rows[k], out=spare)
        np.add(units[slot], row, out=tmp)
        np.maximum(spare, tmp, out=spare)
        np.add(finish, forward_rows[k], out=tmp)
        np.maximum(spare, tmp, out=finish)
        np.add(units[prev], c_step, out=tmp)
        np.maximum(finish, tmp, out=units[slot])
        if k == last:
            total_cycles = int(units[slot][-1])
        np.subtract(finish, dispatch, out=tmp)
        np.maximum(tmp, floor, out=tmp)
        np.add(stalls, tmp, out=stalls, where=missed_rows[k])
        np.multiply(missed_rows[k], penalty, out=pen)
        np.add(dispatch, d_step, out=dispatch)
        np.add(finish, pen, out=tmp)
        np.copyto(dispatch, tmp, where=redirect_rows[k])

    count = int(np.count_nonzero(missed))
    return total_cycles, int(stalls.sum()) + count * int(penalty - d_step)
