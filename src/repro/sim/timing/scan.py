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

Two exact reductions make that possible:

* **Ring elimination.** ``unit_free_i`` is the commit time of the task
  that last ran on the same unit, ``commit_{i-N}`` for an ``N``-unit
  ring, *except* that a squash clamps the unit-free times down to the
  restart point. The clamp is removable: if any task in ``[i-N, i-1]``
  mispredicted, ``dispatch_i`` already dominates the clamped unit-free
  time (dispatch is monotone and a mispredict at ``j`` forces
  ``dispatch_{j+1} = finish_j + penalty``, an upper bound of every
  clamped entry), so ``start_i = dispatch_i``; otherwise no clamp was
  live in the window and ``start_i = max(dispatch_i, commit_{i-N})``.
  The window condition is one cumulative-sum mask.

* **Chunked scan.** With state vector ``(dispatch, finish, commit,
  commit_{last N steps})`` each task is a max-plus matrix. Composing
  ``K`` of them per chunk *columnwise across all chunks at once* (pass
  1), propagating chunk-entry states sequentially (pass 2, ``n/K`` cheap
  steps), then re-running values inside chunks (pass 3) costs
  ``O(n * (3+N))`` numpy work with only ``K + n/K + K`` Python
  iterations — minimised at ``K ≈ sqrt(n)``.

The scan's equivalence proof is the hypothesis property in
``tests/test_sim_timing_vectorized.py``: for every profile and Table 4
scheme it draws a trace prefix, every
:class:`~repro.sim.timing.config.TimingConfig` field and an
optional confidence gate, and requires results equal to the stepped
reference (:func:`repro.sim.reference.simulate_timing`).
"""

from __future__ import annotations

import numpy as np

#: "Minus infinity" of the max-plus semiring. Chosen so one addition of
#: two sentinels lands exactly on INT64_MIN without wrapping.
_NEG = np.int64(-(1 << 62))

#: Per-step prediction outcome codes.
CODE_CORRECT = 0
CODE_GATED = 1
CODE_MISPREDICT = 2


def mispredict_window_mask(codes: np.ndarray, n_units: int) -> np.ndarray:
    """True where any of the previous ``n_units`` steps mispredicted.

    This is the ring-elimination condition: inside the mask the unit-free
    time is dominated by the dispatch chain, outside it the unit frees
    exactly at ``commit_{i-n_units}``.
    """
    n = len(codes)
    mispredicts = (codes == CODE_MISPREDICT).astype(np.int64)
    cumulative = np.concatenate(([0], np.cumsum(mispredicts)))
    positions = np.arange(n)
    window_lo = np.maximum(positions - n_units, 0)
    return (cumulative[positions] - cumulative[window_lo]) > 0


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

    ``exec_cycles`` and ``forward_stalls`` are per-task cycle columns;
    ``codes`` holds :data:`CODE_CORRECT` / :data:`CODE_GATED` /
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
    masked = mispredict_window_mask(codes, ring)

    # Chunk geometry: K a multiple of n_units (the unit-slot rotation
    # must stay aligned at chunk boundaries), sized near sqrt(n).
    chunk = int(round((n / 6) ** 0.5)) // ring * ring
    chunk = max(chunk, ring)
    n_chunks = -(-n // chunk)
    padded = n_chunks * chunk
    state_dim = 3 + ring  # (dispatch, finish, commit, u_0 .. u_{N-1})

    # Padding steps are exact no-ops: exec = -inf kills the start term,
    # zero forward/commit/dispatch increments freeze the chains, and the
    # mask guards the unit term against sentinel arithmetic.
    exec_col = np.full(padded, _NEG, dtype=np.int64)
    exec_col[:n] = exec_cycles
    forward_col = np.zeros(padded, dtype=np.int64)
    forward_col[:n] = forward_stalls
    code_col = np.full(padded, CODE_CORRECT, dtype=np.int64)
    code_col[:n] = codes
    mask_col = np.ones(padded, dtype=bool)
    mask_col[:n] = masked
    commit_step_col = np.zeros(padded, dtype=np.int64)
    commit_step_col[:n] = c_step
    dispatch_step_col = np.zeros(padded, dtype=np.int64)
    dispatch_step_col[:n] = d_step

    # Per-step derived columns, computed once so the scan loops touch the
    # minimum operation count. ``exec_unit_col`` folds the window mask
    # into the unit term (masked steps contribute -inf); ``penalty_col``
    # folds the outcome codes into the dispatch update.
    exec_unit_col = np.where(mask_col, _NEG, exec_col)
    correct_col = code_col == CODE_CORRECT
    penalty_col = np.where(
        code_col == CODE_MISPREDICT, penalty, np.int64(0)
    )

    shape_2d = (n_chunks, chunk)

    def cols(values: np.ndarray, width: int) -> list[np.ndarray]:
        # Pre-sliced per-step views: list indexing inside the scan loops
        # is much cheaper than repeated 2-D slicing.
        grid = values.reshape(n_chunks, chunk, 1)
        if width == 1:
            return [grid[:, k] for k in range(chunk)]
        return [grid[:, k, 0] for k in range(chunk)]

    exec_b, exec_unit_b = cols(exec_col, 1), cols(exec_unit_col, 1)
    forward_b = cols(forward_col, 1)
    commit_step_b = cols(commit_step_col, 1)
    dispatch_step_b = cols(dispatch_step_col, 1)
    correct_b, penalty_b = cols(correct_col, 1), cols(penalty_col, 1)

    # Pass 1: compose each chunk's max-plus coefficients, columnwise
    # across all chunks. coef[j] maps entry-state component j to the
    # output; a "unit vector" is the max-plus identity row.
    def unit(component: int) -> np.ndarray:
        row = np.full((n_chunks, state_dim), _NEG, dtype=np.int64)
        row[:, component] = 0
        return row

    coef_d, coef_f, coef_c = unit(0), unit(1), unit(2)
    unit_coefs = [unit(3 + slot) for slot in range(ring)]
    for k in range(chunk):
        slot = k % ring
        new_f = np.maximum(
            np.maximum(
                coef_d + exec_b[k], unit_coefs[slot] + exec_unit_b[k]
            ),
            coef_f + forward_b[k],
        )
        new_c = np.maximum(new_f, coef_c + commit_step_b[k])
        new_d = np.where(
            correct_b[k],
            coef_d + dispatch_step_b[k],
            new_f + penalty_b[k],
        )
        coef_d, coef_f, coef_c = new_d, new_f, new_c
        unit_coefs[slot] = new_c

    # Pass 2: propagate the entry state of each chunk sequentially.
    coefs = np.stack([coef_d, coef_f, coef_c] + unit_coefs, axis=1)
    mats = list(coefs)
    states = np.empty((n_chunks + 1, state_dim), dtype=np.int64)
    states[0] = 0
    scratch = np.empty((state_dim, state_dim), dtype=np.int64)
    for chunk_index, mat in enumerate(mats):
        np.add(mat, states[chunk_index], out=scratch)
        scratch.max(axis=1, out=states[chunk_index + 1])

    # Pass 3: re-run the recurrence on values inside every chunk at once
    # to recover the per-step dispatch/finish needed for stall accounting.
    exec_v, exec_unit_v = cols(exec_col, 0), cols(exec_unit_col, 0)
    forward_v = cols(forward_col, 0)
    commit_step_v = cols(commit_step_col, 0)
    dispatch_step_v = cols(dispatch_step_col, 0)
    correct_v, penalty_v = cols(correct_col, 0), cols(penalty_col, 0)
    dispatch = states[:n_chunks, 0].copy()
    finish = states[:n_chunks, 1].copy()
    commit = states[:n_chunks, 2].copy()
    unit_vals = [states[:n_chunks, 3 + slot].copy() for slot in range(ring)]
    finish_all = np.empty(shape_2d, dtype=np.int64)
    dispatch_all = np.empty(shape_2d, dtype=np.int64)
    for k in range(chunk):
        slot = k % ring
        dispatch_all[:, k] = dispatch
        new_f = np.maximum(
            np.maximum(
                dispatch + exec_v[k], unit_vals[slot] + exec_unit_v[k]
            ),
            finish + forward_v[k],
        )
        new_c = np.maximum(new_f, commit + commit_step_v[k])
        new_d = np.where(
            correct_v[k], dispatch + dispatch_step_v[k], new_f + penalty_v[k]
        )
        finish_all[:, k] = new_f
        dispatch, finish, commit = new_d, new_f, new_c
        unit_vals[slot] = new_c

    total_cycles = int(states[n_chunks, 2])
    finish_flat = finish_all.reshape(-1)[:n]
    dispatch_flat = dispatch_all.reshape(-1)[:n]
    missed = codes == CODE_MISPREDICT
    stalls = int(
        np.maximum(
            0,
            finish_flat[missed]
            + penalty
            - dispatch_flat[missed]
            - d_step,
        ).sum()
    )
    return total_cycles, stalls
