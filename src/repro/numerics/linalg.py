"""Deterministic (batch-invariant) linear algebra primitives.

The batched engine (``repro.engine``) promises *bit-for-bit* parity with the
single-head :class:`~repro.core.pipeline.SofaAttention`: stacking eight heads
into one call must produce exactly the float64 bit patterns the eight
individual calls produce.  BLAS-backed ``@`` breaks that promise - gemm/gemv
pick different blocking (and therefore different summation orders) depending
on the operand shapes, so a row's result can change when unrelated rows are
appended.

Two families of primitives restore the invariance:

* the *stacked fixed-shape* contractions.  The KV projection
  (``det_matmul`` / ``det_gathered_project``) contracts each C-contiguous
  row as its own ``(1, K) @ (K, N)`` BLAS call, and the SU-FA hot-path
  primitives ``det_stack_scores`` and ``det_pv_contract`` do the same with
  their ``(kk, D) @ (D, 1)`` and ``(1, B) @ (B, Dv)`` row calls
  (``det_tile_mass`` sums each contiguous row on its own).  The operand
  shapes - and hence the internal reduction order - do not depend on the
  stack size, so rows stay batch-invariant at full BLAS speed.  Their bits are whatever the BLAS kernel's reduction order
  makes them: they are a function of the row, the matrix and the kernel,
  not of a fixed summation formula, so they may differ between BLAS builds
  (or CPU kernels) but never between a row computed alone and the same row
  inside a stack.  What IS forbidden remains one fused gemm over the whole
  stack, whose blocking would couple rows.  ``det_rowdot`` keeps the
  materialized broadcast-reduce form;
* integer matmuls (``exact_int_matmul``: DLZS phase 1.1 and the score
  matmul) may use float64 BLAS freely whenever :func:`_blas_exact` proves
  every partial sum is an exactly representable integer: then any
  summation order yields the exact result.

Either way, every row's output is independent of how many other rows share
the call.
"""

from __future__ import annotations

import warnings

import numpy as np

#: Float64 integer window: every integer of magnitude < 2**53 is exact.
_EXACT_WINDOW = float(2**53)


def _max_abs(x: np.ndarray) -> float:
    # From the extremes in float64: np.abs would wrap int64's minimum to a
    # negative number (and allocate a full temporary).
    return max(-float(x.min()), float(x.max()))


def _blas_exact(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether float64 BLAS reproduces the integer matmul ``a @ b`` bit for bit.

    ``a`` contracts its last axis; ``depth`` is that axis' length.
    Sufficient condition: ``depth * max|a| * max|b| < 2**53`` bounds the
    absolute value of *every* partial sum any summation order (or FMA
    blocking) can form, so all intermediates and the final dot products are
    exactly representable.  Defaults sit far inside the window: 16-bit
    queries and keys give ``depth * 2**15 * 2**15``, exact up to depth
    ``2**23``.
    """
    if b.size == 0:
        return True
    return _matmul_bound(a, _max_abs(b)) < _EXACT_WINDOW


def _matmul_bound(a: np.ndarray, b_max: float) -> float:
    """``depth * max|a| * b_max``: a bound on every partial sum of the
    integer matmul ``a @ b`` for a ``b`` known only through ``max|b| <=
    b_max`` (0.0 when ``a`` is empty).

    Callers that already bound ``b`` (a truncation width) skip scanning
    it; :func:`_blas_exact` holds when the bound is below ``2**53``.
    """
    if a.size == 0:
        return 0.0
    return a.shape[-1] * _max_abs(a) * b_max


def exact_int_matmul(a: np.ndarray, b: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Integer ``a @ b`` (stacked like ``np.matmul``), returned as ``dtype``.

    Equals ``(a @ b).astype(dtype)`` bit for bit.  Inside the
    :func:`_blas_exact` window the product runs as a float64 BLAS matmul
    (every partial sum is an exact integer, so the blocking is irrelevant);
    outside it falls back to the exact int64 matmul, so ``dtype=np.int64``
    returns the exact integer product on both sides of the window.  Either
    operand may hold its integers as float64 (as DLZS codes do).
    """
    if not _blas_exact(a, b):
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        return (a @ b).astype(dtype, copy=False)
    a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
    return (a @ b).astype(dtype, copy=False)


def _contract(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``x @ mat`` as one fixed-shape ``(1, K) @ (K, N)`` BLAS call per row.

    ``x`` must be C-contiguous (every caller makes it so): a row whose
    elements are not unit-strided would leave the BLAS path.  Floating-point
    status is ignored here; :func:`_warn_if_overflowed` is the one warning
    source, whatever the BLAS reports.
    """
    with np.errstate(all="ignore"):
        return np.matmul(x[:, None, :], mat)[:, 0, :]


def _warn_if_overflowed(out: np.ndarray, *operands: np.ndarray) -> None:
    """Warn when finite operands gave a non-finite result: an overflow."""
    if not np.isfinite(out).all() and all(np.isfinite(op).all() for op in operands):
        warnings.warn(
            "overflow encountered in deterministic matmul", RuntimeWarning, stacklevel=3
        )


def det_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic ``(M, K) @ (K, N)`` float64 matmul.

    Row ``i`` of the result is bit-identical for any ``M``, which is what
    lets the sequential pipeline and the batched engine share exact
    outputs.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    out = _contract(a, b)
    _warn_if_overflowed(out, a, b)
    return out


def det_gathered_project(
    x: np.ndarray, w: np.ndarray, row_matrix: np.ndarray
) -> np.ndarray:
    """Per-row projection ``out[i] = x[i] @ w[row_matrix[i]]``.

    ``x`` is ``(R, K)``, ``w`` is a stack ``(N_mats, K, N)`` and
    ``row_matrix`` maps each row to its matrix (the engine maps selected
    tokens back to their head's projection weights).  Row results are
    bit-identical to ``det_matmul(x[i:i+1], w[row_matrix[i]])`` because
    both run the same contraction on C-contiguous rows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    row_matrix = np.asarray(row_matrix, dtype=np.int64)
    if x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ValueError(f"incompatible shapes {x.shape} x {w.shape}")
    if row_matrix.shape != (x.shape[0],):
        raise ValueError("row_matrix must map every row of x to a matrix")
    r, n = x.shape[0], w.shape[2]
    out = np.empty((r, n), dtype=np.float64)
    if r == 0:
        return out
    # One contraction per run of a constant matrix index (the engine's rows
    # arrive head-sorted), so no row is copied to gather its matrix.
    boundaries = np.flatnonzero(np.diff(row_matrix)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [r]))
    for start, stop in zip(starts, stops):
        out[start:stop] = _contract(x[start:stop], w[int(row_matrix[start])])
    _warn_if_overflowed(out, x, w)
    return out


def det_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic dot product over the last axis with broadcasting.

    The product is materialized C-contiguously and reduced over the final
    axis, so each entry depends only on its own ``D`` elements regardless of
    what else shares the call.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    prod = np.ascontiguousarray(a * b)
    return prod.sum(axis=-1)


def det_stack_scores(k_sel: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Batch-invariant score gather ``scores[r, j] = k_sel[r, j] . q_rows[r]``.

    ``k_sel`` is ``(R, kk, D)``, ``q_rows`` is ``(R, D)``; returns ``(R,
    kk)``.  Implemented as a stacked matrix-vector product: every row ``r``
    is its own ``(kk, D) @ (D,)`` BLAS call whose operand shapes - and
    therefore whose reduction order - do not depend on how many rows share
    the stack, so row results are bit-identical whether one row or ten
    thousand are gathered together (the same guarantee the materialized
    :func:`det_rowdot` gives, an order of magnitude faster on the SU-FA
    hot path; ``tests/test_engine_batched.py``'s parity sweep and the
    kernel differential suite enforce the invariance on real payloads).
    """
    k_sel = np.asarray(k_sel, dtype=np.float64)
    q_rows = np.asarray(q_rows, dtype=np.float64)
    if k_sel.ndim != 3 or q_rows.ndim != 2 or k_sel.shape[0::2] != q_rows.shape:
        raise ValueError(f"incompatible shapes {k_sel.shape} x {q_rows.shape}")
    return np.matmul(k_sel, q_rows[:, :, None])[:, :, 0]


def det_pv_contract(p_tile: np.ndarray, v_tile: np.ndarray) -> np.ndarray:
    """Batch-invariant tile contraction ``out[r] = sum_j p_tile[r, j] * v_tile[r, j]``.

    ``p_tile`` is ``(R, B)`` softmax weights of one SU-FA tile, ``v_tile``
    is ``(R, B, Dv)``; returns the ``(R, Dv)`` tile partial the streaming
    core merges into its carried output at the tile boundary.  Like
    :func:`det_stack_scores`, each row is its own fixed-shape
    ``(1, B) @ (B, Dv)`` BLAS contraction, so a row's partial is
    bit-identical whether one row or the whole engine stack shares the
    call - and because the SU-FA stream and its golden model both funnel
    their tile merges through this one primitive, their bit-parity
    contract holds no matter how the BLAS orders the ``B`` products
    internally.

    Callers must lay out each row's ``(B, Dv)`` value slice contiguously
    (true for every fresh gather from the value slab): tiny-shape matmuls
    take layout-dependent internal paths, so every call site keeps this
    one canonical layout.  On it, any contiguous block of rows - the
    SU-FA tile merge runs the stack in cache-sized row blocks - gives
    each row the bits the whole stack gives it
    (``tests/test_numerics_linalg.py`` pins this across block sizes and
    BLAS thread counts).
    """
    p_tile = np.asarray(p_tile, dtype=np.float64)
    v_tile = np.asarray(v_tile, dtype=np.float64)
    if (
        p_tile.ndim != 2
        or v_tile.ndim != 3
        or v_tile.shape[:2] != p_tile.shape
    ):
        raise ValueError(f"incompatible shapes {p_tile.shape} x {v_tile.shape}")
    return np.matmul(p_tile[:, None, :], v_tile)[:, 0, :]


def det_tile_mass(p_tile: np.ndarray) -> np.ndarray:
    """Batch-invariant normalizer mass ``out[r] = sum_j p_tile[r, j]``.

    The ``(R,)`` tile partial the streaming core adds to its carried
    softmax normalizer at the tile boundary.  ``np.sum`` over the
    contiguous last axis reduces each row's ``B`` weights with a pairwise
    tree that depends only on ``B``, so - as with :func:`det_pv_contract`
    - a row's mass is independent of its batch-mates, and the SU-FA
    stream and its golden model, sharing this primitive, stay
    bit-identical.
    """
    p_tile = np.ascontiguousarray(p_tile, dtype=np.float64)
    if p_tile.ndim != 2:
        raise ValueError(f"p_tile must be (R, B), got {p_tile.shape}")
    return p_tile.sum(axis=1)
