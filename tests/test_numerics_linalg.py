"""Batch-invariance tests for the deterministic linalg primitives.

Every primitive in ``repro.numerics.linalg`` promises that a row's result
is a pure function of that row's data - independent of how many other rows
share the call.  The engine's bit-parity contract (per-head == batched ==
cluster) and the SU-FA kernel layer's differential contract both stand on
these invariances, so they get their own direct tests.  The KV projection
is also held, bit for bit, to each row contracted alone on a fresh
contiguous copy (the oracle below), across misaligned rows and OpenBLAS
thread counts, and the exact-integer matmul to int64 arithmetic on both
sides of the float64 window.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.linalg import (
    _blas_exact,
    det_gathered_project,
    det_matmul,
    det_pv_contract,
    det_rowdot,
    det_stack_scores,
    det_tile_mass,
    exact_int_matmul,
)
from repro.utils.rng import make_rng


def _rows_alone(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Oracle: every row contracted on its own, from a fresh contiguous copy."""
    return np.stack([row.copy() @ mat for row in x])


def _operands(rng, c: int, k: int, n: int, kind: str):
    x = rng.normal(size=(c, k))
    mat = rng.normal(size=(k, n))
    if kind == "signed_zeros":
        x[rng.random(x.shape) < 0.4] = -0.0
        mat[rng.random(mat.shape) < 0.4] = 0.0
        x[0] = -0.0  # a row whose every product is a signed zero,
        mat[:, 0] = np.abs(mat[:, 0])  # all of them -0.0 in column 0
    elif kind == "subnormal":
        x *= 1e-310  # subnormal inputs and products
    elif kind == "strided":
        x = rng.normal(size=(c, 2 * k))[:, ::2]
    return x, mat


@pytest.mark.parametrize("kind", ["normal", "signed_zeros", "subnormal", "strided"])
@pytest.mark.parametrize("c", [1, 7, 300])
@pytest.mark.parametrize("k", [1, 64, 128, 256])
def test_projection_matches_broadcast_reduce_bit_for_bit(kind, c, k):
    rng = make_rng(10 + c + k)
    for n in (2, 3, 17, 64):
        x, mat = _operands(rng, c, k, n, kind)
        want = _rows_alone(x, mat)
        assert det_matmul(x, mat).tobytes() == want.tobytes()
        # head-sorted runs over a stack, plus runs of length one
        w = np.stack([rng.normal(size=(k, n)), mat, -mat])
        rows = np.sort(rng.integers(0, 3, size=c))
        rows[: c // 2] = rng.integers(0, 3, size=c // 2)
        want = np.concatenate(
            [_rows_alone(x[i : i + 1], w[rows[i]]) for i in range(c)]
        )
        assert det_gathered_project(x, w, rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("strided", [False, True])
def test_det_matmul_rows_independent_of_batch(n, strided):
    rng = make_rng(1)
    a = rng.normal(size=(37, 32))
    a = a[:, ::2] if strided else a[:, :16]
    b = rng.normal(size=(16, n))
    full = det_matmul(a, b)
    for sl in (slice(0, 1), slice(0, 3), slice(5, 20), slice(36, 37)):
        assert det_matmul(a[sl], b).tobytes() == full[sl].tobytes()
        assert det_matmul(a[sl].copy(), b).tobytes() == full[sl].tobytes()
    rows = np.array([0] * 10 + [1] * 20 + [2] * 7)
    w = np.stack([b, rng.normal(size=(16, n)), b[::-1]])
    got = det_gathered_project(a, w, rows)
    for i in range(a.shape[0]):
        assert got[i].tobytes() == det_matmul(a[i : i + 1], w[rows[i]])[0].tobytes()


def _misaligned(rng, r: int, k: int, offset: int) -> np.ndarray:
    """A C-contiguous ``(r, k)`` float64 array starting ``offset`` bytes past
    a 64-byte boundary (so its rows sit at assorted alignments too)."""
    buf = np.empty(r * k * 8 + 128, dtype=np.uint8)
    start = (-buf.ctypes.data) % 64 + offset
    x = buf[start : start + r * k * 8].view(np.float64).reshape(r, k)
    x[...] = rng.normal(size=(r, k))
    assert x.ctypes.data % 64 == offset
    return x


@pytest.mark.parametrize("offset", [0, 8, 24])
@pytest.mark.parametrize("k", [3, 127])
def test_projection_rows_invariant_when_misaligned(offset, k):
    rng = make_rng(20 + offset + k)
    for n in (1, 2, 3, 17, 64):
        x = _misaligned(rng, 41, k, offset)
        mat = rng.normal(size=(k, n))
        full = det_matmul(x, mat)
        assert full.tobytes() == _rows_alone(x, mat).tobytes()
        for sl in (slice(0, 1), slice(1, 2), slice(3, 30), slice(40, 41)):
            assert det_matmul(x[sl], mat).tobytes() == full[sl].tobytes()
        w = np.stack([mat, rng.normal(size=(k, n))])
        rows = np.repeat([0, 1, 0], [10, 20, 11])
        want = np.concatenate([full[:10], _rows_alone(x[10:30], w[1]), full[30:]])
        assert det_gathered_project(x, w, rows).tobytes() == want.tobytes()


_THREADS_PROBE = """
import hashlib, numpy as np
from repro.numerics.linalg import det_gathered_project
rng = np.random.default_rng(3)
digest = hashlib.sha256()
for r, k, n, heads in ((300, 64, 64, 2), (190, 128, 64, 16), (64, 256, 64, 3), (50, 127, 17, 2)):
    x = rng.normal(size=(r, k))
    w = rng.normal(size=(heads, k, n))
    rows = np.sort(rng.integers(0, heads, size=r))
    digest.update(det_gathered_project(x, w, rows).tobytes())
print(digest.hexdigest())
"""


def test_projection_digest_independent_of_openblas_threads():
    """Shapes up to ``256 x 64`` (past OpenBLAS's one-thread gemv cut-off)
    give the same bytes under one and two BLAS threads."""
    import repro

    path = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_projection_overflow_still_raises_under_warnings_as_errors():
    x = np.full((2, 4), 1e200)
    w = np.full((1, 4, 3), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            det_gathered_project(x, w, np.zeros(2, dtype=np.int64))
        with pytest.raises(RuntimeWarning, match="overflow"):
            det_matmul(x, w[0])
        # a non-finite operand is the caller's value, not an overflow here
        x[0, 0] = np.nan
        assert np.isnan(det_matmul(x, w[0])[0]).all()


def _assert_exact(a, b, blas: bool):
    assert _blas_exact(a, b) is blas
    want = (a @ b).astype(np.float64)
    assert exact_int_matmul(a, b).tobytes() == want.tobytes()


def test_exact_int_matmul_inside_the_window_runs_blas_exactly():
    rng = make_rng(5)
    pow2 = (2 ** rng.integers(0, 15, size=(3, 6, 8))) * rng.choice([-1, 0, 1], (3, 6, 8))
    k_hat = rng.integers(-(2**15), 2**15, size=(3, 40, 8))
    _assert_exact(pow2, k_hat.transpose(0, 2, 1), blas=True)
    _assert_exact(pow2[0], k_hat[0].T, blas=True)
    # just inside the bound: depth * max|a| * max|b| = 2**53 - 2**26
    _assert_exact(np.array([[2**26]]), np.array([[-(2**27) + 1]]), blas=True)
    empty = np.zeros((2, 0), dtype=np.int64)
    _assert_exact(empty, empty.T, blas=True)


def test_exact_int_matmul_outside_the_window_falls_back_to_int64():
    _assert_exact(np.array([[2**26]]), np.array([[-(2**27)]]), blas=False)
    # float64 would round these operands and lose the cancellation
    ones = np.ones((2, 1), dtype=np.int64)
    _assert_exact(np.array([[2**53 + 1, -(2**53)]]), ones, blas=False)
    big = np.iinfo(np.int64).max
    _assert_exact(np.array([[big, -(big - 1)]]), ones, blas=False)
    # int64's minimum has no positive counterpart: np.abs would wrap it
    _assert_exact(np.array([[np.iinfo(np.int64).min, 1]]), ones, blas=False)
    assert exact_int_matmul(np.array([[big, -(big - 1)]]), ones)[0, 0] == 1.0


def test_exact_int_matmul_int64_output_is_the_integer_product():
    """``dtype=np.int64`` returns ``a @ b`` itself on both sides of the
    window, including products no float64 can hold."""
    ones = np.ones((2, 1), dtype=np.int64)
    rng = make_rng(6)
    a = rng.integers(-(2**15), 2**15, size=(2, 30, 8))
    b = rng.integers(-(2**7), 2**7, size=(2, 8, 5))
    for x, y, blas in (
        (a, b, True),
        (np.array([[2**53 + 1, 2]]), ones, False),  # 2**53 + 3: not a float64
        (a * 2**30, b, False),  # products near 2**55
    ):
        assert _blas_exact(x, y) is blas
        got = exact_int_matmul(x, y, dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, x @ y)


def test_det_stack_scores_matches_rowdot_values_and_is_batch_invariant():
    rng = make_rng(2)
    k_sel = rng.normal(size=(23, 70, 12))
    q = rng.normal(size=(23, 12))
    scores = det_stack_scores(k_sel, q)
    np.testing.assert_allclose(
        scores, det_rowdot(k_sel, q[:, None, :]), rtol=0, atol=1e-12
    )
    for rows in (slice(0, 1), slice(7, 19), np.array([0, 4, 22, 9])):
        sub = det_stack_scores(
            np.ascontiguousarray(k_sel[rows]), np.ascontiguousarray(q[rows])
        )
        assert sub.tobytes() == np.ascontiguousarray(scores[rows]).tobytes()
    with pytest.raises(ValueError):
        det_stack_scores(k_sel, q[:, :5])


def test_det_pv_contract_batch_invariant_on_tile_slices():
    """The SU-FA tile merge: slab slices of a gathered stack, any row set."""
    rng = make_rng(3)
    r, kk, dv = 19, 96, 7
    p = np.exp(rng.normal(size=(r, 32)))
    values = rng.normal(size=(r, kk, dv))
    tile = values[:, 40:72, :]  # strided tile view, per-row slab contiguous
    full = det_pv_contract(p, tile)
    np.testing.assert_allclose(
        full, (p[:, :, None] * tile).sum(axis=1), rtol=0, atol=1e-12
    )
    for rows in (slice(0, 1), slice(3, 11)):
        # row subsets keep the canonical slab layout (see the docstring's
        # layout note): a view-preserving slice, not a re-packed copy
        sub = det_pv_contract(p[rows], tile[rows])
        assert sub.tobytes() == np.ascontiguousarray(full[rows]).tobytes()
    with pytest.raises(ValueError):
        det_pv_contract(p, values)  # tile width mismatch


def test_det_tile_mass_batch_invariant():
    rng = make_rng(4)
    p = np.exp(rng.normal(size=(31, 48)))
    full = det_tile_mass(p)
    for rows in (slice(0, 1), slice(10, 25), np.array([2, 30, 7])):
        assert det_tile_mass(p[rows]).tobytes() == np.ascontiguousarray(
            full[rows]
        ).tobytes()
    with pytest.raises(ValueError):
        det_tile_mass(p[:, :, None])


def _in_row_blocks(fn, step: int, r: int) -> np.ndarray:
    """``fn(rows)`` over consecutive row blocks of ``step``, concatenated."""
    return np.concatenate([fn(slice(lo, lo + step)) for lo in range(0, r, step)])


@given(
    r=st.integers(1, 24),
    kk=st.integers(1, 70),
    d=st.integers(1, 40),
    dv=st.integers(1, 33),
    lo=st.integers(0, 20),
    b=st.integers(1, 70),
    step=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_scores_and_pv_contract_bits_equal_in_row_blocks(r, kk, d, dv, lo, b, step, seed):
    """SU-FA's gathers run in row blocks: a score row and a tile partial
    have the same bits in a block of any size as in the whole stack (with
    kk < 4, B % 4 != 0 and odd Dv among the draws)."""
    rng = make_rng(seed)
    u = max(kk, lo + b)
    keys = rng.normal(size=(u, d))
    values = rng.normal(size=(u, dv))
    q = rng.normal(size=(r, d))
    index = rng.integers(0, u, size=(r, max(kk, lo + b)))
    p = np.exp(rng.normal(size=(r, b)))

    def scores(rows):
        return det_stack_scores(np.take(keys, index[rows, :kk], axis=0), q[rows])

    def partial(rows):
        tile = np.take(values, index[rows, lo : lo + b], axis=0)
        return det_pv_contract(p[rows], tile)

    everything = slice(0, r)
    assert _in_row_blocks(scores, step, r).tobytes() == scores(everything).tobytes()
    assert _in_row_blocks(partial, step, r).tobytes() == partial(everything).tobytes()


_ROW_BLOCKS_PROBE = """
import hashlib, numpy as np
from repro.numerics.linalg import det_pv_contract, det_stack_scores
rng = np.random.default_rng(4)
digest = hashlib.sha256()
for r, kk, d, b, dv in ((256, 205, 64, 64, 64), (128, 3, 64, 63, 33), (37, 517, 16, 6, 7)):
    u = 4 * max(kk, b)
    keys = rng.normal(size=(u, d))
    values = rng.normal(size=(u, dv))
    q = rng.normal(size=(r, d))
    index = rng.integers(0, u, size=(r, max(kk, b)))
    p = np.exp(rng.normal(size=(r, b)))
    outs = set()
    for step in (1, 4, 16, r):
        blocks = [slice(lo, lo + step) for lo in range(0, r, step)]
        scores = np.concatenate([
            det_stack_scores(np.take(keys, index[rows, :kk], axis=0), q[rows])
            for rows in blocks
        ])
        partial = np.concatenate([
            det_pv_contract(p[rows], np.take(values, index[rows, :b], axis=0))
            for rows in blocks
        ])
        outs.add(scores.tobytes() + partial.tobytes())
    assert len(outs) == 1, (r, kk, b)
    digest.update(outs.pop())
print(digest.hexdigest())
"""


def test_row_block_digest_independent_of_openblas_threads():
    """Prefill-sized score and tile-merge stacks give the same bytes in
    row blocks of 1, 4, 16 and all rows, under one and two BLAS threads."""
    import repro

    path = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", _ROW_BLOCKS_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
