"""DLZS: differential leading-zero summation sparsity prediction (Sec. III-A).

DLZS replaces the multiplications of the pre-compute stage with shift-adds by
converting *one* operand of each product into the log domain:

    x * y  ~=  XOR(sign_x, sign_y) * |x| << (W - LZ(y))

where ``LZ(y)`` is y's leading-zero count in a W-bit field.  Keeping x exact
("differential") halves both the converter hardware and the approximation
error relative to the vanilla scheme that one-hot encodes *both* operands.

The cross-phase flow (paper Fig. 7(a)):

1.1 *Key prediction*: ``K_hat = tokens @ Wk`` with Wk pre-converted to LZ
    codes offline (weights are static), so no LZE runs at inference.
1.2 *Attention prediction*: ``A_hat = Q @ K_hat^T`` with **Q** converted to
    the log domain (not K_hat - converting the freshly-estimated operand
    would compound the phase-1 error).

Both phases are add/shift-only; the module counts shifts/adds/LZC uses so
ablations can compare DLZS against 4-bit multiplication baselines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.config import DlzsConfig
from repro.numerics.complexity import OpCounter
from repro.numerics.fixed_point import (
    quantize,
    quantize_stack,
    quantize_stack_codes,
    quantize_with_scale,
    require_finite,
    stack_scale,
)
from repro.numerics.linalg import exact_int_matmul

from repro.numerics.leading_zero import (
    ConfigurableLZE,
    leading_zeros,
    lz_decode_magnitude,
)

if TYPE_CHECKING:
    from repro.engine.cache import DecodeCacheView
    from repro.engine.paged import PagedDecodeCache


@dataclass
class DlzsMatmulResult:
    """Approximate product matrix plus operation accounting."""

    values: np.ndarray
    ops: OpCounter


def dlzs_matmul(
    exact_operand: np.ndarray,
    converted_operand: np.ndarray,
    width: int,
    count_conversion: bool = True,
) -> DlzsMatmulResult:
    """Approximate ``exact_operand @ converted_operand`` with shift-adds.

    Parameters
    ----------
    exact_operand:
        ``(M, K)`` integer matrix kept at full precision (the "differential"
        operand that is only shifted).
    converted_operand:
        ``(K, N)`` integer matrix replaced by sign * 2^(width - LZ).
    width:
        Bit width of the converted operand's field.
    count_conversion:
        Whether LZC work is charged (False when codes were pre-converted
        offline, as for the static Wk).
    """
    a = np.asarray(exact_operand, dtype=np.int64)
    b = np.asarray(converted_operand, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")

    signs = np.sign(b)
    lz = leading_zeros(b, width)
    ops = OpCounter()
    if count_conversion:
        ops.add_op("lzc", b.size)

    # Each product |a_mk| << (width - lz_kn) with the XOR'd sign, then summed
    # over k. Vectorized: decode the power-of-two magnitude once per b entry.
    pow2 = lz_decode_magnitude(lz, width)  # (K, N)
    signed_pow2 = signs * pow2
    approx = a @ signed_pow2  # shifts realized as power-of-two multiplies

    m, k_dim = a.shape
    n = b.shape[1]
    nonzero = int(np.count_nonzero(signed_pow2))
    # One shift + one XOR per contributing product; adds for accumulation.
    ops.add_op("shift", float(m) * nonzero)
    ops.add_op("xor", float(m) * nonzero)
    ops.add_op("add", float(m) * max(k_dim - 1, 0) * n)
    return DlzsMatmulResult(values=approx.astype(np.int64), ops=ops)


def vanilla_lz_matmul(
    a: np.ndarray, b: np.ndarray, width: int
) -> DlzsMatmulResult:
    """The vanilla leading-zero scheme: BOTH operands one-hot encoded.

    Used by the Fig. 7(c) comparison: it needs two converters per product and
    its error is roughly double DLZS's because both mantissas are dropped.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    ops = OpCounter()
    ops.add_op("lzc", a.size + b.size)
    a_pow = np.sign(a) * lz_decode_magnitude(leading_zeros(a, width), width)
    b_pow = np.sign(b) * lz_decode_magnitude(leading_zeros(b, width), width)
    approx = a_pow @ b_pow
    m, k_dim = a.shape
    n = b.shape[1]
    nonzero = int(np.count_nonzero(b_pow))
    ops.add_op("shift", float(m) * nonzero)
    ops.add_op("xor", float(m) * nonzero)
    ops.add_op("add", float(m) * max(k_dim - 1, 0) * n)
    return DlzsMatmulResult(values=approx.astype(np.int64), ops=ops)


@dataclass
class PredictionResult:
    """Cross-phase DLZS prediction output.

    ``a_hat`` approximates the formal scores up to a positive per-workload
    scale (rank order is what the top-k stage consumes, so any positive
    scaling is irrelevant); ``k_hat`` is the intermediate key estimate.
    """

    a_hat: np.ndarray
    k_hat: np.ndarray
    ops: OpCounter
    scale: float


@dataclass
class PreparedPrediction:
    """Phase-1.1 state plus the encoded query, *before* the score matmul.

    Everything :meth:`DlzsPredictor.predict` produces except ``a_hat``
    itself: the truncated key estimate, the query's signed power-of-two
    codes, the quantization scale, and the **complete** op accounting
    (every DLZS charge is a function of shapes and nonzero counts, so it
    needs no score values).  ``a_hat`` equals
    ``(pow2 @ k_hat.T).astype(float64) * scale`` - and because integer
    matmul is exact per output element, any *column block* of it equals
    ``(pow2 @ k_hat[lo:hi].T).astype(float64) * scale`` bit for bit, which
    is what lets the fused predict+select kernel
    (:mod:`repro.kernels.predict_select_fused`) stream score tiles from the
    stacked twin, :class:`PreparedStackPrediction`, without ever
    materializing the full matrix.
    """

    k_hat: np.ndarray  # (S, D') int64, truncated to intermediate_bits
    pow2: np.ndarray  # (T, D') int64 signed power-of-two query codes
    scale: float
    ops: OpCounter


class DlzsPredictor:
    """Stateful cross-phase DLZS predictor with pre-converted weights.

    Mirrors the hardware flow: construction pre-converts ``Wk`` to (sign, LZ)
    codes (the offline "model preparation" step of Fig. 16); calls to
    :meth:`predict` then run phases 1.1/1.2 with add/shift work only.
    """

    def __init__(self, wk: np.ndarray, config: DlzsConfig | None = None):
        self.config = config or DlzsConfig()
        wk = np.asarray(wk)
        if wk.ndim != 2:
            raise ValueError("Wk must be 2-D (H, D)")
        if np.issubdtype(wk.dtype, np.floating):
            self._wk_int = quantize(wk, self.config.weight_bits).values
        else:
            self._wk_int = wk.astype(np.int64)
        w = self.config.weight_bits
        self._wk_signs = np.sign(self._wk_int)
        self._wk_lz = leading_zeros(self._wk_int, w)
        self._wk_pow2 = self._wk_signs * lz_decode_magnitude(self._wk_lz, w)

    @property
    def stored_weight_bits(self) -> int:
        """Bits stored per weight: sign + LZ code (paper: 8-bit -> 4-bit)."""
        w = self.config.weight_bits
        return 1 + max(int(np.ceil(np.log2(w + 1))), 1)

    def predict_keys(self, tokens: np.ndarray) -> DlzsMatmulResult:
        """Phase 1.1: ``K_hat = tokens @ Wk`` via pre-converted LZ weights.

        No LZE runs here - the conversion happened offline (that is the
        "converter free" feature of Fig. 7(b)).
        """
        tok = np.asarray(tokens)
        if np.issubdtype(tok.dtype, np.floating):
            tok = quantize(tok, self.config.token_bits).values
        tok = tok.astype(np.int64)
        approx = tok @ self._wk_pow2
        ops = OpCounter()
        m = tok.shape[0]
        nonzero = int(np.count_nonzero(self._wk_pow2))
        ops.add_op("shift", float(m) * nonzero)
        ops.add_op("xor", float(m) * nonzero)
        ops.add_op("add", float(m) * max(tok.shape[1] - 1, 0) * self._wk_pow2.shape[1])
        return DlzsMatmulResult(values=approx.astype(np.int64), ops=ops)

    def predict_prepared(self, tokens: np.ndarray, q: np.ndarray) -> PreparedPrediction:
        """Phases 1.1 + query encoding, stopping short of the score matmul.

        Returns the :class:`PreparedPrediction` from which ``A_hat`` (or
        any column block of it) follows by one exact integer matmul; the
        op accounting is already complete because every DLZS charge
        depends only on shapes and nonzero counts, never on score values.
        """
        key_res = self.predict_keys(tokens)
        ops = key_res.ops

        # Truncate K_hat to the intermediate width (hardware keeps <=16 bits).
        k_hat_q = quantize(key_res.values, self.config.intermediate_bits)
        k_hat = k_hat_q.values

        q_arr = np.asarray(q)
        if np.issubdtype(q_arr.dtype, np.floating):
            q_q = quantize(q_arr, self.config.query_bits)
            q_int, q_scale = q_q.values, q_q.scale
        else:
            q_int, q_scale = q_arr.astype(np.int64), 1.0

        lze = ConfigurableLZE(mode_bits=self.config.query_bits)
        q_signs, q_lz = lze.encode(q_int)
        ops.add_op("lzc", q_int.size)

        width = self.config.query_bits
        pow2 = q_signs * lz_decode_magnitude(q_lz, width)  # (T, D)
        t, d = q_int.shape
        nonzero = int(np.count_nonzero(pow2))
        ops.add_op("shift", float(k_hat.shape[0]) * nonzero)
        ops.add_op("xor", float(k_hat.shape[0]) * nonzero)
        ops.add_op("add", float(t) * max(d - 1, 0) * k_hat.shape[0])
        return PreparedPrediction(
            k_hat=k_hat, pow2=pow2, scale=q_scale * k_hat_q.scale, ops=ops
        )

    def predict(self, tokens: np.ndarray, q: np.ndarray) -> PredictionResult:
        """Full cross-phase prediction: tokens -> K_hat -> A_hat.

        Phase 1.2 converts **Q** through the 16-bit-mode configurable LZE and
        shifts the (truncated) K_hat estimate, following the paper's error
        containment argument.  ``A_hat[t, s] = sum_d K_hat[s, d] <<
        (W - LZ(Q[t, d]))``, signed - realized as one exact integer matmul
        over the :meth:`predict_prepared` state (float64 BLAS while the
        result provably stays exact, see :func:`exact_int_matmul`).
        """
        prep = self.predict_prepared(tokens, q)
        a_hat = exact_int_matmul(prep.pow2, prep.k_hat.T)  # (T, S)
        return PredictionResult(
            a_hat=a_hat * prep.scale,
            k_hat=prep.k_hat,
            ops=prep.ops,
            scale=prep.scale,
        )


def _max_abs(x: np.ndarray) -> float:
    """``max|x|`` as a float, 0.0 for an empty array."""
    return float(np.max(np.abs(x))) if x.size else 0.0


@dataclass
class StackedPredictionResult:
    """Cross-phase DLZS prediction for a stack of heads.

    ``a_hat`` is ``(N, T, S)``; ``head_ops[i]`` tallies exactly the work the
    per-head :meth:`DlzsPredictor.predict` would report for head ``i``.
    """

    a_hat: np.ndarray
    k_hat: np.ndarray  # head-major rows, as in PreparedStackPrediction
    head_ops: list[OpCounter]
    scales: np.ndarray


@dataclass
class PreparedStackPrediction:
    """Stacked phase-1.1 state plus encoded queries, before the score matmul.

    The stacked twin of :class:`PreparedPrediction`.  Heads may differ in
    ``S``, so ``k_hat`` holds every head's rows back to back: head ``i``'s
    ``(S_i, D')`` block is :meth:`head_k_hat`, and its score matrix equals
    ``(pow2[i] @ head_k_hat(i).T).astype(float64) * scales[i]``, the
    product taken over the integers.  Any column block of it follows from
    the matching ``k_hat`` rows - exactly - so fused kernels can stream
    score tiles per segment.  ``k_hat`` holds the truncated codes as
    float64: integers, each exactly the int64 code
    :meth:`DlzsPredictor.predict_prepared` gives (they leave
    :func:`~repro.numerics.fixed_point.quantize_codes` as integral
    floats), so the score matmul runs on float64 BLAS with no cast.
    ``head_ops`` already carries the complete per-head accounting.
    ``k_bits`` is the truncation width: every ``k_hat`` code lies in
    :func:`~repro.numerics.fixed_point.int_range` of it, a bound that needs
    no scan of ``k_hat``.  ``chains[i]`` is the chain record the
    decode-step cache stored for head ``i`` in this call (``None`` for a
    head without a key, and ``chains`` is ``None`` without a cache): the
    block table the KV stage reads stored projections through.
    """

    k_hat: np.ndarray  # (sum S_i, D') float64 integer codes; head-major rows
    pow2: np.ndarray  # (N, T, D') int64 signed power-of-two query codes
    scales: np.ndarray  # (N,) per-head quantization scales
    head_ops: list[OpCounter]
    seq_lens: np.ndarray  # (N,) int64, each head's S
    k_bits: int
    chains: list | None = None

    @property
    def starts(self) -> np.ndarray:
        """``(N,)`` first row of each head's block in ``k_hat``."""
        return np.cumsum(self.seq_lens) - self.seq_lens

    def head_k_hat(self, i: int) -> np.ndarray:
        """Head ``i``'s ``(S_i, D')`` truncated ``K_hat`` (a view)."""
        start = int(self.starts[i])
        return self.k_hat[start : start + int(self.seq_lens[i])]


class StackedDlzsPredictor:
    """Cross-phase DLZS over a ``(N, H, D)`` stack of key projections.

    The batched twin of :class:`DlzsPredictor`: every head's weights are
    pre-converted to (sign, LZ) codes with that head's own quantization
    scale, and :meth:`predict` runs phases 1.1/1.2 for the whole stack in
    fused integer matmuls.  Because the integer arithmetic is exact and the
    per-head scales match :func:`repro.numerics.fixed_point.quantize` bit for
    bit, head ``i`` of the result equals ``DlzsPredictor(wk[i]).predict(
    tokens[i], q[i])`` exactly.
    """

    def __init__(self, wk: np.ndarray, config: DlzsConfig | None = None):
        self.config = config or DlzsConfig()
        wk = np.asarray(wk)
        if wk.ndim != 3:
            raise ValueError("stacked Wk must be 3-D (N, H, D)")
        if np.issubdtype(wk.dtype, np.floating):
            self._wk_int = quantize_stack(wk, self.config.weight_bits).values
        else:
            self._wk_int = wk.astype(np.int64)
        w = self.config.weight_bits
        self._wk_signs = np.sign(self._wk_int)
        self._wk_lz = leading_zeros(self._wk_int, w)
        self._wk_pow2 = self._wk_signs * lz_decode_magnitude(self._wk_lz, w)
        self._wk_nonzero = np.count_nonzero(self._wk_pow2, axis=(1, 2))
        self._head_digests: list[str] | None = None

    @property
    def n_heads(self) -> int:
        return self._wk_pow2.shape[0]

    def _head_digest(self, i: int) -> str:
        """Digest identifying head ``i``'s pre-converted weights.

        Namespaces decode-cache keys so entries written by one operator can
        never satisfy a lookup from an operator with different weights, even
        when callers reuse sequence ids across models.
        """
        if self._head_digests is None:
            self._head_digests = [
                hashlib.sha1(np.ascontiguousarray(self._wk_pow2[j]).tobytes()).hexdigest()
                for j in range(self.n_heads)
            ]
        return self._head_digests[i]

    def _phase1_head_cached(
        self,
        i: int,
        t_i: np.ndarray,
        cache: "PagedDecodeCache",
        key: Hashable,
        out: np.ndarray,
    ) -> tuple[float, object]:
        """Phase 1.1 and the ``K_hat`` truncation for one head, through
        the decode-step cache.

        Writes the head's truncated ``K_hat`` codes into ``out`` (its
        ``(S_i, D')`` rows of the stacked ``k_hat``) and returns their
        truncation scale, both bit-identical to the uncached computation,
        with the chain record the store's ``put`` returned:
        cached state is reused only when the token prefix matches exactly
        AND the appended rows change neither the token scale nor the
        truncation scale (see :mod:`repro.engine.cache`).

        A hit reads the store's blocks in place: it compares the token
        prefix block by block, copies the cached codes into ``out``, and
        quantizes, projects and truncates only the appended rows, which it
        stores with ``cache.put(..., base=view)``.  When the store refuses
        that append (the key's state changed after the get) the whole
        grown sequence is put instead.  A hit whose new ``K_hat`` rows are
        louder than the cached ``key_max_abs`` is a rescale: every raw row
        is rebuilt from the cached token codes and re-truncated.  A miss
        runs the full phase 1.1 and replaces the entry.
        """
        floating = bool(np.issubdtype(t_i.dtype, np.floating))
        if floating:
            # quantize/quantize_stack round in float64; narrower float input
            # must be widened BEFORE the incremental rint or the appended
            # rows can round differently than the uncached path would.
            t_i = np.asarray(t_i, dtype=np.float64)
        bits = self.config.token_bits
        store_key = (key, self.config, self._head_digest(i))
        view = cache.get(store_key)

        if view is not None and view.quantized == floating and view.has_prefix(t_i):
            new = t_i[view.seq_len :]
            new_vals = None
            if not floating:
                new_vals = new.astype(np.int64)
            elif require_finite(_max_abs(new)) <= view.tok_max_abs:
                # The per-tensor scale is max|x|/hi over the FULL matrix:
                # the cached codes stay bit-exact only while the prefix
                # still holds the maximum.  A louder new token changes the
                # scale for every row: a miss.
                new_vals = quantize_with_scale(new, view.tok_scale, bits)
            if new_vals is not None:
                return self._extend_cached(
                    i, t_i, new_vals, view, cache, store_key, out
                )

        # Miss: unknown sequence, rewritten/shrunk prefix, dtype switch, or
        # token-scale invalidation - run the full per-head phase 1.1.
        cache.record_miss(invalidated=view is not None)
        if floating:
            qt = quantize(t_i, bits)
            tok_values, scale = qt.values, qt.scale
            max_abs = _max_abs(t_i)
        else:
            tok_values = t_i.astype(np.int64)
            scale, max_abs = 1.0, 0.0
        return self._put_truncated(
            i, t_i, tok_values, scale, max_abs, floating, cache, store_key, out
        )

    def _extend_cached(
        self,
        i: int,
        t_i: np.ndarray,
        new_vals: np.ndarray,
        view: "DecodeCacheView",
        cache: "PagedDecodeCache",
        store_key: Hashable,
        out: np.ndarray,
    ) -> tuple[float, object]:
        """The hit path of :meth:`_phase1_head_cached`: ``new_vals`` are
        the appended rows' token codes at the cached token scale."""
        # Function-local on purpose: repro.engine.batched imports this
        # module, so a module-level import of repro.engine.cache would be a
        # core -> engine cycle.  Do not hoist.
        from repro.engine.cache import DecodeCacheEntry

        seq_len = view.seq_len
        new_keys = new_vals @ self._wk_pow2[i]
        if _max_abs(new_keys) > view.key_max_abs:
            # A louder K_hat row moves the truncation scale of every row.
            cache.record_hit(
                reused_rows=seq_len, appended_rows=new_vals.shape[0], rescaled=True
            )
            tok_values = np.concatenate([view.tok_values, new_vals])
            return self._put_truncated(
                i, t_i, tok_values, view.tok_scale, view.tok_max_abs,
                view.quantized, cache, store_key, out,
            )
        k_bits = self.config.intermediate_bits
        k_scale = stack_scale(view.key_max_abs, k_bits)
        new_codes = quantize_with_scale(new_keys, k_scale, k_bits)
        view.fill("key_codes", out)
        out[seq_len:] = new_codes
        cache.record_hit(reused_rows=seq_len, appended_rows=new_vals.shape[0])
        appended = DecodeCacheEntry(
            tokens=t_i[seq_len:],
            tok_values=new_vals,
            tok_scale=view.tok_scale,
            tok_max_abs=view.tok_max_abs,
            key_codes=new_codes,
            key_max_abs=view.key_max_abs,
            quantized=view.quantized,
        )
        stored = cache.put(store_key, appended, base=view)
        if not stored:
            # The key's state changed since the get (replaced, dropped, or
            # put by another thread): store it whole.
            stored = cache.put(
                store_key,
                replace(
                    appended,
                    tokens=t_i.copy(),
                    tok_values=np.concatenate([view.tok_values, new_vals]),
                    key_codes=out.astype(np.int64),
                ),
            )
        return k_scale, stored

    def _put_truncated(
        self,
        i: int,
        t_i: np.ndarray,
        tok_values: np.ndarray,
        tok_scale: float,
        tok_max_abs: float,
        quantized: bool,
        cache: "PagedDecodeCache",
        store_key: Hashable,
        out: np.ndarray,
    ) -> tuple[float, object]:
        """Project and truncate every row of ``tok_values`` (the codes of
        the tokens ``t_i``), write the codes into ``out`` and put the whole
        entry; returns the truncation scale and the stored chain."""
        from repro.engine.cache import DecodeCacheEntry  # see _extend_cached

        key_values, k_scale = self._project_truncate(i, tok_values, out)
        stored = cache.put(
            store_key,
            DecodeCacheEntry(
                tokens=t_i.copy(),
                tok_values=tok_values,
                tok_scale=tok_scale,
                tok_max_abs=tok_max_abs,
                key_codes=out.astype(np.int64),
                key_max_abs=_max_abs(key_values),
                quantized=quantized,
            ),
        )
        return k_scale, stored

    def _project_truncate(
        self, i: int, tok: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Phase 1.1 of head ``i`` over every row of the token codes
        ``tok`` (float64 or integer): writes the truncated ``K_hat`` codes
        into the float64 rows ``out`` and returns the raw ``K_hat`` rows
        and the truncation scale.  Keyed and unkeyed heads both run it."""
        # Exact integer K_hat as float64: BLAS inside the proven window,
        # else the int64 matmul, whose result the truncation would read as
        # float64 anyway.
        key_values = exact_int_matmul(tok, self._wk_pow2[i])
        # Truncate K_hat to the intermediate width (hardware keeps <=16 bits).
        _, scales = quantize_stack_codes(
            key_values[None], self.config.intermediate_bits, out=out[None]
        )
        return key_values, float(scales[0])

    def predict_prepared(
        self,
        tokens: "np.ndarray | Sequence[np.ndarray]",
        q: np.ndarray,
        cache: "PagedDecodeCache | None" = None,
        cache_keys: Sequence[Hashable | None] | None = None,
    ) -> PreparedStackPrediction:
        """Stacked phases 1.1 + query encoding, short of the score matmul.

        Same contract as :meth:`predict` (including the decode-step-cache
        interaction) but returns the :class:`PreparedStackPrediction` from
        which ``a_hat`` - or any column block - follows by one exact
        integer matmul per block.

        ``tokens`` is an ``(N, S, H)`` stack or a sequence of N ``(S_i,
        H)`` arrays of different lengths.  Every head is quantized,
        projected and truncated over its own rows only, with its own
        scales, so nothing is padded and the result holds ``sum S_i`` key
        rows; each head's bits are those of :class:`DlzsPredictor` on it.
        """
        heads = [np.asarray(x) for x in tokens]
        q_arr = np.asarray(q)
        n = self.n_heads
        if q_arr.ndim != 3 or any(np.ndim(x) != 2 for x in heads):
            raise ValueError("stacked predict needs (N, S, H) tokens and (N, T, D) q")
        if len(heads) != n or q_arr.shape[0] != n:
            raise ValueError("leading axis must match the weight stack")
        if cache_keys is not None and len(cache_keys) != n:
            raise ValueError("need one cache key (or None) per head")
        seq_lens = np.array([x.shape[0] for x in heads], dtype=np.int64)
        h = heads[0].shape[1]

        # Phase 1.1: K_hat = tokens @ Wk via pre-converted LZ weights.
        keyed = (
            {i for i in range(n) if cache_keys[i] is not None}
            if cache is not None and cache_keys is not None
            else set()
        )
        # Head by head: keyed heads keep their sequence's cached state, and
        # every head has its own length and scales.  Integer matmuls are
        # exact, so the split changes no bits.
        k_hat = np.empty((int(seq_lens.sum()), self._wk_pow2.shape[2]))
        k_scales = np.empty(n)
        chains = [None] * n if cache is not None else None
        start = 0
        for i, x in enumerate(heads):
            rows = k_hat[start : start + x.shape[0]]
            start += x.shape[0]
            if i in keyed:
                k_scales[i], chains[i] = self._phase1_head_cached(
                    i, x, cache, cache_keys[i], rows
                )
                continue
            if np.issubdtype(x.dtype, np.floating):
                tok = quantize_stack_codes(x[None], self.config.token_bits)[0][0]
            else:
                tok = x.astype(np.int64, copy=False)
            k_scales[i] = self._project_truncate(i, tok, rows)[1]

        # Phase 1.2: convert Q through the 16-bit-mode LZE, shift K_hat.
        if np.issubdtype(q_arr.dtype, np.floating):
            q_q = quantize_stack(q_arr, self.config.query_bits)
            q_int, q_scales = q_q.values, q_q.scales
        else:
            q_int, q_scales = q_arr.astype(np.int64), np.ones(n)

        lze = ConfigurableLZE(mode_bits=self.config.query_bits)
        q_signs, q_lz = lze.encode(q_int)
        width = self.config.query_bits
        pow2 = q_signs * lz_decode_magnitude(q_lz, width)  # (N, T, D)

        scales = q_scales * k_scales
        t, d = q_int.shape[1], q_int.shape[2]
        dw = self._wk_pow2.shape[2]
        wk_nonzero = self._wk_nonzero
        q_nonzero = np.count_nonzero(pow2, axis=(1, 2))
        head_ops: list[OpCounter] = []
        for i in range(n):  # per-head bookkeeping only; the math is fused
            s = int(seq_lens[i])
            ops = OpCounter()
            ops.add_op("shift", float(s) * int(wk_nonzero[i]))
            ops.add_op("xor", float(s) * int(wk_nonzero[i]))
            ops.add_op("add", float(s) * max(h - 1, 0) * dw)
            ops.add_op("lzc", t * d)
            ops.add_op("shift", float(s) * int(q_nonzero[i]))
            ops.add_op("xor", float(s) * int(q_nonzero[i]))
            ops.add_op("add", float(t) * max(d - 1, 0) * s)
            head_ops.append(ops)

        return PreparedStackPrediction(
            k_hat=k_hat,
            pow2=pow2,
            scales=scales,
            head_ops=head_ops,
            seq_lens=seq_lens,
            k_bits=self.config.intermediate_bits,
            chains=chains,
        )

    def predict(
        self,
        tokens: "np.ndarray | Sequence[np.ndarray]",
        q: np.ndarray,
        cache: "PagedDecodeCache | None" = None,
        cache_keys: Sequence[Hashable | None] | None = None,
    ) -> StackedPredictionResult:
        """Stacked phases 1.1/1.2: ``(N, S, H)`` tokens -> ``(N, T, S)``.

        Heads of different ``S`` give an ``(N, T, max S)`` ``a_hat`` that
        is zero past a head's own ``S``, and the ``k_hat`` of
        :class:`PreparedStackPrediction` (head-major rows).

        When ``cache`` and ``cache_keys`` are given, phase 1.1 runs through
        the decode-step cache head by head: head ``i`` with a non-``None``
        ``cache_keys[i]`` reuses (and extends) its cached quantized-token /
        ``K_hat`` state.  The result - including the per-head op counters,
        which keep charging the nominal pipeline work - is bit-identical to
        the uncached fused path; the cache only skips *re-doing* arithmetic
        whose outcome is provably unchanged.
        """
        prep = self.predict_prepared(tokens, q, cache=cache, cache_keys=cache_keys)
        n, t = prep.pow2.shape[:2]
        a_hat = np.zeros((n, t, int(prep.seq_lens.max())))
        for i, s in enumerate(prep.seq_lens):
            a_hat[i, :, :s] = exact_int_matmul(prep.pow2[i], prep.head_k_hat(i).T)
        return StackedPredictionResult(
            a_hat=a_hat * prep.scales[:, None, None],
            k_hat=prep.k_hat,
            head_ops=prep.head_ops,
            scales=prep.scales,
        )


def dlzs_relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Scale-free relative error between score matrices.

    Because DLZS systematically over-scales (the dropped mantissa is in
    [0.5, 1)), we first remove the best positive scalar fit; what remains is
    the rank-corrupting error the top-k stage actually suffers.
    """
    approx = np.asarray(approx, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    denom = float(approx @ approx)
    alpha = float(approx @ exact) / denom if denom > 0 else 0.0
    resid = np.linalg.norm(alpha * approx - exact)
    norm = np.linalg.norm(exact)
    return float(resid / norm) if norm > 0 else 0.0
