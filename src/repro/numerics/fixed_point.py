"""Fixed-point (INT) quantization with explicit bit widths.

SOFA's pre-compute stage runs on narrow integers: 8-bit tokens, 4-bit
leading-zero encoded weights, and 16-bit values in the formal stage.  This
module provides symmetric per-tensor quantization so the algorithm code can
move between float space (model substrate) and integer space (accelerator
datapath) explicitly.

All quantizers are symmetric around zero (sign + magnitude view matches the
DLZS hardware, which extracts the sign bit and works on ``abs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def int_range(bits: int) -> tuple[int, int]:
    """Return the (min, max) representable values of a signed ``bits``-wide INT."""
    if bits < 2:
        raise ValueError(f"need at least 2 bits for signed int, got {bits}")
    hi = (1 << (bits - 1)) - 1
    return -hi, hi  # symmetric: we do not use the most negative code


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor together with its dequantization scale.

    Attributes
    ----------
    values:
        Integer payload (``np.int64`` storage regardless of logical width, so
        intermediate shift-add arithmetic cannot overflow).
    scale:
        Float scale such that ``float ≈ values * scale``.
    bits:
        Logical bit width of each element.
    """

    values: np.ndarray
    scale: float
    bits: int

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def dequantize(self) -> np.ndarray:
        """Map back to float space."""
        return self.values.astype(np.float64) * self.scale


def quantize_codes(
    x: np.ndarray,
    scale: float | np.ndarray,
    bits: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Round and saturate ``x`` at a fixed symmetric ``scale``, as float64.

    This is THE rounding rule of the package: ``rint(x / scale)`` clipped
    to :func:`int_range`.  :func:`quantize_with_scale` (and through it
    :func:`quantize`, :func:`quantize_stack` and the decode-step cache's
    incremental re-quantization) casts its result to int64, and the DLZS
    ``K_hat`` truncation writes it straight into float64 rows (``out``,
    which may be ``x`` itself), so bit-for-bit parity between full and
    incremental paths rests on a single formula.  The result holds
    integers: exactly the ones the int64 cast gives.
    """
    lo, hi = int_range(bits)
    out = np.divide(x, scale, out=out)
    np.rint(out, out=out)
    return np.clip(out, lo, hi, out=out)


def quantize_with_scale(
    x: np.ndarray, scale: float | np.ndarray, bits: int
) -> np.ndarray:
    """:func:`quantize_codes` as int64 codes."""
    return quantize_codes(x, scale, bits).astype(np.int64)


def require_finite(max_abs: float | np.ndarray) -> float | np.ndarray:
    """Return ``max_abs``, the ``max|x|`` of a quantizer's input, or raise
    :class:`ValueError` when the input is not finite: NaN propagates
    through the maximum, and an infinity is its own maximum."""
    if not np.isfinite(max_abs).all():
        raise ValueError("cannot quantize non-finite input (NaN or inf)")
    return max_abs


def quantize(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetrically quantize ``x`` to a signed ``bits``-wide integer tensor.

    The scale is chosen so the max-magnitude element saturates the integer
    range; an all-zero tensor gets scale 1.0.  A tensor whose maximum is so
    small that ``max_abs / hi`` underflows to zero (subnormal inputs) falls
    back to scale 1.0 the same way - every element then rounds to 0, which
    is the closest representable code, instead of dividing by zero.
    Non-finite input (NaN or inf) raises :class:`ValueError`.
    """
    x = np.asarray(x, dtype=np.float64)
    _, hi = int_range(bits)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    require_finite(max_abs)
    scale = max_abs / hi
    if scale <= 0.0:
        scale = 1.0
    q = quantize_with_scale(x, scale, bits)
    return QuantizedTensor(values=q, scale=scale, bits=bits)


@dataclass(frozen=True)
class StackQuantizedTensor:
    """A stack of independently-quantized tensors sharing one bit width.

    ``values[i]`` and ``scales[i]`` are bit-identical to
    ``quantize(x[i], bits)`` - the per-slice maxima, scales and rounding all
    use the same float operations, so the batched engine's per-head
    quantization matches the per-head :func:`quantize` calls exactly.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def dequantize(self) -> np.ndarray:
        shape = (-1,) + (1,) * (self.values.ndim - 1)
        return self.values.astype(np.float64) * self.scales.reshape(shape)


def stack_scale(max_abs: float, bits: int) -> float:
    """The scale :func:`quantize_stack` gives a slice whose ``max|x|`` is
    ``max_abs``: ``max_abs / hi``, or 1.0 when that is not > 0.

    Lets a caller that keeps a slice's maximum extend the slice without
    re-scanning it: while new elements stay within ``max_abs``, the scale
    and every existing code are unchanged.
    """
    _, hi = int_range(bits)
    scale = max_abs / hi
    return scale if scale > 0 else 1.0


def quantize_stack_codes(
    x: np.ndarray, bits: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`quantize_stack` as float64 codes (:func:`quantize_codes`,
    written into ``out`` when given), with the per-slice scales."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("quantize_stack needs a stack of tensors (ndim >= 2)")
    _, hi = int_range(bits)
    # max|x| per slice from its extremes: two reductions, no |x| temporary
    # (NaN propagates through both).
    axes = tuple(range(1, x.ndim))
    max_abs = require_finite(np.maximum(-x.min(axis=axes), x.max(axis=axes)))
    # Same fallback rule as quantize() - including for slices whose scale
    # underflows to zero - so per-slice bits stay identical to it.
    raw_scales = max_abs / hi
    scales = np.where(raw_scales > 0, raw_scales, 1.0)
    bshape = (-1,) + (1,) * (x.ndim - 1)
    return quantize_codes(x, scales.reshape(bshape), bits, out=out), scales


def quantize_stack(x: np.ndarray, bits: int) -> StackQuantizedTensor:
    """Quantize each slice along axis 0 with its own symmetric scale.

    Equivalent to ``[quantize(x[i], bits) for i in range(len(x))]`` but
    vectorized; each slice saturates its own max-magnitude element.
    Non-finite input raises :class:`ValueError`, as in :func:`quantize`.
    """
    codes, scales = quantize_stack_codes(x, bits)
    return StackQuantizedTensor(values=codes.astype(np.int64), scales=scales, bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Functional alias of :meth:`QuantizedTensor.dequantize`."""
    return q.dequantize()


def requantize(q: QuantizedTensor, bits: int) -> QuantizedTensor:
    """Narrow (or widen) an integer tensor to ``bits`` by rescaling.

    Used where the accelerator truncates: e.g. the DLZS K-prediction output is
    truncated to at most 16 bits before attention prediction.
    """
    return quantize(q.dequantize(), bits)


def saturating_add(a: np.ndarray, b: np.ndarray, bits: int) -> np.ndarray:
    """Add with saturation at the signed ``bits`` range (accumulator model)."""
    lo, hi = int_range(bits)
    return np.clip(a + b, lo, hi)
