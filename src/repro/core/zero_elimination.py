"""Zero-eliminator measurement for the DLZS engine (paper Fig. 12).

The DLZS engine's datapath starts with a zero-eliminator: operands whose
converted (LZ-format) factor is zero contribute nothing to the shift-add
accumulation and are removed before they occupy the array.  The *benefit* is
workload-dependent - quantized weights and token activations carry different
zero densities - so the hardware model takes the measured nonzero fraction
as an input rather than assuming one.

This module provides those measurements from real operand tensors, plus the
effective-throughput model of an eliminator with a finite scan window (the
hardware can only skip zeros it finds within its lookahead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZeroProfile:
    """Zero structure of one operand tensor.

    ``nonzero_fraction`` is the share of elements that reach the array;
    ``column_nonzero`` per-column shares (the engine schedules by weight
    column, so column-level imbalance limits the realizable skip rate).
    """

    nonzero_fraction: float
    column_nonzero: np.ndarray


def profile_zeros(operand: np.ndarray) -> ZeroProfile:
    """Measure the zero structure of a (quantized) operand matrix."""
    arr = np.asarray(operand)
    if arr.ndim != 2:
        raise ValueError("operand must be 2-D")
    nonzero = arr != 0
    total = arr.size or 1
    per_col = nonzero.mean(axis=0) if arr.shape[0] else np.zeros(arr.shape[1])
    return ZeroProfile(
        nonzero_fraction=float(nonzero.sum() / total),
        column_nonzero=per_col.astype(np.float64),
    )


def effective_nonzero_fraction(profile: ZeroProfile, lookahead: int = 4) -> float:
    """The skip rate a finite-lookahead eliminator actually realizes.

    A window of ``lookahead`` operands can compress at most ``lookahead - 1``
    zeros per surviving element; with window w the floor on issued work is
    ``1/w``.  Dense columns bound the schedule (lanes sharing a column wait
    for its stragglers), so the realizable fraction is the mean of per-column
    fractions clamped at the window floor.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    floor = 1.0 / lookahead
    cols = np.maximum(profile.column_nonzero, floor)
    return float(cols.mean()) if cols.size else 1.0


def quantization_zero_fraction(values: np.ndarray, bits: int) -> float:
    """Fraction of elements a ``bits``-wide symmetric quantizer zeroes out.

    Convenience for workload studies: narrower prediction widths produce
    more zeros (values under half an LSB), which the eliminator converts
    into energy savings - one of DLZS's compounding effects.
    """
    from repro.numerics.fixed_point import quantize

    q = quantize(np.asarray(values, dtype=np.float64), bits)
    return float(np.mean(q.values == 0))
