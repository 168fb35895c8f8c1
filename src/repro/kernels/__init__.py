"""``repro.kernels``: execution kernels behind the pipeline's golden models.

:mod:`repro.kernels.predict_select_fused` is the batched engine's one
predict+select path: blocked DLZS score prediction with in-band SADS
selection per tile, never materializing the full score matrix (the
software analogue of the paper's coordinated tiling).  It is bit-for-bit
equal to the golden ``DlzsPredictor.predict`` -> ``SadsSorter.select_stack``
pipeline in ``repro.core``.

The SU-FA stage has one serving stream, :func:`repro.core.sufa.stream_selected`
(tile-blocked); its per-key golden model
:func:`repro.core.sufa.stream_selected_reference` is kept in the same
module for the differential tests.  :data:`STAGES`,
:func:`available_kernels` and :func:`get_kernel` are a read-only view of
those two functions by name.
"""

from typing import Callable

from repro.core.sufa import stream_selected, stream_selected_reference
from repro.kernels.predict_select_fused import FUSED, FusedPredictSelect

#: Stages with named implementations.
STAGES = ("stream",)

_STREAMS = {"blocked": stream_selected, "reference": stream_selected_reference}


def available_kernels(stage: str) -> tuple[str, ...]:
    """Implementation names of ``stage``, sorted."""
    if stage not in STAGES:
        raise ValueError(f"unknown kernel stage {stage!r}; stages: {STAGES}")
    return tuple(sorted(_STREAMS))


def get_kernel(stage: str, name: str) -> Callable[..., object]:
    """The function named ``name`` of ``stage``."""
    if name not in available_kernels(stage):
        raise ValueError(
            f"unknown {stage} kernel {name!r}; {stage} kernels: {available_kernels(stage)}"
        )
    return _STREAMS[name]


__all__ = ["FUSED", "FusedPredictSelect", "STAGES", "available_kernels", "get_kernel"]
