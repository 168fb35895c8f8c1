"""``repro.kernels``: execution kernels behind the pipeline's golden models.

Each kernel is bit-for-bit equal to a golden model in ``repro.core`` -
*what* a stage computes is a fixed contract, these modules decide *how*
it is executed:

* :mod:`repro.kernels.predict_select_fused` - the batched engine's one
  predict+select path: blocked DLZS score prediction with in-band SADS
  selection per tile, never materializing the full score matrix (the
  software analogue of the paper's coordinated tiling);
* :mod:`repro.kernels.registry` - the named registry of the SU-FA
  streaming stage (:data:`STAGES` is ``("stream",)``) and its selection
  precedence (``SufaConfig.kernel`` > ``SOFA_SUFA_KERNEL`` > ``blocked``);
* :mod:`repro.kernels.sufa_blocked` - the tile-blocked SU-FA streaming
  kernel (``tile_cols`` keys per Python step), registered as
  ``"blocked"`` next to the per-key golden model ``"reference"``.

Every serving tier (per-head pipeline, batched engine, cluster/socket
workers) resolves the stream stage through the registry, so the
cross-tier parity contract cannot drift: one implementation per
selection, and any registered kernel must be differentially bit-equal to
the golden model (enforced by the kernel test suites, re-run per kernel
by CI's kernel-matrix job).  The same seam is where array-API backends
(CuPy / torch) plug in later: a backend is just another registered kernel
facing the same sweeps.
"""

from repro.kernels.predict_select_fused import FUSED, FusedPredictSelect
from repro.kernels.registry import (
    STAGES,
    Kernel,
    available_kernels,
    default_kernel,
    get_kernel,
    kernel_env_var,
    register_kernel,
    resolve_kernel_name,
    resolved_kernels,
)
from repro.kernels.sufa_blocked import stream_selected_blocked

__all__ = [
    "FUSED",
    "FusedPredictSelect",
    "Kernel",
    "STAGES",
    "available_kernels",
    "default_kernel",
    "get_kernel",
    "kernel_env_var",
    "register_kernel",
    "resolve_kernel_name",
    "resolved_kernels",
    "stream_selected_blocked",
]
