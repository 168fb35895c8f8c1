"""``repro.kernels``: per-stage registries of interchangeable stage kernels.

Every dynamic-sparsity stage of the pipeline resolves its implementation
through a named registry keyed by stage (:data:`STAGES` - ``"predict"``,
``"select"``, ``"stream"``), separating *what* a stage computes (a
bit-for-bit fixed contract, each with a golden model in ``repro.core``)
from *how* it is executed:

* :mod:`repro.kernels.registry` - registration plus the per-stage
  selection precedence (the config's ``kernel`` field >
  ``SOFA_<STAGE>_KERNEL`` env var > stage default);
* :mod:`repro.kernels.predict_select_fused` - the ``"fused"`` predict and
  select entries: blocked DLZS score prediction with in-band SADS
  selection per tile, never materializing the full score matrix (the
  software analogue of the paper's coordinated tiling, engaged when both
  stages resolve to the same fused engine - see :func:`fused_pair`);
* :mod:`repro.kernels.sufa_blocked` - the tile-blocked SU-FA streaming
  kernel (``tile_cols`` keys per Python step);
* ``"reference"`` entries - the golden models themselves
  (``DlzsPredictor.predict`` / ``SadsSorter.select_stack`` /
  the per-key loop in :mod:`repro.core.sufa`).

Because every serving tier (per-head pipeline, batched engine, thread
backends, cluster/socket workers) resolves all three stages through these
registries, the cross-tier parity contract cannot drift: one
implementation per stage per selection, and any registered kernel must be
differentially bit-equal to its stage's golden model (enforced by the
kernel test suites, re-run per combination by CI's kernel-matrix job).
The same seam is where array-API backends (CuPy / torch) plug in later: a
backend is just another registered kernel facing the same sweeps.

A stage kernel is chosen in exactly one place in code - the ``kernel``
field of :class:`~repro.core.config.DlzsConfig` /
:class:`~repro.core.config.SadsConfig` /
:class:`~repro.core.config.SufaConfig` inside the
:class:`~repro.core.config.SofaConfig` an engine or cluster is built
with - or, for a whole deployment, by the stage's environment variable.
"""

from repro.kernels.predict_select_fused import (
    FUSED,
    FusedPredictSelect,
    fused_pair,
)
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
    "fused_pair",
    "get_kernel",
    "kernel_env_var",
    "register_kernel",
    "resolve_kernel_name",
    "resolved_kernels",
    "stream_selected_blocked",
]
