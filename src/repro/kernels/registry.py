"""Registry of interchangeable pipeline-stage kernels.

One pipeline stage resolves its implementation through a named registry:

``"stream"``
    SU-FA streaming - the contract of
    :func:`repro.core.sufa.stream_selected` minus the ``kernel`` argument::

        kernel(q_rows, keys, values, index, *, order, max_assurance, tile_cols)
            -> SufaStackResult

    ``keys`` is the ``(U, D)`` and ``values`` the ``(U, Dv)`` slab of the
    U generated tokens; ``index`` is ``(R, kk)``, each query row's
    selected slab rows in SADS output order.  A kernel gathers K/V from
    the slabs about one ``tile_cols`` tile's worth at a time; it is never
    handed a pre-gathered ``(R, kk, D)`` stack.

DLZS prediction and SADS selection have no registry: the batched engine
always runs them through the fused predict+select kernel
(:mod:`repro.kernels.predict_select_fused`) and the per-head pipeline
calls the golden models directly.

Every registered kernel must be **bit-for-bit interchangeable** within its
stage: same output bits, same op tallies and trigger counts as that
stage's golden model on any input (the differential sweep in
``tests/test_kernels_sufa.py`` is the enforcement, re-run per registered
kernel by CI's kernel-matrix job).  Because all serving tiers (per-head
pipeline, batched engine, cluster workers) reach the
stage through this registry, their mutual parity contract holds by
construction - there is only one implementation per process-wide
selection, not one per tier.  The same seam is where array-API backends
(CuPy / torch) plug in later: a backend is just another registered kernel
facing the same differential sweep.

Selection precedence, first hit wins:

1. an explicit kernel name: a non-``"auto"`` ``kernel`` field on
   ``SufaConfig`` (the one place serving code picks a kernel), or the
   ``kernel`` argument of the low-level entry points
   (``stream_selected(..., kernel="reference")``);
2. the stage's environment variable (:func:`kernel_env_var`):
   ``SOFA_SUFA_KERNEL``;
3. the stage default: ``blocked``.

Adding a kernel takes one call (or decorator use)::

    from repro.kernels import register_kernel

    @register_kernel("stream", "mine")
    def stream_selected_mine(q_rows, keys, values, index, *, order, ...):
        ...

after which ``SufaConfig(kernel="mine")`` (or ``SOFA_SUFA_KERNEL=mine``)
routes every tier through it.
"""

from __future__ import annotations

import os
from typing import Callable

#: A stage kernel; the per-stage calling conventions are documented above.
Kernel = Callable[..., object]

#: The pipeline stages with kernel registries.
STAGES = ("stream",)

#: Per-stage environment override consulted when no explicit name is given.
#: ``stream`` keeps its historical name (``SOFA_SUFA_KERNEL``): a renamed
#: variable would be ignored silently by existing deployments.
_ENV_VARS = {"stream": "SOFA_SUFA_KERNEL"}

#: Per-stage registry fallback when neither caller nor environment picks.
_DEFAULTS = {"stream": "blocked"}

#: Names a caller may pass to mean "apply env/default precedence".
_AUTO_NAMES = (None, "", "auto")

_REGISTRIES: dict[str, dict[str, Kernel]] = {stage: {} for stage in STAGES}
_builtins_loaded = False


def _check_stage(stage: str) -> str:
    if stage not in _REGISTRIES:
        raise ValueError(f"unknown kernel stage {stage!r}; stages: {STAGES}")
    return stage


def _load_builtins() -> None:
    """Register the in-tree kernels (lazily, to dodge import cycles).

    ``repro.core`` must stay importable without this package while this
    package needs the golden models from it, so the linkage happens on
    first registry use instead of at import time.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.core.sufa import stream_selected_reference
    from repro.kernels.sufa_blocked import stream_selected_blocked

    _REGISTRIES["stream"].setdefault("reference", stream_selected_reference)
    _REGISTRIES["stream"].setdefault("blocked", stream_selected_blocked)


def kernel_env_var(stage: str) -> str:
    """The environment variable that overrides ``stage``'s kernel."""
    return _ENV_VARS[_check_stage(stage)]


def default_kernel(stage: str) -> str:
    """The registry fallback name for ``stage``."""
    return _DEFAULTS[_check_stage(stage)]


def register_kernel(
    stage: str, name: str, fn: Kernel | None = None, *, overwrite: bool = False
):
    """Register ``fn`` under ``stage``/``name``; decorator form when ``fn`` is None.

    Names are case-sensitive identifiers; re-registering an existing name
    raises unless ``overwrite=True`` (so a typo cannot silently shadow the
    built-ins the parity contract stands on).
    """
    _check_stage(stage)
    if not name or name in _AUTO_NAMES:
        raise ValueError(f"kernel name {name!r} is reserved")

    def _register(kernel: Kernel) -> Kernel:
        _load_builtins()
        registry = _REGISTRIES[stage]
        if not overwrite and name in registry and registry[name] is not kernel:
            raise ValueError(f"{stage} kernel {name!r} is already registered")
        registry[name] = kernel
        return kernel

    return _register if fn is None else _register(fn)


def available_kernels(stage: str) -> tuple[str, ...]:
    """Registered kernel names for ``stage``, sorted."""
    _check_stage(stage)
    _load_builtins()
    return tuple(sorted(_REGISTRIES[stage]))


def resolve_kernel_name(stage: str, name: str | None = None) -> str:
    """Apply the selection precedence for ``stage`` and validate the result.

    An unknown name raises a :class:`ValueError` that says which stage was
    being resolved, which **source** supplied the bad name (the explicit
    argument, the stage's environment variable, or the registry default),
    and what names *are* registered for that stage - so a typo'd env var in
    a worker process is diagnosable from the error text alone.
    """
    _check_stage(stage)
    _load_builtins()
    source = "explicit kernel argument"
    if name in _AUTO_NAMES:
        env_var = _ENV_VARS[stage]
        env_value = os.environ.get(env_var)
        if env_value:
            name, source = env_value, f"environment variable {env_var}"
        else:
            name, source = _DEFAULTS[stage], "registry default"
    if name not in _REGISTRIES[stage]:
        raise ValueError(
            f"unknown {stage} kernel {name!r} (from {source}); "
            f"registered {stage} kernels: {available_kernels(stage)}"
        )
    return name


def get_kernel(stage: str, name: str | None = None) -> Kernel:
    """The kernel callable for ``stage``/``name`` (auto -> env/default).

    With telemetry enabled each resolution bumps
    ``sofa_kernel_resolutions_total_<stage>`` and records the winning name
    in the ``sofa_kernels`` info metric.  The callable itself is returned
    unwrapped.
    """
    _load_builtins()
    resolved = resolve_kernel_name(stage, name)
    from repro.obs import get_telemetry

    obs = get_telemetry()
    if obs.enabled:
        obs.inc(f"sofa_kernel_resolutions_total_{stage}")
        obs.set_info("sofa_kernels", {stage: resolved})
    return _REGISTRIES[_check_stage(stage)][resolved]


def resolved_kernels(config) -> dict[str, str]:
    """The per-stage kernel names a :class:`~repro.core.config.SofaConfig`
    resolves to right now (env vars included) - the observability hook the
    cluster workers report through their stats snapshots."""
    return {"stream": resolve_kernel_name("stream", config.sufa.kernel)}
