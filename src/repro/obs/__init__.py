"""``repro.obs``: the telemetry plane for every serving tier.

Two layers plus a switch:

* :mod:`repro.obs.metrics` - a process-local :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket latency histograms with p50/p90/p99
  estimation) exportable as a flat JSON snapshot or Prometheus-style text.
* :mod:`repro.obs.tracing` - per-request lifecycle spans in a bounded
  ring buffer, exportable as Chrome trace-event JSON, with trace IDs
  propagated through the codec so cluster/socket workers stitch their
  spans into the frontend's timeline.
* This module - the process-global :class:`Telemetry` switchboard.

**Default-off, no-op cheap.**  Telemetry is enabled by the
``SOFA_TELEMETRY`` environment variable (``1``/``true``/``yes``/``on``;
inherited by forked local workers and spawned socket workers alike, so
one knob lights up every tier) or programmatically via :func:`enable`.
Every instrumentation hook in the serving stack guards itself with
``if obs.enabled`` (or the equally cheap no-op helpers below), so the
disabled plane costs one attribute read per hook site - the standing
bit-for-bit parity contract holds with telemetry on or off, and the
committed ``BENCH_obs.json`` proves the *enabled* plane stays under a 3%
end-to-end throughput overhead on the long-selection stream.

Typical use::

    from repro import obs

    obs.enable()                       # or SOFA_TELEMETRY=1 in the env
    ... serve traffic ...
    t = obs.get_telemetry()
    t.registry.snapshot()              # flat JSON metrics
    t.registry.render_prometheus()     # /metrics text
    t.tracer.chrome_trace()            # chrome://tracing timeline
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Mapping

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    register_stats_gauges,
    render_prometheus_snapshot,
)
from repro.obs.tracing import Span, Tracer, new_span_id, new_trace_id

__all__ = [
    "ENV_VAR",
    "Telemetry",
    "get_telemetry",
    "enable",
    "disable",
    "reset_telemetry",
    "telemetry_env_enabled",
    # re-exports
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_snapshots",
    "register_stats_gauges",
    "render_prometheus_snapshot",
    "Tracer",
    "Span",
    "new_trace_id",
    "new_span_id",
]

#: The one deployment knob: set to 1/true/yes/on to light up telemetry in
#: this process and every worker process it forks or spawns.
ENV_VAR = "SOFA_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

_NULL_CONTEXT: ContextManager[None] = nullcontext()


def telemetry_env_enabled() -> bool:
    """Does the environment ask for telemetry right now?"""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class Telemetry:
    """One process's telemetry state: the flag, the registry, the tracer.

    All hot-path helpers collapse to a single predicate check when
    disabled; none of them can raise into serving code paths beyond
    programming errors (bad metric kinds), so instrumentation never
    changes *what* is served - only, minutely, when.
    """

    def __init__(
        self,
        enabled: bool = False,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------- metrics
    def clock(self) -> float:
        """A timestamp for :meth:`observe_since` (0.0 when disabled)."""
        return time.perf_counter() if self.enabled else 0.0

    def inc(self, name: str, n: float = 1.0) -> None:
        if self.enabled:
            self.registry.counter(name).inc(n)

    def register_gauge(self, name: str, callback: Callable[[], float]) -> None:
        if self.enabled:
            self.registry.gauge(name, callback=callback)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.histogram(name).observe(value)

    def observe_since(self, name: str, t0: float) -> None:
        """Record ``now - t0`` seconds into histogram ``name``."""
        if self.enabled:
            self.registry.histogram(name).observe(time.perf_counter() - t0)

    # ------------------------------------------------------------- tracing
    def start_span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> Span | None:
        """Open a cross-method span, or ``None`` when disabled."""
        if not self.enabled:
            return None
        return self.tracer.start(name, trace_id=trace_id,
                                 parent_id=parent_id, attrs=attrs)

    def end_span(self, span: Span | None, **extra_attrs: Any) -> None:
        """Close a span from :meth:`start_span`; ``None`` is a no-op.

        Deliberately ignores :attr:`enabled` so a span opened before a
        mid-stream ``disable()`` still lands instead of leaking.
        """
        if span is not None:
            self.tracer.end(span, **extra_attrs)

    def span(
        self,
        name: str,
        attrs: Mapping[str, Any] | None = None,
        hist: str | None = None,
    ) -> ContextManager[Any]:
        """Context-manager span (nested via the per-thread stack).

        ``hist`` additionally records the span's duration into the named
        latency histogram - one clock pair serving both exports.
        Disabled telemetry returns a shared null context.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return self._timed_span(name, attrs, hist)

    @contextmanager
    def _timed_span(
        self,
        name: str,
        attrs: Mapping[str, Any] | None,
        hist: str | None,
    ):
        t0 = time.perf_counter()
        with self.tracer.span(name, attrs=attrs) as opened:
            yield opened
        if hist is not None:
            self.registry.histogram(hist).observe(time.perf_counter() - t0)


_lock = threading.Lock()
_singleton: Telemetry | None = None


def get_telemetry() -> Telemetry:
    """This process's telemetry singleton (created on first use).

    The enabled flag is seeded from ``SOFA_TELEMETRY`` at creation;
    :func:`enable`/:func:`disable` flip it afterwards.
    """
    global _singleton
    instance = _singleton
    if instance is None:
        with _lock:
            instance = _singleton
            if instance is None:
                instance = _singleton = Telemetry(
                    enabled=telemetry_env_enabled()
                )
    return instance


def enable() -> Telemetry:
    """Turn telemetry on (programmatic alternative to ``SOFA_TELEMETRY``)."""
    instance = get_telemetry()
    instance.enabled = True
    return instance


def disable() -> Telemetry:
    """Turn telemetry off; accumulated metrics/spans stay readable."""
    instance = get_telemetry()
    instance.enabled = False
    return instance


def reset_telemetry(enabled: bool | None = None) -> Telemetry:
    """Replace the singleton with a fresh one (registry and tracer empty).

    Worker processes call this at startup: a forked child inherits the
    parent's singleton - its spans and counters included - and must not
    re-ship the frontend's own telemetry back to it.  ``enabled=None``
    re-reads the environment.
    """
    global _singleton
    with _lock:
        _singleton = Telemetry(
            enabled=telemetry_env_enabled() if enabled is None else enabled
        )
        return _singleton
