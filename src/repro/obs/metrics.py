"""Process-local metrics registry: counters, gauges, latency histograms.

The serving stack's stats objects (:class:`~repro.engine.serving.
EngineStats`, :class:`~repro.engine.cache.CacheStats`,
:class:`~repro.cluster.serving.ClusterStats`) *count* events; this module
adds the export surface on top of them: a :class:`MetricsRegistry` that
instruments register into and that renders either a flat JSON snapshot
(:meth:`MetricsRegistry.snapshot` - the shape cluster workers piggyback on
their stats channel) or a Prometheus-style text exposition
(:meth:`MetricsRegistry.render_prometheus` - the shape ROADMAP item 4's
``/metrics`` endpoint serves).

Instrument kinds:

:class:`Counter`
    Monotone event tally (``sofa_engine_requests_total``).
:class:`Gauge`
    Point-in-time value, either set explicitly or **callback-backed**: the
    existing stats dataclasses register their counters as callback gauges
    (via :meth:`~repro.engine.cache.CacheStats.register_metrics` and
    friends), so the registry reads whatever they currently say instead of
    double-counting alongside them.  Callbacks are held through weakrefs
    by the registrars, so a retired engine's gauges decay to 0 instead of
    pinning it.
:class:`Histogram`
    Fixed-bucket latency distribution with p50/p90/p99 estimation by
    linear interpolation inside the landing bucket - the classic
    Prometheus-histogram quantile estimate, honest to within one bucket's
    width.  The default buckets span 50 microseconds to 10 seconds, log-ish
    spaced, which covers everything from one codec encode to a full
    long-selection batch.

Everything is thread-safe (engines time batches on pool threads) and
allocation-light: an ``observe`` is one lock plus one ``bisect``.  The
registry never evaluates gauge callbacks while holding its own lock, so a
callback may take serving-tier locks without deadlocking a concurrent
instrument lookup.

Overhead budget: the whole telemetry plane (this module plus
:mod:`repro.obs.tracing`) must cost < 3% end-to-end throughput when
enabled (``BENCH_obs.json`` is the committed proof) and compile to a
single predicate check when disabled (see :mod:`repro.obs`).
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "register_stats_gauges",
    "render_prometheus_snapshot",
]

#: Default histogram bucket upper bounds (seconds): 50us .. 10s, log-ish.
#: An implicit +Inf bucket catches everything above the last bound.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotone event counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value; explicitly set or read through a callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._callback: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._callback = None
        self._value = float(value)

    def set_callback(self, fn: Callable[[], float]) -> None:
        """Back this gauge with ``fn`` (replacing any previous source).

        Re-registration replaces the callback: serving objects are
        process-singletons in deployment (one engine per worker process),
        so the latest registrant is the live one.
        """
        self._callback = fn

    @property
    def value(self) -> float:
        fn = self._callback
        if fn is not None:
            try:
                return float(fn())
            except Exception:  # noqa: BLE001 - a dead provider reads as 0
                return 0.0
        return self._value


class Histogram:
    """Fixed-bucket distribution with interpolated quantile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or bounds[0] <= 0:
            raise ValueError(
                f"histogram {name} buckets must be positive and strictly "
                f"increasing, got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        # counts[i] = observations in (bounds[i-1], bounds[i]];
        # counts[-1] = overflow above the last finite bound (the +Inf bucket).
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; last entry is the overflow."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation in-bucket).

        Observations landing above the last finite bound clamp to it (the
        +Inf bucket has no width to interpolate across); an empty histogram
        reads 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                if i >= len(self.buckets):  # overflow bucket: clamp
                    return self.buckets[-1]
                lo = 0.0 if i == 0 else self.buckets[i - 1]
                hi = self.buckets[i]
                frac = (target - cumulative) / c
                return lo + (hi - lo) * frac
            cumulative += c
        return self.buckets[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class MetricsRegistry:
    """Named instruments plus the two export renderings.

    Lookups are get-or-create and idempotent; asking for an existing name
    with a different instrument kind raises (a histogram and a counter
    sharing one name would export garbage).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, help, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {cls.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Callable[[], float] | None = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help)
        if callback is not None:
            gauge.set_callback(callback)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def _sorted_instruments(self) -> list[Any]:
        # Snapshot the table under the lock, but evaluate instruments (gauge
        # callbacks may take serving-tier locks) outside it: holding the
        # registry lock across a callback could deadlock against a thread
        # that holds a serving lock and is creating an instrument here.
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def snapshot(self) -> dict[str, Any]:
        """Flat, JSON-safe view of every instrument.

        This is the wire shape: cluster workers ship it piggybacked on
        their stats-snapshot channel, and :func:`merge_snapshots` folds
        several of them into one cluster-wide view.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, Any] = {}
        for inst in self._sorted_instruments():
            if isinstance(inst, Counter):
                counters[inst.name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[inst.name] = inst.value
            elif isinstance(inst, Histogram):
                histograms[inst.name] = {
                    "buckets": list(inst.buckets),
                    "counts": inst.bucket_counts(),
                    "count": inst.count,
                    "sum": inst.sum,
                    "p50": inst.p50,
                    "p90": inst.p90,
                    "p99": inst.p99,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """Prometheus text-exposition rendering of every instrument."""
        lines: list[str] = []
        for inst in self._sorted_instruments():
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            if isinstance(inst, Counter):
                lines.append(f"# TYPE {inst.name} counter")
                lines.append(f"{inst.name} {_fmt(inst.value)}")
            elif isinstance(inst, Gauge):
                lines.append(f"# TYPE {inst.name} gauge")
                lines.append(f"{inst.name} {_fmt(inst.value)}")
            elif isinstance(inst, Histogram):
                lines.append(f"# TYPE {inst.name} histogram")
                cumulative = 0
                counts = inst.bucket_counts()
                for bound, c in zip(inst.buckets, counts):
                    cumulative += c
                    lines.append(
                        f'{inst.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                    )
                lines.append(
                    f'{inst.name}_bucket{{le="+Inf"}} {cumulative + counts[-1]}'
                )
                lines.append(f"{inst.name}_sum {_fmt(inst.sum)}")
                lines.append(f"{inst.name}_count {inst.count}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Shortest faithful float rendering (ints without a trailing .0)."""
    f = float(value)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Fold several :meth:`MetricsRegistry.snapshot` dicts into one.

    Counters and histogram bucket tallies sum (they are per-process event
    counts); gauges sum too - every gauge the stack registers is a counter
    reading or an occupancy, both of which aggregate additively across
    workers.  Histogram quantiles are re-estimated from the merged
    buckets; merging histograms with different bucket layouts raises.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, dict[str, Any]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (snap.get("gauges") or {}).items():
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, h in (snap.get("histograms") or {}).items():
            merged = hists.get(name)
            if merged is None:
                hists[name] = {
                    "buckets": list(h["buckets"]),
                    "counts": list(h["counts"]),
                    "count": int(h["count"]),
                    "sum": float(h["sum"]),
                }
                continue
            if merged["buckets"] != list(h["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ across "
                    "snapshots; cannot merge"
                )
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], h["counts"])
            ]
            merged["count"] += int(h["count"])
            merged["sum"] += float(h["sum"])
    for name, h in hists.items():
        scratch = Histogram(name, buckets=h["buckets"])
        scratch._counts = list(h["counts"])
        scratch._count = h["count"]
        scratch._sum = h["sum"]
        h["p50"], h["p90"], h["p99"] = scratch.p50, scratch.p90, scratch.p99
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": hists,
    }


def render_prometheus_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Prometheus text exposition of a :meth:`MetricsRegistry.snapshot`.

    :meth:`MetricsRegistry.render_prometheus` renders one live registry;
    this renders the *wire shape* instead - typically a
    :func:`merge_snapshots` fold of the gateway's own registry, the
    frontend telemetry registry, and every worker's piggybacked snapshot -
    which is exactly what a ``/metrics`` endpoint on a multi-process
    deployment needs to serve.  Names render in sorted order so scrapes
    are deterministic.
    """
    lines: list[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(value)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(value)}")
    for name, h in sorted((snapshot.get("histograms") or {}).items()):
        lines.append(f"# TYPE {name} histogram")
        counts = list(h["counts"])
        cumulative = 0
        for bound, c in zip(h["buckets"], counts):
            cumulative += c
            lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative + counts[-1]}')
        lines.append(f"{name}_sum {_fmt(h['sum'])}")
        lines.append(f"{name}_count {int(h['count'])}")
    return "\n".join(lines) + "\n"


def register_stats_gauges(
    registry: MetricsRegistry,
    prefix: str,
    obj: Any,
    fields: Iterable[str],
    help: str = "",
) -> None:
    """Register ``obj``'s numeric attributes as callback gauges.

    This is how the existing stats dataclasses plug into the registry
    without double-counting: the gauge reads the live attribute on every
    export.  ``obj`` is held through a weakref - when its owner is
    retired the gauges read 0 instead of pinning the object alive.
    """
    ref = weakref.ref(obj)
    for field_name in fields:

        def read(field_name: str = field_name) -> float:
            target = ref()
            return float(getattr(target, field_name)) if target is not None else 0.0

        registry.gauge(f"{prefix}_{field_name}", help=help, callback=read)
