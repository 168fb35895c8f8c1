"""Request-lifecycle tracing: spans, a bounded ring buffer, Chrome export.

**Span model.**  A :class:`Span` is one timed slice of a request's life:
``cluster.request`` (frontend root, submit to resolution) >
``cluster.rpc`` (dispatch to result frame) > ``worker.request`` (the
worker-side wall time of that request) > ``engine.batch`` (the fused call
that served it) > ``stage.predict_select_fused`` / ``stage.kv_gather`` /
``stage.stream``
(the pipeline stages inside the batch), with cache lookups/spills and
codec encode/decode timed alongside as histogram observations.  Spans
form a tree through ``parent_id``; a per-thread stack makes nesting
automatic for context-manager spans (:meth:`Tracer.span`), while
start/end pairs (:meth:`Tracer.start` / :meth:`Tracer.end`) cross
threads and methods freely (a request span starts on the submit path and
ends on whichever thread resolves its future).

**Cross-process stitching.**  Trace and span IDs are random 64-bit hex
strings; the cluster frontend injects its root span's ``(trace_id,
span_id)`` into the request payload (the optional ``trace`` codec field,
:func:`repro.engine.codec.encode_request`), the worker parents its
``worker.request`` span under it, and the worker's finished spans ride
home piggybacked on the stats-snapshot channel where
:meth:`Tracer.ingest` merges them - one timeline, frontend and worker
spans sharing a trace ID across the process (or socket) boundary.
Timestamps anchor on wall-clock ``time.time()`` (durations on the
monotonic ``time.perf_counter()``), so same-host processes line up
exactly and cross-host alignment is as good as NTP.

**Bounded memory.**  Finished spans live in a ``deque(maxlen=capacity)``
ring: a long-lived serving process keeps the most recent ``capacity``
spans and silently drops the oldest - telemetry must never become the
memory leak it is meant to find.

**Export.**  :meth:`Tracer.chrome_trace` renders the buffer as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto): one complete
(``"ph": "X"``) event per span with microsecond timestamps, plus process
metadata naming each pid.  Trace/span/parent IDs travel in ``args``.

Overhead budget: a span is one object, two clock reads and one deque
append; the full plane stays under 3% end-to-end (``BENCH_obs.json``)
and is a no-op when :mod:`repro.obs` is disabled.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Mapping

__all__ = ["Span", "Tracer", "new_trace_id", "new_span_id"]

#: Default ring-buffer capacity (finished spans retained per process).
DEFAULT_CAPACITY = 4096


def new_trace_id() -> str:
    """Random 64-bit trace identifier (hex)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """Random 64-bit span identifier (hex)."""
    return os.urandom(8).hex()


class Span:
    """One in-progress timed slice; becomes a plain dict when ended."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_wall", "start_perf", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any] | None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = time.time()
        self.start_perf = time.perf_counter()
        self.attrs = attrs


class Tracer:
    """Span factory plus the bounded ring buffer of finished spans."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        process_label: str | None = None,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.process_label = process_label or f"pid-{os.getpid()}"
        self._spans: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ span stack
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        """This thread's innermost open context-manager span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -------------------------------------------------------------- lifecycle
    def start(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: Mapping[str, Any] | None = None,
    ) -> Span:
        """Open a span; defaults parentage to this thread's context stack.

        Explicit ``trace_id``/``parent_id`` override the stack - that is
        the cross-process hook (a worker parents its span under the
        frontend's propagated context).
        """
        if trace_id is None:
            current = self.current_span()
            if current is not None:
                trace_id = current.trace_id
                if parent_id is None:
                    parent_id = current.span_id
            else:
                trace_id = new_trace_id()
        return Span(name, trace_id, new_span_id(), parent_id,
                    dict(attrs) if attrs else None)

    def end(self, span: Span, **extra_attrs: Any) -> dict[str, Any]:
        """Close ``span``; the finished record joins the ring buffer."""
        duration = time.perf_counter() - span.start_perf
        attrs = dict(span.attrs) if span.attrs else {}
        attrs.update(extra_attrs)
        record = {
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start_wall": span.start_wall,
            "duration_s": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "process": self.process_label,
            "attrs": attrs,
        }
        with self._lock:
            self._spans.append(record)
        return record

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        attrs: Mapping[str, Any] | None = None,
    ):
        """Context-manager span: pushes onto this thread's nesting stack."""
        opened = self.start(name, trace_id=trace_id, parent_id=parent_id,
                            attrs=attrs)
        stack = self._stack()
        stack.append(opened)
        try:
            yield opened
        except BaseException as error:
            stack.pop()
            self.end(opened, error=repr(error))
            raise
        else:
            stack.pop()
            self.end(opened)

    # ---------------------------------------------------------------- buffer
    def ingest(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Merge finished spans from another process (worker piggyback)."""
        n = 0
        with self._lock:
            for record in records:
                if isinstance(record, Mapping) and "name" in record:
                    self._spans.append(dict(record))
                    n += 1
        return n

    def spans(self) -> list[dict[str, Any]]:
        """Finished spans currently buffered (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[dict[str, Any]]:
        """Pop and return every buffered span (the piggyback channel)."""
        with self._lock:
            records = list(self._spans)
            self._spans.clear()
        return records

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # ---------------------------------------------------------------- export
    def chrome_trace(
        self, records: Iterable[Mapping[str, Any]] | None = None
    ) -> dict[str, Any]:
        """The buffered (or given) spans as Chrome trace-event JSON.

        Complete (``"ph": "X"``) events with microsecond wall-clock
        timestamps; one ``process_name`` metadata event per distinct pid.
        Load the serialized dict in ``chrome://tracing`` or Perfetto.
        """
        if records is None:
            records = self.spans()
        events: list[dict[str, Any]] = []
        process_names: dict[int, str] = {}
        for record in records:
            pid = int(record.get("pid", 0))
            process_names.setdefault(
                pid, str(record.get("process") or f"pid-{pid}")
            )
            args = {
                "trace_id": record.get("trace_id"),
                "span_id": record.get("span_id"),
                "parent_id": record.get("parent_id"),
            }
            args.update(record.get("attrs") or {})
            events.append({
                "name": str(record.get("name", "?")),
                "cat": "sofa",
                "ph": "X",
                "ts": float(record.get("start_wall", 0.0)) * 1e6,
                "dur": max(float(record.get("duration_s", 0.0)), 0.0) * 1e6,
                "pid": pid,
                "tid": int(record.get("tid", 0)),
                "args": args,
            })
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
            for pid, label in sorted(process_names.items())
        ]
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}
