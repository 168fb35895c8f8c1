"""The traced run's per-layer ledger: call counts and seconds per layer.

Wrappers are installed from the benchmark's own files around class
methods and module-level names of the program, and removed afterwards.
Registry kernel objects are never wrapped: ``fused_pair`` recognises the
fused predict+select path by kernel identity, so a wrapped kernel would
silently run a different path.  :meth:`Ledger.install` checks that every
registered kernel is still the very object it was before.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

#: (module or class path, attribute, ledger name).  Module-level names are
#: patched where the caller looks them up (``repro.engine.batched`` imports
#: ``det_gathered_project`` by name, so that is the name to replace).
TARGETS = (
    ("repro.engine.batched", "det_gathered_project", "stage.project"),
    ("repro.engine.batched", "stream_selected", "stage.stream"),
    ("repro.core.dlzs:StackedDlzsPredictor", "predict", "stage.predict"),
    ("repro.core.sads:SadsSorter", "select_stack", "stage.select"),
    ("repro.kernels.predict_select_fused:FusedPredictSelect", "run_stacked",
     "stage.predict_select"),
    ("repro.engine.batched:BatchedSofaAttention", "__call__", "operator.call"),
    ("repro.engine.serving:SofaEngine", "submit", "engine.submit"),
    ("repro.engine.paged:PagedDecodeCache", "get", "cache.get"),
    ("repro.engine.paged:PagedDecodeCache", "put", "cache.put"),
    ("repro.gateway.server", "request_from_json", "gateway.decode"),
    ("repro.gateway.server", "result_to_json", "gateway.encode"),
    ("repro.cluster.aio:AsyncSofaClient", "submit", "cluster.rpc"),
    ("repro.cluster.serving:EngineCluster", "submit", "cluster.submit"),
    ("repro.cluster.serving:EngineCluster", "poll", "aio.poll"),
    ("repro.cluster.serving", "encode_request", "codec.encode"),
    ("repro.cluster.serving", "decode_result", "codec.decode"),
)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


def _registry_snapshot() -> dict[tuple[str, str], int]:
    from repro.kernels import STAGES, available_kernels, get_kernel

    return {
        (stage, name): id(get_kernel(stage, name))
        for stage in STAGES
        for name in available_kernels(stage)
    }


class Ledger:
    """Counts calls and sums seconds per layer while installed.

    Nested calls of the same layer (one wrapped method calling another
    instance of itself) count once, at the outermost call.  Coroutine
    functions get an async wrapper; overlapping awaits are each timed.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - t0
                    self.calls[name] += 1
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
                self._depth[name] -= 1
        return wrapper

    def install(self) -> "Ledger":
        before = _registry_snapshot()
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = vars(owner)[attr]  # defined here, not inherited
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))
        if _registry_snapshot() != before:
            self.uninstall()
            raise AssertionError("tracing replaced a registry kernel object")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.seconds.get(name, 0.0) / calls if calls else 0.0

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
