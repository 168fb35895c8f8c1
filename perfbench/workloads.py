"""The three closed-loop workloads and the run that drives each.

Every workload runs ``SofaConfig(tile_cols=64, top_k=0.1)`` and follows
the same course (:meth:`Workload.run`): generate the seeded inputs, set
the stack up several times and keep the last, time a closed-loop window,
tear down, then check a fixed sample of the results bit for bit against a
reference path outside the window.  A traced run splits the window into
an untraced half and a traced half, the ratio of whose throughputs is the
tracing overhead, and asserts that tracing changed no output bit.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    PER_LAYER,
    calib_probe,
    error_frac,
    median_setup,
    metric,
    min_samples,
    peak_rss_mb,
    percentile,
    self_time,
)
from inputs import DECODE, PREFILL, decode_inputs, gateway_inputs, prefill_inputs
from tracing import Ledger

from repro import AsyncSofaClient, EngineCluster, SofaAttention, SofaConfig, SofaEngine
from repro.engine import AttentionRequest
from repro.gateway import GatewayClient, SofaGateway

CONFIG = SofaConfig(tile_cols=64, top_k=0.1)

#: The four stage timings an operator call contains (five names: the fused
#: predict+select path replaces predict and select when it is selected).
STAGES = ("stage.project", "stage.predict", "stage.select", "stage.predict_select",
          "stage.stream")


@dataclass
class Window:
    """What one timed closed-loop window produced."""

    elapsed: float = 0.0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)  # engine BatchRecords
    ops: dict[str, float] = field(
        default_factory=lambda: {"predict": 0.0, "select": 0.0, "formal": 0.0})
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed

    def add_ops(self, result) -> None:
        predict, select, formal = result.stages
        self.ops["predict"] += predict.ops.total_raw()
        self.ops["select"] += select.ops.total_raw()
        self.ops["formal"] += formal.ops.total_raw()


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha1()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def same_bits(result, ref) -> bool:
    return (
        result.output.tobytes() == ref.output.tobytes()
        and np.array_equal(result.selected, ref.selected)
        and result.assurance_triggers == ref.assurance_triggers
    )


def engine_layers(ledger: Ledger, window: Window, sample: list, cache_delta=None,
                  cache_now=None) -> dict[str, float]:
    """Stage, operator, kernel, engine and cache metrics of traced engine work."""
    sec, calls = ledger.seconds, ledger.calls
    op_calls = calls.get("operator.call", 0)
    stage_sum = [sec.get(n, 0.0) for n in STAGES]
    out = {f"{n}_ms": ledger.mean_ms(n) for n in STAGES}
    out["operator.call_ms"] = ledger.mean_ms("operator.call")
    out["operator.bookkeeping_ms"] = (
        1e3 * self_time(sec.get("operator.call", 0.0), stage_sum) / op_calls
        if op_calls else 0.0)

    def gops(ops: float, seconds: float) -> float:
        return ops / seconds / 1e9 if seconds > 0 else 0.0

    out["stage.predict_gops"] = gops(window.ops["predict"], sec.get("stage.predict", 0.0))
    out["stage.select_gops"] = gops(window.ops["select"], sec.get("stage.select", 0.0))
    out["stage.formal_gops"] = gops(
        window.ops["formal"], sec.get("stage.project", 0.0) + sec.get("stage.stream", 0.0))
    # Parity guard: computed over the fixed reference sample, never timed.
    out["kernel.ops_per_head"] = statistics.mean(r.total_ops.total_raw() for r in sample)
    out["kernel.dram_mb_per_head"] = statistics.mean(r.total_dram_bytes for r in sample) / 1e6
    out["engine.submit_us"] = 1e3 * ledger.mean_ms("engine.submit")
    records = window.records
    if records:
        out["engine.queue_wait_ms"] = 1e3 * statistics.mean(r.queue_wait_s for r in records)
        out["engine.execute_ms"] = 1e3 * statistics.mean(r.execute_s for r in records)
        out["engine.batch_heads"] = statistics.mean(r.n_heads for r in records)
    out["cache.get_ms"] = ledger.mean_ms("cache.get")
    out["cache.put_ms"] = ledger.mean_ms("cache.put")
    if cache_delta is not None:
        hits, misses, reused, appended = cache_delta
        out["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out["cache.rows_reused_frac"] = reused / (reused + appended) if reused + appended else 0.0
        out["cache.resident_mb"] = cache_now.resident_bytes / 1e6
        out["cache.shared_blocks"] = float(cache_now.shared_blocks)
    return out


def cache_counts(engine) -> tuple[int, int, int, int]:
    c = engine.stats.cache
    return c.hits, c.misses, c.rows_reused, c.rows_appended


class Workload:
    """Shared course of a run; subclasses supply the stack and the loop."""

    #: set-ups per run; the median is ``setup_s``
    SETUP_REPEATS = 5

    def build(self):
        raise NotImplementedError

    def teardown(self, stack) -> None:
        raise NotImplementedError

    def window(self, stack, seconds: float, min_n: int, ledger: Ledger | None) -> Window:
        raise NotImplementedError

    def probe(self, stack) -> str:
        """Digest of a fixed request set's outputs (traced vs untraced)."""
        raise NotImplementedError

    def verify(self) -> tuple[int, int]:
        """(checked, mismatched) of the fixed sample against the reference."""
        raise NotImplementedError

    def run(self, seconds: float, trace: bool) -> tuple[dict, dict]:
        """Returns (result fields, extra info for the report line)."""
        setup_s, stack = median_setup(self.build, self.teardown, self.SETUP_REPEATS)
        calib = [calib_probe()]
        traced_changed = False
        try:
            if not trace:
                windows = [self.window(stack, seconds, min_samples(90), None)]
            else:
                plain = self.window(stack, seconds / 2, 1, None)
                probe_plain = self.probe(stack)
                with Ledger() as ledger:
                    windows = [plain, self.window(stack, seconds / 2, 1, ledger)]
                    traced_changed = self.probe(stack) != probe_plain
            calib.append(calib_probe())
        finally:
            self.teardown(stack)
        checked, mismatched = self.verify()
        mismatched += traced_changed
        win = windows[-1]
        attempted = sum(w.attempted for w in windows)
        failed = sum(w.failed for w in windows) + mismatched
        info = {"setup_s": setup_s, "calib_ms": calib, "samples": len(win.latencies),
                "window_s": win.elapsed, "checked": checked, "mismatched": mismatched}
        if not trace:
            lat = win.latencies
            metrics = {
                "throughput_rps": metric(win.throughput, "1/s"),
                "latency_p50_ms": metric(1e3 * percentile(lat, 50), "ms"),
                "latency_p90_ms": metric(1e3 * percentile(lat, 90), "ms"),
                "error_frac": metric(error_frac(failed, attempted), "fraction"),
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            }
        else:
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(win.layers)
            values["host.calib_ms"] = statistics.mean(calib)
            values["bench.trace_overhead"] = win.throughput / windows[0].throughput
            metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
        result = {"correct": mismatched == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, info


# ------------------------------------------------------------------ prefill
class PrefillLong(Workload):
    """Engine-direct long-context prefill, one caller, 2 heads per call."""

    #: one set-up is one warm-up call, short and drift-prone: take more
    SETUP_REPEATS = 7
    #: contexts whose first results are checked against SofaAttention
    N_CHECK = 2

    def __init__(self, seed: int):
        self.inputs = prefill_inputs(seed)
        self.first: dict[int, list] = {}  # context -> first results
        self.digests: dict[int, str] = {}
        self.repeat_mismatch = 0

    def _requests(self, ctx: int) -> list[AttentionRequest]:
        tokens, q = self.inputs.contexts[ctx]
        return [
            AttentionRequest(tokens=tokens, q=q[h], wk=self.inputs.wk[h], wv=self.inputs.wv[h])
            for h in range(PREFILL["heads"])
        ]

    def _call(self, engine, ctx: int):
        futures = [engine.submit(r) for r in self._requests(ctx)]
        records = engine.flush()
        return [f.result() for f in futures], records

    def build(self):
        engine = SofaEngine(config=CONFIG)
        self._call(engine, 0)  # fills the operator cache
        return engine

    def teardown(self, engine) -> None:
        engine.shutdown()

    def window(self, engine, seconds, min_n, ledger) -> Window:
        win = Window()
        n_ctx = len(self.inputs.contexts)
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or len(win.latencies) < min_n:
            ctx = i % n_ctx
            i += 1
            win.attempted += PREFILL["heads"]
            t0 = time.perf_counter()
            try:
                results, records = self._call(engine, ctx)
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                win.failed += PREFILL["heads"]
                continue
            win.latencies.append(time.perf_counter() - t0)
            win.completed += len(results)
            win.records.extend(records)
            self._keep(ctx, results)
            if ledger is not None:
                for r in results:
                    win.add_ops(r)
        win.elapsed = time.perf_counter() - start
        if ledger is not None:
            win.layers = engine_layers(ledger, win, self.first[0])
        return win

    def _keep(self, ctx: int, results) -> None:
        d = digest(*(r.output for r in results), *(r.selected for r in results))
        if ctx not in self.digests:
            self.digests[ctx] = d
            if ctx < self.N_CHECK:
                self.first[ctx] = results
        elif self.digests[ctx] != d:
            self.repeat_mismatch += 1

    def probe(self, engine) -> str:
        results, _ = self._call(engine, 1)
        return digest(*(r.output for r in results))

    def verify(self) -> tuple[int, int]:
        checked = mismatched = 0
        for ctx, results in sorted(self.first.items()):
            tokens, q = self.inputs.contexts[ctx]
            for h, result in enumerate(results):
                ref = SofaAttention(self.inputs.wk[h], self.inputs.wv[h], CONFIG)(tokens, q[h])
                checked += 1
                mismatched += not same_bits(result, ref)
        if not self.first:
            mismatched += 1  # nothing to check is a failure, not a pass
        return checked, mismatched + self.repeat_mismatch


# ------------------------------------------------------------------- decode
class DecodeShared(Workload):
    """Engine-direct cached decode of 16 sessions on one shared prompt."""

    WARMUP_ROUNDS = 2
    #: every SAMPLE_EVERY-th round one session-step joins the checked sample
    SAMPLE_EVERY = 2
    N_SAMPLE = 16

    def __init__(self, seed: int):
        self.inputs = decode_inputs(seed)
        self.sample: list[tuple[np.ndarray, np.ndarray, object]] = []

    def build(self):
        engine = SofaEngine(config=CONFIG)
        state = {
            "engine": engine,
            "sessions": [self.inputs.session(sid) for sid in range(DECODE["sessions"])],
            "schedule": self.inputs.schedule(),
            "next_sid": DECODE["sessions"],
            "round": 0,
        }
        for _ in range(self.WARMUP_ROUNDS):  # fills the decode cache
            self._round(state, None, None)
        return state

    def teardown(self, state) -> None:
        state["engine"].shutdown()

    def _round(self, state, win: Window | None, ledger) -> None:
        engine, sessions = state["engine"], state["sessions"]
        submitted = []
        for session in sessions:
            tokens, q = session.step()
            request = AttentionRequest(tokens=tokens, q=q, wk=self.inputs.wk,
                                       wv=self.inputs.wv, cache_key=session.key)
            if win is not None:
                win.attempted += 1
            try:
                submitted.append((time.perf_counter(), session, request, engine.submit(request)))
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                if win is not None:
                    win.failed += 1
        try:
            records = engine.flush()
        except Exception:  # noqa: BLE001 - each failed future carries its error
            records = []
        done = time.perf_counter()
        round_no = state["round"]
        state["round"] += 1
        for slot, (t0, session, request, future) in enumerate(submitted):
            try:
                result = future.result()
            except Exception:  # noqa: BLE001
                if win is not None:
                    win.failed += 1
                continue
            if win is None:
                continue
            win.completed += 1
            win.latencies.append(done - t0)
            if ledger is not None:
                win.add_ops(result)
            if (round_no % self.SAMPLE_EVERY == 0 and len(self.sample) < self.N_SAMPLE
                    and slot == (round_no // self.SAMPLE_EVERY) % len(submitted)):
                self.sample.append((request.tokens.copy(), request.q, result))
        if win is not None:
            win.records.extend(records)
        for slot in state["schedule"].ending(sessions):
            engine.invalidate_cache(sessions[slot].key)
            sessions[slot] = self.inputs.session(state["next_sid"])
            state["next_sid"] += 1

    def window(self, state, seconds, min_n, ledger) -> Window:
        win = Window()
        engine = state["engine"]
        before = cache_counts(engine)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(win.latencies) < min_n:
            self._round(state, win, ledger)
        win.elapsed = time.perf_counter() - start
        if ledger is not None:
            delta = tuple(b - a for a, b in zip(before, cache_counts(engine)))
            win.layers = engine_layers(ledger, win, [r for _, _, r in self.sample],
                                       delta, engine.stats.cache)
        return win

    def probe(self, state) -> str:
        """Three rounds of two fresh sessions on a fresh cached engine."""
        engine = SofaEngine(config=CONFIG)
        try:
            sessions = [self.inputs.session(10_000 + i) for i in range(2)]
            outputs = []
            for _ in range(3):
                futures = []
                for s in sessions:
                    tokens, q = s.step()
                    futures.append(engine.submit(AttentionRequest(
                        tokens=tokens, q=q, wk=self.inputs.wk, wv=self.inputs.wv,
                        cache_key=s.key)))
                engine.flush()
                outputs += [f.result().output for f in futures]
            return digest(*outputs)
        finally:
            engine.shutdown()

    def verify(self) -> tuple[int, int]:
        engine = SofaEngine(config=CONFIG)  # requests carry no cache_key
        try:
            refs = engine.run([
                AttentionRequest(tokens=t, q=q, wk=self.inputs.wk, wv=self.inputs.wv)
                for t, q, _ in self.sample
            ])
        finally:
            engine.shutdown()
        # The uncached engine isolates the decode cache; the sequential
        # operator also catches a fault shared by both engine paths.
        op = SofaAttention(self.inputs.wk, self.inputs.wv, CONFIG)
        mismatched = sum(
            not (same_bits(r, ref) and same_bits(r, op(t, q)))
            for (t, q, r), ref in zip(self.sample, refs)
        )
        return len(self.sample), mismatched + (not self.sample)


# ------------------------------------------------------------------ gateway
@dataclass
class GatewayStack:
    cluster: EngineCluster
    gateway: SofaGateway
    conns: list[GatewayClient]


class GatewayPayload(Workload):
    """The full HTTP path over a one-worker local-transport cluster."""

    SETUP_REPEATS = 3
    N_CONNS = 2
    WARMUP_PER_CONN = 2

    def __init__(self, seed: int):
        self.inputs = gateway_inputs(seed)
        self.loop = asyncio.new_event_loop()
        self.first: dict[int, bytes] = {}
        self.repeat_mismatch = 0

    def _body(self, conn: int, i: int) -> int:
        # Connections use disjoint bodies, so no two in-flight requests are
        # identical and the cluster's dedup never fires.
        return (conn + self.N_CONNS * i) % len(self.inputs.bodies)

    async def _abuild(self) -> GatewayStack:
        cluster = EngineCluster(n_workers=1, config=CONFIG, transport="local")
        gateway = SofaGateway(AsyncSofaClient(cluster))
        await gateway.start()
        conns = [GatewayClient("127.0.0.1", gateway.port) for _ in range(self.N_CONNS)]
        stack = GatewayStack(cluster, gateway, conns)

        async def warm(c: int) -> None:
            for i in range(self.WARMUP_PER_CONN):
                status, _, _ = await conns[c].request(
                    "POST", "/v1/attention", self.inputs.bodies[self._body(c, i)])
                if status != 200:
                    raise RuntimeError(f"warm-up request answered {status}")

        await asyncio.gather(*(warm(c) for c in range(self.N_CONNS)))
        return stack

    def build(self) -> GatewayStack:
        return self.loop.run_until_complete(self._abuild())

    async def _ateardown(self, stack: GatewayStack) -> None:
        for conn in stack.conns:
            await conn.aclose()
        await stack.gateway.stop()
        stack.cluster.shutdown()

    def teardown(self, stack: GatewayStack) -> None:
        self.loop.run_until_complete(self._ateardown(stack))

    async def _adrive(self, stack: GatewayStack, seconds: float, min_n: int, win: Window,
                      statuses: list[int]) -> None:
        start = time.perf_counter()

        async def conn_loop(c: int) -> None:
            i = 0
            while time.perf_counter() - start < seconds or len(win.latencies) < min_n:
                idx = self._body(c, i)
                i += 1
                win.attempted += 1
                t0 = time.perf_counter()
                try:
                    status, _, body = await stack.conns[c].request(
                        "POST", "/v1/attention", self.inputs.bodies[idx])
                except (ConnectionError, asyncio.IncompleteReadError):
                    win.failed += 1
                    continue
                statuses.append(status)
                if status != 200:
                    win.failed += 1
                    continue
                win.latencies.append(time.perf_counter() - t0)
                win.completed += 1
                if idx not in self.first:
                    self.first[idx] = body
                elif self.first[idx] != body:
                    self.repeat_mismatch += 1

        await asyncio.gather(*(conn_loop(c) for c in range(self.N_CONNS)))
        win.elapsed = time.perf_counter() - start

    def window(self, stack, seconds, min_n, ledger) -> Window:
        win = Window()
        statuses: list[int] = []
        self.loop.run_until_complete(self._adrive(stack, seconds, min_n, win, statuses))
        if ledger is not None:
            win.layers = self._layers(ledger, win, statuses)
        return win

    def _layers(self, ledger: Ledger, win: Window, statuses: list[int]) -> dict[str, float]:
        rpc_ms = ledger.mean_ms("cluster.rpc")
        out = {
            "gateway.self_ms": 1e3 * statistics.mean(win.latencies) - rpc_ms,
            "gateway.decode_ms": ledger.mean_ms("gateway.decode"),
            "gateway.encode_ms": ledger.mean_ms("gateway.encode"),
            "gateway.body_kb": statistics.mean(len(b) for b in self.inputs.bodies) / 1e3,
            "gateway.admission_rejects": float(sum(s in (429, 503) for s in statuses)),
            "cluster.rpc_ms": rpc_ms,
            "cluster.submit_ms": ledger.mean_ms("cluster.submit"),
            "codec.encode_ms": ledger.mean_ms("codec.encode"),
            "codec.decode_ms": ledger.mean_ms("codec.decode"),
            "aio.polls_per_request": ledger.calls.get("aio.poll", 0) / max(win.completed, 1),
        }
        # Engine-direct replay of the same bodies in this process: the
        # engine-side layers, and the cluster's tax over engine-direct.
        engine = SofaEngine(config=CONFIG)
        try:
            requests = self._requests()
            engine.run(requests[:1])  # fills the operator cache
            ledger.reset()
            replay = Window()
            direct, results = [], []
            for request in requests:
                t0 = time.perf_counter()
                future = engine.submit(request)
                replay.records += engine.flush()
                results.append(future.result())
                direct.append(time.perf_counter() - t0)
                replay.add_ops(results[-1])
        finally:
            engine.shutdown()
        out["cluster.tax_ms"] = rpc_ms - 1e3 * statistics.mean(direct)
        out.update(engine_layers(ledger, replay, results))
        return out

    def _requests(self) -> list[AttentionRequest]:
        inp = self.inputs
        return [AttentionRequest(tokens=t, q=q, wk=inp.wk, wv=inp.wv)
                for t, q in zip(inp.tokens, inp.q)]

    def probe(self, stack) -> str:
        async def post() -> bytes:
            status, _, body = await stack.conns[0].request(
                "POST", "/v1/attention", self.inputs.bodies[0])
            if status != 200:
                raise RuntimeError(f"probe request answered {status}")
            return body
        return hashlib.sha1(self.loop.run_until_complete(post())).hexdigest()

    def verify(self) -> tuple[int, int]:
        engine = SofaEngine(config=CONFIG)
        try:
            refs = engine.run(self._requests())
        finally:
            engine.shutdown()
        self.loop.close()
        op = SofaAttention(self.inputs.wk, self.inputs.wv, CONFIG)
        mismatched = self.repeat_mismatch + (not self.first)
        for idx, body in sorted(self.first.items()):
            reply, ref = json.loads(body), refs[idx]
            output = np.asarray(reply["output"], dtype=np.float64)
            mismatched += not (
                output.tobytes() == ref.output.tobytes()
                and np.array_equal(np.asarray(reply["selected"]), ref.selected)
                and reply["assurance_triggers"] == ref.assurance_triggers
                and same_bits(ref, op(self.inputs.tokens[idx], self.inputs.q[idx]))
            )
        return len(self.first), mismatched


WORKLOADS = {
    "prefill_long": PrefillLong,
    "decode_shared": DecodeShared,
    "gateway_payload": GatewayPayload,
}
