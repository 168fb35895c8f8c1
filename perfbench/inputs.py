"""Seeded input generation for the three workloads.

Only NumPy is used here: the program under test receives the generated
arrays (or, for the HTTP path, the encoded bodies) and nothing else.  The
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: prefill_long: the paper's long-context token-parallel prefill (LTPP).
PREFILL = dict(s=2048, t=128, h=64, dk=64, heads=2, contexts=16)
#: decode_shared: sessions decoding from one shared system prompt.
DECODE = dict(prompt=1024, h=128, dk=64, sessions=16, max_steps=384)
#: gateway_payload: payload-heavy HTTP requests.
GATEWAY = dict(s=512, h=256, t=16, dk=64, bodies=8)

#: decode tokens stay strictly below the pinned prompt maximum, so the
#: per-sequence quantisation scale never changes and prompt blocks are
#: bit-identical (hence shared) across sessions.
_PROMPT_PIN = 8.0
_DECODE_CLIP = 4.0


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


@dataclass
class PrefillInputs:
    wk: np.ndarray  # (heads, h, dk)
    wv: np.ndarray  # (heads, h, dk)
    #: one (tokens (s, h), q (heads, t, dk)) per context, cycled by the caller
    contexts: list[tuple[np.ndarray, np.ndarray]]


def prefill_inputs(seed: int, n_contexts: int = PREFILL["contexts"]) -> PrefillInputs:
    p = PREFILL
    rng = _rng(seed, 1)
    wk = rng.standard_normal((p["heads"], p["h"], p["dk"]))
    wv = rng.standard_normal((p["heads"], p["h"], p["dk"]))
    contexts = []
    for _ in range(n_contexts):
        tokens = rng.standard_normal((p["s"], p["h"]))
        q = rng.standard_normal((p["heads"], p["t"], p["dk"]))
        contexts.append((tokens, q))
    return PrefillInputs(wk, wv, contexts)


@dataclass
class DecodeSession:
    """One decode sequence: the shared prompt plus its own appended rows."""

    sid: int
    buffer: np.ndarray  # (prompt + max_steps, h); rows past ``length`` unused
    length: int
    rng: np.random.Generator = field(repr=False)

    @property
    def key(self) -> str:
        return f"session-{self.sid}"

    @property
    def steps(self) -> int:
        return self.length - DECODE["prompt"]

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """Append one token row; returns (tokens view, T=1 query)."""
        row = np.clip(self.rng.standard_normal(DECODE["h"]), -_DECODE_CLIP, _DECODE_CLIP)
        self.buffer[self.length] = row
        self.length += 1
        q = self.rng.standard_normal((1, DECODE["dk"]))
        return self.buffer[: self.length], q


@dataclass
class DecodeInputs:
    seed: int
    wk: np.ndarray  # (h, dk)
    wv: np.ndarray  # (h, dk)
    prompt: np.ndarray  # (prompt, h)

    def session(self, sid: int) -> DecodeSession:
        d = DECODE
        buffer = np.empty((d["prompt"] + d["max_steps"], d["h"]))
        buffer[: d["prompt"]] = self.prompt
        return DecodeSession(sid, buffer, d["prompt"], _rng(self.seed, 3, sid))

    def schedule(self) -> "DecodeSchedule":
        return DecodeSchedule(_rng(self.seed, 4))


class DecodeSchedule:
    """Seeded session churn: every ``END_EVERY`` rounds one session ends.

    A session also ends when it reaches ``max_steps`` appended tokens; a
    fresh session on the shared prompt takes the freed slot either way.
    """

    END_EVERY = 4

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._round = 0

    def ending(self, sessions: list[DecodeSession]) -> list[int]:
        """Slots whose session ends after this round (advances the schedule)."""
        slots = [i for i, s in enumerate(sessions) if s.steps >= DECODE["max_steps"]]
        if self._round % self.END_EVERY == self.END_EVERY - 1:
            victim = int(self._rng.integers(len(sessions)))
            if victim not in slots:
                slots.append(victim)
        self._round += 1
        return slots


def decode_inputs(seed: int) -> DecodeInputs:
    d = DECODE
    rng = _rng(seed, 2)
    wk = rng.standard_normal((d["h"], d["dk"]))
    wv = rng.standard_normal((d["h"], d["dk"]))
    prompt = np.clip(rng.standard_normal((d["prompt"], d["h"])), -_DECODE_CLIP, _DECODE_CLIP)
    row, col = rng.integers(d["prompt"]), rng.integers(d["h"])
    prompt[row, col] = _PROMPT_PIN * (1 if rng.integers(2) else -1)
    return DecodeInputs(seed, wk, wv, prompt)


@dataclass
class GatewayInputs:
    wk: np.ndarray  # (h, dk), shared by every body
    wv: np.ndarray
    tokens: list[np.ndarray]  # per body, (s, h) integer-valued floats
    q: list[np.ndarray]  # per body, (t, dk)
    bodies: list[bytes]  # pre-encoded JSON request bodies


def gateway_inputs(seed: int, n_bodies: int = GATEWAY["bodies"]) -> GatewayInputs:
    g = GATEWAY
    rng = _rng(seed, 5)
    wk = rng.standard_normal((g["h"], g["dk"]))
    wv = rng.standard_normal((g["h"], g["dk"]))
    wk_list, wv_list = wk.tolist(), wv.tolist()
    tokens, queries, bodies = [], [], []
    for i in range(n_bodies):
        tok = rng.integers(-100, 100, size=(g["s"], g["h"])).astype(np.float64)
        q = rng.standard_normal((g["t"], g["dk"]))
        tokens.append(tok)
        queries.append(q)
        body = {"tokens": tok.tolist(), "q": q.tolist(), "wk": wk_list,
                "wv": wv_list, "tag": f"bench-{i}"}
        bodies.append(json.dumps(body).encode())
    return GatewayInputs(wk, wv, tokens, queries, bodies)
