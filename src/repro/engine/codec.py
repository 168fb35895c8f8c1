"""Wire codec for attention requests/results crossing a process boundary.

``repro.cluster`` ships :class:`~repro.engine.serving.AttentionRequest`
objects to engine worker processes and
:class:`~repro.core.pipeline.SofaAttentionResult` objects back.  Relying on
whatever ``pickle`` happens to do to those classes would tie the wire format
to their private layout; this module fixes an explicit, versioned payload
instead:

* payloads are plain built-ins (dicts, tuples, ints, floats, bytes), so any
  transport that can move built-ins (``multiprocessing`` queues, a socket
  with its own framing, a disk spill) can carry them;
* ndarrays travel as ``(bytes, dtype-str, shape)`` triples - the decode
  rebuilds the exact dtype and shape, so a round-trip is **bit-identical**
  by construction (the cluster's parity contract stands on this);
* every payload carries :data:`CODEC_VERSION`; decoding a mismatched
  version fails loudly instead of misinterpreting fields.

Malformed payloads never crash or hang a serving tier: every decoder
failure is a :class:`CodecError` subclass (:class:`CodecVersionError`,
:class:`TruncatedPayloadError`), which the worker loop and the cluster
frontend both convert into a *failed future* for the offending request.

The module also owns the **byte-stream framing** used by the socket
transport (:mod:`repro.cluster.transport`): :func:`encode_frame` prefixes
each message with a fixed header carrying a magic tag, the frame-format
version, the payload length and a CRC32 checksum, and
:class:`FrameDecoder` incrementally splits a TCP stream back into
messages.  A corrupted, truncated, or version-skewed stream raises the
matching :class:`FrameError` subclass instead of silently desyncing -
the transport converts that into a dead-link signal so the affected
requests re-route rather than hang.

The deduplication fingerprint also lives here: two requests are duplicates
exactly when their canonical encodings agree byte for byte (metadata that
cannot change the result - the ``tag`` - is excluded).
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from dataclasses import asdict, fields
from typing import Any

import numpy as np

from repro.core.config import DlzsConfig, SadsConfig, SofaConfig, SufaConfig
from repro.core.pipeline import SofaAttentionResult, StageTrace
from repro.engine.serving import AttentionRequest
from repro.numerics.complexity import OpCounter

#: Bump on any payload layout change; decoders reject other versions.
#: Version 2: the request config lost ``dlzs.kernel`` and ``sads.kernel``.
#: Version 3: the SU-FA config lost its ``kernel`` field too.
CODEC_VERSION = 3


class CodecError(ValueError):
    """A payload (or frame) could not be decoded.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handling keeps working; serving tiers route it to the offending
    request's future instead of letting it abort a batch or a worker.
    """


class CodecVersionError(CodecError):
    """Payload was produced by a different codec version."""


class TruncatedPayloadError(CodecError):
    """An encoded tensor's byte buffer does not match its dtype/shape."""


class FrameError(CodecError):
    """The byte stream does not parse as SOFA frames."""


class FrameVersionError(FrameError):
    """Frame header carries an unsupported frame-format version."""


class FrameChecksumError(FrameError):
    """Frame payload bytes do not match the header checksum."""


class TruncatedFrameError(FrameError):
    """The stream ended (or a buffer was handed over) mid-frame."""


# ----------------------------------------------------------------- framing
#: Bump on any change to the frame header layout below.
FRAME_VERSION = 1

_FRAME_MAGIC = b"SOFA"
#: magic(4) | frame version u16 | flags u16 (reserved) | payload length u32
#: | payload crc32 u32 - big-endian, 16 bytes total.
_FRAME_HEADER = struct.Struct(">4sHHII")
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Upper bound accepted for one frame payload (guards a desynced or hostile
#: stream from forcing a huge allocation off four garbage length bytes).
MAX_FRAME_PAYLOAD = 1 << 31


def encode_frame(message: Any) -> bytes:
    """One wire-protocol message as a length-prefixed, checksummed frame.

    ``message`` is a plain-built-ins protocol tuple (request/result
    payloads already encoded via this module), pickled for transit - the
    tensor bytes inside the payload are untouched, so the socket hop is as
    bit-exact as the ``multiprocessing`` queue hop.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = _FRAME_HEADER.pack(
        _FRAME_MAGIC, FRAME_VERSION, 0, len(payload), zlib.crc32(payload)
    )
    return header + payload


class FrameDecoder:
    """Incrementally split a byte stream back into protocol messages.

    Feed arbitrary chunks (as a socket delivers them) with :meth:`feed`;
    complete messages come back in order.  Errors are loud and permanent:
    a bad magic, version, checksum or oversized length poisons the decoder
    (the stream position is unrecoverable once framing is lost).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._error: FrameError | None = None

    def _fail(self, error: FrameError) -> FrameError:
        self._error = error
        return error

    def feed(self, data: bytes) -> list[Any]:
        """Consume ``data``; return every message completed by it."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        messages: list[Any] = []
        while True:
            if len(self._buffer) < FRAME_HEADER_SIZE:
                return messages
            magic, version, _flags, length, crc = _FRAME_HEADER.unpack_from(
                self._buffer
            )
            if magic != _FRAME_MAGIC:
                raise self._fail(
                    FrameError(
                        f"bad frame magic {bytes(magic)!r}; stream desynced"
                    )
                )
            if version != FRAME_VERSION:
                raise self._fail(
                    FrameVersionError(
                        f"frame version {version} != supported {FRAME_VERSION}"
                    )
                )
            if length > MAX_FRAME_PAYLOAD:
                raise self._fail(
                    FrameError(f"frame length {length} exceeds maximum")
                )
            end = FRAME_HEADER_SIZE + length
            if len(self._buffer) < end:
                return messages
            # Checksum and unpickle in place; the view is released before
            # the buffer shrinks, which a live view would forbid.
            payload = memoryview(self._buffer)[FRAME_HEADER_SIZE:end]
            try:
                if zlib.crc32(payload) != crc:
                    raise self._fail(
                        FrameChecksumError(
                            "frame checksum mismatch (corrupted payload)"
                        )
                    )
                try:
                    messages.append(pickle.loads(payload))
                except Exception as error:  # noqa: BLE001 - reported, not crashed
                    raise self._fail(
                        FrameError(f"frame payload failed to unpickle: {error!r}")
                    ) from error
            finally:
                payload.release()
                del self._buffer[:end]

    def close(self) -> None:
        """Declare end-of-stream; raises if a partial frame is buffered."""
        if self._error is None and self._buffer:
            raise self._fail(
                TruncatedFrameError(
                    f"stream ended with {len(self._buffer)} byte(s) of an "
                    "incomplete frame"
                )
            )


def _encode_array(a: np.ndarray | None) -> tuple[bytes, str, tuple[int, ...]] | None:
    if a is None:
        return None
    a = np.ascontiguousarray(a)
    return (a.tobytes(), a.dtype.str, a.shape)


def _decode_array(payload: tuple[bytes, str, tuple[int, ...]] | None) -> np.ndarray | None:
    if payload is None:
        return None
    try:
        raw, dtype, shape = payload
        np_dtype = np.dtype(dtype)
        expected = int(np.prod(shape, dtype=np.int64)) * np_dtype.itemsize
    except (TypeError, ValueError) as error:
        raise CodecError(f"malformed array payload: {error!r}") from error
    if len(raw) != expected:
        raise TruncatedPayloadError(
            f"array payload carries {len(raw)} byte(s) but dtype {dtype} "
            f"with shape {tuple(shape)} needs {expected}"
        )
    return np.frombuffer(raw, dtype=np_dtype).reshape(shape).copy()


def encode_config(cfg: SofaConfig | None) -> dict[str, Any] | None:
    """Flatten the (nested, frozen) config into plain dicts."""
    return None if cfg is None else asdict(cfg)


def _config_fields(cls: type, payload: Any) -> dict[str, Any]:
    """``payload`` as keyword arguments of the config dataclass ``cls``.

    The payload must carry exactly ``cls``'s fields; anything else raises
    :class:`CodecError` instead of a bare ``TypeError``/``KeyError`` from
    the constructor.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"{cls.__name__} payload must be a dict, not {type(payload).__name__}")
    expected = {f.name for f in fields(cls)}
    unknown = sorted(payload.keys() - expected)
    missing = sorted(expected - payload.keys())
    if unknown or missing:
        raise CodecError(
            f"{cls.__name__} payload has unknown fields {unknown} "
            f"and missing fields {missing}"
        )
    return dict(payload)


def decode_config(payload: dict[str, Any] | None) -> SofaConfig | None:
    if payload is None:
        return None
    kwargs = _config_fields(SofaConfig, payload)
    for name, cls in (("dlzs", DlzsConfig), ("sads", SadsConfig), ("sufa", SufaConfig)):
        kwargs[name] = cls(**_config_fields(cls, kwargs[name]))
    return SofaConfig(**kwargs)


def encode_request(
    request: AttentionRequest,
    trace: tuple[str, str] | None = None,
) -> dict[str, Any]:
    """One request as a flat, transport-agnostic payload.

    ``trace`` optionally carries the frontend's ``(trace_id, span_id)``
    telemetry context so the worker can parent its spans under the
    submitting request's timeline.  The field is additive and
    observability-only: old decoders ignore unknown keys, frames without
    it decode exactly as before (the field needs no ``CODEC_VERSION``
    bump), and
    :func:`request_fingerprint` hashes a fixed key list that excludes it,
    so tracing can never split request dedup.
    """
    if request.cache_key is not None:
        # The key must survive the hop intact (workers namespace their cache
        # with it); pickling here keeps arbitrary hashables working while the
        # rest of the payload stays plain.
        cache_key = pickle.dumps(request.cache_key, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        cache_key = None
    payload = {
        "v": CODEC_VERSION,
        "tokens": _encode_array(np.asarray(request.tokens)),
        "q": _encode_array(np.asarray(request.q)),
        "wk": _encode_array(np.asarray(request.wk)),
        "wv": _encode_array(np.asarray(request.wv)),
        "k_scale": float(request.k_scale),
        "v_scale": float(request.v_scale),
        "value_cache": _encode_array(
            None if request.v is None else np.asarray(request.v)
        ),
        "config": encode_config(request.config),
        "tag": request.tag,
        "cache_key": cache_key,
        "deadline": request.deadline,
    }
    if trace is not None:
        payload["trace"] = (str(trace[0]), str(trace[1]))
    return payload


def request_trace_context(payload: dict[str, Any]) -> tuple[str, str] | None:
    """The ``(trace_id, span_id)`` a request frame carries, if any.

    Defensive on purpose: frames from older encoders have no ``trace``
    key, and a malformed field is treated as absent rather than failing
    a request over telemetry metadata.
    """
    trace = payload.get("trace")
    if (
        isinstance(trace, (tuple, list))
        and len(trace) == 2
        and all(isinstance(part, str) and part for part in trace)
    ):
        return (trace[0], trace[1])
    return None


def decode_request(payload: dict[str, Any]) -> AttentionRequest:
    if payload.get("v") != CODEC_VERSION:
        raise CodecVersionError(
            f"request payload version {payload.get('v')!r} != codec {CODEC_VERSION}"
        )
    cache_key = payload["cache_key"]
    return AttentionRequest(
        tokens=_decode_array(payload["tokens"]),
        q=_decode_array(payload["q"]),
        wk=_decode_array(payload["wk"]),
        wv=_decode_array(payload["wv"]),
        k_scale=payload["k_scale"],
        v_scale=payload["v_scale"],
        v=_decode_array(payload["value_cache"]),
        config=decode_config(payload["config"]),
        tag=payload["tag"],
        cache_key=None if cache_key is None else pickle.loads(cache_key),
        deadline=payload["deadline"],
    )


def request_fingerprint(payload: dict[str, Any]) -> str:
    """Digest identifying a request up to bit-identity.

    Everything that can influence the served result (tensors bit for bit,
    scales, config, cache key) feeds the digest; ``tag`` (caller metadata)
    and ``deadline`` (scheduling pressure, not semantics) do not.  Two
    requests with equal fingerprints therefore resolve to bit-identical
    results and may share one execution.
    """
    h = hashlib.sha256()
    for name in ("tokens", "q", "wk", "wv", "value_cache"):
        arr = payload[name]
        h.update(name.encode())
        if arr is None:
            h.update(b"\0none")
        else:
            raw, dtype, shape = arr
            h.update(repr((dtype, shape)).encode())
            h.update(raw)
    h.update(repr((payload["k_scale"], payload["v_scale"], payload["config"])).encode())
    h.update(b"key" + (payload["cache_key"] or b"\0none"))
    return h.hexdigest()


def encode_result(result: SofaAttentionResult) -> dict[str, Any]:
    """One result (output, selections, stage traces) as a plain payload."""
    return {
        "v": CODEC_VERSION,
        "output": _encode_array(result.output),
        "selected": _encode_array(result.selected),
        "stages": [
            {
                "name": st.name,
                "ops": dict(st.ops.counts),
                "dram_bytes": st.dram_bytes,
                "sram_peak_bytes": st.sram_peak_bytes,
            }
            for st in result.stages
        ],
        "assurance_triggers": result.assurance_triggers,
        "row_len": result._row_len,
    }


def decode_result(payload: dict[str, Any]) -> SofaAttentionResult:
    if payload.get("v") != CODEC_VERSION:
        raise CodecVersionError(
            f"result payload version {payload.get('v')!r} != codec {CODEC_VERSION}"
        )
    stages = []
    for st in payload["stages"]:
        ops = OpCounter()
        for op, n in st["ops"].items():
            ops.add_op(op, n)
        stages.append(
            StageTrace(
                name=st["name"],
                ops=ops,
                dram_bytes=st["dram_bytes"],
                sram_peak_bytes=st["sram_peak_bytes"],
            )
        )
    return SofaAttentionResult(
        output=_decode_array(payload["output"]),
        selected=_decode_array(payload["selected"]),
        stages=stages,
        assurance_triggers=payload["assurance_triggers"],
        _row_len=payload["row_len"],
    )
