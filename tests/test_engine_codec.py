"""Wire-codec tests: bit-exact round-trips, stable dedup fingerprints,
frame integrity, and loud (never hanging) failure modes.

The cluster's cross-process parity contract stands on this codec: a
request must decode to exactly the tensors that were encoded (bit for
bit, dtype and shape included), and a result must round-trip outputs,
selections, stage traces and op counts without loss through the
length-prefixed frames every worker hop carries.  A payload the
codec cannot trust (truncated bytes, version skew, checksum mismatch)
must raise a typed :class:`CodecError`, and a worker receiving one must
answer with an ``error`` message so the request's future *fails* instead
of hanging.
"""

import pickle
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.core.config import DlzsConfig, SofaConfig
from repro.core.pipeline import SofaAttention
from repro.engine.codec import (
    CODEC_VERSION,
    FRAME_HEADER_SIZE,
    CodecError,
    CodecVersionError,
    FrameChecksumError,
    FrameDecoder,
    FrameError,
    FrameVersionError,
    TruncatedFrameError,
    TruncatedPayloadError,
    decode_config,
    decode_request,
    decode_result,
    encode_config,
    encode_frame,
    encode_request,
    encode_result,
    request_fingerprint,
)
from repro.engine.serving import AttentionRequest
from repro.utils.rng import make_rng

CFG = SofaConfig(tile_cols=16, top_k=0.5)


def _request(rng, s=32, h=8, dk=8, t=3, **kwargs):
    return AttentionRequest(
        tokens=rng.integers(-100, 100, size=(s, h)).astype(np.float64),
        q=rng.normal(size=(t, dk)),
        wk=rng.normal(size=(h, dk)),
        wv=rng.normal(size=(h, dk)),
        **kwargs,
    )


def test_request_round_trip_bit_exact():
    rng = make_rng(3)
    req = _request(
        rng,
        k_scale=0.25,
        v_scale=1.5,
        v=rng.normal(size=(32, 8)),
        config=SofaConfig(tile_cols=8, top_k=4, dlzs=DlzsConfig(token_bits=6)),
        tag="req-0",
        cache_key=("session", 2, 5),
        deadline=123.5,
    )
    back = decode_request(encode_request(req))
    for name in ("tokens", "q", "wk", "wv", "v"):
        a, b = getattr(req, name), getattr(back, name)
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape
    assert back.k_scale == req.k_scale and back.v_scale == req.v_scale
    assert back.config == req.config
    assert back.tag == req.tag
    assert back.cache_key == req.cache_key
    assert back.deadline == req.deadline


def test_request_round_trip_defaults_and_non_contiguous():
    rng = make_rng(4)
    wide = rng.normal(size=(8, 16))
    req = AttentionRequest(
        tokens=rng.integers(-5, 5, size=(12, 8)).astype(np.float32),
        q=rng.normal(size=(2, 8))[:, ::-1],  # negative-stride view
        wk=wide[:, ::2],  # non-contiguous columns
        wv=wide[:, 1::2],
    )
    back = decode_request(encode_request(req))
    assert back.tokens.dtype == np.float32
    assert np.array_equal(back.q, np.asarray(req.q))
    assert np.array_equal(back.wk, np.asarray(req.wk))
    assert back.v is None and back.config is None and back.cache_key is None


def test_result_round_trip_preserves_traces_and_ops():
    rng = make_rng(5)
    req = _request(rng)
    result = SofaAttention(req.wk, req.wv, CFG)(req.tokens, req.q)
    back = decode_result(encode_result(result))
    assert back.output.tobytes() == result.output.tobytes()
    assert np.array_equal(back.selected, result.selected)
    assert back.assurance_triggers == result.assurance_triggers
    assert [s.name for s in back.stages] == [s.name for s in result.stages]
    for a, b in zip(result.stages, back.stages):
        assert a.ops.counts == b.ops.counts
        assert a.dram_bytes == b.dram_bytes
        assert a.sram_peak_bytes == b.sram_peak_bytes
    assert back.total_ops.counts == result.total_ops.counts
    assert np.array_equal(back.reference_mask, result.reference_mask)


def test_config_codec_none_and_nested():
    assert encode_config(None) is None and decode_config(None) is None
    cfg = SofaConfig(tile_cols=4, top_k=2)
    assert decode_config(encode_config(cfg)) == cfg


def test_decode_config_rejects_unknown_and_missing_fields():
    payload = encode_config(CFG)
    stale = {**payload, "dlzs": {**payload["dlzs"], "kernel": "auto"}}
    with pytest.raises(CodecError, match=r"DlzsConfig payload has unknown fields \['kernel'\]"):
        decode_config(stale)
    short = {**payload, "sads": {k: v for k, v in payload["sads"].items() if k != "radius"}}
    with pytest.raises(CodecError, match=r"missing fields \['radius'\]"):
        decode_config(short)
    with pytest.raises(CodecError, match="SofaConfig payload"):
        decode_config({k: v for k, v in payload.items() if k != "sufa"})
    with pytest.raises(CodecError, match="must be a dict"):
        decode_config({**payload, "sufa": None})


def test_version_one_request_with_stage_kernels_fails_on_version():
    """A request from a codec-1 peer still carries ``dlzs.kernel`` and
    ``sads.kernel``, and one from a codec-2 peer still carries the SU-FA
    config's ``kernel``; each must fail on the version check, before the
    config is ever decoded."""
    payload = encode_request(_request(make_rng(7), config=CFG))
    payload["v"] = 1
    config = payload["config"]
    config["dlzs"]["kernel"] = config["sads"]["kernel"] = config["sufa"]["kernel"] = "auto"
    with pytest.raises(CodecVersionError, match="version 1 != codec 3"):
        decode_request(payload)
    payload = encode_request(_request(make_rng(7), config=CFG))
    payload["v"] = 2
    payload["config"]["sufa"]["kernel"] = "auto"
    with pytest.raises(CodecVersionError, match="version 2 != codec 3"):
        decode_request(payload)


def test_version_mismatch_rejected():
    rng = make_rng(6)
    payload = encode_request(_request(rng))
    payload["v"] = CODEC_VERSION + 1
    with pytest.raises(CodecVersionError, match="version"):
        decode_request(payload)
    res = encode_result(SofaAttention(
        _request(rng).wk, _request(rng).wv, CFG
    )(_request(rng).tokens, _request(rng).q))
    res["v"] = 0
    with pytest.raises(CodecVersionError, match="version"):
        decode_result(res)
    # CodecError subclasses ValueError, so pre-existing handlers still fire
    assert issubclass(CodecVersionError, ValueError)


def test_truncated_tensor_payload_rejected_with_byte_counts():
    rng = make_rng(61)
    payload = encode_request(_request(rng))
    raw, dtype, shape = payload["tokens"]
    payload["tokens"] = (raw[:-8], dtype, shape)
    with pytest.raises(TruncatedPayloadError, match="byte"):
        decode_request(payload)


def test_shape_bytes_mismatch_rejected_even_when_longer():
    rng = make_rng(62)
    payload = encode_request(_request(rng))
    raw, dtype, shape = payload["q"]
    payload["q"] = (raw + b"\0" * 16, dtype, shape)
    with pytest.raises(TruncatedPayloadError):
        decode_request(payload)


def test_malformed_array_payload_rejected():
    rng = make_rng(63)
    payload = encode_request(_request(rng))
    payload["wk"] = (b"\x01\x02", "not-a-dtype", (1, 2))
    with pytest.raises(CodecError):
        decode_request(payload)


# ------------------------------------------------------------------ frames
def test_frame_round_trip_across_arbitrary_chunking():
    rng = make_rng(64)
    messages = [
        ("req", 1, encode_request(_request(rng))),
        ("ping", 7),
        ("result", 0, 1, {"v": CODEC_VERSION}, {"n_requests": 1}),
        ("bulk", bytes(range(256)) * 600),  # spans three 64 KiB reads
    ]
    stream = b"".join(encode_frame(m) for m in messages)
    # byte-by-byte, the readers' 64 KiB, and every frame in one chunk
    for chunk in (1, 3, 1 << 16, len(stream)):
        decoder = FrameDecoder()
        got = []
        for at in range(0, len(stream), chunk):
            got.extend(decoder.feed(stream[at : at + chunk]))
        decoder.close()
        assert len(got) == len(messages)
        assert got[1] == ("ping", 7)
        assert got[0][2]["tokens"] == messages[0][2]["tokens"]
        assert got[3] == messages[3]


def test_frame_checksum_mismatch_detected():
    frame = bytearray(encode_frame(("ping", 1)))
    frame[-1] ^= 0xFF  # flip a payload bit; header checksum now disagrees
    decoder = FrameDecoder()
    # a good frame behind the bad one: the buffer still holds bytes when
    # the decoder drops the bad frame, which must not fail on a live view
    with pytest.raises(FrameChecksumError):
        decoder.feed(bytes(frame) + encode_frame(("ping", 2)))
    # the decoder stays poisoned: framing sync is unrecoverable
    with pytest.raises(FrameChecksumError):
        decoder.feed(b"")


def test_frame_payload_that_fails_to_unpickle_poisons_decoder():
    payload = b"\x80\x05not a pickle"
    magic, version, flags, _, _ = struct.unpack(
        ">4sHHII", encode_frame(None)[:FRAME_HEADER_SIZE]
    )
    frame = struct.pack(
        ">4sHHII", magic, version, flags, len(payload), zlib.crc32(payload)
    ) + payload
    decoder = FrameDecoder()
    with pytest.raises(FrameError, match="unpickle") as raised:
        decoder.feed(frame + encode_frame(("ping", 3)))
    assert raised.type is FrameError and raised.value.__cause__ is not None
    with pytest.raises(FrameError, match="unpickle"):
        decoder.feed(b"")


def test_frame_version_skew_detected():
    frame = bytearray(encode_frame(("ping", 2)))
    magic, version, flags, length, crc = struct.unpack(">4sHHII", frame[:FRAME_HEADER_SIZE])
    frame[:FRAME_HEADER_SIZE] = struct.pack(">4sHHII", magic, version + 1, flags, length, crc)
    with pytest.raises(FrameVersionError, match="version"):
        FrameDecoder().feed(bytes(frame))


def test_frame_bad_magic_detected():
    frame = b"XXXX" + encode_frame(("ping", 3))[4:]
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(frame)


def test_truncated_stream_detected_at_close():
    frame = encode_frame(("ping", 4))
    decoder = FrameDecoder()
    assert decoder.feed(frame[:-3]) == []  # incomplete: waits for more
    with pytest.raises(TruncatedFrameError, match="incomplete"):
        decoder.close()


def test_clean_stream_closes_silently():
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(("ping", 5))) == [("ping", 5)]
    decoder.close()  # nothing buffered: no error


def test_frame_payload_bytes_are_bit_exact():
    rng = make_rng(65)
    req = _request(rng, k_scale=0.5, cache_key=("s", 1))
    payload = encode_request(req)
    [(kind, req_id, back)] = FrameDecoder().feed(encode_frame(("req", 9, payload)))
    assert (kind, req_id) == ("req", 9)
    decoded = decode_request(back)
    assert decoded.tokens.tobytes() == np.asarray(req.tokens).tobytes()
    assert request_fingerprint(back) == request_fingerprint(payload)


# ----------------------------------------- failed futures, never hung ones
def _serve_over_socketpair(frames: list[tuple]) -> list[tuple]:
    """Run the worker loop in-process on one end of a socketpair: send
    ``frames`` from the other, return every message the worker sent
    before closing its end."""
    from repro.cluster.worker import _serve_connection

    front, back = socket.socketpair()
    front.settimeout(30.0)
    worker = threading.Thread(target=_serve_connection, args=(back,))
    worker.start()
    with front:
        for frame in frames:
            front.sendall(encode_frame(frame))
        decoder = FrameDecoder()
        messages = []
        while data := front.recv(1 << 16):
            messages.extend(decoder.feed(data))
    worker.join(timeout=30.0)
    assert not worker.is_alive()
    return messages


def test_worker_answers_undecodable_request_with_error_message():
    """A corrupt/version-skewed payload reaches the worker loop: the reply
    must be a per-request ``error`` (a failed future at the frontend), not
    a crashed worker or a silently dropped (hung) request."""
    rng = make_rng(66)
    truncated = encode_request(_request(rng))
    raw, dtype, shape = truncated["tokens"]
    truncated["tokens"] = (raw[:-8], dtype, shape)
    skewed = encode_request(_request(rng))
    skewed["v"] = CODEC_VERSION + 3
    good = encode_request(_request(rng))

    messages = _serve_over_socketpair([
        ("init", 4, {"config": encode_config(CFG)}),
        ("req", 1, truncated),
        ("req", 2, skewed),
        ("req", 3, good),
        ("stop",),
    ])
    assert messages[0] == ("ready", 4)
    by_req = {m[2]: m for m in messages if m[0] in ("error", "result")}
    assert by_req[1][0] == "error"
    assert isinstance(pickle.loads(by_req[1][3]), TruncatedPayloadError)
    assert by_req[2][0] == "error"
    assert isinstance(pickle.loads(by_req[2][3]), CodecVersionError)
    assert by_req[3][0] == "result"  # neighbours untouched by the bad ones
    assert messages[-1] == ("stopped", 4)


def test_fingerprint_ignores_tag_and_deadline_only():
    rng = make_rng(7)
    base = _request(rng)
    same = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv,
        tag="other", deadline=99.0,
    )
    fp = request_fingerprint(encode_request(base))
    assert request_fingerprint(encode_request(same)) == fp

    louder = AttentionRequest(
        tokens=base.tokens * 2, q=base.q, wk=base.wk, wv=base.wv
    )
    keyed = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv, cache_key="s0"
    )
    configured = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv,
        config=SofaConfig(tile_cols=8, top_k=0.5),
    )
    scaled = AttentionRequest(
        tokens=base.tokens, q=base.q, wk=base.wk, wv=base.wv, k_scale=0.5
    )
    for variant in (louder, keyed, configured, scaled):
        assert request_fingerprint(encode_request(variant)) != fp


def test_fingerprint_distinguishes_shape_of_same_bytes():
    rng = make_rng(8)
    flat = rng.normal(size=(4, 4))
    a = AttentionRequest(tokens=flat, q=rng.normal(size=(2, 4)),
                         wk=np.eye(4), wv=np.eye(4))
    b = AttentionRequest(tokens=flat.reshape(2, 8)[:, :4].copy(),
                         q=a.q, wk=np.eye(4), wv=np.eye(4))
    assert request_fingerprint(encode_request(a)) != request_fingerprint(encode_request(b))
