"""Differential tests of the gateway's body decoder against ``json.loads``.

:func:`repro.gateway.server.decode_attention_request` walks the top-level
object itself so it can reuse the arrays of ``wk``/``wv`` texts it has
decoded before.  Whatever the body, it must reach the same verdict as the
canonical path - ``json.loads`` then :func:`request_from_json` and
:func:`validate_request` - and, when both accept, bit-identical arrays.
No processes or sockets here: the decoder is a pure function.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SofaConfig
from repro.engine.serving import validate_request
from repro.gateway import server
from repro.gateway.server import decode_attention_request, request_from_json

CFG = SofaConfig(tile_cols=16, top_k=0.25)
TENSORS = ("tokens", "q", "wk", "wv", "v")
SCALARS = ("k_scale", "v_scale", "tag", "cache_key")


def _reference(body: bytes):
    """The canonical path: json.loads, then the field checks."""
    fields = json.loads(body, parse_constant=server._reject_constant)
    if not isinstance(fields, dict):
        raise ValueError("body must be a JSON object")
    request = request_from_json(fields)
    validate_request(request, CFG)
    deadline_ms = fields.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = float(deadline_ms)
        if deadline_ms < 0 or not np.isfinite(deadline_ms):
            raise ValueError("deadline_ms must be finite and >= 0")
    tenant = fields.get("tenant", "default")
    if not isinstance(tenant, str):
        raise ValueError("tenant must be a string")
    return request, deadline_ms, tenant


def _outcome(fn, body: bytes):
    try:
        return fn(body)
    except Exception as error:  # noqa: BLE001 - the verdict is what matters
        return error


def assert_same_verdict(body: bytes):
    """Decode ``body`` both ways; they must agree bit for bit."""
    got = _outcome(lambda b: decode_attention_request(b, CFG), body)
    want = _outcome(_reference, body)
    assert isinstance(got, Exception) == isinstance(want, Exception), (got, want)
    if isinstance(want, Exception):
        # One error type for every bad body: the gateway answers it 400 and
        # keeps any other exception for its own failures.
        assert type(got) is server.BodyError, got
        return None
    (request, deadline_ms, tenant), (ref, ref_deadline, ref_tenant) = got, want
    for name in TENSORS:
        a, b = getattr(request, name), getattr(ref, name)
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    for name in SCALARS:
        assert getattr(request, name) == getattr(ref, name)
    assert (deadline_ms, tenant) == (ref_deadline, ref_tenant)
    return request


def _matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)).tolist()


def _body(seed: int, **overrides) -> dict:
    rng = np.random.default_rng(seed)
    body = {
        "tokens": rng.integers(-100, 100, size=(16, 8)).astype(float).tolist(),
        "q": _matrix(rng, 2, 8),
        "wk": _matrix(rng, 8, 8),
        "wv": _matrix(rng, 8, 8),
        "tag": f"req-{seed}",
    }
    body.update(overrides)
    return body


# ------------------------------------------------------------ hypothesis sweep
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def bodies(draw) -> dict:
    s, h, t, d = (draw(st.integers(1, 6)) for _ in range(4))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(finite, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    body = {"tokens": matrix(s, h), "q": matrix(t, d), "wk": matrix(h, d),
            "wv": matrix(h, d)}
    optional = {
        "tag": st.text(max_size=8),
        "tenant": st.text(max_size=8),
        "cache_key": st.text(max_size=8),
        "deadline_ms": st.floats(0, 1e6),
        "k_scale": finite,
        "v_scale": finite,
    }
    for name in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        body[name] = draw(optional[name])
    if draw(st.booleans()):
        body["v"] = matrix(s, draw(st.integers(1, 4)))
    return body


@settings(max_examples=150, deadline=None)
@given(body=bodies(), separators=st.sampled_from([
    (", ", ": "), (",", ":"), (" \t,\r\n", "\n:\t "),
]), indent=st.sampled_from([None, 0, "\t", " \r\n"]))
def test_valid_bodies_decode_like_json_loads(body, separators, indent):
    text = json.dumps(body, separators=separators, indent=indent)
    # Twice: the second decode reuses the interned weights.
    first = assert_same_verdict(text.encode())
    second = assert_same_verdict(text.encode())
    assert (first is None) == (second is None)


@settings(max_examples=100, deadline=None)
@given(body=bodies(), cut=st.integers(0, 10_000), pad=st.sampled_from(
    ["", " ", "\t\n\r ", " x", "{}", ",", "]", "\x0b", "\u00a0", "\x00"]))
def test_truncated_and_padded_bodies_match_json_loads(body, cut, pad):
    raw = json.dumps(body).encode()
    assert_same_verdict(raw[: cut % (len(raw) + 1)])
    assert_same_verdict(raw + pad.encode())
    assert_same_verdict(pad.encode() + raw)


# --------------------------------------------------------------- the mutations
def test_duplicate_keys_last_one_wins():
    body = json.dumps(_body(1))
    other = json.dumps(_body(2)["wk"])
    assert_same_verdict(body.encode())  # interns the body's own wk
    for raw in (
        '{"wk": ' + other + ", " + body[1:],   # the body's own wk comes last
        body[:-1] + ', "wk": ' + other + "}",  # the other wk comes last
        body[:-1] + ', "tag": "later"}',
        body[:-1] + ', "wk": "not a tensor"}',
    ):
        assert_same_verdict(raw.encode())
    # The text of a wk that lost to a later duplicate must not be interned
    # as if it were the winner's.
    alone = json.dumps(_body(1, wk=_body(2)["wk"])).encode()
    assert assert_same_verdict(alone).wk.tobytes() == np.asarray(_body(2)["wk"]).tobytes()


def test_escaped_keys_are_the_same_fields():
    raw = json.dumps(_body(3))
    assert_same_verdict(raw.encode())  # interns wk
    escaped = raw.replace('"wk"', '"w\\u006b"').replace('"wv"', '"\\u0077v"')
    request = assert_same_verdict(escaped.encode())
    assert request is not None and request.wk.flags.writeable is False


@pytest.mark.parametrize("ws", [" ", "\t", "\n", "\r", " \t\n\r"])
def test_every_json_whitespace_character(ws):
    body = _body(4)
    raw = json.dumps(body, separators=(ws + "," + ws, ws + ":" + ws), indent=ws)
    assert assert_same_verdict((ws + raw + ws).encode()) is not None


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le",
                                      "utf-16-be", "utf-32", "utf-32-le"])
def test_bom_and_utf16_32_encodings(encoding):
    raw = json.dumps(_body(5, tag="t\u00e9\u4e2d")).encode(encoding)
    assert assert_same_verdict(raw) is not None


@pytest.mark.parametrize("raw", [
    b"", b" ", b"[1, 2]", b'"text"', b"null", b"1", b"{", b"}", b"{}", b"{} {}",
    b'{"wk": [[1.0]]', b'{"wk": [[1.0]],}', b'{"wk" [[1.0]]}', b"{'wk': 1}",
    b"\xff\xfe\xfd", b'{"tokens": [[NaN]]}', b'{"tokens": [[-Infinity]]}',
])
def test_irregular_bodies_match_json_loads(raw):
    assert_same_verdict(raw)


@pytest.mark.parametrize("sep", [" ;", ";", " ", ":", ",,", "]"])
def test_a_bad_separator_between_fields_is_rejected(sep):
    raw = json.dumps(_body(13)).replace(', "q"', sep + '"q"', 1)
    assert assert_same_verdict(raw.encode()) is None


@pytest.mark.parametrize("extra", ["NaN", "Infinity", "-Infinity", "[1, NaN]"])
def test_non_finite_literals_in_unused_fields_are_still_rejected(extra):
    raw = json.dumps(_body(12))[:-1] + ', "extra": ' + extra + "}"
    assert_same_verdict(raw.encode())
    with pytest.raises(ValueError, match="non-finite JSON number"):
        decode_attention_request(raw.encode(), CFG)


def test_repeated_wk_with_one_digit_changed_is_parsed_afresh():
    base = _body(6, wk=[[0.125, 0.25], [0.5, 0.75]] * 4,
                 wv=[[1.0] * 8] * 8, q=[[0.0] * 2] * 2)
    first = assert_same_verdict(json.dumps(base).encode())
    assert first is not None
    raw = json.dumps(base).replace("0.75]]", "0.76]]", 1)
    assert raw != json.dumps(base)
    second = assert_same_verdict(raw.encode())
    assert second is not None
    assert second.wk is not first.wk
    assert second.wk[-1, -1] == 0.76 and first.wk[-1, -1] == 0.75


def test_weights_sharing_a_long_prefix_stay_distinct():
    rng = np.random.default_rng(7)
    wk = rng.normal(size=(8, 8))
    wv = wk.copy()
    wv[-1, -1] += 1.0  # texts agree up to the very last number
    body = _body(7, wk=wk.tolist(), wv=wv.tolist())
    for _ in range(2):
        request = assert_same_verdict(json.dumps(body).encode())
        assert request is not None
        assert request.wk.tobytes() == wk.tobytes()
        assert request.wv.tobytes() == wv.tobytes()
    # Swapped: the interned wk text now arrives as wv and vice versa.
    swapped = dict(body, wk=body["wv"], wv=body["wk"])
    request = assert_same_verdict(json.dumps(swapped).encode())
    assert request.wk.tobytes() == wv.tobytes()


def test_interned_weights_are_shared_and_read_only():
    raw = json.dumps(_body(8)).encode()
    first, _, _ = decode_attention_request(raw, CFG)
    second, _, _ = decode_attention_request(raw, CFG)
    assert second.wk is first.wk and second.wv is first.wv
    assert not second.wk.flags.writeable and not second.wv.flags.writeable
    with pytest.raises(ValueError):
        second.wk[0, 0] = 1.0
    # Tensors that are not interned stay ordinary writable arrays.
    assert second.tokens is not first.tokens and second.tokens.flags.writeable


def test_intern_table_is_a_bounded_lru():
    raws = [json.dumps(_body(100 + i)).encode()
            for i in range(server._INTERN_CAPACITY)]
    firsts = [decode_attention_request(raw, CFG)[0] for raw in raws]

    def interned(array):
        return any(known is array for known in server._interned.values())

    # wk and wv both take a slot, so the older half of the bodies is gone.
    assert len(server._interned) == server._INTERN_CAPACITY
    assert interned(firsts[-1].wk) and not interned(firsts[0].wk)
    again, _, _ = decode_attention_request(raws[0], CFG)
    assert again.wk is not firsts[0].wk
    assert again.wk.tobytes() == firsts[0].wk.tobytes()
    assert interned(again.wk) and interned(firsts[-1].wk)
    assert len(server._interned) == server._INTERN_CAPACITY


def test_intern_table_is_bounded_in_bytes(monkeypatch):
    """However wide the weights a client sends, the table holds at most
    ``_INTERN_MAX_BYTES`` of text plus arrays; a weight larger than the
    whole budget is decoded but never interned."""
    server._interned.clear()

    def wide(seed, hidden):
        return json.dumps(_body(seed, tokens=[[1.0] * hidden] * 16, wk=_matrix(
            np.random.default_rng(seed), hidden, 8), wv=_matrix(
            np.random.default_rng(seed + 1), hidden, 8))).encode()

    one_pair = sum(server._footprint(*entry) for entry in _intern_entries(wide(200, 40)))
    monkeypatch.setattr(server, "_INTERN_MAX_BYTES", int(2.5 * one_pair))
    server._interned.clear()
    for seed in range(201, 206):
        assert_same_verdict(wide(seed, 40))
        held = sum(server._footprint(*entry) for entry in server._interned.items())
        assert held <= server._INTERN_MAX_BYTES
    assert 4 <= len(server._interned) < 10  # about two pairs fit, not five
    # Wider than the budget: served bit-identically, interned never.
    huge = wide(300, 400)
    request = assert_same_verdict(huge)
    assert request.wk.flags.writeable
    assert all(known is not request.wk for known in server._interned.values())
    server._interned.clear()


def _intern_entries(raw: bytes) -> list:
    server._interned.clear()
    decode_attention_request(raw, CFG)
    return list(server._interned.items())


def test_rejected_bodies_intern_nothing():
    server._interned.clear()
    bad = _body(9, tokens=[[1.0, 2.0]])  # hidden size disagrees with wk
    with pytest.raises(ValueError):
        decode_attention_request(json.dumps(bad).encode(), CFG)
    assert not server._interned


def test_field_walk_gives_up_on_key_floods():
    # Thousands of duplicate keys: the decoder hands the body to json.loads
    # rather than walk it one Python step per key.
    body = json.dumps(_body(10))
    raw = ("{" + '"pad": 0, ' * 5000 + body[1:]).encode()
    assert server._scan_body(raw) == (None, {})
    assert assert_same_verdict(raw) is not None


# -------------------------------------------------------------- hostile values
MARK = 0.0625  # tokens[0][0]; its text occurs nowhere earlier in the body


@pytest.mark.parametrize("mutate", [
    lambda s: s.replace(str(MARK), "1" + "0" * 400, 1),  # overflows float64
    lambda s: s.replace(str(MARK), "1e400", 1),
    lambda s: s.replace(str(MARK), "-1e400", 1),
    lambda s: s.replace(str(MARK), '"nan"', 1),
    lambda s: s.replace(str(MARK), '"-inf"', 1),
    lambda s: s[:-1] + ', "k_scale": "nan"}',
    lambda s: s[:-1] + ', "v_scale": 1e400}',
    lambda s: s[:-1] + ', "k_scale": 1' + "0" * 400 + "}",
    lambda s: '{"tokens": ' + "[" * 100_000 + "]" * 100_000 + "}",
])
def test_hostile_numbers_are_rejected_as_value_errors(mutate):
    body = _body(11)
    body["tokens"][0][0] = MARK
    raw = mutate(json.dumps(body)).encode()
    with pytest.raises(Exception) as caught:
        decode_attention_request(raw, CFG)
    # Not served, and nothing escapes that the gateway would not map to 400.
    assert type(caught.value) is server.BodyError
    assert_same_verdict(raw)
