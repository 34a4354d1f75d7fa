"""Differential tests: the from-scratch substrate vs reference oracles.

The pure-python MD5 is checked bit-for-bit against :mod:`hashlib` over
randomized corpora (including every padding-boundary length).  The LZSS
encoder is checked byte for byte against a textbook incremental encoder,
and the codecs by the ``decompress(compress(x)) == x`` oracle with the
frame memo both enabled and disabled — a memo bug would otherwise hide
behind cache hits.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import api as compressor_api
from repro.compressor import compress, decompress
from repro.compressor.lzss import MAX_MATCH, MIN_MATCH, WINDOW_SIZE, LzssCodec
from repro.crypto.md5 import MD5, md5, md5_hex
from tests import test_golden_traces as golden


def _corpora(rng: random.Random) -> list[bytes]:
    """Adversarial byte corpora: empty, tiny, repetitive, incompressible."""
    cases = [
        b"",
        b"\x00",
        b"A",
        b"ab" * 500,
        b"<x a='1'>text</x>" * 64,
        bytes(rng.randrange(256) for _ in range(1024)),  # incompressible
        bytes([rng.randrange(4)]) * rng.randrange(1, 2000),
    ]
    for _ in range(20):
        n = rng.randrange(0, 512)
        cases.append(bytes(rng.randrange(256) for _ in range(n)))
    return cases


class TestMD5Differential:
    # Lengths straddling the 64-byte block and 56-byte padding boundaries.
    BOUNDARY_SIZES = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 1000]

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_boundary_sizes_match_hashlib(self, size, seeded_rng):
        data = bytes(seeded_rng.randrange(256) for _ in range(size))
        assert MD5(data).hexdigest() == hashlib.md5(data).hexdigest()

    def test_random_corpora_match_hashlib(self, seeded_rng):
        for data in _corpora(seeded_rng):
            assert MD5(data).digest() == hashlib.md5(data).digest()
            assert md5(data) == hashlib.md5(data).digest()
            assert md5_hex(data) == hashlib.md5(data).hexdigest()

    def test_chunked_updates_match_one_shot(self, seeded_rng):
        data = bytes(seeded_rng.randrange(256) for _ in range(700))
        ref = hashlib.md5(data).hexdigest()
        for chunk in (1, 7, 63, 64, 65, 300):
            h = MD5()
            for i in range(0, len(data), chunk):
                h.update(data[i : i + chunk])
            assert h.hexdigest() == ref, f"chunk size {chunk}"

    def test_digest_does_not_finalize(self, seeded_rng):
        # hashlib allows update() after digest(); the clone-based padding
        # must preserve that.
        h = MD5(b"abc")
        first = h.hexdigest()
        assert first == hashlib.md5(b"abc").hexdigest()
        h.update(b"def")
        assert h.hexdigest() == hashlib.md5(b"abcdef").hexdigest()
        assert first == hashlib.md5(b"abc").hexdigest()


@pytest.fixture
def decode_calls(monkeypatch):
    """Count every ``codec.decode`` call, per codec name."""
    calls = {name: 0 for name in compressor_api.codec_names()}
    for name in calls:
        codec = compressor_api.get_codec(name)

        def counted(data, length, _name=name, _decode=codec.decode):
            calls[_name] += 1
            return _decode(data, length)

        monkeypatch.setattr(codec, "decode", counted)
    return calls


class TestLzssDifferential:
    @pytest.fixture(params=["memo-on", "memo-off"])
    def memo(self, request, monkeypatch):
        """Run each roundtrip with the frame memo (both directions) enabled
        and disabled."""
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        monkeypatch.setattr(compressor_api, "_PLAIN_BY_FRAME", {})
        if request.param == "memo-off":
            monkeypatch.setattr(compressor_api, "_FRAME_CACHE_MAX", 0)
        return request.param

    @pytest.mark.parametrize("codec", ["lzss", "huffman", "null"])
    def test_roundtrip_randomized_corpora(self, codec, memo, seeded_rng):
        for data in _corpora(seeded_rng):
            frame = compress(data, codec)
            assert decompress(frame) == data
            # Second pass: memo-on serves from cache, memo-off re-encodes;
            # both must produce the identical frame.
            assert compress(data, codec) == frame

    def test_memo_state_matches_mode(self, memo, seeded_rng):
        data = bytes([seeded_rng.randrange(8)]) * 256
        compress(data, "lzss")
        if memo == "memo-off":
            assert not compressor_api._FRAME_CACHE
            assert not compressor_api._PLAIN_BY_FRAME
        else:
            assert ("lzss", data) in compressor_api._FRAME_CACHE
            assert compressor_api._PLAIN_BY_FRAME[compress(data, "lzss")] == data

    @pytest.mark.parametrize("codec", ["lzss", "huffman", "null"])
    def test_decoder_runs_unless_the_memo_holds_the_frame(
        self, codec, memo, decode_calls, seeded_rng
    ):
        decoded = 0
        for data in _corpora(seeded_rng):
            frame = compress(data, codec)
            used = compressor_api._BY_ID[frame[4]].name
            before = decode_calls[used]
            assert decompress(frame) == data
            if memo == "memo-off":
                decoded += 1
                assert decode_calls[used] == before + 1
            else:
                assert decode_calls[used] == before
        assert sum(decode_calls.values()) == decoded

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_frame_types_behave_like_bytes(self, wrap, memo, decode_calls):
        data = b"<x a='1'>text</x>" * 64
        frame = compress(data, "lzss")
        out = decompress(wrap(frame))
        assert type(out) is bytes and out == data
        assert decode_calls["lzss"] == (1 if memo == "memo-off" else 0)

    @pytest.mark.parametrize("codec,pos", [("lzss", 9), ("null", 9), ("null", -1)])
    def test_tampered_frame_goes_through_the_decoder(
        self, codec, pos, memo, decode_calls, seeded_rng
    ):
        data = bytes(seeded_rng.randrange(256) for _ in range(64)) * 8
        frame = compress(data, codec)
        assert frame[4] == compressor_api.get_codec(codec).codec_id
        # Flip the low bit of a body byte: the first literal of an lzss
        # stream, any byte of a null one — the output must differ.
        tampered = bytearray(frame)
        tampered[pos] ^= 0x01
        assert decompress(bytes(tampered)) != data
        assert decode_calls[codec] == 1
        assert decompress(frame) == data

    @pytest.mark.parametrize("evict_first", ["lzss", "null"])
    def test_null_fallback_shares_a_frame_safely(
        self, evict_first, monkeypatch, seeded_rng
    ):
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        monkeypatch.setattr(compressor_api, "_PLAIN_BY_FRAME", {})
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE_MAX", 2)
        data = bytes(seeded_rng.randrange(256) for _ in range(64))
        order = [evict_first, "null" if evict_first == "lzss" else "lzss"]
        frames = [compress(data, order[0]), compress(data, order[1])]
        assert frames[0] == frames[1]  # lzss expanded: fell back to null
        filler = iter(bytes([k]) * 40 for k in range(10))
        for evicted in range(1, 3):
            compress(next(filler), "lzss")  # pushes out the oldest key
            assert len(compressor_api._FRAME_CACHE) == 2
            assert (order[evicted - 1], data) not in compressor_api._FRAME_CACHE
            assert len(compressor_api._PLAIN_BY_FRAME) <= 2
            for frame in frames:
                assert decompress(frame) == data

    def test_memo_and_fresh_frames_identical(self, seeded_rng, monkeypatch):
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        monkeypatch.setattr(compressor_api, "_PLAIN_BY_FRAME", {})
        data = b"<pi>" + bytes(seeded_rng.randrange(64) for _ in range(512)) + b"</pi>"
        cached = compress(data, "lzss")
        assert compress(data, "lzss") is cached  # served by the memo
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        assert compress(data, "lzss") == cached  # re-encoded, byte-identical


class TestGoldenTracesWithMemoOff:
    """The simulator's gateways decompress frames their own process just
    built, so with the memo on they never run the decoder.  With it off,
    the pinned golden outputs must come out the same through real decodes."""

    @pytest.fixture
    def memo_off(self, monkeypatch):
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        monkeypatch.setattr(compressor_api, "_PLAIN_BY_FRAME", {})
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE_MAX", 0)

    def test_fig12_pin_holds_through_real_decodes(self, memo_off, decode_calls):
        golden.TestFig12GoldenTrace().test_fig12_jsonl_matches_pin()
        assert decode_calls["lzss"] > 0

    def test_simtest_seed_7_pin_holds_through_real_decodes(
        self, memo_off, decode_calls
    ):
        golden.TestSimtestGoldenSeed().test_seed_7_report_matches_pin()
        assert decode_calls["lzss"] > 0


# ------------------------------------------------------- reference LZSS encoder


def _hash3(data: bytes, pos: int) -> int:
    return (131 * data[pos] + 31 * data[pos + 1] + data[pos + 2]) & 0xFFFF


def reference_lzss_encode(data: bytes) -> bytes:
    """Textbook incremental LZSS with head/prev hash chains.

    Every position is inserted into its chain one at a time, before the
    positions after it are searched — no precomputation, no pruning, no
    slice compares.  Same hash, 4096-byte window, 64-step chain bound and
    "first strictly longer match wins" rule as :class:`LzssCodec`.
    """
    n = len(data)
    head = [-1] * 0x10000
    prev = [-1] * n
    inserted = 0  # positions < inserted are in the chains
    bits: list[str] = []
    i = 0
    while i < n:
        while inserted < i and inserted <= n - MIN_MATCH:
            h = _hash3(data, inserted)
            prev[inserted] = head[h]
            head[h] = inserted
            inserted += 1
        limit = min(MAX_MATCH, n - i)
        best_len, best_dist = 0, 0
        if i <= n - MIN_MATCH:
            candidate = head[_hash3(data, i)]
            steps = 0
            while candidate >= max(0, i - WINDOW_SIZE) and steps < 64:
                length = 0
                while length < limit and data[candidate + length] == data[i + length]:
                    length += 1
                if length > best_len:
                    best_len, best_dist = length, i - candidate
                    if length == limit:
                        break
                candidate = prev[candidate]
                steps += 1
        if best_len >= MIN_MATCH:
            bits.append("1" + format(best_dist - 1, "012b") + format(best_len - MIN_MATCH, "05b"))
            i += best_len
        else:
            bits.append("0" + format(data[i], "08b"))
            i += 1
    stream = "".join(bits)
    stream += "0" * (-len(stream) % 8)
    return bytes(int(stream[k : k + 8], 2) for k in range(0, len(stream), 8))


def _window_edge(distance: int) -> bytes:
    """A 12-byte pattern repeated exactly ``distance`` bytes later."""
    pattern = bytes(range(200, 212))
    filler = bytes(b"ab"[k % 2] for k in range(distance - len(pattern)))
    return pattern + filler + pattern


def _long_chain(decoys: int) -> bytes:
    """One long match for "abc", buried behind ``decoys`` 3-byte decoys."""
    target = b"abcdefghijklmnop"
    decoys_part = b"".join(b"abc" + bytes([48 + k % 10, 65 + k // 10]) for k in range(decoys))
    # The unique separator keeps the previous token from running into
    # the second target, so the encoder searches exactly at its start.
    return target + decoys_part + b"\xff" + target


_FIXED_CASES = {
    "empty": b"",
    "len1": b"a",
    "len2": b"ab",
    "len3": b"abc",
    "len3-run": b"aaa",
    "limit-at-tail": bytes(range(34)) + b"|" + bytes(range(34)),
    "short-tail": bytes(range(34)) + b"|" + bytes(range(20)),
    "limit-plus-one-at-tail": bytes(range(35)) + b"|" + bytes(range(35)),
    "window-edge-inside": _window_edge(WINDOW_SIZE),
    "window-edge-outside": _window_edge(WINDOW_SIZE + 1),
    "hash-collision": b"\x00\x01\x00" + b"\x00\x00\x1f" + b"\x00\x01\x00\x00\x00\x1f",
    "collision-chain": (b"\x00\x01\x00\x07" + b"\x00\x00\x1f\x09") * 40,
    "chain-63": _long_chain(62),
    "chain-64": _long_chain(63),
    "chain-65": _long_chain(64),
    "chain-100": _long_chain(100),
}


class TestLzssReferenceEncoder:
    def test_hash_collision_case_really_collides(self):
        assert _hash3(b"\x00\x01\x00", 0) == _hash3(b"\x00\x00\x1f", 0)

    @pytest.mark.parametrize("name", sorted(_FIXED_CASES))
    def test_fixed_cases(self, name):
        data = _FIXED_CASES[name]
        assert LzssCodec().encode(data) == reference_lzss_encode(data)

    @pytest.mark.parametrize("period", range(1, 41))
    def test_periodic_inputs(self, period, seeded_rng):
        unit = bytes(seeded_rng.randrange(256) for _ in range(period))
        data = (unit * (300 // period + 2))[: 300 + period]
        assert LzssCodec().encode(data) == reference_lzss_encode(data)

    def test_chain_bound_changes_the_choice(self):
        # Past 64 decoys the buried long match is out of reach; below it
        # is found.  Both encoders must agree on which side they are.
        near = LzssCodec().encode(_FIXED_CASES["chain-63"])
        far = LzssCodec().encode(_FIXED_CASES["chain-100"])
        assert len(near) < len(far) - 1

    @given(st.binary(max_size=600))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes(self, data):
        assert LzssCodec().encode(data) == reference_lzss_encode(data)

    @given(st.lists(st.sampled_from(b"ab<>/x"), max_size=1200).map(bytes))
    @settings(max_examples=150, deadline=None)
    def test_small_alphabet(self, data):
        assert LzssCodec().encode(data) == reference_lzss_encode(data)

    @given(
        st.binary(min_size=1, max_size=40),
        st.integers(min_value=1, max_value=120),
        st.binary(max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_repeated_unit_with_tail(self, unit, reps, tail):
        data = unit * reps + tail
        assert LzssCodec().encode(data) == reference_lzss_encode(data)
