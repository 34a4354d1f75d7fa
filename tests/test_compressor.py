"""Tests for the compression substrate: codecs, framing, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import api as compressor_api
from repro.compressor import (
    CompressionError,
    codec_names,
    compress,
    compression_ratio,
    decompress,
    get_codec,
)
from repro.compressor.bitio import BitReader, BitWriter
from repro.compressor.huffman import canonical_codes, code_lengths
from repro.compressor.lzss import MAX_MATCH, MIN_MATCH, LzssCodec


@pytest.fixture(autouse=True, scope="module")
def _frame_memo_off():
    """Every ``decompress(compress(x))`` here must run the real encoder and
    decoder: with the frame memo on, ``decompress`` would hand back the
    plaintext ``compress`` stored.  Memo behaviour itself is tested in
    ``tests/test_differential.py``.  (Module scope: hypothesis rejects
    function-scoped fixtures.)"""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compressor_api, "_FRAME_CACHE", {})
        mp.setattr(compressor_api, "_PLAIN_BY_FRAME", {})
        mp.setattr(compressor_api, "_FRAME_CACHE_MAX", 0)
        yield


class TestBitIO:
    def test_roundtrip_bits(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0xFF, 8)
        w.write_bit(1)
        data = w.getvalue()
        r = BitReader(data)
        assert r.read_bits(4) == 0b1011
        assert r.read_bits(8) == 0xFF
        assert r.read_bit() == 1

    def test_len_counts_bits(self):
        w = BitWriter()
        w.write_bits(0, 13)
        assert len(w) == 13

    def test_reader_eof(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)


class TestHuffman:
    def test_code_lengths_empty(self):
        assert code_lengths(b"") == [0] * 256

    def test_single_symbol_gets_one_bit(self):
        lengths = code_lengths(b"aaaa")
        assert lengths[ord("a")] == 1
        assert sum(1 for l in lengths if l) == 1

    def test_frequent_symbols_shorter(self):
        data = b"a" * 100 + b"b" * 10 + b"c"
        lengths = code_lengths(data)
        assert lengths[ord("a")] <= lengths[ord("b")] <= lengths[ord("c")]

    def test_kraft_inequality(self):
        data = bytes(range(256)) * 3 + b"x" * 1000
        lengths = code_lengths(data)
        kraft = sum(2.0 ** -l for l in lengths if l)
        assert kraft <= 1.0 + 1e-9

    def test_canonical_codes_prefix_free(self):
        data = b"the quick brown fox jumps over the lazy dog" * 5
        codes = canonical_codes(code_lengths(data))
        items = [(format(c, f"0{w}b")) for c, w in codes.values()]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i != j:
                    assert not b.startswith(a)

    def test_compresses_skewed_text(self):
        data = (b"aaaaabbbcc" * 200)
        ratio = compression_ratio(data, "huffman")
        assert ratio < 0.6


class TestLzss:
    def test_repetitive_input_compresses_hard(self):
        data = b"<t>100</t>" * 300
        ratio = compression_ratio(data, "lzss")
        assert ratio < 0.1

    def test_match_bounds(self):
        assert MIN_MATCH == 3
        assert MAX_MATCH == 34

    def test_incompressible_roundtrip(self):
        import os

        data = os.urandom(2000)
        assert decompress(compress(data, "lzss")) == data

    def test_decode_rejects_bad_distance(self):
        codec = LzssCodec()
        # flag=1, distance=4095 (way beyond output), length=3
        from repro.compressor.bitio import BitWriter

        w = BitWriter()
        w.write_bit(1)
        w.write_bits(4094, 12)
        w.write_bits(0, 5)
        with pytest.raises(ValueError):
            codec.decode(w.getvalue(), 3)


class TestFraming:
    def test_roundtrip_all_codecs(self):
        data = b"<pi><txn id='1'>100</txn><txn id='2'>100</txn></pi>" * 10
        for name in codec_names():
            assert decompress(compress(data, name)) == data

    def test_empty_input(self):
        for name in codec_names():
            assert decompress(compress(b"", name)) == b""

    def test_single_byte(self):
        for name in codec_names():
            assert decompress(compress(b"z", name)) == b"z"

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError):
            compress(b"x", "zstd")

    def test_non_bytes_raises(self):
        with pytest.raises(TypeError):
            compress("string", "lzss")

    def test_expanding_input_falls_back_to_null(self):
        import os

        data = os.urandom(64)
        frame = compress(data, "huffman")
        # never more than original + header (9 bytes)
        assert len(frame) <= len(data) + 9

    def test_bad_magic_raises(self):
        with pytest.raises(CompressionError):
            decompress(b"XXXX" + b"\x00" * 20)

    def test_short_frame_raises(self):
        with pytest.raises(CompressionError):
            decompress(b"PD")

    def test_truncated_length_mismatch_raises(self):
        frame = compress(b"hello world, hello world, hello", "null")
        with pytest.raises(CompressionError):
            decompress(frame[:-3])

    def test_unknown_codec_id_raises(self):
        frame = bytearray(compress(b"abc", "null"))
        frame[4] = 77  # codec id byte
        with pytest.raises(CompressionError):
            decompress(bytes(frame))

    def test_get_codec(self):
        assert get_codec("lzss").name == "lzss"
        with pytest.raises(KeyError):
            get_codec("nope")

    def test_compression_ratio_empty(self):
        assert compression_ratio(b"") == 1.0

    def test_xml_compresses_below_half(self):
        # the PI use case: repetitive XML must shrink substantially
        xml = (
            b"<transaction><from>bank-a</from><to>bank-b</to>"
            b"<amount>125.00</amount></transaction>"
        ) * 20
        assert compression_ratio(xml, "lzss") < 0.25


# ---------------------------------------------------------------- property tests


class TestRoundtripProperties:
    @given(st.binary(max_size=3000))
    @settings(max_examples=80, deadline=None)
    def test_lzss_roundtrip(self, data):
        assert decompress(compress(data, "lzss")) == data

    @given(st.binary(max_size=3000))
    @settings(max_examples=80, deadline=None)
    def test_huffman_roundtrip(self, data):
        assert decompress(compress(data, "huffman")) == data

    @given(st.binary(max_size=1000))
    @settings(max_examples=60, deadline=None)
    def test_frame_never_expands_beyond_header(self, data):
        for name in ("lzss", "huffman", "null"):
            assert len(compress(data, name)) <= len(data) + 9

    @given(st.text(alphabet="ab<>/=\"0123456789", max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_xmlish_text_roundtrip(self, text):
        data = text.encode()
        assert decompress(compress(data, "lzss")) == data
