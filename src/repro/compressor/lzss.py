"""LZSS dictionary codec.

LZ77-family coder with a 4 KB sliding window and 3–34 byte matches — the
classic "simple text compression" profile that suits repetitive XML markup
and was computationally feasible on 2004-era handhelds.

Stream format (MSB-first bits):

* flag bit ``0`` → literal: 8 bits of the byte;
* flag bit ``1`` → match: 12-bit backward distance (1-based) + 5-bit
  length-minus-``MIN_MATCH``.

The match finder is a hash chain over 3-byte prefixes (most recent
candidate first, walk bounded by ``_MAX_CHAIN``).  The chains for the whole
buffer are precomputed in one vectorized pass — a stable (radix) argsort
of the 16-bit hashes groups equal hashes while keeping positions
ascending, which links every position to its nearest earlier same-hash
position — so the encode loop does no per-position bookkeeping at all:
positions covered by an emitted match are skipped outright.  Each
candidate is first compared over the whole ``limit`` span in one slice
compare; only a shorter match is extended, 8-byte slices before the
byte tail, and both directions keep their bit accumulator in
local integers instead of going through :mod:`.bitio`; the codec sits on
the per-message hot path and per-position work dominated its profile.
"""

from __future__ import annotations

import numpy as _np

__all__ = ["LzssCodec", "WINDOW_SIZE", "MIN_MATCH", "MAX_MATCH"]

WINDOW_SIZE = 1 << 12  # 4096-byte window → 12-bit distances
MIN_MATCH = 3
MAX_MATCH = MIN_MATCH + (1 << 5) - 1  # 5-bit length field
_MAX_CHAIN = 64  # bound the match-finder work per position


def _prev_same_hash(data: bytes, n: int) -> list[int]:
    """``prev[j]`` = nearest position ``< j`` with the same 3-byte hash.

    Hash chains as one flat array: walking ``prev[prev[...]]`` from any
    position enumerates earlier same-hash candidates nearest-first,
    exactly like an incrementally-built head/prev chain table.
    """
    # The hash is at most 255*131 + 255*31 + 255 = 41565 < 2**16, so it fits
    # ``uint16`` exactly (the ``& 0xFFFF`` mask never bites), and on a
    # ``uint16`` key the stable argsort is a radix sort (same order, several
    # times faster than the timsort numpy uses for ``int32``).
    buf = _np.frombuffer(data, dtype=_np.uint8).astype(_np.uint16)
    hashes = buf[:-2] * 131 + buf[1:-1] * 31 + buf[2:]
    order = _np.argsort(hashes, kind="stable")
    ordered = hashes[order]
    same = ordered[1:] == ordered[:-1]
    prev = _np.full(n - 2, -1, dtype=_np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev.tolist()


class LzssCodec:
    """Sliding-window dictionary coder."""

    name = "lzss"
    codec_id = 2

    def encode(self, data: bytes) -> bytes:
        n = len(data)
        out = bytearray()
        out_append = out.append
        # Bit accumulator: ``acc`` holds ``nbits`` pending bits, MSB-first;
        # whole bytes are flushed as soon as they complete.
        acc = 0
        nbits = 0
        hash_end = n - MIN_MATCH  # last position with a full 3-byte hash
        prev_list = _prev_same_hash(data, n) if n >= MIN_MATCH else []
        i = 0
        while i < n:
            remaining = n - i
            limit = MAX_MATCH if remaining > MAX_MATCH else remaining
            best_len = 0
            best_dist = 0
            if i <= hash_end:
                candidate = prev_list[i]
                if candidate >= 0:
                    floor = i - WINDOW_SIZE
                    if floor < 0:
                        floor = 0
                    chain = 0
                    while candidate >= floor and chain < _MAX_CHAIN:
                        # A candidate can only beat ``best_len`` if it also
                        # matches at offset ``best_len`` — checking that
                        # single byte first skips the full extension for
                        # most of the chain without changing which match
                        # is chosen.
                        if (
                            best_len == 0
                            or data[candidate + best_len] == data[i + best_len]
                        ):
                            # A full-span match is the longest possible:
                            # one compare settles it (repetitive XML hits
                            # this often).
                            if data[candidate : candidate + limit] == data[i : i + limit]:
                                best_len = limit
                                best_dist = i - candidate
                                break
                            # Extend: whole 8-byte slices first (one C-level
                            # compare each), then the byte tail.
                            length = 0
                            while (
                                length + 8 <= limit
                                and data[candidate + length : candidate + length + 8]
                                == data[i + length : i + length + 8]
                            ):
                                length += 8
                            while (
                                length < limit
                                and data[candidate + length] == data[i + length]
                            ):
                                length += 1
                            if length > best_len:
                                best_len = length
                                best_dist = i - candidate
                                if length == limit:
                                    break
                        candidate = prev_list[candidate]
                        chain += 1
            if best_len >= MIN_MATCH:
                # One 18-bit field: flag 1, 12-bit distance, 5-bit length.
                acc = (
                    (acc << 18)
                    | (1 << 17)
                    | ((best_dist - 1) << 5)
                    | (best_len - MIN_MATCH)
                )
                nbits += 18
                i += best_len
            else:
                # One 9-bit field: flag 0 then the literal byte.
                acc = (acc << 9) | data[i]
                nbits += 9
                i += 1
            while nbits >= 8:
                nbits -= 8
                out_append((acc >> nbits) & 0xFF)
            acc &= (1 << nbits) - 1
        if nbits:
            out_append((acc << (8 - nbits)) & 0xFF)
        return bytes(out)

    def decode(self, data: bytes, original_length: int) -> bytes:
        out = bytearray()
        out_append = out.append
        produced = 0
        # Bit accumulator mirroring encode: refill whole bytes, consume
        # 18- or 9-bit tokens from the top.
        acc = 0
        nbits = 0
        idx = 0
        while produced < original_length:
            if nbits < 18:
                take = data[idx : idx + 8]
                if take:
                    nbits += len(take) * 8
                    idx += len(take)
                    acc = (acc << (len(take) * 8)) | int.from_bytes(take, "big")
                elif nbits == 0:
                    raise EOFError("bit stream exhausted")
            if (acc >> (nbits - 1)) & 1:
                if nbits < 18:
                    raise EOFError("bit stream exhausted")
                nbits -= 18
                token = (acc >> nbits) & 0x1FFFF
                acc &= (1 << nbits) - 1
                dist = (token >> 5) + 1
                length = (token & 0x1F) + MIN_MATCH
                start = produced - dist
                if start < 0:
                    raise ValueError("corrupt lzss stream: distance underflow")
                if dist >= length:
                    out += out[start : start + length]
                else:
                    # Overlapping copy: the match repeats the last ``dist``
                    # bytes, so tile that pattern instead of copying per byte.
                    pattern = out[start:produced]
                    reps, rem = divmod(length, dist)
                    out += pattern * reps + pattern[:rem]
                produced += length
            else:
                if nbits < 9:
                    raise EOFError("bit stream exhausted")
                nbits -= 9
                out_append((acc >> nbits) & 0xFF)
                acc &= (1 << nbits) - 1
                produced += 1
        if produced != original_length:
            raise ValueError("corrupt lzss stream: length overshoot")
        return bytes(out)
