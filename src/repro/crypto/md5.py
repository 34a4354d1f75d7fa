"""MD5 message digest, implemented from RFC 1321.

The paper's gateway uses MD5 (their ref. [14] is RFC 1321) to verify that a
received Packed Information is intact before decrypting it.  This is a
from-scratch implementation — tested against :mod:`hashlib` — so the
reproduction carries its own substrate rather than assuming one.
"""

from __future__ import annotations

import math
import struct
from hashlib import md5 as _hashlib_md5

__all__ = ["md5", "md5_hex", "MD5"]

# Per-round left-rotate amounts (RFC 1321 §3.4).
_SHIFTS = (
    [7, 12, 17, 22] * 4
    + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)
# Sine-derived constants: K[i] = floor(2^32 * |sin(i + 1)|).
_K = [int((1 << 32) * abs(math.sin(i + 1))) & 0xFFFFFFFF for i in range(64)]
_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
_MASK = 0xFFFFFFFF


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


class MD5:
    """Incremental MD5 (``update``/``digest``), mirroring hashlib's API."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_INIT)
        self._buffer = bytearray()
        self._length = 0  # total message bytes
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"update() wants bytes, got {type(data).__name__}")
        self._length += len(data)
        self._buffer.extend(data)
        while len(self._buffer) >= 64:
            self._compress(bytes(self._buffer[:64]))
            del self._buffer[:64]

    def copy(self) -> "MD5":
        clone = MD5()
        clone._state = list(self._state)
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        # Pad a copy so update() can continue afterwards.
        clone = self.copy()
        bit_length = (clone._length * 8) & 0xFFFFFFFFFFFFFFFF
        clone.update(b"\x80")
        while len(clone._buffer) != 56:
            clone.update(b"\x00")
        clone.update(struct.pack("<Q", bit_length))
        assert not clone._buffer
        return struct.pack("<4I", *clone._state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def _compress(self, block: bytes) -> None:
        m = struct.unpack("<16I", block)
        a, b, c, d = self._state
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
                g = i
            elif i < 32:
                f = (d & b) | (~d & c)
                g = (5 * i + 1) % 16
            elif i < 48:
                f = b ^ c ^ d
                g = (3 * i + 5) % 16
            else:
                f = c ^ (b | (~d & _MASK))
                g = (7 * i) % 16
            f = (f + a + _K[i] + m[g]) & _MASK
            a, d, c = d, c, b
            b = (b + _rotl(f, _SHIFTS[i])) & _MASK
        self._state = [
            (self._state[0] + a) & _MASK,
            (self._state[1] + b) & _MASK,
            (self._state[2] + c) & _MASK,
            (self._state[3] + d) & _MASK,
        ]


# The from-scratch MD5 above is the reference implementation (and stays
# under test against hashlib); the module-level helpers sit on the
# per-message hot path — keystream blocks and integrity tags — so they
# delegate to the C implementation, which is bit-identical by definition.


def md5(data: bytes) -> bytes:
    """16-byte MD5 digest of ``data``."""
    return _hashlib_md5(data).digest()


def md5_hex(data: bytes) -> str:
    """Hex MD5 digest of ``data``."""
    return _hashlib_md5(data).hexdigest()
