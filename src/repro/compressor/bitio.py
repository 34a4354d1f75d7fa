"""Bit-level I/O helpers shared by the Huffman and LZSS codecs.

MSB-first bit order throughout (the conventional order for Huffman tables,
and it makes the encoded streams easy to inspect in tests).

Both classes batch whole-field reads/writes (``write_bits``/``read_bits``
shift multi-bit fields in one arithmetic step instead of looping per bit);
the codecs sit on the simulator's per-message hot path, and bit-at-a-time
loops dominated their profiles.
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits MSB-first into a bytearray."""

    __slots__ = ("_buf", "_acc", "_nbits")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        acc = (self._acc << 1) | (bit & 1)
        nbits = self._nbits + 1
        if nbits == 8:
            self._buf.append(acc)
            acc = 0
            nbits = 0
        self._acc = acc
        self._nbits = nbits

    def write_bits(self, value: int, width: int) -> None:
        """Write ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise ValueError("negative width")
        acc = (self._acc << width) | (value & ((1 << width) - 1))
        nbits = self._nbits + width
        if nbits >= 8:
            buf = self._buf
            while nbits >= 8:
                nbits -= 8
                buf.append((acc >> nbits) & 0xFF)
            acc &= (1 << nbits) - 1
        self._acc = acc
        self._nbits = nbits

    def getvalue(self) -> bytes:
        """Flush (zero-padding the final byte) and return the bytes."""
        buf = bytearray(self._buf)
        if self._nbits:
            buf.append(self._acc << (8 - self._nbits))
        return bytes(buf)

    def __len__(self) -> int:
        """Number of bits written so far."""
        return len(self._buf) * 8 + self._nbits


class BitReader:
    """Reads bits MSB-first from a bytes object."""

    __slots__ = ("_data", "_pos", "_nbits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._nbits = len(data) * 8

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            raise EOFError("bit stream exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, width: int) -> int:
        pos = self._pos
        end = pos + width
        if end > self._nbits:
            raise EOFError("bit stream exhausted")
        self._pos = end
        first = pos >> 3
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first:last], "big")
        return (chunk >> ((last << 3) - end)) & ((1 << width) - 1)
