"""Systematic Reed-Solomon codes over GF(256) for element codewords.

Each domain element is encoded as k message bytes followed by n-k parity
bytes, giving an MDS code with distance n-k+1. Decoding is strict: a block
is either a codeword (re-encoding its systematic prefix reproduces it
exactly) or it is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

_PRIMITIVE_POLY = 0x11D

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= _gf_mul(a, b)
    return out


@cache  # nsym < 255, so at most 254 entries
def _generator_poly(nsym: int) -> tuple[int, ...]:
    g = [1]
    for i in range(nsym):
        g = _poly_mul(g, [1, _EXP[i]])
    return tuple(g)


@cache
def _feedback_table(nsym: int) -> np.ndarray:
    """Row c holds c times each generator coefficient after the leading 1:
    what a quotient symbol c subtracts from the remainder."""
    gen = _generator_poly(nsym)[1:]
    table = np.array([[_gf_mul(g, c) for g in gen] for c in range(256)], dtype=np.uint8)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class BlockCode:
    """Systematic (n, k) Reed-Solomon code over the byte alphabet."""

    message_symbols: int
    codeword_symbols: int

    def __post_init__(self):
        k, n = self.message_symbols, self.codeword_symbols
        if not 1 <= k < n <= 255:
            raise ValueError("need 1 <= k < n <= 255")

    @property
    def relative_distance(self) -> Fraction:
        n, k = self.codeword_symbols, self.message_symbols
        return Fraction(n - k + 1, n)

    @property
    def parity_symbols(self) -> int:
        return self.codeword_symbols - self.message_symbols

    def _parity(self, msg: bytes) -> bytes:
        gen = _generator_poly(self.parity_symbols)
        buf = list(msg) + [0] * self.parity_symbols
        for i in range(len(msg)):
            c = buf[i]
            if c:
                for j in range(1, len(gen)):
                    buf[i + j] ^= _gf_mul(gen[j], c)
        return bytes(buf[-self.parity_symbols :])

    def encode_message(self, msg: bytes) -> bytes:
        if len(msg) != self.message_symbols:
            raise ValueError("message length mismatch")
        return msg + self._parity(msg)

    def encode_int(self, value: int) -> bytes:
        return self.encode_message(value.to_bytes(self.message_symbols, "big"))

    def encode_table(self, max_value: int) -> np.ndarray:
        """Row v holds the codeword of value v, for v in [0, max_value]: the
        k message bytes, big-endian, then the parity bytes of _parity, from
        one shift-register division run over all rows at once."""
        k = self.message_symbols
        values = np.arange(max_value + 1, dtype=np.int64)[:, None]
        msg = (values >> np.arange(8 * (k - 1), -1, -8)).astype(np.uint8)
        feedback = _feedback_table(self.parity_symbols)
        rem = np.zeros((max_value + 1, self.parity_symbols), dtype=np.uint8)
        for i in range(k):
            # the next quotient symbol, then shift it times the generator in
            c = msg[:, i] ^ rem[:, 0]
            rem[:, :-1] = rem[:, 1:]
            rem[:, -1] = 0
            rem ^= feedback[c]
        return np.concatenate([msg, rem], axis=1)


def element_code(n: int) -> BlockCode:
    """Code used for domain [n]: k = bytes needed for n, n_c = max(k+2, 4).

    The relative distance is far above 1/10 at these sizes.
    """
    k = max(1, (n.bit_length() + 7) // 8)
    if (1 << (8 * k)) <= n:
        k += 1
    return BlockCode(k, max(k + 2, 4))
