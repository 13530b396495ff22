"""Sorted-grain codeword strings for committed distributions.

A distribution with denominator G maps to a string of G blocks: element x
contributes counts[x] consecutive copies of its codeword, in element order.
Block j is recoverable from quantile/cdf access alone, so a verifier can
probe the string of a committed distribution without learning it in full.

TV distance lower-bounds block Hamming distance exactly: two distributions
at TV distance d disagree on at least d*G sorted grains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dist import GrainDistribution
from .rscode import BlockCode, element_code

_HEADER_LEN = 40


@dataclass(frozen=True)
class RepresentationString:
    """B = G codeword blocks of a sorted-grain encoding."""

    n: int
    grains: int
    code: BlockCode
    blocks: np.ndarray  # uint8 matrix, shape (G, n_c)

    def block(self, j: int) -> bytes:
        if not 1 <= j <= self.grains:
            raise ValueError("block index out of range")
        return bytes(self.blocks[j - 1].tobytes())

    def to_bytes(self) -> bytes:
        head = b"".join(
            v.to_bytes(8, "little")
            for v in (
                self.grains,
                self.code.codeword_symbols,
                self.code.message_symbols,
                self.n,
                self.grains,
            )
        )
        return head + self.blocks.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "RepresentationString":
        if len(data) < _HEADER_LEN:
            raise ValueError("truncated representation")
        b, n_c, k_c, n, grains = (
            int.from_bytes(data[i : i + 8], "little") for i in range(0, 40, 8)
        )
        if b != grains:
            raise ValueError("inconsistent block count")
        body = np.frombuffer(data, dtype=np.uint8, offset=_HEADER_LEN)
        if body.shape[0] != b * n_c:
            raise ValueError("representation length mismatch")
        return cls(n, grains, BlockCode(k_c, n_c), body.reshape(b, n_c).copy())


def build_representation(
    q: GrainDistribution, code: BlockCode | None = None
) -> RepresentationString:
    code = code or element_code(q.n)
    table = code.encode_table(q.n)
    reps = np.repeat(np.arange(1, q.n + 1, dtype=np.int64), np.asarray(q.counts))
    return RepresentationString(q.n, q.grains, code, table[reps])


def reconstruct_distribution(rep: RepresentationString) -> GrainDistribution | None:
    """Inverse of build_representation; None when any block fails to decode,
    elements fall outside [1, n], or the element sequence is unsorted."""
    elems = decode_blocks(rep.blocks, rep.code, rep.n)
    if elems is None:
        return None
    counts = np.bincount(elems - 1, minlength=rep.n)
    return GrainDistribution(rep.n, rep.grains, counts.tolist())


def decode_blocks(blocks: np.ndarray, code: BlockCode, n: int) -> np.ndarray | None:
    """Vector decode of a block matrix; None unless every row is a codeword
    for an element of [1, n] and rows are sorted by element.

    Decodes by runs of equal rows: only the first row of each run is
    decoded and checked against the code table, and the runs' values must
    rise strictly. That is exact: the rows of a run are equal, and two
    adjacent runs that both hold codewords differ, so they hold different
    values.
    """
    if blocks.ndim != 2 or blocks.shape[1] != code.codeword_symbols:
        return None
    rows, n_c = blocks.shape
    # rows zero-padded to whole uint64 words, so adjacent rows compare word by word
    keys = np.zeros((rows, -(-n_c // 8) * 8), dtype=np.uint8)
    keys[:, :n_c] = blocks
    keys = keys.view(np.uint64)
    changed = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate([[rows > 0], changed]))
    heads = blocks[starts]
    k = code.message_symbols
    msg = heads[:, :k].astype(np.int64)
    vals = np.zeros(heads.shape[0], dtype=np.int64)
    for i in range(k):
        vals = (vals << 8) | msg[:, i]
    if (vals < 1).any() or (vals > n).any():
        return None
    table = code.encode_table(n)
    if not (table[vals] == heads).all():
        return None
    if (np.diff(vals) <= 0).any():
        return None
    return np.repeat(vals, np.diff(starts, append=rows))


def hamming_block_distance(a: RepresentationString, b: RepresentationString) -> Fraction:
    """Fraction of block positions that differ."""
    if a.grains != b.grains or a.code != b.code:
        raise ValueError("representation shape mismatch")
    diff = int((a.blocks != b.blocks).any(axis=1).sum())
    return Fraction(diff, a.grains)


def hamming_symbol_distance(a: RepresentationString, b: RepresentationString) -> Fraction:
    """Fraction of symbol positions that differ; at least block distance
    times the code's relative distance."""
    if a.grains != b.grains or a.code != b.code:
        raise ValueError("representation shape mismatch")
    diff = int((a.blocks != b.blocks).sum())
    return Fraction(diff, a.grains * a.code.codeword_symbols)

