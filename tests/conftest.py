"""Shared fixtures and independent oracles.

Oracles here are deliberately separate implementations from the package:
expected values in tests come from direct Fraction arithmetic, itertools
enumeration, or closed forms, never from the code paths under test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from vdo.dist import GrainDistribution
from vdo.rngutil import rng_from
from vdo.wire import OpeningBatch, QuerySet


def tv_oracle(p: GrainDistribution, q: GrainDistribution) -> Fraction:
    """Direct definition: half the sum of absolute probability differences."""
    return sum(
        (abs(Fraction(a, p.grains) - Fraction(b, q.grains)) for a, b in zip(p.counts, q.counts)),
        Fraction(0),
    ) / 2


def enum_counts(n: int, grains: int):
    """All count vectors summing to grains, by stars and bars."""
    for bars in combinations_with_replacement(range(grains + 1), n - 1):
        bounds = (0,) + bars + (grains,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(n))


def enum_dists(n: int, grains: int):
    for counts in enum_counts(n, grains):
        yield GrainDistribution(n, grains, counts)


def bucket_oracle(prob: Fraction, tau: Fraction, n: int) -> int:
    """Literal geometric-interval scan with fresh Fraction powers."""
    if prob < tau / n:
        return 0
    j = 0
    while True:
        lo = tau * (1 + tau) ** j / n
        hi = tau * (1 + tau) ** (j + 1) / n
        if lo <= prob < hi:
            return j
        j += 1


def dist_to_uniform_oracle(q: GrainDistribution) -> Fraction:
    """Distance to the uniform distribution: total mass above the 1/n line."""
    inv = Fraction(1, q.n)
    return sum(
        (Fraction(c, q.grains) - inv for c in q.counts if Fraction(c, q.grains) > inv),
        Fraction(0),
    )


def support_distance_oracle(q: GrainDistribution, s_bound: int) -> Fraction:
    """Min distance to support <= s_bound by enumerating kept subsets."""
    from itertools import combinations

    if s_bound >= q.n:
        return Fraction(0)
    best = None
    for keep in combinations(range(q.n), s_bound):
        removed = sum(q.counts[i] for i in range(q.n) if i not in keep)
        frac = Fraction(removed, q.grains)
        best = frac if best is None else min(best, frac)
    return best


def element_generator(xs):
    """A query-phase generator that probes the elements xs, whatever the
    session."""
    fixed = np.asarray(xs, dtype=np.int64)
    return lambda n, e, g, rng: QuerySet.elements(fixed)


def concat(*sets: QuerySet) -> QuerySet:
    """The query sets one after another, as one query set."""
    return QuerySet(
        np.concatenate([s.kinds for s in sets]),
        np.concatenate([s.values for s in sets]),
    )


# -- openings: the reference opener and decoder ---------------------------------------

DEPTH_BYTE = 24  # a record's depth byte, after its element, pdf and cdf
_HEAD = struct.Struct("<QQQB")  # element, pdf, cdf, depth byte
_LEVEL = 41  # a path level: the sibling's mass and hash, a direction byte


@dataclass(frozen=True)
class Opening:
    """An opening's record decoded into its fields; path is the encoded
    sibling path, leaf to root."""

    element: int
    claimed_pdf: int
    claimed_cdf: int
    path: bytes

    def to_bytes(self) -> bytes:
        depth = len(self.path) // _LEVEL
        return _HEAD.pack(self.element, self.claimed_pdf, self.claimed_cdf, depth) + self.path

    @classmethod
    def from_bytes(cls, data: bytes) -> "Opening":
        """The reference decoder of one record (ValueError if malformed):
        check the length and the direction bytes, then slice off the path."""
        if len(data) < _HEAD.size:
            raise ValueError("truncated opening")
        element, pdf, cdf, depth = _HEAD.unpack_from(data)
        if len(data) != _HEAD.size + depth * _LEVEL:
            raise ValueError("opening length mismatch")
        path = bytes(data[_HEAD.size :])
        if path[_LEVEL - 1 :: _LEVEL].translate(None, b"\x00\x01"):
            raise ValueError("bad direction byte")
        return cls(element, pdf, cdf, path)


def open_reference(x: int, d, aux) -> bytes:
    """The reference opener: element x's record, built by walking up the
    tree one level at a time."""
    if not 1 <= x <= d.domain_size:
        raise ValueError(f"element {x} outside [1, {d.domain_size}]")
    labels, masses = aux.labels, aux.masses
    idx = aux.padded + x - 1
    pdf = cdf = int(masses[idx])
    path = []
    while idx > 1:
        if idx & 1:  # the sibling is the left child
            cdf += int(masses[idx - 1])
            path += (labels[idx - 1].tobytes(), b"\x01")
        else:
            path += (labels[idx + 1].tobytes(), b"\x00")
        idx >>= 1
    return Opening(x, pdf, cdf, b"".join(path)).to_bytes()


# -- opening batches: read a record matrix's rows, edit a copy of it -----------------


def direction_byte(level: int) -> int:
    """The column of a record's direction byte at path level `level`."""
    return DEPTH_BYTE + 1 + 41 * level + 40


def openings(batch) -> list[Opening]:
    """The distinct openings of a batch: each row of its record matrix
    decoded with Opening.from_bytes, the reference decoder."""
    return [Opening.from_bytes(row.tobytes()) for row in batch.proofs]


def edited(batch, *edits, index=None) -> OpeningBatch:
    """A batch with a writable copy of batch's record matrix, changed in
    place by each edit(rows) in turn, and a copy of batch's index (or of
    `index`)."""
    rows = np.array(batch.proofs)
    for edit in edits:
        edit(rows)
    return OpeningBatch(rows, np.array(batch.index if index is None else index), batch.depth)


@pytest.fixture
def rng():
    return rng_from(12345, "test")


@pytest.fixture
def small_dist():
    return GrainDistribution(4, 16, (4, 4, 8, 0))
