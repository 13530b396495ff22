"""Shared fixtures and independent oracles.

Oracles here are deliberately separate implementations from the package:
expected values in tests come from direct Fraction arithmetic, itertools
enumeration, or closed forms, never from the code paths under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from vdo.commitment import OpeningProof
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


def concat(*sets: QuerySet) -> QuerySet:
    """The query sets one after another, as one query set."""
    return QuerySet(
        np.concatenate([s.kinds for s in sets]),
        np.concatenate([s.values for s in sets]),
    )


# -- opening batches: read a record matrix's rows, edit a copy of it -----------------

DEPTH_BYTE = 24  # a record's depth byte, after its element, pdf and cdf


def direction_byte(level: int) -> int:
    """The column of a record's direction byte at path level `level`."""
    return DEPTH_BYTE + 1 + 41 * level + 40


def openings(batch) -> list[OpeningProof]:
    """The distinct openings of a batch: each row of its record matrix
    decoded with OpeningProof.from_bytes, the reference codec."""
    return [OpeningProof.from_bytes(row.tobytes()) for row in batch.proofs]


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
