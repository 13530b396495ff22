"""Exact discrete distributions over [N].

A distribution is stored as integer grain counts over a shared denominator
G, so every pdf/cdf value is an exact rational and transcripts built from
them are bit-exact. The default denominator is 2^ceil(2*log2(N)), i.e. at
least N^2 grains.

Elements are 1-indexed: the domain is {1, ..., N}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
from numpy.random import Generator

from .exactmath import frac_ceil


def default_grains(n: int) -> int:
    """Denominator used when none is given: 2^ceil(2*log2 N) >= N^2."""
    if n < 1:
        raise ValueError("domain size must be positive")
    if n == 1:
        return 1
    return 1 << (n * n - 1).bit_length()


class GrainDistribution:
    """A distribution over [N] with probabilities counts[x]/G.

    Instances are immutable after construction and safe to share across
    threads. The cumulative-count array is precomputed for sampling and
    quantile queries.
    """

    __slots__ = ("n", "grains", "counts", "_counts_arr", "_cum")

    def __init__(self, n: int, grains: int, counts):
        counts = tuple(int(c) for c in counts)
        if n < 1:
            raise ValueError("domain size must be positive")
        if not 1 <= grains < 1 << 63:  # so the int64 cumulative counts cannot wrap
            raise ValueError("denominator must lie in [1, 2^63 - 1]")
        if len(counts) != n:
            raise ValueError(f"expected {n} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("grain counts must be nonnegative")
        if sum(counts) != grains:
            raise ValueError("grain counts must sum to the denominator")
        self.n = n
        self.grains = grains
        self.counts = counts
        arr = np.asarray(counts, dtype=np.int64)
        arr.setflags(write=False)
        cum = np.cumsum(arr)
        cum.setflags(write=False)
        self._counts_arr = arr
        self._cum = cum

    # -- exact views ------------------------------------------------------

    def pdf_grains(self, x: int) -> int:
        self._check_element(x)
        return int(self._counts_arr[x - 1])

    def cdf_grains(self, x: int) -> int:
        self._check_element(x)
        return int(self._cum[x - 1])

    def pdf(self, x: int) -> Fraction:
        return Fraction(self.pdf_grains(x), self.grains)

    def cdf(self, x: int) -> Fraction:
        return Fraction(self.cdf_grains(x), self.grains)

    def probabilities(self) -> list[Fraction]:
        return [Fraction(c, self.grains) for c in self.counts]

    def _check_element(self, x: int) -> None:
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1, {self.n}]")

    # -- quantile & sampling ----------------------------------------------

    def quantile(self, mu: Fraction) -> int:
        """Smallest x with cdf(x) >= mu; never returns a zero-mass element."""
        mu = Fraction(mu)
        if not 0 < mu <= 1:
            raise ValueError("quantile argument must lie in (0, 1]")
        g = frac_ceil(mu * self.grains)
        return self.quantile_grain(g)

    def quantile_grain(self, g: int) -> int:
        """Quantile of the grain-grid mass g/G, for g in [1, G]."""
        if not 1 <= g <= self.grains:
            raise ValueError("grain index out of range")
        return int(np.searchsorted(self._cum, g, side="left")) + 1

    def sample_batch(self, k: int, rng: Generator) -> np.ndarray:
        gs = rng.integers(1, self.grains + 1, size=k, dtype=np.int64)
        return self.quantile_grain_batch(gs)

    def quantile_grain_batch(self, gs: np.ndarray) -> np.ndarray:
        """quantile_grain of each grain index in gs (unchecked)."""
        return np.searchsorted(self._cum, gs, side="left").astype(np.int64) + 1

    def pdf_grains_batch(self, xs: np.ndarray) -> np.ndarray:
        """pdf_grains of each element in xs (unchecked)."""
        return self._counts_arr[np.asarray(xs, dtype=np.int64) - 1]

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical encoding: u64 N, u64 G, then N u64 counts (little-endian)."""
        head = self.n.to_bytes(8, "little") + self.grains.to_bytes(8, "little")
        return head + self._counts_arr.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GrainDistribution":
        if len(data) < 16:
            raise ValueError("truncated distribution encoding")
        n = int.from_bytes(data[0:8], "little")
        grains = int.from_bytes(data[8:16], "little")
        if len(data) != 16 + 8 * n:
            raise ValueError("distribution encoding length mismatch")
        counts = np.frombuffer(data, dtype="<u8", offset=16, count=n)
        return cls(n, grains, counts.tolist())

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrainDistribution)
            and self.n == other.n
            and self.grains == other.grains
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.n, self.grains, self.counts))

    def __repr__(self) -> str:
        if self.n <= 8:
            return f"GrainDistribution(n={self.n}, grains={self.grains}, counts={self.counts})"
        return f"GrainDistribution(n={self.n}, grains={self.grains})"


# -- constructors -----------------------------------------------------------


def uniform(n: int, grains: int | None = None) -> GrainDistribution:
    """Exact uniform distribution; the denominator is padded to a multiple of n."""
    if grains is None:
        grains = default_grains(n)
    if grains % n:
        grains = n * ((grains + n - 1) // n)
    per = grains // n
    return GrainDistribution(n, grains, [per] * n)


def point_mass(n: int, x: int, grains: int | None = None) -> GrainDistribution:
    if grains is None:
        grains = default_grains(n)
    if not 1 <= x <= n:
        raise ValueError("atom outside domain")
    counts = [0] * n
    counts[x - 1] = grains
    return GrainDistribution(n, grains, counts)


def from_weights(n: int, weights, grains: int | None = None) -> GrainDistribution:
    """Quantize nonnegative weights to grains by largest remainder."""
    if grains is None:
        grains = default_grains(n)
    w = [Fraction(x) for x in weights]
    if len(w) != n or any(x < 0 for x in w) or sum(w) == 0:
        raise ValueError("weights must be n nonnegative values with positive sum")
    total = sum(w)
    shares = [x / total * grains for x in w]
    counts = [s.numerator // s.denominator for s in shares]
    remainders = sorted(
        range(n), key=lambda i: (shares[i] - counts[i], -i), reverse=True
    )
    missing = grains - sum(counts)
    for i in remainders[:missing]:
        counts[i] += 1
    return GrainDistribution(n, grains, counts)


def random_distribution(
    n: int, rng: Generator, grains: int | None = None, spread: float = 1.0
) -> GrainDistribution:
    """Random test distribution: grains thrown into n cells.

    spread > 1 tilts mass toward low elements, spread < 1 flattens.
    """
    if grains is None:
        grains = default_grains(n)
    w = rng.random(n) ** spread + 1e-12
    p = w / w.sum()
    counts = rng.multinomial(grains, p)
    return GrainDistribution(n, grains, counts.tolist())


def shift_mass(d: GrainDistribution, delta: Fraction, rng: Generator) -> GrainDistribution:
    """A distribution at exact TV distance delta from d.

    Moves delta*G grains from random donor elements to elements the donors
    outweigh. When delta*G is not integral the grains are refined first
    (counts and denominator scaled), keeping the shift exact.
    """
    delta = Fraction(delta)
    scale = delta.denominator // gcd(delta.denominator, d.grains)
    if scale > 1:
        d = GrainDistribution(d.n, d.grains * scale, [c * scale for c in d.counts])
    moved = delta * d.grains
    if moved.denominator != 1:
        raise ValueError("delta*G must be an integer for an exact shift")
    moved = moved.numerator
    if moved == 0:
        return d
    counts = list(d.counts)
    order = list(rng.permutation(d.n))
    donors = sorted(order, key=lambda i: counts[i], reverse=True)
    take = moved
    taken = {}
    for i in donors:
        if take == 0:
            break
        t = min(counts[i], take)
        taken[i] = t
        counts[i] -= t
        take -= t
    if take:
        raise ValueError("not enough mass to move")
    # receivers gain strictly; pick elements whose count was not reduced
    receivers = [i for i in order if i not in taken]
    if not receivers:
        raise ValueError("no receiver elements available")
    give = moved
    step = (moved + len(receivers) - 1) // len(receivers)
    for i in receivers:
        if give == 0:
            break
        t = min(step, give)
        counts[i] += t
        give -= t
    out = GrainDistribution(d.n, d.grains, counts)
    return out


# -- operations ---------------------------------------------------------------


def tv_distance(p: GrainDistribution, q: GrainDistribution) -> Fraction:
    """Total variation distance, computed exactly over a common denominator."""
    if p.n != q.n:
        raise ValueError("domain size mismatch")
    g = gcd(p.grains, q.grains)
    lp = q.grains // g
    lq = p.grains // g
    diff = np.abs(
        p._counts_arr.astype(object) * lp - q._counts_arr.astype(object) * lq
    ).sum()
    return Fraction(int(diff), 2 * p.grains * lp)


# -- bucket histograms --------------------------------------------------------


def bucket_index(prob: Fraction, tau: Fraction, n: int) -> int:
    """Bucket id of a probability under geometric bucketing with ratio 1+tau.

    Bucket 0 collects probabilities below tau/n; otherwise the id is the
    unique j >= 0 with tau*(1+tau)^j/n <= prob < tau*(1+tau)^(j+1)/n.
    Probabilities exactly at tau/n land in the j=0 interval.
    """
    prob = Fraction(prob)
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0,1)")
    if not 0 <= prob <= 1:
        raise ValueError("probability out of range")
    lo = tau / n
    if prob < lo:
        return 0
    j = 0
    hi = lo * (1 + tau)
    while prob >= hi:
        lo = hi
        hi = lo * (1 + tau)
        j += 1
    return j


def num_buckets(tau: Fraction, n: int) -> int:
    """Bucket ids run 0..J where J is the bucket holding probability 1."""
    return bucket_index(Fraction(1), tau, n) + 1


def element_buckets(d: GrainDistribution, tau: Fraction) -> np.ndarray:
    """Bucket id of each element's probability (vectorized by distinct count)."""
    out = np.empty(d.n, dtype=np.int64)
    cache: dict[int, int] = {}
    for i, c in enumerate(d.counts):
        b = cache.get(c)
        if b is None:
            b = bucket_index(Fraction(c, d.grains), tau, d.n)
            cache[c] = b
        out[i] = b
    return out


class BucketHistogram:
    """Per-bucket masses for geometric probability buckets of ratio 1+tau."""

    __slots__ = ("tau", "n", "masses")

    def __init__(self, tau: Fraction, n: int, masses):
        self.tau = Fraction(tau)
        self.n = n
        self.masses = tuple(Fraction(m) for m in masses)
        if any(m < 0 for m in self.masses):
            raise ValueError("bucket masses must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.masses)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BucketHistogram)
            and self.tau == other.tau
            and self.n == other.n
            and self.masses == other.masses
        )

    def __repr__(self) -> str:
        return f"BucketHistogram(tau={self.tau}, n={self.n}, buckets={len(self.masses)})"


def exact_histogram(d: GrainDistribution, tau: Fraction) -> BucketHistogram:
    """Exact bucket masses of a distribution; masses sum to 1."""
    tau = Fraction(tau)
    buckets = element_buckets(d, tau)
    size = num_buckets(tau, d.n)
    acc = [0] * size
    for i, b in enumerate(buckets):
        acc[b] += d.counts[i]
    return BucketHistogram(tau, d.n, [Fraction(a, d.grains) for a in acc])
