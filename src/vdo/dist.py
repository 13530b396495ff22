"""Exact discrete distributions over [N].

A distribution is stored as integer grain counts over a shared denominator
G, so every pdf/cdf value is an exact rational and transcripts built from
them are bit-exact. The default denominator is 2^ceil(2*log2(N)), i.e. at
least N^2 grains, below the int64 cap of default_grains.

Elements are 1-indexed: the domain is {1, ..., N}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np
from numpy.random import Generator

from .exactmath import frac_ceil, geometric_mean


# keys per block of D sampling's lookup, of the pair lifting's draws and of
# the protocol's per-probe work (testers and protocol import it), so that no
# step builds a temporary as long as the batch
CHECK_BLOCK = 1 << 16


def max_grains(n: int) -> int:
    """Largest denominator G with 3*G*(N+1) < 2^63.

    Every integer the identity tester's granular filter forms, 3*(N*c + G)
    and slots(x)*G for 0 <= c <= G, is at most 3*G*(N+1), so below this
    bound all of them are exact in int64.
    """
    return ((1 << 63) - 1) // (3 * (n + 1))


def default_grains(n: int) -> int:
    """Denominator used when none is given: 2^ceil(2*log2 N) >= N^2, capped
    at the largest power of two that leaves room below max_grains(N) to pad
    it to a multiple of N (as uniform does). The cap binds from
    N = 1,398,100 on, where G < N^2."""
    if n < 1:
        raise ValueError("domain size must be positive")
    cap = 1 << ((max_grains(n) - n + 1).bit_length() - 1)
    return min(1 << (n * n - 1).bit_length(), cap)


class GrainDistribution:
    """A distribution over [N] with probabilities counts[x]/G.

    Instances are immutable after construction and safe to share across
    threads. The cumulative-count array is precomputed for sampling and
    quantile queries; the guide table of the inverse-CDF lookup is built
    on the first batch lookup (see quantile_grain_batch), so constructing
    a distribution costs nothing extra. Two threads racing to build it
    compute and store the same table.
    """

    __slots__ = ("n", "grains", "counts", "_counts_arr", "_cum", "_guide")

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
        self._guide: tuple[int, np.ndarray, np.ndarray] | None = None

    # -- exact views ------------------------------------------------------

    def pdf_grains(self, x: int) -> int:
        self._check_element(x)
        return int(self._counts_arr[x - 1])

    def cdf_grains(self, x: int) -> int:
        self._check_element(x)
        return int(self._cum[x - 1])

    def pdf(self, x: int) -> Fraction:
        return Fraction(self.pdf_grains(x), self.grains)

    def _check_element(self, x: int) -> None:
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1, {self.n}]")

    # -- quantile & sampling ----------------------------------------------

    def sample_batch(self, k: int, rng: Generator) -> np.ndarray:
        """k draws: one rng.integers call draws every key, and the keys are
        looked up in place, in blocks of CHECK_BLOCK."""
        gs = rng.integers(1, self.grains + 1, size=k, dtype=np.int64)
        for s in range(0, k, CHECK_BLOCK):
            gs[s : s + CHECK_BLOCK] = self.quantile_grain_batch(gs[s : s + CHECK_BLOCK])
        return gs

    def quantile_grain_batch(self, gs: np.ndarray) -> np.ndarray:
        """Quantile of the grain-grid mass g/G (the smallest x with
        cdf_grains(x) >= g) of each grain index g in the 1-D int64 array gs.

        Unchecked, and exact for every int64 key: the answer is
        searchsorted(cum, g, "left") + 1, so a key g <= 0 answers 1 and a
        key g > G answers N + 1. A guide table (Chen & Asau's indexed
        search) answers most keys in O(1): the grains are cut into buckets
        of 2^s grains, and a bucket whose grains meet no element boundary
        answers that element outright. A bucket that meets exactly one
        boundary c answers `first` for g <= c and `last` above it. Keys in
        buckets with two or more boundaries and keys outside [1, G] fall
        back to searchsorted on those keys alone.
        """
        gs = np.asarray(gs, dtype=np.int64)
        shift, table, (bound, below, above) = self._guide_table()
        # (g - 1) >> s is the key's bucket, and table entry 1 + bucket holds
        # its answer; keys outside [1, G] (including those that wrap when
        # near int64 max) clip to the zero sentinels at either end
        idx = gs + ((1 << shift) - 1)
        idx >>= shift
        out = np.take(table, idx, mode="clip")
        miss = np.flatnonzero(out <= 0)
        if miss.size:
            g = gs[miss]
            r = -out[miss]  # the bucket's one-boundary record, 0 for none
            ans = np.where(g <= bound[r], below[r], above[r])
            search = np.flatnonzero(ans == 0)
            if search.size:
                ans[search] = np.searchsorted(self._cum, g[search], side="left") + 1
            out[miss] = ans
        return out

    def _guide_table(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(s, table, records) of the guide table, built on first use.

        With B = ceil(G / 2^s) buckets, bucket b holds the keys from its
        first grain (b << s) + 1 to its top (b + 1) << s; the last bucket's
        top may lie past G, where keys answer N + 1. table[1 + b] is the
        answer of every key in bucket b when the answer does not change
        inside it. When it changes at exactly one cumulative count c (one
        element boundary, or several at c when zero-mass elements follow),
        table[1 + b] is -r, and column r of records = (bound, below, above)
        holds c and the answers at the bucket's first grain and at its top.
        Otherwise table[1 + b] is 0, and record 0 answers 0, which sends
        the key to searchsorted. table[0] and table[B + 1] are zero
        sentinels for keys outside [1, G]. s = max(0, bitlen(G - 1) -
        bitlen(8N - 1)) makes B lie in [4N, 16N) when s > 0 and B = G < 16N
        otherwise, so the table has fewer than 16N + 1 entries; a bucket
        whose answer changes holds an element boundary or G, so there are
        at most N records. Bucket starts and ends are taken below G, so
        nothing wraps at G = 2^63 - 1.
        """
        guide = self._guide
        if guide is None:
            n, grains, cum = self.n, self.grains, self._cum
            shift = max(0, (grains - 1).bit_length() - (8 * n - 1).bit_length())
            buckets = ((grains - 1) >> shift) + 1
            starts = (np.arange(buckets, dtype=np.int64) << shift) + 1
            # 0-based answers at each bucket's first grain and at its top
            first = np.searchsorted(cum, starts, side="left")
            last = np.empty(buckets, dtype=np.int64)
            last[:-1] = np.searchsorted(cum, starts[1:] - 1, side="left")
            last[-1] = n if buckets << shift > grains else np.searchsorted(cum, grains)
            # the counts met inside a bucket are cum[first:last]; they are
            # one boundary when the first and the last of them are equal
            met = last > first
            one = np.flatnonzero(met)
            one = one[cum[first[one]] == cum[last[one] - 1]]
            table = np.zeros(buckets + 2, dtype=np.int64)
            table[1:-1] = np.where(met, 0, first + 1)
            table[1 + one] = -np.arange(1, one.size + 1)
            records = np.zeros((3, one.size + 1), dtype=np.int64)
            records[:, 1:] = cum[first[one]], first[one] + 1, last[one] + 1
            table.setflags(write=False)
            records.setflags(write=False)
            guide = self._guide = (shift, table, records)
        return guide

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


@dataclass(frozen=True, eq=False)
class BucketGrid:
    """The geometric bucket grid of bucket_grid(tau, n): edges[j] =
    tau*(1+tau)^j/n for j = 0..J+1, where J is the bucket of probability 1
    (edges[J] <= 1 < edges[J+1]). Bucket j >= 1 is [edges[j], edges[j+1]);
    bucket 0 is [0, edges[1]). Per bucket, uppers[j] = min(edges[j+1], 1)
    bounds its probabilities, and representatives[j], computed on first
    use, is geometric_mean(edges[j], uppers[j]) (0 for bucket 0).
    """

    tau: Fraction
    n: int
    edges: tuple[Fraction, ...]
    uppers: tuple[Fraction, ...]

    @cached_property
    def representatives(self) -> tuple[Fraction, ...]:
        pairs = zip(self.edges[1:], self.uppers[1:])
        return (Fraction(0),) + tuple(geometric_mean(lo, hi) for lo, hi in pairs)

    @property
    def size(self) -> int:
        """Bucket ids run 0..J."""
        return len(self.edges) - 1

    def buckets(self, values: np.ndarray, grains: int) -> np.ndarray:
        """Bucket id of each probability values[i]/grains (values: integers
        in [0, grains])."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and not (grains >= 1 and 0 <= values.min() and values.max() <= grains):
            raise ValueError("probability out of range")
        ids = np.searchsorted(self._thresholds(grains), values, side="right") - 1
        return np.maximum(ids, 0, out=ids)

    @lru_cache(maxsize=256)
    def _thresholds(self, grains: int) -> np.ndarray:
        # v/grains >= edges[j] exactly when the integer v >= ceil(edges[j] *
        # grains); no v reaches edges[J+1] > 1, so every threshold is <= grains
        thresholds = np.array([frac_ceil(e * grains) for e in self.edges[:-1]], dtype=np.int64)
        thresholds.setflags(write=False)
        return thresholds


@lru_cache(maxsize=64)
def bucket_grid(tau: Fraction, n: int) -> BucketGrid:
    """The grid of (tau, n); each process builds it once and shares it."""
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0,1)")
    edges = [tau / n]
    while edges[-1] <= 1:
        edges.append(edges[-1] * (1 + tau))
    return BucketGrid(tau, n, tuple(edges), tuple(min(hi, 1) for hi in edges[1:]))


class BucketHistogram:
    """Per-bucket masses on a BucketGrid."""

    __slots__ = ("grid", "masses")

    def __init__(self, grid: BucketGrid, masses):
        self.grid = grid
        self.masses = tuple(m if type(m) is Fraction else Fraction(m) for m in masses)
        if len(self.masses) != grid.size:
            raise ValueError(f"expected {grid.size} bucket masses, got {len(self.masses)}")
        if any(m.numerator < 0 for m in self.masses):
            raise ValueError("bucket masses must be nonnegative")

    @property
    def tau(self) -> Fraction:
        return self.grid.tau

    @property
    def n(self) -> int:
        return self.grid.n

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
    grid = bucket_grid(tau, d.n)
    acc = np.zeros(grid.size, dtype=np.int64)  # sums of counts stay below G < 2^63
    np.add.at(acc, grid.buckets(d._counts_arr, d.grains), d._counts_arr)
    return BucketHistogram(grid, [Fraction(a, d.grains) for a in acc.tolist()])
