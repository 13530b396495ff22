"""Identity testing of a sampled distribution against a reference one.

The identity tester reduces "is D equal to the committed Q" to uniformity
over a pair domain. The reference distribution is mixed half-and-half with
uniform (full support), snapped down to the grid of multiples of 1/(6N)
(granular), and each sample x is lifted to a pair (x, slot). When D equals
Q the pair stream is exactly uniform over a set of size 6N; a collision
count then separates uniform from far-from-uniform.

All probability arithmetic is exact. IdentityTestRun is the one
implementation: plan() fixes every probe up front and complete() decides
from the reference pdfs of those probes, given as integer grain counts in
a table plus a per-probe index into it. The protocol passes the pdfs of
its distinct verified openings and the batch's probe index, so no
per-probe pdf array is built; identity_test passes the counts of an
in-memory GrainDistribution, indexed by element - 1.

A round holds one int64 values buffer as long as its batch: plan() returns
[quantile grains | tail probes | mixed D-samples], the grains being the
ones its caller passes, and draws the mixture straight into it. Beside it
the round holds the probe index, the pair lifting's keep mask, the
collision count's sorted copy of the keys (32-bit when they lie in
[0, 2^31)) and temporaries of at most CHECK_BLOCK samples, the block
length the protocol's per-probe steps share. complete() owns the buffer's
mixed part: it writes each pair's key over its sample, so the caller reads
the buffer only until then and never writes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator

from .constants import Constants, get_constants
from .dist import CHECK_BLOCK, GrainDistribution, max_grains
from .exactmath import ceil_mul_sqrt, frac_ceil, round_to_unit


class DSampler:
    """Declared sampler for the unknown distribution; counts every draw."""

    def __init__(self, d: GrainDistribution):
        self._d = d
        self.draws = 0

    def draw_batch(self, k: int, rng: Generator) -> np.ndarray:
        self.draws += k
        return self._d.sample_batch(k, rng)


# -- mixing and granularization ------------------------------------------------


def mixed_sample_batch(
    d_sampler: DSampler, n: int, k: int, rng: Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """k draws from the half-uniform mixture of D: a fair coin per draw picks
    a D-sample or a uniform element of [N]. They are written into out, k
    int64 entries, when it is given, and returned.

    The stream is that of one call per kind over all k draws: the coins,
    then the uniform elements, then one D-sample per coin of 1. Each kind is
    drawn over blocks of CHECK_BLOCK draws straight into out, since
    consecutive scalar-bound calls continue one stream."""
    out = np.empty(k, dtype=np.int64) if out is None else out
    blocks = [out[s : s + CHECK_BLOCK] for s in range(0, k, CHECK_BLOCK)]
    for b in blocks:
        b[:] = rng.integers(0, 2, size=b.shape[0])
    for b in blocks:
        b ^= 1  # a coin of 1 leaves 0, the mark of a D-sample to come
        b *= rng.integers(1, n + 1, size=b.shape[0], dtype=np.int64)
    for b in blocks:
        take = np.flatnonzero(b == 0)
        if take.size:
            b[take] = d_sampler.draw_batch(take.size, rng)
    return out


def _slot_counts(pdf_grains: np.ndarray, n: int, grains: int) -> np.ndarray:
    """slots(x) = floor(6N * mixed_pdf(x)) = floor(3*(N*c + G)/G), exact in
    int64 for G <= max_grains(N)."""
    c = np.asarray(pdf_grains, dtype=np.int64)
    return (3 * (n * c + grains)) // grains


# The largest N whose pair keys fit in int64. _granular_pairs writes each
# sample's key, element * (6N + 2) + slot, in place over the int64 values
# buffer; the keys of element e <= N + 1 lie in [e * (6N + 2), e * (6N + 2)
# + 6N + 1], so the largest is (N + 1) * (6N + 2) + 6N + 1, which is at most
# 2^63 - 1 exactly when N <= MAX_DOMAIN.
MAX_DOMAIN = 1_239_850_261


def check_domain(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_DOMAIN."""
    if n < 1:
        raise ValueError("domain size must be positive")
    if n > MAX_DOMAIN:
        raise ValueError(f"domain size {n} exceeds MAX_DOMAIN = {MAX_DOMAIN} (int64 pair keys)")


def _granular_pairs(
    xs: np.ndarray,
    pdf_table: np.ndarray,
    index: np.ndarray,
    n: int,
    grains: int,
    tail_slots: int,
    rng: Generator,
) -> np.ndarray:
    """Granular filter and pair lifting of mixture samples xs, in place: each
    sample becomes the key element*(m + 2) + slot of its pair (element,
    slot), m = 6N, and xs is returned. Sample i's reference pdf, in grains,
    is pdf_table[index[i]], so the per-pdf arithmetic runs once per table
    entry.

    x is kept with probability theta(x) = slots(x)*G / (3*(N*c + G)) and gets
    a uniform slot in [1, slots(x)]; otherwise it becomes the overflow
    element N+1 with a uniform slot in [1, max(1, tail_slots)]. Every slot
    is at most m, so distinct pairs have distinct keys.

    When the table holds one pdf, a block whose samples share a bound draws
    with that scalar bound: numpy gives the same stream as the array-bound
    call over equal bounds (tests/test_testers.py, TestScalarBoundStream).
    """
    c = np.asarray(pdf_table, dtype=np.int64)
    # c <= G <= max_grains(N), so denom <= 3G(N+1) < 2^63: exact in int64
    denom = 3 * (n * c + grains)
    slots = denom // grains  # _slot_counts, from the denominators at hand
    keep_below = slots * grains
    one_pdf = c.shape[0] > 0 and c.min() == c.max()
    # both passes draw over consecutive blocks of samples: consecutive
    # array-bounded draws give the stream of one call over the whole batch,
    # and the gathered bounds exist only per block
    blocks = [slice(s, s + CHECK_BLOCK) for s in range(0, index.shape[0], CHECK_BLOCK)]
    kept = np.empty(index.shape[0], dtype=bool)
    for b in blocks:
        if one_pdf:
            kept[b] = rng.integers(0, denom[0], size=kept[b].shape[0]) < keep_below[0]
        else:
            kept[b] = rng.integers(0, denom[index[b]]) < keep_below[index[b]]
    width = 6 * n + 2
    tail_bound = max(1, tail_slots)
    for b in blocks:
        key = xs[b]
        dropped = ~kept[b]
        if one_pdf and (slots[0] == tail_bound or not dropped.any()):
            bound = slots[0]
        else:
            bound = slots[index[b]]
            bound[dropped] = tail_bound
        key[dropped] = n + 1
        key *= width
        key += rng.integers(0, bound, size=key.shape[0])
        key += 1
    return xs


def exact_tail_slots(pdf_grains_all: np.ndarray, n: int, grains: int) -> int:
    """Overflow slot count m - sum_x slots(x), exact from all N pdf values."""
    slots = _slot_counts(pdf_grains_all, n, grains)
    return 6 * n - int(slots.sum())


# -- uniformity test -------------------------------------------------------------


@dataclass
class UniformityResult:
    accept: bool
    samples: int
    collisions: int
    statistic: Fraction
    threshold: Fraction


def uniformity_test(samples, m: int, epsilon: Fraction) -> UniformityResult:
    """Collision-count uniformity test over a domain of size m.

    Accepts iff the fraction of colliding pairs is at most (1 + eps^2/2)/m.
    """
    epsilon = Fraction(epsilon)
    arr = np.asarray(samples)
    s = arr.shape[0]
    if s < 2:
        raise ValueError("need at least two samples")
    collisions = _collisions(arr)
    total_pairs = s * (s - 1) // 2
    stat = Fraction(collisions, total_pairs)
    threshold = (1 + epsilon**2 / 2) / m
    return UniformityResult(stat <= threshold, s, collisions, stat, threshold)


def _collisions(arr: np.ndarray) -> int:
    """Pairs of equal integer samples: the sum of c*(c - 1)/2 over the run
    lengths c of a sorted copy, which is 32-bit when every sample lies in
    [0, 2^31). The runs are cut over blocks of CHECK_BLOCK samples."""
    narrow = arr.min() >= 0 and arr.max() < 1 << 31
    ordered = arr.astype(np.int32 if narrow else np.int64)
    ordered.sort()
    s = ordered.shape[0]
    collisions, start = 0, 0  # start: the first sample of the open run
    for lo in range(1, s, CHECK_BLOCK):
        hi = min(lo + CHECK_BLOCK, s)
        cuts = np.flatnonzero(ordered[lo:hi] != ordered[lo - 1 : hi - 1])
        if cuts.size:
            cuts += lo  # the first sample of each run that starts here
            runs = np.diff(cuts, prepend=start)
            collisions += int((runs * (runs - 1) // 2).sum())
            start = int(cuts[-1])
    last = s - start
    return collisions + last * (last - 1) // 2


# -- identity test ----------------------------------------------------------------


@dataclass
class IdentityCounters:
    d_samples: int = 0
    q_element_queries: int = 0
    q_samples: int = 0


@dataclass
class IdentityResult:
    accept: bool
    uniformity: UniformityResult | None
    tail: Fraction | None
    counters: IdentityCounters = field(default_factory=IdentityCounters)


def identity_d_budget(n: int, epsilon: Fraction, constants: Constants | None = None) -> int:
    """D-sample budget: ceil(c_id * sqrt(6(N+1)) * (3/eps)^2), exactly."""
    c = (constants or get_constants()).c_id
    eps = Fraction(epsilon)
    return ceil_mul_sqrt(Fraction(c) * Fraction(9) / (eps * eps), 6 * (n + 1))


def tail_sample_budget(epsilon: Fraction, constants: Constants | None = None) -> int:
    c = (constants or get_constants()).c_tail
    eps = Fraction(epsilon)
    return frac_ceil(Fraction(c) / (eps**4))


def check_epsilon(n: int, epsilon: Fraction, constants: Constants | None = None) -> None:
    check_domain(n)
    cons = constants or get_constants()
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("distance parameter must lie in (0,1)")
    # soft sanity floor ~ N^(-1/4): eps^4 * N must exceed coeff^4
    coeff = cons.eps_floor_coeff
    if eps**4 * n <= coeff**4:
        raise ValueError(
            f"distance parameter {eps} too small for domain {n} "
            f"(floor ~ {coeff}/N^(1/4))"
        )


class IdentityTestRun:
    """One identity-test execution, split into plan and completion.

    plan() fixes every probe before any reference answer is consumed, so a
    protocol can ship all probes in one batch: the query's values are
    [quantile grains | tail probes (uniform draws, or the exact-tail sweep)
    | mixed D-samples]. complete()
    consumes the probes' pdf answers, as a table and a per-probe index into
    it, plus the step-1 quantile samples (with their pdfs) and produces the
    verdict; it runs once per plan().
    """

    def __init__(
        self,
        n: int,
        epsilon: Fraction,
        rng_tail: Generator,
        rng_pairs: Generator,
        constants: Constants | None = None,
    ):
        self.n = n
        self.epsilon = Fraction(epsilon)
        self.cons = constants or get_constants()
        check_epsilon(n, self.epsilon, self.cons)
        self.rng_tail = rng_tail
        self.rng_pairs = rng_pairs
        self.s_tail = tail_sample_budget(self.epsilon, self.cons)
        self.s_d = identity_d_budget(n, self.epsilon, self.cons)
        self.tail_exact = self.s_tail >= n
        self._planned = False

    def plan(
        self, d_sampler: DSampler, rng_mix: Generator, grains: np.ndarray | None = None
    ) -> np.ndarray:
        """The query's values as one int64 array, [grains | tail probes |
        mixed D-samples], where grains, the quantile grains that lead the
        query, are none by default; consumes exactly s_d draws from the
        sampler. The mixed D-samples are drawn straight into the array, and
        complete() writes the pair keys over them: the caller reads the
        array, and must not write it, only until then."""
        n = self.n
        if self.tail_exact:
            tail_xs = np.arange(1, n + 1, dtype=np.int64)
            self._tail_coins = None
        else:
            coins = self.rng_tail.integers(0, 2, size=self.s_tail)
            self._tail_coins = coins
            tail_xs = self.rng_tail.integers(
                1, n + 1, size=int((coins == 0).sum()), dtype=np.int64
            )
        k = self._tail_probe_count = tail_xs.shape[0]  # at most N
        lead = 0 if grains is None else grains.shape[0]
        probes = np.empty(lead + k + self.s_d, dtype=np.int64)
        if lead:
            probes[:lead] = grains
        probes[lead : lead + k] = tail_xs
        self._mixed = mixed_sample_batch(d_sampler, n, self.s_d, rng_mix, probes[lead + k :])
        self._planned = True
        return probes

    def complete(
        self,
        pdf_table: np.ndarray,
        probe_index: np.ndarray,
        q_sample_pdfs: np.ndarray,
        grains: int,
    ) -> IdentityResult:
        """Finish the test from the probes' pdf answers (grain counts):
        element probe i reads pdf_table[probe_index[i]]. q_sample_pdfs, the
        reference samples' pdfs, are read only when the tail is sampled
        (not tail_exact); an exact tail may be passed an empty array."""
        if not self._planned:
            raise RuntimeError("plan() must run first")
        n, m = self.n, 6 * self.n
        if grains > max_grains(n):
            raise ValueError(
                f"denominator {grains} exceeds {max_grains(n)}, the largest the "
                f"identity test handles exactly at N={n}"
            )
        pdf_table = np.asarray(pdf_table, dtype=np.int64)
        k = self._tail_probe_count
        tail_pdfs = pdf_table[probe_index[:k]]

        counters = IdentityCounters(
            d_samples=self.s_d,
            q_element_queries=int(probe_index.shape[0]),
            q_samples=int(q_sample_pdfs.shape[0]),
        )

        if self.tail_exact:
            tail_slots = exact_tail_slots(tail_pdfs, n, grains)
            tail = Fraction(tail_slots, m)
        else:
            tail = self._sampled_tail(tail_pdfs, q_sample_pdfs, grains)
            tail_slots = int(tail * m)

        # the pair keys overwrite the mixed samples; the pair stream is
        # drawn, so the run cannot complete again
        keys = _granular_pairs(
            self._mixed, pdf_table, probe_index[k:], n, grains, tail_slots, self.rng_pairs
        )
        self._mixed = None
        self._planned = False
        unif = uniformity_test(keys, m, self.epsilon / 3)
        return IdentityResult(unif.accept, unif, tail, counters)

    def _sampled_tail(
        self,
        uniform_pdfs: np.ndarray,
        q_sample_pdfs: np.ndarray,
        grains: int,
    ) -> Fraction:
        """Monte Carlo tail estimate mixing oracle samples with uniform draws."""
        coins = self._tail_coins
        need = int((coins == 1).sum())
        if need > q_sample_pdfs.shape[0]:
            raise ValueError("not enough reference samples for the tail estimate")
        pdfs = np.empty(self.s_tail, dtype=np.int64)
        pdfs[coins == 0] = uniform_pdfs
        pdfs[coins == 1] = q_sample_pdfs[:need]
        return _tail_estimate(pdfs, self.n, grains)


# fractional bits of the fixed-point sum that _tail_estimate tries first
_TAIL_BITS = 64


def _tail_estimate(pdfs: np.ndarray, n: int, grains: int) -> Fraction:
    """The mean over samples of pdf grain counts c of the overflow share
    (d mod G)/d, d = 3*(N*c + G) (that is, 1 - slots(c)*G/d), rounded to a
    multiple of 1/(6N), ties up, as round_to_unit rounds it. Each share is
    below 1/3, so the mean lies in [0, 1).

    The sum S of cnt*(d mod G)/d over the distinct counts is bracketed in
    integers: with K = _TAIL_BITS, the sum lo of floor(cnt*(d mod G)*2^K/d)
    has S*2^K in [lo, lo + terms]. When both ends round to the same
    multiple, that is the answer; otherwise the exact Fraction sum is."""
    m, s = 6 * n, pdfs.shape[0]
    vals, cnts = np.unique(pdfs, return_counts=True)
    denoms = 3 * (n * vals + grains)  # exact in int64 for G <= max_grains(N)
    terms = list(zip(cnts.tolist(), (denoms % grains).tolist(), denoms.tolist()))
    lo = sum((cnt * r << _TAIL_BITS) // d for cnt, r, d in terms)
    # the rounded mean of S = x/2^K is floor((2*m*x + s*2^K) / (s*2^(K+1)))
    half, unit = s << _TAIL_BITS, s << (_TAIL_BITS + 1)
    k = (2 * m * lo + half) // unit
    if k == (2 * m * (lo + len(terms)) + half) // unit:
        return Fraction(k, m)
    exact = sum((Fraction(cnt * r, d) for cnt, r, d in terms), Fraction(0))
    return round_to_unit(exact / s, m)


def identity_test(
    q: GrainDistribution,
    d_sampler: DSampler,
    n: int,
    epsilon: Fraction,
    rng: Generator,
    constants: Constants | None = None,
) -> IdentityResult:
    """Standalone identity test: accept when D equals q, reject w.h.p. when
    their TV distance exceeds epsilon. Draws its reference samples directly
    from q."""
    from .rngutil import rng_from

    seed = int(rng.integers(0, 1 << 62))
    run = IdentityTestRun(
        n,
        epsilon,
        rng_from(seed, "tail"),
        rng_from(seed, "pairs"),
        constants,
    )
    probes = run.plan(d_sampler, rng_from(seed, "mix"))
    if run.tail_exact:
        q_pdfs = np.empty(0, dtype=np.int64)
    else:
        q_pdfs = q.pdf_grains_batch(q.sample_batch(run.s_tail, rng_from(seed, "qsamples")))
    res = run.complete(np.asarray(q.counts, dtype=np.int64), probes - 1, q_pdfs, q.grains)
    res.counters.q_samples = 0 if run.tail_exact else run.s_tail
    return res
