import functools
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdo import testers
from vdo.dist import GrainDistribution, point_mass, random_distribution, uniform
from vdo.rngutil import rng_from
from vdo.testers import (
    MAX_DOMAIN,
    DSampler,
    _granular_pairs,
    _slot_counts,
    _tail_estimate,
    exact_tail_slots,
    identity_d_budget,
    identity_test,
    max_grains,
    mixed_sample_batch,
    tail_sample_budget,
    uniformity_test,
)

from conftest import enum_dists


def _mixed_slots(c: int, g: int, n: int) -> int:
    """floor(6N * (c/(2G) + 1/(2N))), by direct Fraction arithmetic."""
    scaled = (F(c, 2 * g) + F(1, 2 * n)) * 6 * n
    return scaled.numerator // scaled.denominator


def _slots(c: int, g: int, n: int) -> int:
    """The package's slot count for one pdf value."""
    return int(_slot_counts(np.asarray([c]), n, g)[0])


def _theta(c: int, g: int, n: int) -> F:
    """Keep probability slots/(m q') with q' = c/(2G) + 1/(2N)."""
    return F(_slots(c, g, n)) / (6 * n * (F(c, 2 * g) + F(1, 2 * n)))


def _exact_tail(q: GrainDistribution) -> F:
    """Overflow mass 1 - sum_x slots(x)/m, by direct Fraction arithmetic."""
    m = 6 * q.n
    return 1 - sum((F(_mixed_slots(c, q.grains, q.n), m) for c in q.counts), F(0))


class TestMixing:
    # an exact multiple of 1/m keeps all m*q' slots, so the slot count reads
    # the mixture probability q' = pdf/2 + 1/(2N) off exactly
    def test_pdf_zero(self):
        q = point_mass(4, 1, 16)
        assert F(_slots(q.pdf_grains(2), 16, 4), 24) == F(1, 8)

    def test_pdf_one(self):
        q = point_mass(4, 1, 16)
        assert F(_slots(q.pdf_grains(1), 16, 4), 24) == F(1, 2) + F(1, 8)

    def test_fixed_point(self):
        q = GrainDistribution(2, 4, (2, 2))
        assert F(_slots(q.pdf_grains(1), 4, 2), 12) == F(1, 2)

    def test_point_mass_mixture_probability(self):
        # D = point mass on 1 over [2]: element 2 only from the uniform coin
        d = point_mass(2, 1, 4)
        draws = mixed_sample_batch(DSampler(d), 2, 40_000, rng_from(5, "mix"))
        frac2 = float((draws == 2).mean())
        assert abs(frac2 - 0.25) < 0.012  # ~5 sigma

    def test_uniform_stays_uniform_chi2(self):
        from scipy.stats import chisquare

        n, draws = 16, 100_000
        d = uniform(n)
        xs = mixed_sample_batch(DSampler(d), n, draws, rng_from(6, "mb"))
        counts = np.bincount(xs - 1, minlength=n)
        _, pval = chisquare(counts)
        assert pval > 1e-3

    def test_mixture_marginal_chi2(self):
        from scipy.stats import chisquare

        n, draws = 8, 100_000
        d = GrainDistribution(n, 64, (32, 16, 8, 8, 0, 0, 0, 0))
        xs = mixed_sample_batch(DSampler(d), n, draws, rng_from(7, "mm"))
        counts = np.bincount(xs - 1, minlength=n)
        expected = np.array(
            [float((F(c, 64) / 2 + F(1, 2 * n)) * draws) for c in d.counts]
        )
        _, pval = chisquare(counts, expected)
        assert pval > 1e-3


def _one_call_mixture(d, n, k, rng):
    """The mixture mixed_sample_batch draws block by block, as one call per
    kind over all k draws: the coins, the uniform elements, then one
    D-sample per coin of 1. Returns the draws and the number of D-samples."""
    coins = rng.integers(0, 2, size=k) == 1
    take = int(np.count_nonzero(coins))
    out = rng.integers(1, n + 1, size=k, dtype=np.int64)
    if take:
        out[coins] = d.sample_batch(take, rng)
    return out, take


class TestMixtureBuffer:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 7, 2**16]),
        st.integers(0, 3),
        st.sampled_from(["uniform", "random", "point"]),
        st.integers(0, 2**32),
    )
    def test_buffer_equals_the_one_call_reference(self, block, extra, dist, seed):
        n = 12
        d = {
            "uniform": uniform(n),
            "random": random_distribution(n, rng_from(seed, "d")),
            "point": point_mass(n, 5, 64),
        }[dist]
        k = 3 * block + 1 + extra if block < 2**16 else block + 1 + extra  # not a multiple
        buf = np.full(k + 2, -7, dtype=np.int64)
        rng, ref_rng = rng_from(seed, "mix"), rng_from(seed, "mix")
        sampler = DSampler(d)
        with mock.patch.object(testers, "CHECK_BLOCK", block):
            got = mixed_sample_batch(sampler, n, k, rng, buf[1:-1])
        ref, take = _one_call_mixture(d, n, k, ref_rng)
        assert np.shares_memory(got, buf)
        assert got.tolist() == ref.tolist()
        assert buf[0] == buf[-1] == -7  # nothing written past the buffer
        assert sampler.draws == take
        # the generator ends where the reference's does
        assert rng.integers(0, 2**62, size=4).tolist() == ref_rng.integers(0, 2**62, size=4).tolist()


class TestGranularityRatio:
    def test_exact_multiple_gives_one(self):
        # N = 2, G = 4, c = 1: q' = 3/8 is not a multiple of 1/12; c = 2 is
        assert _theta(2, 4, 2) == 1
        assert _theta(1, 4, 2) < 1

    def test_direct_value(self):
        # m = 12, q' = 0.7 (N = 2, c/G = 9/10): floor(8.4)/12 / 0.7 = 20/21
        assert _theta(9, 10, 2) == F(20, 21)

    def test_minimum_mixture_probability(self):
        # c = 0 gives q' = 1/(2N) = 3/m exactly: three slots, ratio 1
        for n in (1, 2, 7, 64):
            for g in (1, 5, 4096):
                assert _slots(0, g, n) == 3
                assert _theta(0, g, n) == 1

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_range_for_mixture_probs(self, c, g, n):
        if c > g:
            return
        assert F(2, 3) <= _theta(c, g, n) <= 1

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_slot_counts_match_fraction_floor(self, c, g, n):
        if c > g:
            return
        assert _slots(c, g, n) == _mixed_slots(c, g, n)

    @pytest.mark.parametrize("n", [1, 2, 1000, 1 << 21, (1 << 40) - 1])
    def test_slot_counts_exact_at_the_grain_bound(self, n):
        g = max_grains(n)
        assert 3 * g * (n + 1) < 1 << 63 <= 3 * (g + 1) * (n + 1)
        for c in (0, 1, g // 3, g - 1, g):
            assert _slots(c, g, n) == _mixed_slots(c, g, n)


def _fraction_tail(pdfs: np.ndarray, n: int, g: int) -> F:
    """The Fraction sum that _tail_estimate's fixed-point bracket replaced."""
    acc = F(0)
    vals, cnts = np.unique(pdfs, return_counts=True)
    slots = _slot_counts(vals, n, g)
    for c, cnt, sl in zip(vals.tolist(), cnts.tolist(), slots.tolist()):
        denom = 3 * (n * int(c) + g)
        acc += cnt * F(denom - int(sl) * g, denom)
    est = acc / pdfs.shape[0]
    est = min(max(est, F(0)), F(1))
    scaled = est * 6 * n
    k = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return F(k, 6 * n)


@functools.cache
def _tail_ties() -> list[tuple[int, int, list[int]]]:
    """(N, G, pdfs) whose exact mean share times 6N lies halfway between two
    integers, so rounding sits on its tie: one pdf value repeated, or two
    values once each."""
    ties = []
    for n in range(1, 5):
        for g in range(1, 25):
            for c1 in range(g + 1):
                for c2 in range(c1, g + 1):
                    pdfs = [c1] if c1 == c2 else [c1, c2]
                    share = sum(
                        F(3 * (n * c + g) % g, 3 * (n * c + g)) for c in pdfs
                    ) / len(pdfs)
                    if (share * 6 * n).denominator == 2:
                        ties.append((n, g, pdfs))
    return ties


class TestTailEstimate:
    def test_ties_exist(self):
        assert len(_tail_ties()) > 20

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_sum(self, data):
        """The fixed-point bracket, with its Fraction fallback, rounds every
        sample of pdfs exactly as the Fraction sum does: random pdfs at any
        G up to max_grains(N), and ties repeated any number of times."""
        if data.draw(st.booleans()):
            n, g, pdfs = data.draw(st.sampled_from(_tail_ties()))
            pdfs = pdfs * data.draw(st.integers(1, 50))
        else:
            n = data.draw(st.integers(1, 5000))
            g = data.draw(st.integers(1, max_grains(n)))
            pdfs = data.draw(st.lists(st.integers(0, g), min_size=1, max_size=60))
            # a few values, many times each
            pdfs = pdfs * data.draw(st.integers(1, 30))
        pdfs = np.asarray(pdfs, dtype=np.int64)
        assert _tail_estimate(pdfs, n, g) == _fraction_tail(pdfs, n, g)

    def test_ties_take_the_fallback(self, monkeypatch):
        # a tie whose shares are not dyadic cannot be settled by the
        # bracket: the Fraction sum decides, and rounds it up
        calls = []
        fraction = F

        def counted(*args):
            calls.append(args)
            return fraction(*args)

        monkeypatch.setattr(testers, "Fraction", counted)
        for n, g, pdfs in _tail_ties():
            pdfs = np.asarray(pdfs, dtype=np.int64)
            calls.clear()
            got = _tail_estimate(pdfs, n, g)
            assert got == _fraction_tail(pdfs, n, g)
            if len(calls) > 1:
                return
        pytest.fail("no tie reached the Fraction fallback")

    def test_uniform_tail_zero(self):
        # s_tail = 64 >= N takes the exact path
        q = uniform(8)
        assert identity_test(q, DSampler(q), 8, F(1, 2), rng_from(4, "t")).tail == 0

    def test_exact_mode_matches_summation(self):
        q = GrainDistribution(4, 16, (7, 5, 3, 1))
        res = identity_test(q, DSampler(q), 4, F(1, 2), rng_from(4, "t2"))
        assert res.tail == _exact_tail(q) > 0

    def test_sampled_mode_concentrates(self):
        # N = 256 at eps = 1/2: s_tail = 64 < N takes the Monte Carlo path
        n, eps = 256, F(1, 2)
        assert tail_sample_budget(eps) < n
        q = random_distribution(n, rng_from(11, "q"))
        exact = _exact_tail(q)
        errs = []
        for i in range(20):
            res = identity_test(q, DSampler(q), n, eps, rng_from(i, "mc"))
            assert res.tail.denominator <= 6 * n  # rounded to the 1/m grid
            errs.append(abs(res.tail - exact))
        # Hoeffding at s=64 with 1 - theta in [0, 1/3]: err ~ 1/48; allow 3x
        assert sorted(errs)[len(errs) // 2] < F(1, 16)
        assert len(set(errs)) > 1  # really sampled, not the exact sweep

    def test_overflow_plus_slots_is_m_exhaustive(self):
        for q in enum_dists(3, 9):
            slots = _slot_counts(np.asarray(q.counts, dtype=np.int64), q.n, q.grains)
            overflow = exact_tail_slots(np.asarray(q.counts, dtype=np.int64), q.n, q.grains)
            assert int(slots.sum()) + overflow == 6 * q.n
            assert overflow >= 0


def _pairs(xs, pdfs, n, g, tail_slots, rng):
    """The per-sample call: the table holds each sample's pdf, in order. The
    keys it writes over the samples, as (elements, slots)."""
    pdfs = np.asarray(pdfs, dtype=np.int64)
    keys = _granular_pairs(
        np.array(xs, dtype=np.int64), pdfs, np.arange(pdfs.shape[0]), n, g, tail_slots, rng
    )
    return np.divmod(keys, 6 * n + 2)


def _per_sample_pairs(xs, pdfs, n, g, tail_slots, rng):
    """The per-sample granular filter the table form replaced: slot counts
    and keep bounds computed once per sample."""
    c = np.asarray(pdfs, dtype=np.int64)
    slots = _slot_counts(c, n, g)
    kept = rng.integers(0, 3 * (n * c + g)) < slots * g
    elements = np.where(kept, xs, n + 1)
    bound = np.where(kept, slots, max(1, tail_slots))
    return elements, 1 + rng.integers(0, bound)


def _state(rng) -> dict:
    """The generator's state, with its arrays as lists so that == compares it."""

    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(rng.bit_generator.state)


class TestPairMap:
    # the draws run over blocks of `block` samples: consecutive array-bounded
    # draws must give the stream of the one call over all samples
    @settings(max_examples=160, deadline=None)
    @given(
        st.integers(1, 256),
        st.data(),
        st.integers(0, 3),
        st.integers(0, 2**32),
        st.sampled_from([1, 7, 64, testers.CHECK_BLOCK]),
    )
    def test_table_and_index_equal_the_per_sample_call(self, n, data, tail_case, seed, block):
        g = data.draw(st.sampled_from([1, n, 1000, max_grains(n)]), label="grains")
        # a table of one pdf, 2 to 8 times over, takes the scalar-bound draws;
        # the pdf (g - 1) // 3n drops about a quarter of the samples when g >> n
        shapes = ["mixed", "one pdf", "one pdf, tail at its slots"]
        shape = data.draw(st.sampled_from(shapes), label="shape")
        if shape == "mixed":
            table = data.draw(st.lists(st.integers(0, g), min_size=1, max_size=8), label="table")
        else:
            pdf = data.draw(st.integers(0, g) | st.just((g - 1) // (3 * n)), label="pdf")
            table = [pdf] * data.draw(st.integers(2, 8), label="entries")
        table = np.asarray(table, dtype=np.int64)
        count = data.draw(st.integers(0, 300), label="samples")
        rng = rng_from(seed, "table")
        index = rng.integers(0, table.shape[0], size=count)
        xs = rng.integers(1, n + 1, size=count, dtype=np.int64)
        tail_slots = [0, 1, 6 * n, int(rng.integers(0, 6 * n + 1))][tail_case]
        if shape == "one pdf, tail at its slots":
            tail_slots = _slots(pdf, g, n)
        samples = xs.copy()
        rngs = [rng_from(seed, "pairs") for _ in range(3)]
        with mock.patch.object(testers, "CHECK_BLOCK", block):
            got = _granular_pairs(samples, table, index, n, g, tail_slots, rngs[0])
        assert got is samples  # the keys are written over the samples
        assert got.dtype == np.int64
        per_sample = _pairs(xs, table[index], n, g, tail_slots, rngs[1])
        ref = _per_sample_pairs(xs, table[index], n, g, tail_slots, rngs[2])
        for elements, slots in (per_sample, ref):
            assert elements.dtype == slots.dtype == np.int64
            assert (elements * (6 * n + 2) + slots).tolist() == got.tolist()
        for a, r in zip(per_sample, ref):
            assert a.tolist() == r.tolist()
        # a draw too many or too few leaves the generator elsewhere
        assert _state(rngs[0]) == _state(rngs[1]) == _state(rngs[2])

    def test_single_slot(self):
        # pdf 0 on [2] with G = 4: q' = 1/4, three slots, always kept
        elements, slots = _pairs([1] * 200, [0] * 200, 2, 4, 0, rng_from(1, "p"))
        assert (elements == 1).all()
        assert ((1 <= slots) & (slots <= 3)).all()

    def test_overflow_element_with_zero_estimate(self):
        # c/G = 9/10 on [2] keeps with probability 20/21; the rest overflow
        # to element 3, whose slot is 1 when the tail estimate is zero
        elements, slots = _pairs([1] * 2000, [9] * 2000, 2, 10, 0, rng_from(2, "p"))
        overflow = elements == 3
        assert overflow.any() and (elements[~overflow] == 1).all()
        assert (slots[overflow] == 1).all()

    def test_three_slots_uniform_chi2(self):
        from scipy.stats import chisquare

        assert _slots(0, 4, 2) == 3
        _, slots = _pairs([1] * 30_000, [0] * 30_000, 2, 4, 0, rng_from(3, "p3"))
        _, pval = chisquare(np.bincount(slots)[1:])
        assert pval > 1e-3

    def test_exact_pair_distribution_is_uniform_when_equal(self):
        # evaluate the pipeline's pair probabilities exactly for D = Q
        for q in enum_dists(4, 8):
            n, m = q.n, 24
            total = []
            tail = F(1)
            for x in range(1, n + 1):
                q_prime = q.pdf(x) / 2 + F(1, 2 * n)
                m_x = (q_prime * m).numerator // (q_prime * m).denominator
                theta = F(m_x) / (m * q_prime)
                tail -= theta * q_prime
                for _ in range(m_x):
                    total.append(q_prime * theta / m_x)  # D'(x) * theta / m_x
            m_tail = int(tail * m)
            for _ in range(m_tail):
                total.append(tail / m_tail)
            assert len(total) == m
            assert all(p == F(1, m) for p in total)


class TestScalarBoundStream:
    # the numpy property _granular_pairs' one-pdf path relies on: an
    # array-bound draw over equal bounds gives the scalar-bound stream, and
    # consecutive scalar-bound calls continue one stream; the bounds reach
    # 3*max_grains(N)*(N + 1), the largest denominator of the granular filter
    BOUNDS = [1, 2, 7, 2**31 + 5, 2**32, 2**32 + 1] + [
        3 * max_grains(n) * (n + 1) for n in (1, 1024, MAX_DOMAIN)
    ]

    @pytest.mark.parametrize("k", [1, 1001])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_equal_bounds_give_the_scalar_stream(self, bound, k):
        array, scalar = rng_from(1, "bound"), rng_from(1, "bound")
        got = array.integers(0, np.full(k, bound, dtype=np.int64))
        assert got.tolist() == scalar.integers(0, bound, size=k).tolist()
        assert _state(array) == _state(scalar)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_split_scalar_calls_continue_one_stream(self, bound):
        whole, split = rng_from(2, "bound"), rng_from(2, "bound")
        cuts = [0, 1, 8, 71, 1001]
        got = [split.integers(0, bound, size=hi - lo) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(got).tolist() == whole.integers(0, bound, size=1001).tolist()
        assert _state(whole) == _state(split)


def _unique_collisions(samples) -> int:
    """The collision count uniformity_test's run lengths replaced: np.unique's
    counts of the distinct samples."""
    _, cnt = np.unique(np.asarray(samples), return_counts=True)
    cnt = cnt[cnt > 1]
    return int((cnt * (cnt - 1) // 2).sum())


class TestUniformityTest:
    # keys below 2^31 are sorted as 32-bit, the rest as 64-bit; runs are cut
    # over blocks of `block` samples
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 5), min_size=2, max_size=400),  # heavy repeats
            st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=60),
            st.lists(st.integers(2**31 - 3, 2**31 + 3), min_size=2, max_size=60),
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=60),
            # keys equal mod 2^32 or 2^31, so a narrowed copy would merge them
            st.lists(
                st.sampled_from([0, 1, 2**31 - 1, 2**31, 2**32, 2**32 + 1, 2**40, 2**40 + 1]),
                min_size=2,
                max_size=60,
            ),
            st.lists(st.sampled_from([-1, 0, 2**31, 2**63 - 1]), min_size=2, max_size=60),
            st.lists(st.integers(0, 3), min_size=2, max_size=2),  # exactly two samples
        ),
        st.sampled_from([1, 2, 7, testers.CHECK_BLOCK]),
    )
    def test_collisions_equal_the_unique_count(self, samples, block):
        arr = np.asarray(samples, dtype=np.int64)
        sent = arr.copy()
        with mock.patch.object(testers, "CHECK_BLOCK", block):
            res = uniformity_test(arr, 16, F(1, 2))
        assert res.collisions == _unique_collisions(sent)
        assert res.statistic == F(res.collisions, len(samples) * (len(samples) - 1) // 2)
        assert arr.tolist() == sent.tolist()  # the samples are not sorted in place

    def test_statistic_example(self):
        res = uniformity_test(np.asarray([1, 2, 1, 3]), m=10, epsilon=F(1, 2))
        assert res.collisions == 1
        assert res.statistic == F(1, 6)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            uniformity_test(np.asarray([1]), 4, F(1, 2))

    def test_uniform_accept_rate(self):
        m, eps, trials, s = 1024, F(1, 4), 200, 3072  # s = 6 * sqrt(m) / eps^2
        accepts = 0
        for i in range(trials):
            xs = rng_from(i, "u").integers(0, m, size=s)
            accepts += uniformity_test(xs, m, eps).accept
        assert accepts >= 0.9 * trials

    def test_far_reject_rate(self):
        # half the domain at double mass: TV distance 1/2 from uniform
        m, eps, trials, s = 1024, F(1, 4), 200, 3072  # s = 6 * sqrt(m) / eps^2
        rejects = 0
        weights = np.zeros(m)
        weights[: m // 2] = 2 / m  # half the domain at double mass, rest empty
        for i in range(trials):
            xs = rng_from(i, "f").choice(m, size=s, p=weights)
            rejects += not uniformity_test(xs, m, eps).accept
        assert rejects >= 0.9 * trials


class TestIdentityTest:
    def test_budgets_exact_forms(self):
        # ceil(c_id * sqrt(6(N+1)) * 9 / eps^2) and ceil(c_tail / eps^4)
        from vdo.constants import get_constants

        cons = get_constants()
        s = identity_d_budget(1000, F(1, 4))
        target = cons.c_id * 9 * 16 * (6 * 1001) ** 0.5
        assert abs(s - target) <= 1
        assert tail_sample_budget(F(1, 4)) == cons.c_tail * 256

    def test_epsilon_floor_enforced(self):
        with pytest.raises(ValueError):
            identity_test(
                uniform(1024),
                DSampler(uniform(1024)),
                1024,
                F(1, 100),
                rng_from(1, "e"),
            )

    def test_equal_accepts_small(self):
        n = 64
        q = random_distribution(n, rng_from(41, "q"))
        accepts = 0
        for i in range(30):
            res = identity_test(
                q, DSampler(q), n, F(1, 2), rng_from(i, "eq")
            )
            accepts += res.accept
        assert accepts >= 27

    def test_far_rejects_small(self):
        n = 64
        q = uniform(n)
        d = point_mass(n, 1)
        rejects = 0
        for i in range(30):
            res = identity_test(
                q, DSampler(d), n, F(1, 2), rng_from(i, "far")
            )
            rejects += not res.accept
        assert rejects >= 27

    def test_point_mass_degenerate_domain(self):
        # N=2, D = Q = point mass: fixed seeds accept
        q = point_mass(2, 1, 4)
        accepts = 0
        for i in range(30):
            res = identity_test(
                q, DSampler(q), 2, F(1, 2), rng_from(i, "pm")
            )
            accepts += res.accept
        assert accepts >= 27

    def test_tail_budget_dominates_tiny_domain(self):
        # at N=2 the eps^-4 reference-sample term exceeds the sqrt(N) term
        eps = F(13, 100)
        assert tail_sample_budget(eps) > identity_d_budget(2, eps)

    def test_view_theta_matches_ratio(self):
        # the filter's integer keep test u < slots*G over u < 3(Nc + G)
        # realizes theta = floor(m q')/(m q') exactly
        for c in (0, 3, 16):
            q_prime = F(c, 32) + F(1, 8)
            keep = F(_slots(c, 16, 4) * 16, 3 * (4 * c + 16))
            assert keep == F(_mixed_slots(c, 16, 4)) / (24 * q_prime)

    def test_denominator_beyond_int64_bound_raises(self):
        # 3*G*(N+1) at N = 2^21, G = 2^42 overflows int64
        n = 1 << 21
        q = point_mass(n, 1, 1 << 42)
        assert q.grains == 1 << 42 > max_grains(n)
        with pytest.raises(ValueError, match="exceeds"):
            identity_test(q, DSampler(q), n, F(1, 2), rng_from(1, "big"))

    def test_counters_within_budgets(self):
        n = 32
        q = random_distribution(n, rng_from(43, "q"))
        res = identity_test(q, DSampler(q), n, F(1, 2), rng_from(9, "b"))
        s_d = identity_d_budget(n, F(1, 2))
        s_tail = tail_sample_budget(F(1, 2))
        assert res.counters.d_samples == s_d
        assert res.counters.q_samples <= s_tail
        # element queries: the exact-tail sweep (N) plus one per D-sample
        assert res.counters.q_element_queries <= s_d + max(n, s_tail)
