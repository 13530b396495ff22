from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdo.dist import (
    GrainDistribution,
    bucket_grid,
    default_grains,
    exact_histogram,
    max_grains,
    point_mass,
    random_distribution,
    tv_distance,
    uniform,
)
from vdo.rngutil import rng_from

from conftest import bucket_oracle, tv_oracle


def small_dists(max_n=5, max_g=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        g = draw(st.integers(1, max_g))
        cuts = sorted(draw(st.lists(st.integers(0, g), min_size=n - 1, max_size=n - 1)))
        bounds = [0] + cuts + [g]
        return GrainDistribution(n, g, [bounds[i + 1] - bounds[i] for i in range(n)])

    return build()


class TestConstruction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GrainDistribution(2, 4, (1, 2))  # does not sum to G
        with pytest.raises(ValueError):
            GrainDistribution(2, 4, (5, -1))
        with pytest.raises(ValueError):
            GrainDistribution(0, 4, ())
        with pytest.raises(ValueError):  # G >= 2^63 would wrap the int64 cumulative counts
            GrainDistribution(2, 2**63, (2**62, 2**62))

    def test_default_grains_at_least_n_squared(self):
        for n in (2, 3, 100, 1000, 1024):
            assert default_grains(n) >= n * n
        assert default_grains(4) == 16

    @pytest.mark.parametrize("n", [1_398_100, 1_398_101])
    def test_default_grains_within_int64_bound(self, n):
        # uncapped, the default 2^41 exceeds max_grains from N = 1,398,101 on,
        # and uniform's padding to a multiple of N exceeds it at 1,398,100
        assert default_grains(n) <= max_grains(n)
        assert uniform(n).grains <= max_grains(n)

    def test_serialization_roundtrip(self, small_dist):
        blob = small_dist.to_bytes()
        assert len(blob) == 16 + 8 * 4
        assert GrainDistribution.from_bytes(blob) == small_dist
        assert int.from_bytes(blob[:8], "little") == 4  # N first, little-endian


class TestTV:
    def test_identity(self, small_dist):
        assert tv_distance(small_dist, small_dist) == 0

    def test_disjoint(self):
        assert tv_distance(point_mass(2, 1, 4), point_mass(2, 2, 4)) == 1

    def test_direct_value(self):
        p = GrainDistribution(2, 2, (1, 1))
        q = GrainDistribution(2, 4, (1, 3))
        assert tv_distance(p, q) == F(1, 4)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(uniform(2, 4), uniform(3, 6))

    @given(small_dists(), small_dists(), small_dists())
    @settings(max_examples=150, deadline=None)
    def test_metric_axioms(self, a, b, c):
        if not (a.n == b.n == c.n):
            return
        dab = tv_distance(a, b)
        assert dab == tv_distance(b, a)
        assert (dab == 0) == all(a.pdf(x) == b.pdf(x) for x in range(1, a.n + 1))
        assert dab <= tv_distance(a, c) + tv_distance(c, b)

    @given(small_dists(), small_dists())
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_definition(self, a, b):
        if a.n != b.n:
            return
        assert tv_distance(a, b) == tv_oracle(a, b)


class TestCdfQuantile:
    def test_cdf_examples(self, small_dist):
        assert small_dist.cdf_grains(2) == 8
        assert small_dist.cdf_grains(4) == 16
        assert small_dist.cdf_grains(3) == 16
        with pytest.raises(ValueError):
            small_dist.cdf_grains(5)

    def test_quantile_examples(self, small_dist):
        # grain 16 answers the last positive-mass element; grain 4 hits cdf exactly
        gs = np.array([5, 16, 4], dtype=np.int64)
        assert small_dist.quantile_grain_batch(gs).tolist() == [2, 3, 1]

    @given(small_dists())
    @settings(max_examples=100, deadline=None)
    def test_quantile_cdf_consistency(self, d):
        # for every positive-mass x, the first and last grain of its run map back to x
        for x in range(1, d.n + 1):
            if d.pdf_grains(x) == 0:
                continue
            lo = d.cdf_grains(x) - d.pdf_grains(x)
            gs = np.array([lo + 1, lo + d.pdf_grains(x)], dtype=np.int64)
            assert d.quantile_grain_batch(gs).tolist() == [x, x]

    @given(small_dists())
    @settings(max_examples=50, deadline=None)
    def test_quantile_never_returns_zero_mass(self, d):
        xs = d.quantile_grain_batch(np.arange(1, d.grains + 1, dtype=np.int64))
        assert all(d.pdf_grains(int(x)) > 0 for x in xs)

    @given(small_dists())
    @settings(max_examples=50, deadline=None)
    def test_batch_lookups_match_counts(self, d):
        # grain g belongs to the x whose run of grains (cdf - pdf, cdf] holds it
        owner = [x + 1 for x, c in enumerate(d.counts) for _ in range(c)]
        gs = np.arange(1, d.grains + 1, dtype=np.int64)
        assert d.quantile_grain_batch(gs).tolist() == owner
        xs = np.arange(d.n, 0, -1, dtype=np.int64)
        assert d.pdf_grains_batch(xs).tolist() == list(reversed(d.counts))


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def guide_dists(draw):
    """Distributions with zero-mass runs at either end and inside, point
    masses, N = 1 and G = 1, at denominators from 1 to 2^63 - 1."""
    n = draw(st.integers(1, 24))
    g = draw(st.one_of(st.integers(1, 64), st.integers(65, 1 << 24), st.just(INT64_MAX)))
    cut = st.one_of(st.just(0), st.just(g), st.integers(0, g))
    cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1)))
    bounds = [0] + cuts + [g]
    return GrainDistribution(n, g, [bounds[i + 1] - bounds[i] for i in range(n)])


def _edge_keys(d):
    """Every key within 1 of a guide-table bucket edge (buckets of 2^s
    grains, s = max(0, bitlen(G - 1) - bitlen(8N - 1))) or of an element
    boundary, and keys outside [1, G] down to int64 min and up to max."""
    s = max(0, (d.grains - 1).bit_length() - (8 * d.n - 1).bit_length())
    buckets = ((d.grains - 1) >> s) + 1
    edges = [b << s for b in range(buckets + 1)] + [int(c) for c in np.cumsum(d.counts)]
    keys = {e + t for e in edges for t in (-1, 0, 1, 2)}
    keys |= {0, -1, d.grains + 1, INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX}
    return np.array(sorted(k for k in keys if INT64_MIN <= k <= INT64_MAX), dtype=np.int64)


class TestGuideTable:
    """quantile_grain_batch answers exactly what searchsorted over the
    cumulative counts answers, for every int64 key."""

    @staticmethod
    def _reference(d, gs):
        return np.searchsorted(np.cumsum(d.counts), gs, "left") + 1

    @given(
        guide_dists(),
        st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=20),
        st.lists(st.integers(1, 1 << 24), max_size=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_searchsorted(self, d, wild, inside):
        in_range = [1 + (x - 1) % d.grains for x in inside]
        gs = np.concatenate([_edge_keys(d), np.array(wild + in_range, dtype=np.int64)])
        got = d.quantile_grain_batch(gs)
        assert got.dtype == np.int64
        assert got.tolist() == self._reference(d, gs).tolist()
        assert len(d._guide[1]) < 16 * d.n + 1
        assert d._guide[2].shape[1] <= d.n + 1  # at most N one-boundary records

    @pytest.mark.parametrize(
        "counts",
        [(INT64_MAX,), (0, INT64_MAX), (INT64_MAX, 0), (1, INT64_MAX - 1),
         (0, INT64_MAX, 0), (2**62, 0, 2**62 - 1), (5, INT64_MAX - 10, 5)],
    )
    def test_largest_denominator_keeps_the_table_small(self, counts):
        d = GrainDistribution(len(counts), INT64_MAX, counts)
        gs = _edge_keys(d)
        assert d.quantile_grain_batch(gs).tolist() == self._reference(d, gs).tolist()
        assert len(d._guide[1]) < 16 * d.n + 1

    @pytest.mark.parametrize(
        "counts,searched",
        [
            # G = 1000, buckets of 32 grains: bucket [33, 64] meets one
            # boundary at 40, followed by two zero-mass elements, and the
            # last bucket [993, 1024] meets only G, past which keys answer 5
            ((40, 0, 0, 960), False),
            # bucket [33, 64] meets two boundaries, at 40 and 50
            ((40, 10, 0, 950), True),
        ],
    )
    def test_one_boundary_buckets_need_no_search(self, counts, searched, monkeypatch):
        d = GrainDistribution(4, 1000, counts)
        assert max(0, (d.grains - 1).bit_length() - (8 * d.n - 1).bit_length()) == 5
        near = [c + t for c in np.cumsum(counts).tolist() for t in (-1, 0, 1)]
        gs = np.array(near + list(range(1, 1025)), dtype=np.int64)
        expected = self._reference(d, gs)
        d.quantile_grain_batch(gs[:1])  # builds the table
        calls = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        assert d.quantile_grain_batch(gs).tolist() == expected.tolist()
        # only keys in the two-boundary bucket are searched
        searched_keys = sorted(np.concatenate(calls).tolist()) if calls else []
        in_bucket = sorted(g for g in gs.tolist() if 33 <= g <= 64)
        assert searched_keys == (in_bucket if searched else [])

    def test_uniform_needs_no_search(self, monkeypatch):
        # aligned buckets answer every key in range from the table
        d = uniform(1024, 1 << 20)
        gs = np.arange(1, d.grains - 2048, 7, dtype=np.int64)
        expected = self._reference(d, gs)
        d.quantile_grain_batch(gs[:1])  # builds the table
        monkeypatch.setattr(np, "searchsorted", None)
        assert d.quantile_grain_batch(gs).tolist() == expected.tolist()


class TestSampling:
    @pytest.mark.parametrize("k", [(1 << 16) - 1, (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_blocked_lookup_matches_one_lookup(self, k):
        # sample_batch looks its keys up in blocks of 2^16: the same draws as
        # one lookup of every key from the same stream
        d = random_distribution(256, rng_from(1, "blocks"), grains=81920)
        keys = rng_from(2, "draws").integers(1, d.grains + 1, size=k, dtype=np.int64)
        got = d.sample_batch(k, rng_from(2, "draws"))
        assert got.dtype == np.int64
        assert np.array_equal(got, d.quantile_grain_batch(keys))

    def test_point_mass_always_atom(self, rng):
        d = point_mass(8, 5)
        assert (d.sample_batch(50, rng) == 5).all()

    def test_fixed_seed_reproducible(self):
        d = random_distribution(32, rng_from(1, "d"))
        a = d.sample_batch(100, rng_from(9, "s")).tolist()
        b = d.sample_batch(100, rng_from(9, "s")).tolist()
        assert a == b

    def test_uniform_frequencies_within_5_sigma(self):
        n, draws = 16, 100_000
        d = uniform(n)
        xs = d.sample_batch(draws, rng_from(3, "u"))
        counts = np.bincount(xs - 1, minlength=n)
        mean = draws / n
        sigma = (draws * (1 / n) * (1 - 1 / n)) ** 0.5
        assert (np.abs(counts - mean) <= 5 * sigma).all()

    def test_chi_square_marginal(self):
        from scipy.stats import chisquare

        n, draws = 64, 100_000
        d = random_distribution(n, rng_from(8, "chi"))
        xs = d.sample_batch(draws, rng_from(8, "draws"))
        counts = np.bincount(xs - 1, minlength=n)
        expected = np.array([c / d.grains * draws for c in d.counts])
        keep = expected > 0
        _, pval = chisquare(counts[keep], expected[keep] * counts[keep].sum() / expected[keep].sum())
        assert pval > 1e-3


def bucket_of(prob, tau, n):
    """Bucket id of one probability on the grid of (tau, n)."""
    prob = F(prob)
    return int(bucket_grid(tau, n).buckets([prob.numerator], prob.denominator)[0])


class TestBuckets:
    def test_below_floor_goes_to_zero(self):
        assert bucket_of(F(4, 1000), F(1, 2), 100) == 0

    def test_interval_example(self):
        # 0.005 * 1.5^3 = 0.016875 <= 0.02 < 0.0253125
        assert bucket_of(F(2, 100), F(1, 2), 100) == 3

    def test_prob_one_is_highest_bucket(self):
        for tau, n in ((F(1, 2), 100), (F(1, 5), 4), (F(1, 10), 64)):
            assert bucket_of(F(1), tau, n) == bucket_grid(tau, n).size - 1

    def test_boundary_tau_over_n(self):
        # exactly tau/N lands in the first interval, which is bucket 0
        assert bucket_of(F(1, 200), F(1, 2), 100) == 0

    def test_grid_built_once(self):
        assert bucket_grid(F(1, 25), 1024) is bucket_grid(F(1, 25), 1024)

    @pytest.mark.parametrize("values,grains", [([-1], 16), ([17], 16), ([0, 5, 17], 16), ([0], 0)])
    def test_values_outside_range_rejected(self, values, grains):
        with pytest.raises(ValueError):
            bucket_grid(F(1, 2), 4).buckets(np.asarray(values, dtype=np.int64), grains)

    @given(
        st.integers(1, 40),
        st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
        st.integers(2, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_scan(self, num, tau, n):
        prob = F(num, 40)
        if prob > 1:
            return
        assert bucket_of(prob, tau, n) == bucket_oracle(prob, tau, n)

    @given(small_dists(max_n=8, max_g=1 << 40), st.fractions(min_value=F(1, 10), max_value=F(4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, d, tau):
        # every element maps to exactly one bucket, ids stay in range, and
        # the integer thresholds agree with the literal scan
        grid = bucket_grid(tau, d.n)
        buckets = grid.buckets(np.asarray(d.counts, dtype=np.int64), d.grains)
        assert buckets.shape[0] == d.n
        assert (buckets >= 0).all()
        assert (buckets < grid.size).all()
        assert buckets.tolist() == [bucket_oracle(d.pdf(x), tau, d.n) for x in range(1, d.n + 1)]


class TestExactHistogram:
    def test_uniform_single_bucket(self):
        h = exact_histogram(uniform(64), F(1, 10))
        nonzero = [m for m in h.masses if m > 0]
        assert nonzero == [F(1)]

    def test_point_mass_top_bucket(self):
        h = exact_histogram(point_mass(64, 7), F(1, 10))
        assert h.masses[-1] == 1

    def test_small_case_matches_per_element_assignment(self):
        d = GrainDistribution(4, 16, (4, 4, 8, 0))
        tau = F(1, 2)
        h = exact_histogram(d, tau)
        expected = [F(0)] * bucket_grid(tau, 4).size
        for x in range(1, 5):
            expected[bucket_oracle(d.pdf(x), tau, 4)] += d.pdf(x)
        assert list(h.masses) == expected

    @given(small_dists(), st.fractions(min_value=F(1, 10), max_value=F(4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_masses_sum_to_one(self, d, tau):
        assert sum(exact_histogram(d, tau).masses) == 1
