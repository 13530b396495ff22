from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdo.dist import (
    BucketHistogram,
    GrainDistribution,
    bucket_grid,
    exact_histogram,
    point_mass,
    random_distribution,
    uniform,
)
from vdo.properties import (
    argument_parameters,
    estimate_histogram,
    histogram_sample_budget,
    make_fixed_target,
    make_support_size,
    make_uniformity,
    run_label_invariant_argument,
    support_size_decide,
    support_size_distance_estimate,
    support_size_exact_distance,
    support_size_find,
    uniformity_decide,
    uniformity_distance_estimate,
    uniformity_find,
)
from vdo.bruteforce import band_checks
from vdo.exactmath import geometric_mean
from vdo.protocol import HonestProver
from vdo.rngutil import rng_from
from vdo.testers import DSampler

from conftest import (
    bucket_oracle,
    dist_to_uniform_oracle,
    enum_dists,
    support_distance_oracle,
    tv_oracle,
)


def check_bands(n, grains, tau, decide, distance):
    """decide(hist) accepts every (n, grains) histogram class with a
    tau-close member and rejects only classes whose members are all beyond
    2*tau, with distances from the reference oracle."""
    assert band_checks(n, grains, tau, [(decide, distance)])[0]["violations"] == []


class TestEstimateHistogram:
    def test_uniform_pairs_single_bucket(self):
        q = uniform(64)
        pdfs = np.full(500, q.pdf_grains(1), dtype=np.int64)
        h = estimate_histogram(pdfs, q.grains, bucket_grid(F(1, 5), 64))
        assert [m for m in h.masses if m > 0] == [F(1)]

    def test_zero_samples_error(self):
        with pytest.raises(ValueError):
            estimate_histogram(np.empty(0, dtype=np.int64), 16, bucket_grid(F(1, 5), 4))

    def test_masses_are_sample_fractions(self):
        pdfs = np.asarray([4, 4, 8, 0], dtype=np.int64)
        h = estimate_histogram(pdfs, 16, bucket_grid(F(1, 2), 4))
        assert sum(h.masses) == 1
        assert all(m.denominator <= 4 for m in h.masses)

    def test_accuracy_against_exact_small(self):
        # sampled histogram approaches the exact one
        n, tau = 64, F(1, 5)
        q = random_distribution(n, rng_from(3, "h"))
        exact = exact_histogram(q, tau)
        xs = q.sample_batch(40_000, rng_from(3, "draws"))
        pdfs = np.asarray(q.counts, dtype=np.int64)[xs - 1]
        est = estimate_histogram(pdfs, q.grains, bucket_grid(tau, n))
        for p, t in zip(est.masses, exact.masses):
            assert abs(p - t) < F(1, 50)

    def test_budget_formula(self):
        from vdo.constants import get_constants

        c = get_constants().c_hist
        s = histogram_sample_budget(256, F(1, 5))
        assert s == -(-c * 512 * 625 // 1)  # log2(256)=8 exactly


class TestUniformityProperty:
    def test_exact_uniform_accepts(self):
        n = 64
        h = exact_histogram(uniform(n), F(1, 5))
        assert uniformity_decide(h)

    def test_point_mass_rejects_small_tau(self):
        n = 64
        for tau in (F(1, 5), F(1, 4), F(3, 10)):
            h = exact_histogram(point_mass(n, 5), tau)
            assert not uniformity_decide(h)

    def test_exhaustive_bands_n4(self):
        tau = F(1, 5)
        check_bands(4, 12, tau, uniformity_decide, dist_to_uniform_oracle)

    # with each representative taken from the bucket below, both cases
    # accepted a class whose members all lie beyond 2*tau
    @pytest.mark.parametrize("n,grains,tau", [(2, 7, F(1, 10)), (3, 13, F(1, 20))])
    def test_exhaustive_bands_small(self, n, grains, tau):
        check_bands(n, grains, tau, uniformity_decide, dist_to_uniform_oracle)

    def test_find_returns_uniform(self):
        d = GrainDistribution(4, 16, (5, 4, 4, 3))
        out = uniformity_find(d)
        assert out == uniform(4, 16)
        # a far distribution maps to the same one member
        far = point_mass(4, 1, 16)
        assert uniformity_find(far) == uniform(4, 16)

    def test_label_invariance_of_decide(self, rng):
        tau = F(1, 5)
        q = random_distribution(16, rng_from(9, "q"), grains=256)
        perm = rng.permutation(16)
        q2 = GrainDistribution(16, 256, tuple(q.counts[i] for i in perm))
        h1, h2 = exact_histogram(q, tau), exact_histogram(q2, tau)
        assert h1.masses == h2.masses
        assert uniformity_decide(h1) == uniformity_decide(h2)


class TestSupportSizeProperty:
    def test_find_example(self):
        d = uniform(4, 16)
        out = support_size_find(d, 2)
        assert out.counts == (12, 4, 0, 0)
        assert tv_oracle(d, out) == F(8, 16)

    def test_support_exactly_s_accepts(self):
        d = GrainDistribution(4, 12, (6, 6, 0, 0))
        out = support_size_find(d, 2)
        assert out == d
        h = exact_histogram(d, F(1, 5))
        assert support_size_decide(h, 2)

    def test_exact_distance_matches_subset_oracle(self):
        for q in enum_dists(4, 12):
            for s in (1, 2, 3):
                assert support_size_exact_distance(q, s) == support_distance_oracle(q, s)

    def test_find_postcondition_exact(self):
        for q in enum_dists(3, 9):
            for s in (1, 2):
                out = support_size_find(q, s)
                assert sum(1 for c in out.counts if c > 0) <= s
                assert tv_oracle(q, out) == support_size_exact_distance(q, s)

    def test_trivial_when_s_covers_domain(self):
        h = exact_histogram(point_mass(4, 1, 16), F(1, 5))
        assert support_size_decide(h, 4)

    def test_decide_bands_n4(self):
        tau, s = F(1, 5), 2
        check_bands(
            4, 12, tau,
            lambda h: support_size_decide(h, s),
            lambda q: support_distance_oracle(q, s),
        )

    # with each slot covering only up to its bucket's lower edge, both
    # cases rejected a class with a tau-close member
    @pytest.mark.parametrize("n,grains,tau,s", [(5, 10, F(1, 5), 4), (5, 10, F(1, 10), 1)])
    def test_decide_bands_n5(self, n, grains, tau, s):
        check_bands(
            n, grains, tau,
            lambda h: support_size_decide(h, s),
            lambda q: support_distance_oracle(q, s),
        )


class TestBucketReadings:
    """The estimates read each bucket's values from its own interval."""

    CASES = [(F(1, 5), 4), (F(1, 10), 5), (F(1, 25), 1024), (F(3, 10), 64)]

    @pytest.mark.parametrize("tau,n", CASES)
    def test_values_lie_in_own_bucket(self, tau, n):
        grid = bucket_grid(tau, n)
        edges = grid.edges
        for j in range(1, grid.size):
            masses = [F(0)] * grid.size
            masses[j] = F(1)
            hist = BucketHistogram(grid, masses)
            # one slot covers min(1, upper_j); the rest is the estimate
            upper = 1 - support_size_distance_estimate(hist, 1)
            assert upper == min(F(1), edges[j + 1])
            # a lone bucket whose representative q_j exceeds 1/N estimates
            # 1 - 1/(N q_j); the top bucket's interval reaches past 1, its
            # representative stops at 1 (at tau = 1/5, N = 4 it would not)
            est = uniformity_distance_estimate(hist)
            if est > 0:
                rep = F(1, n) / (1 - est)
                assert edges[j] <= rep < edges[j + 1], (j, rep)
                assert rep <= 1 and bucket_oracle(rep, tau, n) == j

    @pytest.mark.parametrize("tau,n", CASES)
    def test_grid_stores_bucket_formulas(self, tau, n):
        # edges from fresh powers; per bucket the stored representative and
        # upper endpoint equal the formulas on its own interval
        grid = bucket_grid(tau, n)
        assert list(grid.edges) == [tau * (1 + tau) ** j / n for j in range(grid.size + 1)]
        assert grid.edges[-2] <= 1 < grid.edges[-1]
        assert grid.representatives[0] == 0
        for j in range(grid.size):
            lo, hi = grid.edges[j], min(grid.edges[j + 1], 1)
            assert grid.uppers[j] == hi
            if j:
                assert grid.representatives[j] == geometric_mean(lo, hi)


class TestFixedTarget:
    def test_equal_zero(self):
        t = uniform(8)
        assert make_fixed_target(t)(t) == 0

    def test_disjoint_one(self):
        assert make_fixed_target(point_mass(2, 2, 4))(point_mass(2, 1, 4)) == 1

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_matches_tv(self, seed):
        a = random_distribution(8, rng_from(seed, "a"), grains=64)
        b = random_distribution(8, rng_from(seed, "b"), grains=64)
        assert make_fixed_target(b)(a) == tv_oracle(a, b)


class TestParameters:
    @given(
        st.fractions(min_value=F(1, 100), max_value=F(1, 2)),
        st.fractions(min_value=F(1, 100), max_value=F(1, 2)),
    )
    @settings(max_examples=100, deadline=None)
    def test_soundness_chain_inequality(self, dc, gap):
        # accepting parameters keep the reachable distance below delta_f
        df = dc + gap
        eps, tau = argument_parameters(dc, df)
        assert eps == dc + tau
        assert dc + 2 * tau < df  # triangle-inequality chain closes the gap


class TestLabelInvariantArgument:
    def test_uniform_completeness_small(self):
        n = 64
        d = uniform(n)
        accepts = 0
        for i in range(20):
            prover = HonestProver(uniformity_find(d))
            r = run_label_invariant_argument(
                make_uniformity(), n, F(1, 20), F(9, 20), DSampler(d), prover, seed=i
            )
            accepts += r.accept
        assert accepts >= 18

    def test_point_mass_soundness_small(self):
        n = 64
        d = point_mass(n, 1)
        rejects = 0
        for i in range(20):
            r = run_label_invariant_argument(
                make_uniformity(), n, F(1, 20), F(9, 20), DSampler(d),
                HonestProver(uniform(n)), seed=i,
            )
            rejects += not r.accept
        assert rejects >= 18

    def test_gap_region_recorded_not_asserted(self):
        # distance strictly between delta_c and delta_f: either verdict is
        # within contract; the run must simply complete and report
        n = 64
        from vdo.dist import shift_mass

        d = shift_mass(uniform(n), F(1, 4), rng_from(5, "gap"))
        r = run_label_invariant_argument(
            make_uniformity(), n, F(1, 20), F(9, 20), DSampler(d),
            HonestProver(uniform(n)), seed=3,
        )
        assert r.reason.name in ("ACCEPT", "PROPERTY_REJECT", "IDENTITY_FAIL")

    def test_support_size_argument_end_to_end(self):
        n = 64
        s_bound = 8
        counts = [0] * n
        for i in range(s_bound):
            counts[i] = 512 // s_bound
        d = GrainDistribution(n, 512, counts)
        prop = make_support_size(s_bound)
        r = run_label_invariant_argument(
            prop, n, F(1, 20), F(9, 20), DSampler(d), HonestProver(d), seed=4
        )
        assert r.accept
