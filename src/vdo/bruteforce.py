"""Exhaustive small-scale verification suites.

These run exact identities over enumerated grain distributions: the
sorted-grain Hamming bound, the mixing/granularization identities, and the
histogram decision bands of any label-invariant decision (band_checks;
band_sweep runs it once per (N, G, tau) for uniformity and bounded support
size). Domain sizes are small enough to enumerate; the pair-level mixing
identity is additionally verified coordinate-wise, which covers the whole
family because mixing acts on one coordinate at a time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .dist import GrainDistribution, exact_histogram, tv_distance, uniform
from .properties import support_size_decide, support_size_exact_distance, uniformity_decide
from .representation import build_representation, hamming_block_distance, hamming_symbol_distance
from .rngutil import rng_from
from .rscode import element_code


def enumerate_distributions(n: int, grains: int):
    """All grain distributions over [n] with the given denominator."""
    for bars in combinations_with_replacement(range(grains + 1), n - 1):
        bounds = (0,) + bars + (grains,)
        yield GrainDistribution(n, grains, [bounds[i + 1] - bounds[i] for i in range(n)])


# -- representation bound ------------------------------------------------------------


def check_representation_bound(n: int = 4, grains: int = 12) -> dict:
    """Exhaustive: block Hamming >= TV for every pair, symbol Hamming >=
    TV * relative distance, and build/query agreement per block."""
    code = element_code(n)
    dists = list(enumerate_distributions(n, grains))
    reps = [build_representation(q, code) for q in dists]
    violations = 0
    pairs = 0
    d_rel = code.relative_distance
    for (qa, ra), (qb, rb) in combinations(zip(dists, reps), 2):
        pairs += 1
        tv = tv_distance(qa, qb)
        if hamming_block_distance(ra, rb) < tv:
            violations += 1
        elif hamming_symbol_distance(ra, rb) < tv * d_rel:
            violations += 1
    query_mismatch = 0
    for q, rep in zip(dists, reps):
        cum = np.cumsum(q.counts)
        for j in range(1, grains + 1):
            x = int(np.searchsorted(cum, j, side="left")) + 1
            if code.encode_int(x) != rep.block(j):
                query_mismatch += 1
    return {
        "distributions": len(dists),
        "pairs": pairs,
        "bound_violations": violations,
        "query_mismatches": query_mismatch,
        "ok": violations == 0 and query_mismatch == 0,
    }


# -- mixing / granularization identities ------------------------------------------------


def check_mixing_coordinates(n_max: int = 6, g_max: int = 24) -> dict:
    """Coordinate-exhaustive mixing identity: |mix(d) - mix(q)| = |d - q|/2
    for every domain size, denominator pair and count value pair. Mixing is
    coordinate-wise, so this covers every distribution pair in the range.
    Also checks the granular ratio bounds for every possible coordinate."""
    checked = 0
    for n in range(1, n_max + 1):
        for g_d in range(1, g_max + 1):
            for g_q in range(1, g_max + 1):
                for c_d in range(g_d + 1):
                    p_d = Fraction(c_d, g_d)
                    mix_d = p_d / 2 + Fraction(1, 2 * n)
                    for c_q in range(g_q + 1):
                        p_q = Fraction(c_q, g_q)
                        mix_q = p_q / 2 + Fraction(1, 2 * n)
                        if abs(mix_d - mix_q) * 2 != abs(p_d - p_q):
                            return {"ok": False, "at": (n, g_d, g_q, c_d, c_q)}
                        checked += 1
    theta_checked = 0
    for n in range(1, n_max + 1):
        m = 6 * n
        for g in range(1, g_max + 1):
            for c in range(g + 1):
                q_mix = Fraction(c, 2 * g) + Fraction(1, 2 * n)
                slots = (q_mix * m).numerator // (q_mix * m).denominator
                theta = Fraction(slots) / (m * q_mix)
                if not Fraction(2, 3) <= theta <= 1:
                    return {"ok": False, "theta_at": (n, g, c)}
                theta_checked += 1
    return {"ok": True, "mix_coords": checked, "theta_coords": theta_checked}


def check_pair_distance_chain(
    n: int, g_d: int, g_q: int, samples: int, seed: int
) -> dict:
    """Seeded exact pair checks of the full chain: TV(mix d, mix q) is half
    of TV(d, q), and the granular distance is at least 2/3 of the mixed one."""
    rng = rng_from(seed, "chain", n, g_d, g_q)
    ok = True
    for _ in range(samples):
        d = _random_counts(n, g_d, rng)
        q = _random_counts(n, g_q, rng)
        base = tv_distance(d, q)
        mixed_l1 = Fraction(0)
        granular_l1 = Fraction(0)
        m = 6 * n
        overflow_d = Fraction(1)
        overflow_q = Fraction(1)
        for x in range(1, n + 1):
            pd = d.pdf(x) / 2 + Fraction(1, 2 * n)
            pq = q.pdf(x) / 2 + Fraction(1, 2 * n)
            mixed_l1 += abs(pd - pq)
            slots_q = (pq * m).numerator // (pq * m).denominator
            theta = Fraction(slots_q) / (m * pq)
            granular_l1 += abs(theta * pd - theta * pq)
            overflow_d -= theta * pd
            overflow_q -= theta * pq
        granular_l1 += abs(overflow_d - overflow_q)
        mixed = mixed_l1 / 2
        granular = granular_l1 / 2
        if mixed != base / 2:
            ok = False
        if granular < Fraction(2, 3) * mixed:
            ok = False
    return {"ok": ok, "samples": samples}


def _random_counts(n: int, grains: int, rng) -> GrainDistribution:
    cuts = sorted(int(rng.integers(0, grains + 1)) for _ in range(n - 1))
    bounds = [0] + cuts + [grains]
    counts = [bounds[i + 1] - bounds[i] for i in range(n)]
    return GrainDistribution(n, grains, counts)


# -- histogram decision bands --------------------------------------------------------------


def band_checks(n: int, grains: int, tau: Fraction, checks) -> list[dict]:
    """Group every distribution over [n] with denominator grains by exact
    histogram at tau. For each (decide, distance) pair in checks,
    decide(hist) must accept each class that has a member q within tau of
    the property (distance(q) <= tau) and may reject only classes whose
    members all lie beyond 2*tau. The histogram and the distance to a
    label-invariant property are both label-invariant, so one member per
    permutation orbit gives the same classes and distances; each orbit's
    histogram is computed once for all checks."""
    closest: dict[tuple, list] = {}  # masses -> [histogram, least distance per check]
    for counts in combinations_with_replacement(range(grains, -1, -1), n):
        if sum(counts) != grains:  # one nonincreasing count vector per orbit
            continue
        q = GrainDistribution(n, grains, counts)
        h = exact_histogram(q, tau)
        ds = [distance(q) for _, distance in checks]
        best = closest.setdefault(h.masses, [h, ds])
        best[1] = list(map(min, best[1], ds))
    results = []
    for i, (decide, _) in enumerate(checks):
        violations = []
        for h, dmins in closest.values():
            verdict = decide(h)
            if dmins[i] <= tau and not verdict:
                violations.append(("must-accept", h.masses, dmins[i]))
            if dmins[i] > 2 * tau and verdict:
                violations.append(("must-reject", h.masses, dmins[i]))
        results.append({"classes": len(closest), "violations": violations})
    return results


def band_sweep(n_max: int = 6, g_max: int = 16) -> dict:
    """band_checks at every n <= n_max, grains <= g_max and tau in {1/5,
    1/10, 1/20, 3/10, 1/25}, of uniformity and of support size at every
    bound 1 <= s < n, in one pass per (n, grains, tau); classes and
    violations are summed per property."""
    taus = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(3, 10), Fraction(1, 25)]
    out = Counter()
    for n, grains, tau in product(range(1, n_max + 1), range(1, g_max + 1), taus):
        exact_uniform = uniform(n, n * grains)  # 1/n at every element, for any grains
        props = ["uniformity"] + ["support_size"] * (n - 1)
        checks = [(uniformity_decide, partial(tv_distance, q=exact_uniform))]
        checks += [
            (partial(support_size_decide, s_bound=s),
             partial(support_size_exact_distance, s_bound=s))
            for s in range(1, n)
        ]
        for prop, res in zip(props, band_checks(n, grains, tau, checks)):
            out[f"{prop}_classes"] += res["classes"]
            out[f"{prop}_violations"] += len(res["violations"])
    return {**out, "ok": out["uniformity_violations"] + out["support_size_violations"] == 0}


def run_brute_force_suite() -> dict:
    """The committed small-scale suite: representation bound at (4,12),
    coordinate mixing identities up to (6,24), sampled exact chains, and
    the uniformity and support-size decision bands up to (6,16)."""
    return {
        "representation": check_representation_bound(4, 12),
        "mixing": check_mixing_coordinates(6, 24),
        "chain_n5": check_pair_distance_chain(5, 24, 20, 400, seed=5),
        "chain_n6": check_pair_distance_chain(6, 24, 24, 400, seed=6),
        "bands": band_sweep(6, 16),
    }
