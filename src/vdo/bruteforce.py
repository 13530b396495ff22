"""Exhaustive small-scale verification suites.

These run exact identities over enumerated grain distributions: the
sorted-grain Hamming bound, the mixing/granularization identities, and the
histogram decision bands. Domain sizes are small enough to enumerate; the
pair-level mixing identity is additionally verified coordinate-wise, which
covers the whole family because mixing acts on one coordinate at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .dist import GrainDistribution, exact_histogram, tv_distance
from .properties import uniformity_decide
from .representation import build_representation, hamming_block_distance, hamming_symbol_distance
from .rngutil import rng_from
from .rscode import element_code


def enumerate_distributions(n: int, grains: int):
    """All grain distributions over [n] with the given denominator."""

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for c in range(remaining + 1):
            yield from rec(prefix + (c,), remaining - c, slots - 1)

    for counts in rec((), grains, n):
        yield GrainDistribution(n, grains, counts)


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


def uniformity_band_check(n: int = 4, grains: int = 12, tau: Fraction = Fraction(1, 5)) -> dict:
    """Group enumerated distributions by exact histogram; the decision must
    accept every class containing a tau-close member and reject only
    classes whose members are all beyond 2*tau."""
    from .dist import uniform as uniform_dist

    u = uniform_dist(n, grains) if grains % n == 0 else None
    classes: dict[tuple, list[Fraction]] = {}
    for q in enumerate_distributions(n, grains):
        h = exact_histogram(q, tau)
        dist_u = (
            tv_distance(q, u)
            if u is not None
            else min_uniform_distance(q)
        )
        classes.setdefault(h.masses, []).append(dist_u)
    violations = []
    for masses, dists in classes.items():
        from .dist import BucketHistogram

        hist = BucketHistogram(tau, n, masses)
        verdict = uniformity_decide(tau, n, hist)
        dmin = min(dists)
        if dmin <= tau and not verdict:
            violations.append(("must-accept", masses, dmin))
        if dmin > 2 * tau and verdict:
            violations.append(("must-reject", masses, dmin))
    return {"classes": len(classes), "violations": violations, "ok": not violations}


def min_uniform_distance(q: GrainDistribution) -> Fraction:
    inv = Fraction(1, q.n)
    return sum(
        (Fraction(c, q.grains) - inv for c in q.counts if Fraction(c, q.grains) > inv),
        Fraction(0),
    )


def run_brute_force_suite() -> dict:
    """The committed small-scale suite: representation bound at (4,12),
    coordinate mixing identities up to (6,24), sampled exact chains, and
    uniformity decision bands at (4,12)."""
    out = {
        "representation": check_representation_bound(4, 12),
        "mixing": check_mixing_coordinates(6, 24),
        "chain_n5": check_pair_distance_chain(5, 24, 20, 400, seed=5),
        "chain_n6": check_pair_distance_chain(6, 24, 24, 400, seed=6),
        "bands": uniformity_band_check(4, 12, Fraction(1, 5)),
    }
    out["ok"] = all(v["ok"] for v in out.values() if isinstance(v, dict))
    return out
