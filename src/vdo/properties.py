"""Distribution properties and the label-invariant verification layer.

A label-invariant property is its decision rule, a function of a bucket
histogram alone (accept when some distribution with that histogram is
tau-close, reject when every one is far). A general property is its
distance function, a function of an explicit distribution.

The label-invariant argument runs the oracle session with a quantile
sampling generator, assembles the empirical bucket histogram on the grid of
(tau, N) from the verified (element, pdf) answers, and applies the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .constants import get_constants
from .dist import (
    BucketGrid,
    BucketHistogram,
    GrainDistribution,
    bucket_grid,
    tv_distance,
    uniform,
)
from .exactmath import frac_ceil
from .protocol import (
    SessionResult,
    VerifierConfig,
    quantile_sampling_generator,
    query_phase,
    run_session,
)
from .testers import DSampler
from .wire import Reason


# -- histogram estimation --------------------------------------------------------


def estimate_histogram(
    pdf_grains: np.ndarray, denominator: int, grid: BucketGrid
) -> BucketHistogram:
    """Empirical bucket histogram from probed (element, pdf) pairs: bucket j
    of the grid gets the fraction of pairs whose pdf
    (pdf_grains / denominator) lands in it."""
    pdf_grains = np.asarray(pdf_grains, dtype=np.int64)
    s = pdf_grains.shape[0]
    if s == 0:
        raise ValueError("histogram estimation needs at least one sample")
    counts = np.bincount(grid.buckets(pdf_grains, denominator), minlength=grid.size)
    return BucketHistogram(grid, [Fraction(c, s) for c in counts.tolist()])


def histogram_sample_budget(n: int, tau: Fraction) -> int:
    """ceil(c_hist * log2(N)^3 / tau^4); the protocol layer caps this."""
    tau = Fraction(tau)
    # log2 rounded to 1/1024 keeps the budget deterministic across platforms
    l2 = Fraction(round(math.log2(n) * 1024), 1024)
    return frac_ceil(Fraction(get_constants().c_hist) * l2**3 / tau**4)


# -- uniformity ---------------------------------------------------------------------


def uniformity_distance_estimate(hist: BucketHistogram) -> Fraction:
    """Histogram-only estimate of the distance to uniform:
    sum over buckets of n_j * max(0, q_j - 1/N) with n_j = p_j / q_j, where
    q_j is bucket j's representative on the histogram's grid (the geometric
    mean of its own interval, clamped at 1). Bucket 0 is represented by 0
    and never counts."""
    acc = Fraction(0)
    inv_n = Fraction(1, hist.n)
    for p, q in zip(hist.masses, hist.grid.representatives):
        if p > 0 and q > inv_n:
            acc += p * (1 - inv_n / q)
    return acc


def uniformity_decide(hist: BucketHistogram) -> bool:
    margin = get_constants().decide_margin
    return uniformity_distance_estimate(hist) <= margin * hist.tau


def uniformity_find(d: GrainDistribution) -> GrainDistribution:
    """The property's one member, the uniform distribution, on d's grains."""
    return uniform(d.n, d.grains)


def make_uniformity() -> Callable[[BucketHistogram], bool]:
    # looked up at call time, so a wrapper installed on the module applies
    return lambda hist: uniformity_decide(hist)


# -- bounded support size --------------------------------------------------------------


def support_size_distance_estimate(hist: BucketHistogram, s_bound: int) -> Fraction:
    """Histogram mass that cannot fit on the s_bound heaviest elements,
    under the most favorable reconstruction.

    s_bound element slots greedily cover mass heaviest-bucket-first, each
    slot in bucket j covering up to the bucket's upper endpoint on the
    histogram's grid, min(edges[j+1], 1), which no probability in the
    bucket exceeds.
    This lower bounds the distance of every distribution consistent with
    the histogram, so any class with a tau-close member stays below the
    threshold. Bucket 0 mass (below edges[1] per element) never fits."""
    slots = Fraction(s_bound)
    covered = Fraction(0)
    for p, upper in zip(hist.masses[:0:-1], hist.grid.uppers[:0:-1]):
        if p and slots:
            take = min(p, slots * upper)
            covered += take
            slots -= take / upper
    return max(Fraction(0), 1 - covered)


def support_size_decide(hist: BucketHistogram, s_bound: int) -> bool:
    if s_bound >= hist.n:
        return True
    margin = get_constants().decide_margin
    return support_size_distance_estimate(hist, s_bound) <= margin * hist.tau


def support_size_find(d: GrainDistribution, s_bound: int) -> GrainDistribution:
    """Zero all but the s_bound heaviest elements and park the removed mass
    on the heaviest one. The move equals the removed mass in TV distance."""
    order = sorted(range(d.n), key=lambda i: (-d.counts[i], i))
    counts = [0] * d.n
    for i in order[:s_bound]:
        counts[i] = d.counts[i]
    counts[order[0]] += d.grains - sum(counts)
    return GrainDistribution(d.n, d.grains, counts)


def support_size_exact_distance(d: GrainDistribution, s_bound: int) -> Fraction:
    """Exact distance to the bounded-support property: mass outside the
    s_bound heaviest elements."""
    if s_bound >= d.n:
        return Fraction(0)
    ordered = sorted(d.counts, reverse=True)
    return Fraction(sum(ordered[s_bound:]), d.grains)


def make_support_size(s_bound: int) -> Callable[[BucketHistogram], bool]:
    if s_bound < 0:
        raise ValueError(f"support-size bound {s_bound} is negative")
    return lambda hist: support_size_decide(hist, s_bound)


# -- fixed target (general property) --------------------------------------------------


def make_fixed_target(target: GrainDistribution) -> Callable[[GrainDistribution], Fraction]:
    """The exact TV distance to target."""
    return lambda q: tv_distance(q, target)


# -- the label-invariant property table ---------------------------------------------------

# name -> constructor from the property's parameters (strings or values)
LABEL_INVARIANT: dict[str, Callable[..., Callable[[BucketHistogram], bool]]] = {
    "uniformity": make_uniformity,
    "support-size": lambda s_bound: make_support_size(int(s_bound)),
}


# -- the label-invariant argument ---------------------------------------------------------


@dataclass
class ArgumentResult:
    accept: bool
    reason: Reason
    session: SessionResult
    histogram: BucketHistogram | None = None


def argument_parameters(delta_c: Fraction, delta_f: Fraction) -> tuple[Fraction, Fraction]:
    """(epsilon, tau) for the label-invariant layer."""
    delta_c, delta_f = Fraction(delta_c), Fraction(delta_f)
    if not delta_c < delta_f:
        raise ValueError("need delta_c < delta_f")
    tau = (delta_f - delta_c) / 10
    return delta_c + tau, tau


def run_label_invariant_argument(
    prop: Callable[[BucketHistogram], bool],
    n: int,
    delta_c: Fraction,
    delta_f: Fraction,
    d_sampler: DSampler,
    prover,
    seed: int,
    record_payloads: bool = False,
) -> ArgumentResult:
    """Oracle session + histogram decision. The honest prover commits a
    member of the property close to D, as uniformity_find(D) gives."""
    epsilon, tau = argument_parameters(delta_c, delta_f)
    grid = bucket_grid(tau, n)
    s_hist = min(histogram_sample_budget(n, tau), get_constants().hist_probe_cap)
    config = VerifierConfig(
        n,
        epsilon,
        generator=quantile_sampling_generator(s_hist),
        record_payloads=record_payloads,
    )

    def decide(session):
        answers = query_phase(session)
        hist = estimate_histogram(answers[1], session.digest.denominator, grid)
        ok = prop(hist)
        return ok, Reason.ACCEPT if ok else Reason.PROPERTY_REJECT, answers, hist

    result, hist = run_session(config, prover, d_sampler, seed, decide)
    return ArgumentResult(result.accept, result.reason, result, hist)
