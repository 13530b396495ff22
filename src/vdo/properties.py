"""Distribution properties and the label-invariant verification layer.

Label-invariant properties ship a histogram decision rule (accept when some
distribution with the observed bucket histogram is tau-close, reject when
every one is far) and a repair rule mapping a close distribution to an
exact member. General properties ship a distance approximator evaluated on
explicit distributions.

The label-invariant argument runs the oracle session with a quantile
sampling generator, assembles the empirical bucket histogram from the
verified (element, pdf) answers, and applies the decision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .constants import get_constants
from .dist import (
    BucketHistogram,
    GrainDistribution,
    bucket_edges,
    grain_buckets,
    tv_distance,
    uniform,
)
from .exactmath import frac_ceil, geometric_mean
from .protocol import (
    SessionResult,
    VerifierConfig,
    quantile_sampling_generator,
    query_phase,
    run_session,
)
from .testers import DSampler
from .wire import Reason


@dataclass(frozen=True)
class LabelInvariantProperty:
    """decide(tau, n, hist) -> bool; find(n, delta, rho, d) -> member of the
    property at distance <= delta + rho from d (promise: d is delta-close)."""

    name: str
    decide: Callable[[Fraction, int, BucketHistogram], bool]
    find: Callable[[int, Fraction, Fraction, GrainDistribution], GrainDistribution]


@dataclass(frozen=True)
class GeneralProperty:
    """dist(n, q, rho) -> rational within rho of the true distance to the
    property (instances here are exact and ignore rho)."""

    name: str
    dist: Callable[[int, GrainDistribution, Fraction], Fraction]


# -- histogram estimation --------------------------------------------------------


def estimate_histogram(
    pdf_grains: np.ndarray, denominator: int, tau: Fraction, n: int
) -> BucketHistogram:
    """Empirical bucket histogram from probed (element, pdf) pairs: bucket j
    of bucket_edges(tau, n) gets the fraction of pairs whose pdf
    (pdf_grains / denominator) lands in it."""
    pdf_grains = np.asarray(pdf_grains, dtype=np.int64)
    s = pdf_grains.shape[0]
    if s == 0:
        raise ValueError("histogram estimation needs at least one sample")
    edges = bucket_edges(tau, n)
    counts = np.bincount(grain_buckets(pdf_grains, denominator, edges), minlength=len(edges) - 1)
    return BucketHistogram(tau, n, [Fraction(c, s) for c in counts.tolist()])


def histogram_sample_budget(n: int, tau: Fraction) -> int:
    """ceil(c_hist * log2(N)^3 / tau^4); the protocol layer caps this."""
    tau = Fraction(tau)
    # log2 rounded to 1/1024 keeps the budget deterministic across platforms
    l2 = Fraction(round(math.log2(n) * 1024), 1024)
    return frac_ceil(Fraction(get_constants().c_hist) * l2**3 / tau**4)


# -- uniformity ---------------------------------------------------------------------


def uniformity_distance_estimate(tau: Fraction, n: int, hist: BucketHistogram) -> Fraction:
    """Histogram-only estimate of the distance to uniform:
    sum over buckets of n_j * max(0, q_j - 1/N) with n_j = p_j / q_j, where
    q_j, bucket j's representative, is the geometric mean of its own
    interval [edges[j], edges[j+1]) on bucket_edges(tau, n), clamped at 1
    (only the top bucket's edges[j+1] exceeds 1). Bucket 0 is represented
    by 0 and never counts."""
    edges = bucket_edges(tau, n)
    acc = Fraction(0)
    inv_n = Fraction(1, n)
    for p, lo, hi in zip(hist.masses[1:], edges[1:], edges[2:]):
        if p > 0:
            q = geometric_mean(lo, min(hi, 1))
            if q > inv_n:
                acc += p * (1 - inv_n / q)
    return acc


def uniformity_decide(tau: Fraction, n: int, hist: BucketHistogram) -> bool:
    margin = get_constants().decide_margin
    return uniformity_distance_estimate(tau, n, hist) <= margin * Fraction(tau)


def uniformity_find(
    n: int, delta: Fraction, rho: Fraction, d: GrainDistribution
) -> GrainDistribution:
    """The only member is the uniform distribution; the promise bounds its
    distance from d."""
    return uniform(n, d.grains)


def make_uniformity() -> LabelInvariantProperty:
    return LabelInvariantProperty(
        "uniformity",
        # looked up at call time, so a wrapper installed on the module applies
        lambda tau, n, hist: uniformity_decide(tau, n, hist),
        uniformity_find,
    )


# -- bounded support size --------------------------------------------------------------


def support_size_distance_estimate(
    tau: Fraction, n: int, hist: BucketHistogram, s_bound: int
) -> Fraction:
    """Histogram mass that cannot fit on the s_bound heaviest elements,
    under the most favorable reconstruction.

    s_bound element slots greedily cover mass heaviest-bucket-first, each
    slot in bucket j covering up to the bucket's upper endpoint
    min(edges[j+1], 1) on bucket_edges(tau, n), which no probability in the
    bucket exceeds.
    This lower bounds the distance of every distribution consistent with
    the histogram, so any class with a tau-close member stays below the
    threshold. Bucket 0 mass (below edges[1] per element) never fits."""
    edges = bucket_edges(tau, n)
    slots = Fraction(s_bound)
    covered = Fraction(0)
    for j in range(hist.size - 1, 0, -1):
        p = hist.masses[j]
        if p == 0 or slots == 0:
            continue
        upper = min(edges[j + 1], 1)
        take = min(p, slots * upper)
        covered += take
        slots -= take / upper
    return max(Fraction(0), 1 - covered)


def support_size_decide(tau: Fraction, n: int, hist: BucketHistogram, s_bound: int) -> bool:
    if s_bound >= n:
        return True
    margin = get_constants().decide_margin
    return support_size_distance_estimate(tau, n, hist, s_bound) <= margin * Fraction(tau)


def support_size_find(
    n: int, delta: Fraction, rho: Fraction, d: GrainDistribution, s_bound: int
) -> GrainDistribution:
    """Zero all but the s_bound heaviest elements and park the removed mass
    on the heaviest one. The move equals the removed mass in TV distance."""
    if s_bound >= n:
        return d
    order = sorted(range(n), key=lambda i: (-d.counts[i], i))
    keep = set(order[:s_bound])
    counts = list(d.counts)
    removed = 0
    for i in range(n):
        if i not in keep:
            removed += counts[i]
            counts[i] = 0
    counts[order[0]] += removed
    return GrainDistribution(n, d.grains, counts)


def support_size_exact_distance(d: GrainDistribution, s_bound: int) -> Fraction:
    """Exact distance to the bounded-support property: mass outside the
    s_bound heaviest elements."""
    if s_bound >= d.n:
        return Fraction(0)
    ordered = sorted(d.counts, reverse=True)
    return Fraction(sum(ordered[s_bound:]), d.grains)


def make_support_size(s_bound: int) -> LabelInvariantProperty:
    return LabelInvariantProperty(
        f"support-size-{s_bound}",
        lambda tau, n, hist: support_size_decide(tau, n, hist, s_bound),
        lambda n, delta, rho, d: support_size_find(n, delta, rho, d, s_bound),
    )


# -- fixed target (general property) --------------------------------------------------


def fixed_target_dist(
    n: int, q: GrainDistribution, target: GrainDistribution, rho: Fraction = Fraction(0)
) -> Fraction:
    """Exact TV distance to a fixed target distribution (rho unused)."""
    if q.n != n or target.n != n:
        raise ValueError("domain mismatch")
    return tv_distance(q, target)


def make_fixed_target(target: GrainDistribution) -> GeneralProperty:
    return GeneralProperty(
        "fixed-target",
        lambda n, q, rho: fixed_target_dist(n, q, target, rho),
    )


# -- the label-invariant property table ---------------------------------------------------

# name -> constructor from the property's parameters (strings or values)
LABEL_INVARIANT: dict[str, Callable[..., LabelInvariantProperty]] = {
    "uniformity": lambda *params: make_uniformity(),
    "support-size": lambda s_bound, *params: make_support_size(int(s_bound)),
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
    prop: LabelInvariantProperty,
    n: int,
    delta_c: Fraction,
    delta_f: Fraction,
    d_sampler: DSampler,
    prover,
    seed: int,
    record_payloads: bool = False,
) -> ArgumentResult:
    """Oracle session + histogram decision. The honest prover should commit
    find(D, delta_c, epsilon)."""
    epsilon, tau = argument_parameters(delta_c, delta_f)
    s_hist = min(histogram_sample_budget(n, tau), get_constants().hist_probe_cap)
    config = VerifierConfig(
        n,
        epsilon,
        generator=quantile_sampling_generator(s_hist),
        record_payloads=record_payloads,
    )

    def decide(session):
        answers = query_phase(session)
        hist = estimate_histogram(answers[1], session.digest.denominator, tau, n)
        ok = prop.decide(tau, n, hist)
        return ok, Reason.ACCEPT if ok else Reason.PROPERTY_REJECT, answers, hist

    result, hist = run_session(config, prover, d_sampler, seed, decide)
    return ArgumentResult(result.accept, result.reason, result, hist)
