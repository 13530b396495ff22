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

from .constants import Constants, get_constants
from .dist import (
    BucketHistogram,
    GrainDistribution,
    bucket_index,
    num_buckets,
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
    gets the fraction of pairs whose pdf lands in it."""
    pdf_grains = np.asarray(pdf_grains, dtype=np.int64)
    s = pdf_grains.shape[0]
    if s == 0:
        raise ValueError("histogram estimation needs at least one sample")
    tau = Fraction(tau)
    size = num_buckets(tau, n)
    vals, cnts = np.unique(pdf_grains, return_counts=True)
    acc = [0] * size
    for v, c in zip(vals.tolist(), cnts.tolist()):
        acc[bucket_index(Fraction(int(v), denominator), tau, n)] += int(c)
    return BucketHistogram(tau, n, [Fraction(a, s) for a in acc])


def histogram_sample_budget(n: int, tau: Fraction, constants: Constants | None = None) -> int:
    """ceil(c_hist * log2(N)^3 / tau^4); the protocol layer caps this."""
    cons = constants or get_constants()
    tau = Fraction(tau)
    # log2 rounded to 1/1024 keeps the budget deterministic across platforms
    l2 = Fraction(round(math.log2(n) * 1024), 1024)
    return frac_ceil(Fraction(cons.c_hist) * l2**3 / tau**4)


def _bucket_representatives(tau: Fraction, n: int, size: int) -> list[Fraction]:
    """Geometric-mean probability per bucket; bucket 0 is represented by 0."""
    reps = [Fraction(0)]
    lo = Fraction(tau) / n
    for _ in range(1, size):
        hi = lo * (1 + tau)
        reps.append(geometric_mean(lo, hi))
        lo = hi
    return reps


# -- uniformity ---------------------------------------------------------------------


def uniformity_distance_estimate(tau: Fraction, n: int, hist: BucketHistogram) -> Fraction:
    """Histogram-only estimate of the distance to uniform:
    sum over buckets of n_j * max(0, q_j - 1/N) with n_j = p_j / q_j."""
    reps = _bucket_representatives(tau, n, hist.size)
    acc = Fraction(0)
    inv_n = Fraction(1, n)
    for p, q in zip(hist.masses, reps):
        if p > 0 and q > inv_n:
            acc += p * (1 - inv_n / q)
    return acc


def uniformity_decide(
    tau: Fraction, n: int, hist: BucketHistogram, constants: Constants | None = None
) -> bool:
    margin = (constants or get_constants()).decide_margin
    return uniformity_distance_estimate(tau, n, hist) <= margin * Fraction(tau)


def uniformity_find(
    n: int, delta: Fraction, rho: Fraction, d: GrainDistribution
) -> GrainDistribution:
    """The only member is the uniform distribution; the promise bounds its
    distance from d."""
    return uniform(n, d.grains)


def make_uniformity(constants: Constants | None = None) -> LabelInvariantProperty:
    return LabelInvariantProperty(
        "uniformity",
        lambda tau, n, hist: uniformity_decide(tau, n, hist, constants),
        uniformity_find,
    )


# -- bounded support size --------------------------------------------------------------


def support_size_distance_estimate(
    tau: Fraction, n: int, hist: BucketHistogram, s_bound: int
) -> Fraction:
    """Histogram mass that cannot fit on the s_bound heaviest elements,
    under the most favorable reconstruction.

    s_bound element slots greedily cover mass heaviest-bucket-first, each
    slot in bucket j covering up to the bucket's upper endpoint. This lower
    bounds the distance of every distribution consistent with the
    histogram, so any class with a tau-close member stays below the
    threshold. Bucket 0 mass (below tau/n per element) never fits."""
    tau = Fraction(tau)
    uppers = [Fraction(0)]
    hi = tau / n * (1 + tau)
    for _ in range(1, hist.size):
        uppers.append(hi)
        hi = hi * (1 + tau)
    slots = Fraction(s_bound)
    covered = Fraction(0)
    for j in range(hist.size - 1, 0, -1):
        p = hist.masses[j]
        if p == 0 or slots == 0:
            continue
        take = min(p, slots * uppers[j])
        covered += take
        slots -= take / uppers[j]
    return max(Fraction(0), 1 - covered)


def support_size_decide(
    tau: Fraction,
    n: int,
    hist: BucketHistogram,
    s_bound: int,
    constants: Constants | None = None,
) -> bool:
    if s_bound >= n:
        return True
    margin = (constants or get_constants()).decide_margin
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


def make_support_size(s_bound: int, constants: Constants | None = None) -> LabelInvariantProperty:
    return LabelInvariantProperty(
        f"support-size-{s_bound}",
        lambda tau, n, hist: support_size_decide(tau, n, hist, s_bound, constants),
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
    constants: Constants | None = None,
    record_payloads: bool = False,
) -> ArgumentResult:
    """Oracle session + histogram decision. The honest prover should commit
    find(D, delta_c, epsilon)."""
    cons = constants or get_constants()
    epsilon, tau = argument_parameters(delta_c, delta_f)
    s_hist = min(histogram_sample_budget(n, tau, cons), cons.hist_probe_cap)
    config = VerifierConfig(
        n,
        epsilon,
        generator=quantile_sampling_generator(s_hist),
        constants=cons,
        record_payloads=record_payloads,
    )

    def decide(session):
        answers = query_phase(session)
        hist = estimate_histogram(answers[1], session.digest.denominator, tau, n)
        ok = prop.decide(tau, n, hist)
        return ok, Reason.ACCEPT if ok else Reason.PROPERTY_REJECT, answers, hist

    result, hist = run_session(config, prover, d_sampler, seed, decide)
    return ArgumentResult(result.accept, result.reason, result, hist)
