"""General-property arguments over a committed distribution.

A general property is its distance function, from an explicit distribution
to a Fraction. After the oracle session establishes a committed
distribution close to the sampled one, a backend checks that the committed
distribution is close to the property: it accepts iff the distance it
measures is at most distance_threshold, the midpoint
delta_c + (delta_f - delta_c)/2. Two backends ship, both with linear
communication:

  full-reveal  — the prover sends the whole distribution; the verifier
                 recomputes the digest (binding it to the committed one)
                 and evaluates the property distance directly.
  spot-check   — the prover sends the sorted-grain representation string;
                 the verifier probes random blocks against verified
                 quantile openings, then decides on the sent string.

A backend's verify() may only learn about the committed distribution
through the session's verified openings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import commitment as cm
from .constants import get_constants
from .dist import GrainDistribution
from .exactmath import frac_ceil
from .protocol import (
    SessionRejected,
    SessionResult,
    VerifierConfig,
    run_session,
)
from .representation import (
    RepresentationString,
    build_representation,
    reconstruct_distribution,
)
from .rngutil import rng_from
from .rscode import element_code
from .testers import DSampler
from .wire import BackendData, BackendSelect, QuerySet, Reason


@dataclass
class BackendOutcome:
    accept: bool
    reason: Reason
    measured: Fraction | None = None
    probe_mismatch: bool = False


def distance_threshold(delta_c: Fraction, delta_f: Fraction) -> Fraction:
    return Fraction(delta_c) + (Fraction(delta_f) - Fraction(delta_c)) / 2


def _decide(delta: Fraction, delta_c: Fraction, delta_f: Fraction) -> BackendOutcome:
    """Both backends' decision on the committed distribution's distance."""
    ok = delta <= distance_threshold(delta_c, delta_f)
    return BackendOutcome(ok, Reason.ACCEPT if ok else Reason.BACKEND_REJECT, delta)


def backend_slack(delta_c: Fraction, delta_f: Fraction) -> Fraction:
    """(delta_f - delta_c)/20: the block-error rate the spot-check's probe
    budget is sized for."""
    return (Fraction(delta_f) - Fraction(delta_c)) / 20


class FullRevealBackend:
    backend_id = 1
    name = "full-reveal"

    def honest_blob(self, q: GrainDistribution) -> bytes:
        return q.to_bytes()

    def blob_len(self, n: int, grains: int) -> int:
        return 16 + 8 * n

    def verify(self, blob, session, prop, delta_c, delta_f, rng) -> BackendOutcome:
        try:
            q = GrainDistribution.from_bytes(blob)
        except ValueError:
            return BackendOutcome(False, Reason.MALFORMED)
        if q.n != session.config.n or q.grains != session.digest.denominator:
            return BackendOutcome(False, Reason.BACKEND_MISMATCH)
        recomputed, _ = cm.digest(session.key, q)
        if recomputed != session.digest:
            return BackendOutcome(False, Reason.BACKEND_MISMATCH)
        return _decide(prop(q), delta_c, delta_f)


class SpotCheckBackend:
    """Probes k random blocks of the sent representation string against the
    committed distribution, then decides on the sent string. A string that
    disagrees with the committed representation on a fraction f of blocks
    escapes the probes with probability (1-f)^k."""

    backend_id = 2
    name = "spot-check"

    def __init__(self, probe_budget: int | None = None):
        self.probe_budget = probe_budget  # query probes to spend; None: sized by budget()

    def budget(self, delta_c: Fraction, delta_f: Fraction) -> int:
        if self.probe_budget is not None:
            return self.probe_budget
        return frac_ceil(Fraction(get_constants().c_spot) / backend_slack(delta_c, delta_f))

    def honest_blob(self, q: GrainDistribution) -> bytes:
        return build_representation(q).to_bytes()

    def blob_len(self, n: int, grains: int) -> int:
        return 40 + grains * element_code(n).codeword_symbols

    def verify(self, blob, session, prop, delta_c, delta_f, rng) -> BackendOutcome:
        n = session.config.n
        grains = session.digest.denominator
        code = element_code(n)
        try:
            rep = RepresentationString.from_bytes(blob)
        except ValueError:
            return BackendOutcome(False, Reason.MALFORMED)
        if rep.n != n or rep.grains != grains or rep.code != code:
            return BackendOutcome(False, Reason.BACKEND_MISMATCH)
        k = self.budget(delta_c, delta_f)
        probes = rng.integers(1, grains + 1, size=k, dtype=np.int64)
        try:
            elements, _, _ = session.query_set(QuerySet.quantiles(probes))
        except SessionRejected as rej:
            return BackendOutcome(False, rej.reason)
        opened = code.encode_table(n)[elements]
        sent = rep.blocks[probes - 1]
        if (opened != sent).any():
            return BackendOutcome(False, Reason.BACKEND_MISMATCH, probe_mismatch=True)
        q = reconstruct_distribution(rep)
        if q is None:
            return BackendOutcome(False, Reason.BACKEND_REJECT)
        return _decide(prop(q), delta_c, delta_f)


# name -> backend class, constructed as cls()
BACKENDS: dict[str, type[FullRevealBackend | SpotCheckBackend]] = {
    cls.name: cls for cls in (FullRevealBackend, SpotCheckBackend)
}


def backend_by_id(backend_id: int) -> FullRevealBackend | SpotCheckBackend:
    for cls in BACKENDS.values():
        if cls.backend_id == backend_id:
            return cls()
    raise ValueError(f"unknown backend id {backend_id}")


def honest_backend_payload(prover, select: BackendSelect) -> BackendData:
    backend = backend_by_id(select.backend_id)
    return BackendData(backend.honest_blob(prover.q))


@dataclass
class GeneralArgumentResult:
    accept: bool
    reason: Reason
    session: SessionResult
    backend: BackendOutcome | None = None

    @property
    def measured(self) -> Fraction | None:
        return self.backend.measured if self.backend else None


def general_argument_epsilon(delta_c: Fraction, delta_f: Fraction) -> Fraction:
    delta_c, delta_f = Fraction(delta_c), Fraction(delta_f)
    if not delta_c < delta_f:
        raise ValueError("need delta_c < delta_f")
    return (delta_f - delta_c) / 10


def run_general_argument(
    prop: Callable[[GrainDistribution], Fraction],
    n: int,
    delta_c: Fraction,
    delta_f: Fraction,
    d_sampler: DSampler,
    prover,
    backend: FullRevealBackend | SpotCheckBackend,
    seed: int,
    record_payloads: bool = False,
) -> GeneralArgumentResult:
    """Oracle-session phase 1 with honest Q = D, then the backend phase.
    Accepts iff both phases accept."""
    epsilon = general_argument_epsilon(delta_c, delta_f)
    config = VerifierConfig(n, epsilon, record_payloads=record_payloads)

    def check(session):
        data = session.backend_exchange(BackendSelect(backend.backend_id))
        outcome = backend.verify(
            data.blob, session, prop, delta_c, delta_f, rng_from(seed, "backend")
        )
        return outcome.accept, outcome.reason, None, outcome

    result, outcome = run_session(config, prover, d_sampler, seed, check)
    return GeneralArgumentResult(result.accept, result.reason, result, outcome)
