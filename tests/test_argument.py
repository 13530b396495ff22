from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdo.adversaries import BackendSwapAdversary, FarCommitAdversary
from vdo.argument import (
    FullRevealBackend,
    SpotCheckBackend,
    distance_threshold,
    general_argument_epsilon,
    run_general_argument,
)
from vdo.dist import GrainDistribution, random_distribution, shift_mass, tv_distance, uniform
from vdo.properties import make_fixed_target
from vdo.protocol import HonestProver
from vdo.representation import RepresentationString, build_representation
from vdo.rngutil import rng_from
from vdo.testers import DSampler
from vdo.wire import Reason

N = 64
DC, DF = F(0), F(3, 5)


def _target(seed=1):
    return random_distribution(N, rng_from(seed, "T"), grains=N * N * 5)


def _run(d, q, backend, prover=None, seed=3, target=None):
    t = target if target is not None else _target()
    return run_general_argument(
        make_fixed_target(t), N, DC, DF, DSampler(d), prover or HonestProver(q),
        backend, seed,
    )


class TestFullReveal:
    def test_honest_accepts(self):
        t = _target()
        r = _run(t, t, FullRevealBackend(), target=t)
        assert r.accept and r.measured == 0

    def test_revealing_different_distribution_rejected(self):
        t = _target()
        r = _run(t, t, FullRevealBackend(), prover=BackendSwapAdversary(t, uniform(N)), target=t)
        assert not r.accept and r.reason == Reason.BACKEND_MISMATCH

    def test_far_distribution_rejected(self):
        t = _target()
        far = shift_mass(t, DF, rng_from(2, "far"))
        assert tv_distance(far, t) == DF
        r = _run(far, far, FullRevealBackend(), target=t)
        assert not r.accept and r.reason == Reason.BACKEND_REJECT
        assert r.measured == DF > distance_threshold(DC, DF)

    def test_far_commit_rejected_by_identity(self):
        t = _target()
        r = _run(t, uniform(N), FullRevealBackend(), prover=FarCommitAdversary(uniform(N)), target=t)
        assert not r.accept and r.reason == Reason.IDENTITY_FAIL


class TestSpotCheck:
    def test_honest_accepts(self):
        t = _target()
        r = _run(t, t, SpotCheckBackend(), target=t)
        assert r.accept and r.measured == 0
        assert not r.backend.probe_mismatch

    def test_budget_formula(self):
        from vdo.constants import get_constants

        b = SpotCheckBackend()
        eps_prime = (DF - DC) / 20
        assert b.budget(DC, DF) == -(-get_constants().c_spot * eps_prime.denominator // eps_prime.numerator)

    def test_swapped_representation_detected(self):
        t = _target()
        other = uniform(N, t.grains)
        r = _run(t, t, SpotCheckBackend(), prover=BackendSwapAdversary(t, other), target=t)
        assert not r.accept
        assert r.reason in (Reason.BACKEND_MISMATCH, Reason.BACKEND_REJECT)

    def test_consistent_but_far_rejected_by_decision(self):
        t = _target()
        far = shift_mass(t, DF, rng_from(4, "far"))
        r = _run(far, far, SpotCheckBackend(), target=t)
        assert not r.accept and r.reason == Reason.BACKEND_REJECT
        assert not r.backend.probe_mismatch  # string matched; decision rejected

    def test_detection_probability_small_scale(self):
        # plant a corruption fraction and compare the probe-hit rate with
        # 1 - (1-f)^k over repeated runs
        t = _target(7)
        f = F(1, 20)
        corrupt = int(f * t.grains)

        class Corruptor(HonestProver):
            def backend_payload(self, select):
                rep = build_representation(self.q)
                blocks = rep.blocks.copy()
                idx = rng_from(self.q.grains, "plant").choice(
                    t.grains, size=corrupt, replace=False
                )
                blocks[idx, -1] ^= 0xFF
                from vdo.representation import RepresentationString
                from vdo.wire import BackendData

                return BackendData(
                    RepresentationString(rep.n, rep.grains, rep.code, blocks).to_bytes()
                )

        backend = SpotCheckBackend(probe_budget=40)
        hits = 0
        reached = 0
        trials = 120
        for i in range(trials):
            r = _run(t, t, backend, prover=Corruptor(t), target=t, seed=1000 + i)
            assert not r.accept  # corrupted blocks also fail the decision
            if r.backend is not None:  # identity phase may reject a few runs
                reached += 1
                hits += r.backend.probe_mismatch
        assert reached >= trials * 9 // 10
        expect = 1 - (1 - f) ** 40
        sigma = (float(expect * (1 - expect)) / reached) ** 0.5
        assert abs(hits / reached - float(expect)) <= 4 * sigma + 0.01


class TestExchangeability:
    def test_backends_agree_on_honest_runs(self):
        t = _target(9)
        for seed in range(6):
            a = _run(t, t, FullRevealBackend(), target=t, seed=seed)
            b = _run(t, t, SpotCheckBackend(), target=t, seed=seed)
            assert a.accept == b.accept


def test_epsilon_is_tenth_of_gap():
    assert general_argument_epsilon(F(1, 10), F(6, 10)) == F(1, 20)
    with pytest.raises(ValueError):
        general_argument_epsilon(F(1, 2), F(1, 2))


_BLOB_Q = GrainDistribution(4, 16, (4, 4, 8, 0))
_HONEST_BLOBS = (_BLOB_Q.to_bytes(), build_representation(_BLOB_Q).to_bytes())
_U64 = st.one_of(
    st.sampled_from([0, 1, 2, 4, 16, 2**62, 2**63 - 1, 2**63, 2**64 - 1]),
    st.integers(0, 2**64 - 1),
)


@st.composite
def _blobs(draw):
    """Random bytes, or an honest blob of either backend with one to three
    mutations: a little-endian u64 field overwritten (extremes included), a
    byte replaced, a cut or an extension."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    blob = bytearray(draw(st.sampled_from(_HONEST_BLOBS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "byte", "cut", "extend"]))
        if kind == "field" and len(blob) >= 8:
            off = 8 * draw(st.integers(0, len(blob) // 8 - 1))
            blob[off : off + 8] = draw(_U64).to_bytes(8, "little")
        elif kind == "byte" and blob:
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        elif kind == "cut":
            del blob[draw(st.integers(0, len(blob))) :]
        else:
            blob += draw(st.binary(min_size=1, max_size=16))
    return bytes(blob)


class TestBlobDecoding:
    """Backend blobs have one decode-failure contract: ValueError."""

    @given(_blobs())
    @settings(max_examples=500, deadline=None)
    def test_decoders_raise_only_value_error(self, blob):
        for decode in (GrainDistribution.from_bytes, RepresentationString.from_bytes):
            try:
                decode(blob)
            except ValueError:
                pass
