from fractions import Fraction as F

import numpy as np
import pytest

from vdo.argument import SpotCheckBackend
from vdo.dist import GrainDistribution, point_mass, uniform
from vdo.properties import make_fixed_target
from vdo.protocol import HonestProver, VerifiedOracleSession, VerifierConfig
from vdo.representation import (
    RepresentationString,
    build_representation,
    hamming_block_distance,
    hamming_symbol_distance,
    reconstruct_distribution,
)
from vdo.rngutil import rng_from
from vdo.rscode import element_code
from vdo.testers import DSampler
from vdo.wire import Reason

from conftest import enum_dists, tv_oracle


def spot_check_blocks(q: GrainDistribution, code, js) -> list[bytes]:
    """Blocks j as the spot-check backend reads them off verified openings:
    the codeword of the element answering quantile probe j."""
    table = code.encode_table(q.n)
    return [row.tobytes() for row in table[q.quantile_grain_batch(np.asarray(js))]]


def test_build_example():
    q = GrainDistribution(4, 16, (4, 4, 8, 0))
    code = element_code(4)
    rep = build_representation(q, code)
    assert rep.blocks.shape[0] == 16
    for j in range(1, 5):
        assert rep.block(j) == code.encode_int(1)
    for j in range(5, 9):
        assert rep.block(j) == code.encode_int(2)
    for j in range(9, 17):
        assert rep.block(j) == code.encode_int(3)


def test_point_mass_constant_blocks():
    q = point_mass(4, 3, 16)
    rep = build_representation(q)
    assert all(rep.block(j) == rep.code.encode_int(3) for j in range(1, 17))


def test_roundtrip_inverse():
    for q in enum_dists(3, 8):
        assert reconstruct_distribution(build_representation(q)) == q


def test_serialization_roundtrip():
    q = GrainDistribution(4, 12, (3, 3, 3, 3))
    rep = build_representation(q)
    back = RepresentationString.from_bytes(rep.to_bytes())
    assert back.n == rep.n and back.grains == rep.grains
    assert (back.blocks == rep.blocks).all()


class TestQueryBlock:
    def test_example(self):
        q = GrainDistribution(4, 16, (4, 4, 8, 0))
        code = element_code(4)
        assert spot_check_blocks(q, code, [5]) == [code.encode_int(2)]

    def test_first_block(self):
        q = GrainDistribution(4, 16, (0, 4, 4, 8))
        code = element_code(4)
        assert spot_check_blocks(q, code, [1]) == [code.encode_int(2)]

    def test_exhaustive_agreement_small_domains(self):
        for n, g in ((4, 12), (8, 16)):
            code = element_code(n)
            for q in enum_dists(n, g) if n == 4 else [uniform(n, g)]:
                rep = build_representation(q, code)
                js = list(range(1, g + 1))
                assert spot_check_blocks(q, code, js) == [rep.block(j) for j in js]


class TestHamming:
    def test_equal_zero(self):
        q = uniform(4, 16)
        rep = build_representation(q)
        assert hamming_block_distance(rep, rep) == 0

    def test_direct_quarter(self):
        # (1/2,1/2) vs (1/4,3/4) over G=4: blocks [1,1,2,2] vs [1,2,2,2]
        a = build_representation(GrainDistribution(2, 4, (2, 2)))
        b = build_representation(GrainDistribution(2, 4, (1, 3)))
        assert hamming_block_distance(a, b) == F(1, 4)

    def test_symbol_at_least_block_times_distance(self):
        a = build_representation(GrainDistribution(3, 9, (3, 3, 3)))
        b = build_representation(GrainDistribution(3, 9, (9, 0, 0)))
        d_rel = a.code.relative_distance
        assert hamming_symbol_distance(a, b) >= hamming_block_distance(a, b) * d_rel

    def test_block_distance_dominates_tv_small(self):
        dists = list(enum_dists(3, 8))
        reps = [build_representation(q) for q in dists]
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                assert hamming_block_distance(reps[i], reps[j]) >= tv_oracle(dists[i], dists[j])

    def test_shape_mismatch(self):
        a = build_representation(uniform(4, 16))
        b = build_representation(uniform(4, 12))
        with pytest.raises(ValueError):
            hamming_block_distance(a, b)


class TestRepresentationTest:
    """The spot-check backend decides on the string it was sent: a string
    that does not decode to a sorted element sequence is no distribution,
    and a decoded one is accepted iff its distance is at most the
    threshold."""

    @staticmethod
    def _spot_check(q, target, delta_f):
        # an honest session committed to q, then q's honest string; at
        # delta_c = 0 the backend's threshold is delta_f / 2
        session = VerifiedOracleSession(VerifierConfig(q.n, F(1, 2)), HonestProver(q), DSampler(q), 3)
        session.establish()
        backend = SpotCheckBackend()
        return backend.verify(
            backend.honest_blob(q), session, make_fixed_target(target), F(0), delta_f,
            rng_from(3, "backend"),
        )

    def test_member_accepts(self):
        u = uniform(8, 64)
        out = self._spot_check(u, u, F(1, 5))
        assert out.accept and out.reason == Reason.ACCEPT and out.measured == 0

    def test_unsorted_rejected(self):
        rep = build_representation(uniform(4, 16))
        blocks = rep.blocks.copy()
        blocks[[0, -1]] = blocks[[-1, 0]]  # swap first and last block
        assert reconstruct_distribution(RepresentationString(4, 16, rep.code, blocks)) is None

    def test_corrupted_block_rejected(self):
        rep = build_representation(uniform(4, 16))
        blocks = rep.blocks.copy()
        blocks[3, -1] ^= 0xFF
        assert reconstruct_distribution(RepresentationString(4, 16, rep.code, blocks)) is None

    def test_out_of_domain_element_rejected(self):
        code = element_code(4)
        bad = np.tile(np.frombuffer(code.encode_int(4 + 1), dtype=np.uint8), (16, 1))
        assert reconstruct_distribution(RepresentationString(4, 16, code, bad)) is None

    def test_far_distribution_rejected_deterministically(self):
        u = uniform(4, 16)
        far = point_mass(4, 1, 16)
        out = self._spot_check(far, u, F(1, 5))
        assert not out.accept and out.reason == Reason.BACKEND_REJECT
        assert out.measured == tv_oracle(far, u) and not out.probe_mismatch

    def test_threshold_knob(self):
        u = uniform(4, 16)
        near = GrainDistribution(4, 16, (5, 4, 4, 3))  # at distance 1/16 from u
        tight = self._spot_check(near, u, F(1, 50))  # threshold 1/100
        loose = self._spot_check(near, u, F(1, 2))  # threshold 1/4
        assert tight.reason == Reason.BACKEND_REJECT and tight.measured == F(1, 16)
        assert loose.accept and loose.measured == F(1, 16)
