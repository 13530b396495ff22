from fractions import Fraction as F

import numpy as np

from vdo.adversaries import (
    AdversarySpec,
    FarCommitAdversary,
    InconsistentOpeningAdversary,
    SelectiveRefusalAdversary,
)
import vdo.commitment as cm
from vdo.commitment import extract, gen, verify_opening
from vdo.dist import point_mass, random_distribution, uniform
from vdo.protocol import VerifierConfig, empty_generator, run_oracle_session
from vdo.rngutil import rng_from
from vdo.testers import DSampler, identity_d_budget, tail_sample_budget
from vdo.wire import QuerySet, Reason

from conftest import openings

N = 16
EPS = F(1, 2)


def _run(d, prover, seed=3):
    cfg = VerifierConfig(N, EPS, generator=empty_generator())
    return run_oracle_session(cfg, prover, DSampler(d), seed)


class TestFarCommit:
    def test_zero_distance_behaves_honest(self):
        q = uniform(N)
        res = _run(q, FarCommitAdversary(q))
        assert res.accept

    def test_far_distribution_rejected(self):
        rejects = 0
        for i in range(20):
            res = _run(point_mass(N, 1), FarCommitAdversary(uniform(N)), seed=i)
            rejects += not res.accept
        assert rejects >= 18

    def test_extract_recovers_committed_exactly(self):
        q = random_distribution(N, rng_from(5, "q"))
        adv = FarCommitAdversary(q, seed=1)
        key = gen(128, N, rng_from(5, "k"))
        adv.receive_key(key)
        report = extract(adv, key, adv.digest, eta=1)
        assert report.distribution == q and report.collision is None


class TestInconsistentOpening:
    def test_perturbed_opening_always_fails_verification(self):
        q = uniform(N)
        adv = InconsistentOpeningAdversary(q, F(1), seed=2)  # flip everything
        key = gen(128, N, rng_from(7, "k"))
        adv.receive_key(key)
        batch = adv.answer_queries(QuerySet.elements(np.arange(1, N + 1)))
        proofs = openings(batch)
        flipped = [proofs[j] for j in batch.index]
        assert all(not verify_opening(p.element, p.to_bytes(), key, adv.digest) for p in flipped)

    def test_perturb_equals_the_uint64_bump(self):
        # the numpy body _perturb replaced: pdf and cdf bumped through the
        # uint64 view of record_heads, so a field at 2^64 - 1 wraps to 0
        def reference(record):
            row = np.frombuffer(record, dtype=np.uint8).reshape(1, -1).copy()
            cm.record_heads(row)[:, 1:] += 1
            return row.tobytes()

        q = random_distribution(N, rng_from(9, "q"))
        adv = InconsistentOpeningAdversary(q, F(1), seed=4)
        adv.receive_key(gen(128, N, rng_from(9, "k")))
        rows = cm.open_batch(np.arange(1, N + 1), adv.digest, adv.aux)
        honest = [row.tobytes() for row in rows]
        top = (2**64 - 1).to_bytes(8, "little")
        edges = [r[:8] + top + r[16:] for r in honest[:2]]  # pdf at the top
        edges += [r[:16] + top + r[24:] for r in honest[:2]]  # cdf at the top
        edges.append(honest[0][:8] + top + top + honest[0][24:])
        for record in honest + edges:
            assert adv._perturb(record) == reference(record)

    def test_zero_flip_prob_is_honest(self):
        q = uniform(N)
        res = _run(q, InconsistentOpeningAdversary(q, F(0), seed=2))
        assert res.accept

    def test_session_reject_rate_matches_flip_formula(self):
        # session rejects at least when any answered position is perturbed:
        # reject rate >= 1 - (1-p)^K for K probes per session
        q = uniform(N)
        p = F(1, 1000)
        k_probes = tail_sample_budget(EPS) + identity_d_budget(N, EPS) + N
        bound = 1 - (1 - p) ** k_probes
        trials, rejects = 150, 0
        for i in range(trials):
            res = _run(q, InconsistentOpeningAdversary(q, p, seed=i), seed=i)
            rejects += not res.accept
        sigma = (float(bound * (1 - bound)) / trials) ** 0.5
        assert rejects / trials >= float(bound) - 4 * sigma - 0.02

    def test_extraction_ignores_flipped_openings(self):
        q = random_distribution(N, rng_from(8, "q"))
        adv = InconsistentOpeningAdversary(q, F(1, 4), seed=3)
        key = gen(128, N, rng_from(8, "k"))
        adv.receive_key(key)
        report = extract(adv, key, adv.digest, eta=1)
        assert report.collision is None
        assert report.distribution == q


class TestSelectiveRefusal:
    def test_empty_block_set_is_honest(self):
        q = uniform(N)
        res = _run(q, SelectiveRefusalAdversary(q, blocked=()))
        assert res.accept

    def test_blocked_probe_rejects_immediately(self):
        q = uniform(N)
        res = _run(q, SelectiveRefusalAdversary(q, blocked={1}))
        assert not res.accept and res.reason == Reason.MALFORMED

    def test_extract_spreads_blocked_subtrees(self):
        # blocking a full sibling pair leaves its parent mass to be spread
        q = random_distribution(8, rng_from(9, "q"), grains=64)
        adv = SelectiveRefusalAdversary(q, blocked={5, 6}, seed=4)
        key = gen(128, 8, rng_from(9, "k"))
        adv.receive_key(key)
        report = extract(adv, key, adv.digest, eta=1)
        out = report.distribution
        for x in (1, 2, 3, 4, 7, 8):
            assert out.pdf_grains(x) == q.pdf_grains(x)
        pair_mass = q.pdf_grains(5) + q.pdf_grains(6)
        assert out.pdf_grains(5) + out.pdf_grains(6) == pair_mass
        spread = [pair_mass - pair_mass // 2, pair_mass // 2]
        assert sorted([out.pdf_grains(5), out.pdf_grains(6)], reverse=True) == sorted(
            spread, reverse=True
        )


def test_registry_builds_all_strategies():
    q = uniform(4, 16)
    for strategy, params in (
        ("honest", ()),
        ("far-commit", ()),
        ("inconsistent-opening", (F(1, 2),)),
        ("selective-refusal", ((1, 2),)),
        ("backend-swap", (uniform(4, 16),)),
    ):
        adv = AdversarySpec(strategy, params).build(q, 1)
        assert adv.strategy == strategy or strategy == "honest"
