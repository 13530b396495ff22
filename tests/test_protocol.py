import socket
import threading
from fractions import Fraction as F

import numpy as np

from vdo.adversaries import (
    FarCommitAdversary,
    InconsistentOpeningAdversary,
    SelectiveRefusalAdversary,
)
from vdo.commitment import Digest, HashKey, NodeLabel
from vdo.dist import GrainDistribution, point_mass, random_distribution, uniform
from vdo.protocol import (
    HonestProver,
    VerifierConfig,
    element_generator,
    quantile_sampling_generator,
    run_oracle_session,
)
from vdo.rngutil import rng_from
from vdo.streams import RemoteProver, serve_prover
from vdo.testers import DSampler, max_grains
from vdo.wire import (
    DigestMsg,
    KeyMsg,
    MsgType,
    OpeningBatch,
    ProbeKind,
    QuerySet,
    Reason,
    SessionTranscript,
    Verdict,
    frame,
    frame_len,
)


class TestWire:
    def test_queryset_roundtrip(self):
        qs = QuerySet.concat(
            QuerySet.quantiles(np.asarray([5, 7])), QuerySet.elements(np.asarray([1, 2, 3]))
        )
        back = QuerySet.from_payload(qs.payload())
        assert back.kinds.tolist() == qs.kinds.tolist()
        assert back.values.tolist() == qs.values.tolist()
        assert qs.payload_len() == len(qs.payload())

    def test_opening_batch_roundtrip(self):
        q = GrainDistribution(4, 16, (4, 4, 8, 0))
        prover = HonestProver(q)
        prover.receive_key(HashKey(bytes(16), 128))
        batch = prover.answer_queries(QuerySet.elements(np.asarray([1, 3, 1, 2])))
        payload = batch.payload()
        assert len(payload) == batch.payload_len()
        back = OpeningBatch.from_payload(payload, batch.depth)
        assert back.payload() == payload
        assert [back.proofs[j].element for j in back.index] == [1, 3, 1, 2]

    def test_refusal_slot_roundtrip(self):
        q = GrainDistribution(4, 16, (4, 4, 8, 0))
        prover = HonestProver(q)
        prover.receive_key(HashKey(bytes(16), 128))
        batch = prover.answer_queries(QuerySet.elements(np.asarray([1, 2])))
        batch.index[1] = -1
        back = OpeningBatch.from_payload(batch.payload(), batch.depth)
        assert back.index.tolist()[1] == -1

    def test_frame_length_matches(self):
        msg = KeyMsg(HashKey(bytes(range(16)), 256))
        assert len(frame(3, msg)) == frame_len(msg)

    def test_golden_frames(self):
        # frozen canonical framings; changing them breaks replayability
        fk = frame(0, KeyMsg(HashKey(bytes(range(16)), 128)))
        assert fk.hex() == (
            "000000000114000000000102030405060708090a0b0c0d0e0f80000000"
        )
        qs = QuerySet.concat(
            QuerySet.quantiles(np.asarray([3])), QuerySet.elements(np.asarray([7]))
        )
        assert frame(2, qs).hex() == (
            "02000000031600000002000000020103000000000000000700000000000000"
        )

    def test_transcript_counters_match_recomputation(self):
        t = SessionTranscript(record_payloads=True)
        t.log("V", KeyMsg(HashKey(bytes(16), 128)))
        t.log("P", Verdict(False, Reason.BAD_DIGEST))
        sent, recv = t.recompute_counters()
        assert (sent, recv) == (t.bytes_sent, t.bytes_received)
        text = t.to_text()
        assert text.splitlines()[0].startswith("0 V KEY")

    def test_sequence_numbers_monotone(self):
        t = SessionTranscript()
        msgs = [KeyMsg(HashKey(bytes(16), 128)), Verdict(True, Reason.ACCEPT)]
        seqs = [t.log("V", m) for m in msgs]
        assert seqs == [0, 1]


def _session(n=64, eps=F(1, 2), seed=7, d=None, q=None, prover=None, generator=None, **kw):
    q = q if q is not None else uniform(n)
    d = d if d is not None else q
    prover = prover or HonestProver(q)
    cfg = VerifierConfig(
        n, eps, generator=generator or quantile_sampling_generator(20),
        record_payloads=True, **kw,
    )
    return run_oracle_session(cfg, prover, DSampler(d), seed)


class TestSession:
    def test_honest_accepts_and_answers_truthfully(self):
        n = 64
        q = random_distribution(n, rng_from(2, "q"))
        res = _session(n=n, q=q, generator=element_generator(np.arange(1, 11)))
        assert res.accept
        for ans in res.answered:
            assert ans.pdf_grains == q.pdf_grains(ans.element)
            assert ans.cdf_grains == q.cdf_grains(ans.element)

    def test_four_messages_before_query_phase(self):
        res = _session()
        types = [e.msg_type for e in res.transcript.entries]
        assert types[:4] == [MsgType.KEY, MsgType.DIGEST, MsgType.QUERY_SET, MsgType.OPENING_BATCH]
        assert types[4:] == [MsgType.QUERY_SET, MsgType.OPENING_BATCH, MsgType.VERDICT]

    def test_transcript_determinism(self):
        a = _session(seed=99)
        b = _session(seed=99)
        assert a.transcript.to_text() == b.transcript.to_text()
        assert a.accept == b.accept
        c = _session(seed=100)
        assert c.transcript.to_text() != a.transcript.to_text()

    def test_counter_recomputation_and_payload_free_equality(self):
        full = _session(seed=31)
        cfg = VerifierConfig(64, F(1, 2), generator=quantile_sampling_generator(20))
        lean = run_oracle_session(cfg, HonestProver(uniform(64)), DSampler(uniform(64)), 31)
        assert full.transcript.bytes_sent == lean.transcript.bytes_sent
        assert full.transcript.bytes_received == lean.transcript.bytes_received
        sent, recv = full.transcript.recompute_counters()
        assert (sent, recv) == (full.transcript.bytes_sent, full.transcript.bytes_received)

    def test_bad_digest_rejected(self):
        class WrongMass(HonestProver):
            def receive_key(self, key):
                msg = super().receive_key(key)
                d = msg.digest
                bad = Digest(
                    NodeLabel(d.root.mass + 1, d.root.digest),
                    d.padded_size,
                    d.domain_size,
                    d.denominator,
                )
                return DigestMsg(bad)

        res = _session(prover=WrongMass(uniform(64)))
        assert not res.accept and res.reason == Reason.BAD_DIGEST

    def test_denominator_beyond_int64_bound_rejected(self):
        # N = 2^21 at the default G = 2^42: 3*G*(N+1) overflows int64. The
        # prover claims a well-formed point-mass digest (building the real
        # 2^22-node tree takes seconds); the verifier must stop at the digest.
        n, g = 1 << 21, 1 << 42
        assert g > max_grains(n)

        class BigDigest:
            def receive_key(self, key):
                return DigestMsg(Digest(NodeLabel(g, bytes(32)), n, n, g))

            def answer_queries(self, qs):
                raise AssertionError("the digest check must reject first")

        d = point_mass(n, 1)
        res = run_oracle_session(VerifierConfig(n, F(1, 2)), BigDigest(), DSampler(d), 3)
        assert not res.accept and res.reason == Reason.BAD_DIGEST
        assert res.transcript.d_samples == 0

    def test_denominator_at_int64_bound_accepts(self):
        for n in (2, 64):
            g = max_grains(n)
            q = point_mass(n, 1, g)
            res = _session(n=n, d=q, q=q, seed=6)
            assert res.accept and res.digest.denominator == g
            res = _session(n=n, d=point_mass(n, 1, g + 1), q=point_mass(n, 1, g + 1), seed=6)
            assert not res.accept and res.reason == Reason.BAD_DIGEST

    def test_far_commit_rejected_by_identity(self):
        n = 64
        res = _session(n=n, d=point_mass(n, 1), q=uniform(n), prover=FarCommitAdversary(uniform(n)))
        assert not res.accept and res.reason == Reason.IDENTITY_FAIL

    def test_inconsistent_opening_rejected(self):
        n = 64
        adv = InconsistentOpeningAdversary(uniform(n), F(1, 10), seed=3)
        res = _session(n=n, prover=adv)
        assert not res.accept and res.reason == Reason.INVALID_OPENING

    def test_selective_refusal_rejected(self):
        n = 64
        adv = SelectiveRefusalAdversary(uniform(n), blocked={1, 2, 3}, seed=3)
        res = _session(n=n, prover=adv)
        assert not res.accept and res.reason == Reason.MALFORMED

    def test_quantile_validity_enforced(self):
        # answer quantile probes with a fixed valid element's opening:
        # validity fails whenever the probed grain lies outside its run
        class StuckQuantile(HonestProver):
            def resolve_queries(self, qs):
                out = super().resolve_queries(qs)
                quant = np.asarray(qs.kinds) == ProbeKind.QUANTILE
                out[quant] = 1
                return out

        n = 16
        res = _session(n=n, prover=StuckQuantile(uniform(n)))
        assert not res.accept and res.reason == Reason.QUANTILE_INVALID

    def test_amplification_majority_vote(self):
        res = _session(seed=8, amplification=3)
        assert res.accept
        types = [e.msg_type for e in res.transcript.entries]
        assert types.count(MsgType.QUERY_SET) == 4  # 3 reps + query phase

    def test_d_samples_counted_only_via_sampler(self):
        res = _session(seed=11)
        from vdo.testers import identity_d_budget

        assert 0 < res.transcript.d_samples <= identity_d_budget(64, F(1, 2))


class TestStreams:
    def test_stream_transport_equals_in_process(self):
        n = 32
        q = random_distribution(n, rng_from(21, "q"))

        left, right = socket.socketpair()
        lr, lw = left.makefile("rb"), left.makefile("wb")
        rr, rw = right.makefile("rb"), right.makefile("wb")
        server = threading.Thread(
            target=serve_prover, args=(rr, rw, HonestProver(q)), daemon=True
        )
        server.start()

        remote = RemoteProver(lr, lw)
        cfg = VerifierConfig(
            n, F(1, 2), generator=quantile_sampling_generator(10), record_payloads=True
        )
        res_remote = run_oracle_session(cfg, remote, DSampler(q), seed=77)
        remote.close()
        server.join(timeout=5)

        res_local = run_oracle_session(cfg, HonestProver(q), DSampler(q), seed=77)
        assert res_remote.accept == res_local.accept
        assert res_remote.transcript.to_text() == res_local.transcript.to_text()
        for s in (left, right):
            s.close()
