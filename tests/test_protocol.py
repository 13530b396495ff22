import dataclasses
import functools
import io
import itertools
import socket
import threading
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdo import commitment as cm
from vdo import protocol, streams, testers, wire
from vdo.adversaries import (
    FarCommitAdversary,
    InconsistentOpeningAdversary,
    SelectiveRefusalAdversary,
)
from vdo.argument import FullRevealBackend, SpotCheckBackend, run_general_argument
from vdo.commitment import Digest, HashKey, NodeLabel
from vdo.dist import GrainDistribution, point_mass, random_distribution, uniform
from vdo.properties import make_fixed_target, make_uniformity, run_label_invariant_argument
from vdo.protocol import (
    HonestProver,
    SessionRejected,
    VerifiedOracleSession,
    VerifierConfig,
    quantile_sampling_generator,
    run_oracle_session,
)
from vdo.representation import RepresentationString, build_representation
from vdo.rngutil import rng_from
from vdo.streams import RemoteProver, read_frame, read_header, serve_prover, write_frame
from vdo.testers import MAX_DOMAIN, DSampler, IdentityTestRun, max_grains
from vdo.wire import (
    HEADER_LEN,
    BackendSelect,
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

from conftest import (
    DEPTH_BYTE,
    Opening,
    concat,
    direction_byte,
    edited,
    element_generator,
    openings,
)


class TestWire:
    def test_queryset_roundtrip(self):
        qs = concat(
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
        proofs = openings(back)
        assert [proofs[j].element for j in back.index] == [1, 3, 1, 2]

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
        qs = concat(
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
        elements, pdfs, cdfs = res.answers
        assert elements.tolist() == list(range(1, 11))
        for x, pdf, cdf in zip(elements.tolist(), pdfs.tolist(), cdfs.tolist()):
            assert pdf == q.pdf_grains(x)
            assert cdf == q.cdf_grains(x)

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

    @pytest.mark.parametrize("n", [0, -3])
    def test_domain_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="domain size must be positive"):
            VerifierConfig(n, F(1, 2))

    def test_domain_size_bounded_by_int64_pair_keys(self):
        # the largest pair key, (N + 1)(6N + 2) + 6N + 1, fits in int64 at
        # MAX_DOMAIN and not one above; no session runs
        def largest_key(n):
            return (n + 1) * (6 * n + 2) + 6 * n + 1

        assert largest_key(MAX_DOMAIN) <= 2**63 - 1 < largest_key(MAX_DOMAIN + 1)
        assert VerifierConfig(MAX_DOMAIN, F(1, 2)).n == MAX_DOMAIN
        with pytest.raises(ValueError, match="exceeds MAX_DOMAIN"):
            VerifierConfig(MAX_DOMAIN + 1, F(1, 2))

    def test_denominator_beyond_int64_bound_rejected(self):
        # N = 2^21 at G = 2^42: 3*G*(N+1) overflows int64. The
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

    def test_raising_verdict_hook_leaves_the_verdict(self):
        class Prover(HonestProver):
            def receive_verdict(self, verdict):
                raise RuntimeError("verdict hook")

        res = _session(n=16, prover=Prover(uniform(16)))
        assert res.accept and res.reason == Reason.ACCEPT
        assert res.transcript.entries[-1].msg_type == MsgType.VERDICT

    def test_d_samples_counted_only_via_sampler(self):
        res = _session(seed=11)
        from vdo.testers import identity_d_budget

        assert 0 < res.transcript.d_samples <= identity_d_budget(64, F(1, 2))


class _BatchTamper(HonestProver):
    """Honest prover whose opening batches, rebuilt from a copy of their
    record matrix and index, pass through tamper(batch)."""

    def __init__(self, q, tamper):
        super().__init__(q)
        self.tamper = tamper

    def answer_queries(self, qs):
        batch = edited(super().answer_queries(qs))
        self.tamper(batch)
        return batch


def _set_last_index_past_proofs(batch):
    batch.index[-1] = len(batch.proofs)


def _listed(edit):
    """A tamper: the batch's proofs become its rows decoded to a list of
    Opening, with the first replaced by edit(first). A list is not a
    record matrix, whatever it holds."""

    def tamper(batch):
        proofs = openings(batch)
        batch.proofs = [edit(proofs[0]), *proofs[1:]]

    return tamper


_set_first_proof_none = _listed(lambda p: None)
# an opening whose path is not bytes: it has no record to verify
_set_first_path_entry_unpackable = _listed(lambda p: dataclasses.replace(p, path=None))


def _set_first_depth_byte_short(batch):
    batch.proofs[0, DEPTH_BYTE] -= 1


class TestMalformedBatch:
    """A batch the verifier cannot use ends the session in MALFORMED
    instead of raising out of it."""

    @pytest.mark.parametrize(
        "tamper",
        [_set_last_index_past_proofs, _set_first_proof_none, _set_first_path_entry_unpackable],
        ids=["_set_last_index_past_proofs", "_set_first_proof_none",
             "_set_first_path_entry_unpackable"],
    )
    def test_rejected_as_malformed(self, tamper):
        n = 64
        cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(20))
        prover = _BatchTamper(uniform(n), tamper)
        res = run_oracle_session(cfg, prover, DSampler(uniform(n)), 7)
        assert not res.accept and res.reason == Reason.MALFORMED


def _counting_verify(monkeypatch) -> list[bytes]:
    """Replace commitment.verify_opening (the session looks it up at call
    time) by a wrapper that records the encoding of every record it is
    asked to verify."""
    calls: list[bytes] = []
    verify = cm.verify_opening

    def counted(x, record, key, d):
        calls.append(bytes(record))
        return verify(x, record, key, d)

    monkeypatch.setattr(cm, "verify_opening", counted)
    return calls


def _batch_records(res) -> list[set[bytes]]:
    """The distinct records of each opening batch of a session (or session
    result) recorded with payloads."""
    batches = [
        OpeningBatch.from_payload(bytes(e.payload), res.digest.depth)
        for e in res.transcript.entries
        if e.msg_type == MsgType.OPENING_BATCH
    ]
    return [{row.tobytes() for row in batch.proofs} for batch in batches]


def _over_socketpair(prover, session):
    """session(remote): the result of a session against `prover` served over
    a socketpair."""
    left, right = socket.socketpair()
    lr, lw = left.makefile("rb"), left.makefile("wb")
    rr, rw = right.makefile("rb"), right.makefile("wb")
    server = threading.Thread(target=serve_prover, args=(rr, rw, prover), daemon=True)
    server.start()
    try:
        remote = RemoteProver(lr, lw)
        res = session(remote)
        remote.close()
        server.join(timeout=5)
        assert not server.is_alive()
    finally:
        for f in (lr, lw, rr, rw, left, right):
            f.close()
    return res


def _on_second_batch(tamper, originals: list):
    """A _BatchTamper tamper: the second batch passes through tamper(batch),
    and its first opening before that goes to `originals`."""
    batches = []

    def on_second(batch):
        batches.append(batch)
        if len(batches) == 2:
            originals.append(openings(batch)[0])
            tamper(batch)

    return on_second


def _flip_path_byte(batch):
    batch.proofs[0, DEPTH_BYTE + 1 + 10] ^= 1  # a byte of the first sibling's hash


class TestVerifiedOpenings:
    """The session walks each distinct record once: a record equal to one an
    earlier batch accepted (int fields, the same bytes path) is answered
    from the session's map, and every other record is verified as before."""

    N = 64

    def _label_session(self, prover, record_payloads=True):
        d = uniform(self.N)
        return run_label_invariant_argument(
            make_uniformity(), self.N, F(1, 20), F(9, 20), DSampler(d), prover, 3,
            record_payloads=record_payloads,
        ).session

    @pytest.mark.parametrize("transport", ["in-process", "socketpair", "socketpair-no-payloads"])
    def test_each_distinct_record_verified_once(self, monkeypatch, transport):
        calls = _counting_verify(monkeypatch)
        prover = HonestProver(uniform(self.N))
        # with no payload recorded, the decoder walks each block as it
        # arrives, and the session's walk passes over those rows
        session = functools.partial(
            self._label_session, record_payloads=transport != "socketpair-no-payloads"
        )
        res = session(prover) if transport == "in-process" else _over_socketpair(prover, session)
        assert res.accept and calls
        assert len(calls) == len(set(calls)) == len(res.verified_openings)
        if res.transcript.record_payloads:
            identity, query = _batch_records(res)
            assert identity & query  # the query phase repeats accepted records
            assert sorted(calls) == sorted(identity | query)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (_flip_path_byte, Reason.INVALID_OPENING),
            (_listed(lambda p: dataclasses.replace(p, element=[p.element])), Reason.MALFORMED),
            (_listed(lambda p: dataclasses.replace(p, claimed_cdf=[p.claimed_cdf])),
             Reason.MALFORMED),
            (_listed(lambda p: dataclasses.replace(p, element=float(p.element))),
             Reason.MALFORMED),
            (_listed(lambda p: dataclasses.replace(p, path=None)), Reason.MALFORMED),
            (_listed(lambda p: dataclasses.replace(p, path=bytearray(p.path))), Reason.MALFORMED),
            (_listed(lambda p: dataclasses.replace(p, element=np.int64(p.element))),
             Reason.MALFORMED),
        ],
        ids=["path-byte-flipped", "unhashable-element", "unhashable-cdf", "float-element",
             "path-none", "path-bytearray", "int64-element"],
    )
    def test_second_batch_reasons(self, edit, reason):
        # the edited record's claim was accepted in the identity batch. A
        # flipped path byte goes to verify_opening; a batch whose proofs are
        # a list is MALFORMED in either mode, whatever the list holds.
        for record_payloads in (False, True):
            originals = []
            prover = _BatchTamper(uniform(self.N), _on_second_batch(edit, originals))
            res = self._label_session(prover, record_payloads=record_payloads)
            assert res.reason == reason
            (p,) = originals
            assert (p.element, p.claimed_pdf, p.claimed_cdf) in res.verified_openings

    def test_accepted_record_with_unhashable_field_is_malformed(self):
        # a 0-d array element would pass verify_opening but cannot key the
        # map; in a list, the session rejects it before any walk
        edit = _listed(lambda p: dataclasses.replace(p, element=np.array(p.element)))
        prover = _BatchTamper(uniform(self.N), _on_second_batch(edit, []))
        assert self._label_session(prover, record_payloads=False).reason == Reason.MALFORMED

    def test_spot_check_walks_no_identity_record_again(self, monkeypatch):
        n, dc, df = 16, F(0), F(4, 5)
        q = uniform(n)
        cfg = VerifierConfig(n, (df - dc) / 10, record_payloads=True)
        session = VerifiedOracleSession(cfg, HonestProver(q), DSampler(q), 3)
        session.establish()
        accepted = set(session.verified_openings.values())
        calls = _counting_verify(monkeypatch)
        backend = SpotCheckBackend()
        out = backend.verify(
            backend.honest_blob(q), session, make_fixed_target(q), dc, df, rng_from(3, "backend")
        )
        assert out.accept
        identity, spot = _batch_records(session)
        assert identity == accepted and spot & accepted
        assert sorted(calls) == sorted(spot - accepted)


class _WalkForger(HonestProver):
    """Commits to a point mass on uniform's grains, and answers every batch
    from an honest prover of uniform under the same key. Its answer_walked
    hands the session's walker nothing, or, with walk_own_rows, the rows of
    its committed tree's honest answer, and returns the other batch."""

    def __init__(self, n, walk_own_rows):
        other = uniform(n)
        super().__init__(point_mass(n, 1, other.grains))
        self.other, self.walk_own_rows = HonestProver(other), walk_own_rows

    def receive_key(self, key):
        self.other.receive_key(key)
        return super().receive_key(key)

    def answer_queries(self, qs):
        return self.other.answer_queries(qs)

    def answer_walked(self, qs, walk):
        if self.walk_own_rows:
            assert walk(super().answer_queries(qs).proofs)
        return self.other.answer_queries(qs)


class TestWalkTrust:
    """A row of a batch counts as verified only through the session's own
    walk of the batch it returned: a prover that offers answer_walked and
    skips the walker, or feeds it other rows, gains nothing by it."""

    N = 64

    @pytest.mark.parametrize("record_payloads", [False, True], ids=["no-payloads", "payloads"])
    @pytest.mark.parametrize("walk_own_rows", [False, True], ids=["never-walks", "walks-own-rows"])
    def test_forged_batch_is_an_invalid_opening(self, walk_own_rows, record_payloads):
        prover = _WalkForger(self.N, walk_own_rows)
        cfg = VerifierConfig(
            self.N, F(1, 2), generator=quantile_sampling_generator(20),
            record_payloads=record_payloads,
        )
        res = run_oracle_session(cfg, prover, DSampler(uniform(self.N)), 7)
        assert not res.accept and res.reason == Reason.INVALID_OPENING
        q = prover.q  # the committed distribution
        assert all((pdf, cdf) == (q.pdf_grains(x), q.cdf_grains(x))
                   for x, pdf, cdf in res.verified_openings)
        # the rows the forger walked itself are true claims, and kept
        assert bool(res.verified_openings) == (walk_own_rows and not record_payloads)


class _VerifyEverySession(VerifiedOracleSession):
    """The session loop that the verified-openings map and the lean identity
    round replaced: every record of every batch goes to verify_opening, each
    accepted claim is added to a set, and the answers are expanded to one
    (element, pdf, cdf) per probe and checked under full-length masks. It
    returns the per-probe arrays as the table, with the identity index, and
    its identity round reads them per probe. As when payloads are logged, a
    batch without an encoding is MALFORMED before any record is walked; the
    records are then decoded one by one with Opening.from_bytes. The
    reference of TestVerifiedOpeningsDifferential and
    TestLeanRoundDifferential."""

    def __init__(self, *args):
        super().__init__(*args)
        self.verified_openings = set()

    def _exchange_distinct(self, qs):
        self.transcript.q_probes += len(qs)
        batch = self._ask(qs, lambda: self.prover.answer_queries(qs), OpeningBatch)
        if len(batch) != len(qs) or batch.depth != self.digest.depth:
            raise SessionRejected(Reason.MALFORMED)
        if (batch.index < 0).any() or (batch.index >= len(batch.proofs)).any():
            raise SessionRejected(Reason.MALFORMED)
        try:
            batch.payload()
        except Exception:
            raise SessionRejected(Reason.MALFORMED)
        proofs = openings(batch)
        for p in proofs:
            if not cm.verify_opening(p.element, p.to_bytes(), self.key, self.digest):
                raise SessionRejected(Reason.INVALID_OPENING)
            self.verified_openings.add((p.element, p.claimed_pdf, p.claimed_cdf))
        pe = np.asarray([p.element for p in proofs], dtype=np.int64)
        ppdf = np.asarray([p.claimed_pdf for p in proofs], dtype=np.int64)
        pcdf = np.asarray([p.claimed_cdf for p in proofs], dtype=np.int64)
        elems = pe[batch.index]
        pdfs = ppdf[batch.index]
        cdfs = pcdf[batch.index]
        values = np.asarray(qs.values, dtype=np.int64)
        kinds = np.asarray(qs.kinds)
        is_elem = kinds == ProbeKind.ELEMENT
        if (elems[is_elem] != values[is_elem]).any():
            raise SessionRejected(Reason.INVALID_OPENING)
        is_quant = kinds == ProbeKind.QUANTILE
        if is_quant.any():
            g = values[is_quant]
            lo = cdfs[is_quant] - pdfs[is_quant]
            hi = cdfs[is_quant]
            if ((g <= lo) | (g > hi)).any():
                raise SessionRejected(Reason.QUANTILE_INVALID)
        return elems, pdfs, cdfs, np.arange(len(qs), dtype=np.int64)

    def _identity_round(self, rep):
        # the per-probe round: the first s_tail answers are the reference
        # samples, and complete() reads the rest one pdf per probe
        cfg, g = self.config, self.digest.denominator
        run = IdentityTestRun(
            cfg.n, cfg.epsilon, rng_from(self.seed, "tail", rep), rng_from(self.seed, "pairs", rep)
        )
        s_tail = run.s_tail
        q_grains = rng_from(self.seed, "qgrains", rep).integers(
            1, g + 1, size=s_tail, dtype=np.int64
        )
        element_probes = run.plan(self.d_sampler, rng_from(self.seed, "mix", rep))
        qs = concat(QuerySet.quantiles(q_grains), QuerySet.elements(element_probes))
        _, pdfs, _, _ = self._exchange_distinct(qs)  # one entry per probe
        self.transcript.q_samples += s_tail
        per_probe = np.arange(element_probes.shape[0])
        res = run.complete(pdfs[s_tail:], per_probe, pdfs[:s_tail], g)
        res.counters.q_samples = s_tail
        self.identity = res
        self.transcript.d_samples = self.d_sampler.draws
        return res.accept


def _edited_row(kind, rows, which, variant, sent):
    """A new record for row `which` of the record matrix rows under one
    edit; `sent` lists the record matrices sent before."""
    if kind == "replay":
        pool = np.concatenate([*sent, rows])
        return pool[variant % len(pool)].copy()
    if kind == "flip-sent-in-place" and sent and len(sent[-1]):
        # a row of the matrix sent last, edited there after it was sent
        row = sent[-1][which % len(sent[-1])]
    else:
        row = rows[which].copy()
    head = cm.record_heads(row[None])[0]
    if kind in ("flip-path", "flip-sent-in-place"):
        row[DEPTH_BYTE + 1 + variant % (len(row) - DEPTH_BYTE - 1)] ^= 1 << (variant % 8)
    elif kind == "pdf+1":
        head[1] += 1
    elif kind == "cdf+1":
        head[2] += 1
    elif kind == "other-element":
        head[0] = head[0] % 16 + 1
    elif kind == "direction-2":
        row[direction_byte(variant % ((len(row) - DEPTH_BYTE - 1) // 41))] = 2
    elif kind in ("depth+1", "depth-1"):
        row[DEPTH_BYTE] = (int(row[DEPTH_BYTE]) + (1 if kind == "depth+1" else -1)) % 256
    else:
        assert kind == "equal-copy"
    return row.copy()


_EDIT_KINDS = (
    "flip-path", "flip-sent-in-place", "pdf+1", "cdf+1", "other-element", "replay",
    "equal-copy", "direction-2", "depth+1", "depth-1",
)


class _ScriptedProver(HonestProver):
    """Honest prover whose k-th batch gets edits[k]: each (kind, which,
    variant, extra) edits record `which`, in place or (extra) as an added
    row that every other probe answered by `which` points to."""

    def __init__(self, q, edits):
        super().__init__(q)
        self.edits = list(edits)
        self.sent: list[np.ndarray] = []

    def answer_queries(self, qs):
        batch = edited(super().answer_queries(qs))
        edits = self.edits.pop(0) if self.edits else []
        for kind, which, variant, extra in edits:
            rows = batch.proofs
            if not len(rows):
                break
            which %= len(rows)
            row = _edited_row(kind, rows, which, variant, self.sent)
            if extra:
                at = np.flatnonzero(batch.index == which)[::2]
                batch.index[at] = len(rows)
                batch.proofs = np.concatenate([rows, row[None]])
            else:
                rows[which] = row
        self.sent.append(batch.proofs)
        return batch


def _batch_edits(kinds):
    return st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 15), st.integers(0, 10**6),
                  st.booleans()),
        max_size=3,
    )


# edits whose batch the verifier still accepts, so a second batch follows
_KEPT = ("equal-copy",)


class TestVerifiedOpeningsDifferential:
    """Two-batch oracle sessions against edited honest batches: the session
    with the verified-openings map ends exactly as the verify-every-record
    reference does, in reason, answers, verified claims and transcript."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["uniform", "random"]),
        st.tuples(_batch_edits(_KEPT) | _batch_edits(_EDIT_KINDS), _batch_edits(_EDIT_KINDS)),
        st.booleans(),
        st.integers(0, 3),
    )
    def test_matches_verify_every_record(self, dist, edits, record_payloads, seed):
        n = 16
        q = uniform(n) if dist == "uniform" else random_distribution(n, rng_from(seed, "q"))
        cfg = VerifierConfig(
            n, F(1, 2), generator=quantile_sampling_generator(12), record_payloads=record_payloads
        )

        def run():
            return run_oracle_session(cfg, _ScriptedProver(q, edits), DSampler(q), seed)

        got = run()
        with mock.patch.object(protocol, "VerifiedOracleSession", _VerifyEverySession):
            ref = run()
        assert (got.accept, got.reason) == (ref.accept, ref.reason)
        assert got.verified_openings == ref.verified_openings
        assert got.transcript.to_text() == ref.transcript.to_text()
        assert (got.transcript.bytes_sent, got.transcript.bytes_received) == (
            ref.transcript.bytes_sent, ref.transcript.bytes_received
        )
        assert (got.answers is None) == (ref.answers is None)
        if got.answers is not None:
            for a, b in zip(got.answers, ref.answers):
                assert a.tolist() == b.tolist()


class _IndexEditProver(HonestProver):
    """Honest prover whose k-th batch gets index edits[k]. Each (kind, pos)
    repoints one probe, the pos-th (cyclically) among those it can target:
    "minus-one" and "past-k" set an index out of range, "other-element"
    points an element probe at another distinct opening, and "other-bracket"
    does the same to a quantile probe."""

    def __init__(self, q, edits):
        super().__init__(q)
        self.edits = list(edits)

    def answer_queries(self, qs):
        batch = super().answer_queries(qs)
        kinds, k = np.asarray(qs.kinds), len(batch.proofs)
        for kind, pos in self.edits.pop(0) if self.edits else []:
            if kind == "other-element":
                at = np.flatnonzero(kinds == ProbeKind.ELEMENT)
            elif kind == "other-bracket":
                at = np.flatnonzero(kinds == ProbeKind.QUANTILE)
            else:
                at = np.arange(len(qs))
            if at.size == 0 or (k < 2 and kind.startswith("other")):
                continue
            i = at[pos % at.size]
            if kind == "minus-one":
                batch.index[i] = -1
            elif kind == "past-k":
                batch.index[i] = k + pos % 3
            else:
                batch.index[i] = (batch.index[i] + 1 + pos % (k - 1)) % k
        return batch


def _index_edits():
    kinds = ("minus-one", "past-k", "other-element", "other-bracket")
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 10**6)), max_size=2)


def _probe_list():
    """Interleaved probes as (kind, value seed) pairs, mapped into range by
    _query_generator."""
    kinds = st.sampled_from([ProbeKind.ELEMENT, ProbeKind.QUANTILE])
    return st.lists(st.tuples(kinds, st.integers(0, 10**6)), max_size=40)


def _query_generator(probes):
    def make(n, epsilon, denominator, rng):
        kinds = np.asarray([kind for kind, _ in probes], dtype="u1")
        values = [
            1 + v % (n if kind == ProbeKind.ELEMENT else denominator) for kind, v in probes
        ]
        return QuerySet(kinds, np.asarray(values, dtype=np.int64))

    return make


def _lean_and_reference(n, q, edits, probes, block, seed, amplification=1):
    """(session, per-probe reference session) against the same index edits,
    with the check blocks `block` probes long."""
    cfg = VerifierConfig(
        n, F(1, 2), generator=_query_generator(probes), amplification=amplification,
        record_payloads=True,
    )

    def run():
        return run_oracle_session(cfg, _IndexEditProver(q, edits), DSampler(q), seed)

    with mock.patch.object(protocol, "CHECK_BLOCK", block):
        got = run()
        with mock.patch.object(protocol, "VerifiedOracleSession", _VerifyEverySession):
            ref = run()
    return got, ref


class TestLeanRoundDifferential:
    """The identity round that reads its answers from the distinct openings
    and the probe index ends exactly as the per-probe reference does: same
    reason, same IdentityResult (accept, collisions, statistic, threshold,
    tail, counters), same answers and transcript, for checks run in blocks
    of any length."""

    # N = 16 sweeps the tail exactly; N = 256 estimates it from the
    # reference samples, which the round reads through the index
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([16, 256]),
        st.sampled_from(["uniform", "random"]),
        st.tuples(_index_edits(), _index_edits()),
        _probe_list(),
        st.integers(1, 40),
        st.integers(0, 3),
        st.sampled_from([1, 3]),
    )
    def test_matches_per_probe_reference(
        self, n, dist, edits, probes, block, seed, amplification
    ):
        q = uniform(n) if dist == "uniform" else random_distribution(n, rng_from(seed, "q"))
        got, ref = _lean_and_reference(n, q, edits, probes, block, seed, amplification)
        assert (got.accept, got.reason) == (ref.accept, ref.reason)
        assert got.identity == ref.identity
        assert got.verified_openings == ref.verified_openings
        assert got.transcript.to_text() == ref.transcript.to_text()
        assert (got.answers is None) == (ref.answers is None)
        if got.answers is not None:
            for a, b in zip(got.answers, ref.answers):
                assert a.dtype == b.dtype == np.int64
                assert a.tolist() == b.tolist()

    def test_late_wrong_element_beats_early_bad_bracket(self):
        # the identity batch is [quantiles | elements]: with blocks of 8
        # probes the bad bracket sits in the first block and the wrong
        # element in the last, and the element check still decides
        n, q = 16, uniform(16)
        edits = [[("other-bracket", 0), ("other-element", -1)]]
        got, ref = _lean_and_reference(n, q, edits, [], 8, 1)
        assert got.reason == ref.reason == Reason.INVALID_OPENING
        got, ref = _lean_and_reference(n, q, [[("other-bracket", 0)]], [], 8, 1)
        assert got.reason == ref.reason == Reason.QUANTILE_INVALID

    @pytest.mark.parametrize("kind", ["minus-one", "past-k"])
    @pytest.mark.parametrize("pos", [0, -1])
    def test_index_out_of_range_is_malformed(self, kind, pos):
        n, q = 16, uniform(16)
        got, ref = _lean_and_reference(n, q, [[(kind, pos)]], [], 8, 2)
        assert got.reason == ref.reason == Reason.MALFORMED

    def test_empty_query_set(self):
        n, q = 16, uniform(16)
        got, ref = _lean_and_reference(n, q, [], [], 8, 3)
        assert got.accept and ref.accept
        assert got.identity == ref.identity
        assert [a.tolist() for a in got.answers] == [[], [], []]
        assert all(a.dtype == np.int64 for a in got.answers)
        assert got.transcript.to_text() == ref.transcript.to_text()


class TestBlockedRoundDifferential:
    """The prover's resolve-and-rank and the pair lifting's draws run over
    blocks of probes: with the block length patched to 1, 7 or 64 in both
    layers, the prover's batch and a whole oracle session equal the
    unpatched run, whose batches fit in one block."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 16, 256]),
        st.sampled_from([1, 7, 64]),
        st.integers(0, 2**16),
        _probe_list(),
    )
    def test_batch_equals_the_unblocked_batch(self, n, block, seed, probes):
        q = random_distribution(n, rng_from(seed, "q"))
        qs = _query_generator(probes)(n, F(1, 2), q.grains, None)
        sent = qs.values.copy()

        def batch():
            prover = HonestProver(q)
            prover.receive_key(HashKey(bytes(16), 128))
            return prover.answer_queries(qs)

        ref = batch()
        with mock.patch.object(protocol, "CHECK_BLOCK", block), mock.patch.object(
            testers, "CHECK_BLOCK", block
        ):
            got = batch()
        assert np.array_equal(got._rows(), ref._rows())
        assert got.index.dtype == ref.index.dtype == np.int64
        assert got.index.tolist() == ref.index.tolist()
        assert qs.values.tolist() == sent.tolist()  # the prover ranks its own copy

    # N = 1 and 16 sweep the tail exactly, N = 256 samples it
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 16, 256]),
        st.sampled_from(["uniform", "random"]),
        st.sampled_from([1, 7, 64]),
        st.integers(0, 2**16),
        _probe_list(),
    )
    def test_session_equals_the_unblocked_run(self, n, dist, block, seed, probes):
        q = uniform(n) if dist == "uniform" else random_distribution(n, rng_from(seed, "q"))
        cfg = VerifierConfig(n, F(1, 2), generator=_query_generator(probes), record_payloads=True)

        def run():
            return run_oracle_session(cfg, HonestProver(q), DSampler(q), seed)

        ref = run()
        with mock.patch.object(protocol, "CHECK_BLOCK", block), mock.patch.object(
            testers, "CHECK_BLOCK", block
        ):
            got = run()
        assert (got.accept, got.reason) == (ref.accept, ref.reason)
        assert got.identity == ref.identity
        assert got.transcript.to_text() == ref.transcript.to_text()
        assert got.transcript.d_samples == ref.transcript.d_samples
        assert (got.answers is None) == (ref.answers is None)
        if got.answers is not None:
            for a, b in zip(got.answers, ref.answers):
                assert a.tolist() == b.tolist()


class TestRoundMemory:
    def test_heap_peak_within_the_round_arrays(self):
        # an honest identity round at general-256's sizes holds, beside
        # blocks of at most CHECK_BLOCK probes, one int64 values buffer (the
        # query's, whose mixed part becomes the pair keys), its kinds until
        # the exchange ends, the reply's index, and then the keep mask or
        # the collision count's 32-bit sorted copy of the keys
        n, grains, eps = 256, 81920, F(3, 50)
        q = random_distribution(n, rng_from(1, "memory"), grains)
        cfg = VerifierConfig(n, eps)
        run = IdentityTestRun(n, eps, rng_from(0, "tail"), rng_from(0, "pairs"))
        assert run.tail_exact
        probes = run.s_tail + n + run.s_d
        exchange = 8 * probes + probes + 8 * probes
        lifting = 8 * probes + 8 * probes + run.s_d
        count = 8 * probes + 8 * probes + 4 * run.s_d
        bound = max(exchange, lifting, count) + (2 << 20)

        def session(seed):
            return VerifiedOracleSession(cfg, HonestProver(q), DSampler(q), seed)

        session(0).establish()  # warm-up: the guide and code tables
        s = session(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s.establish()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert s.identity.accept
        assert peak < bound, f"{peak / 2**20:.1f} MiB against {bound / 2**20:.1f} MiB"
        assert peak < 20 * probes, f"{peak / probes:.1f} B per probe"


class TestDedup:
    """answer_queries numbers the distinct elements exactly as np.unique does."""

    N = 50

    @pytest.fixture
    def prover(self):
        q = random_distribution(self.N, rng_from(5, "dedup"), grains=1000)
        prover = HonestProver(q)
        prover.receive_key(HashKey(bytes(16), 128))
        return prover

    @pytest.mark.parametrize("case", ["random", "all-equal", "full-domain", "mixed"])
    def test_matches_unique(self, prover, case):
        rng = rng_from(9, "dedup", case)
        n, g = self.N, prover.q.grains
        if case == "random":
            qs = QuerySet.elements(rng.integers(1, n + 1, size=500))
        elif case == "all-equal":
            qs = QuerySet.elements(np.full(300, 17))
        elif case == "full-domain":
            qs = QuerySet.elements(rng.permutation(np.arange(1, n + 1)))
        else:
            qs = concat(
                QuerySet.quantiles(rng.integers(1, g + 1, size=200)),
                QuerySet.elements(rng.integers(1, n + 1, size=200)),
            )
        distinct, inverse = np.unique(prover.resolve_queries(qs), return_inverse=True)
        batch = prover.answer_queries(qs)
        assert [p.element for p in openings(batch)] == distinct.tolist()
        assert batch.index.tolist() == inverse.tolist()

    @pytest.mark.parametrize("element", [0, N + 1, -1])
    def test_out_of_domain_element_raises(self, prover, element):
        with pytest.raises(ValueError):
            prover.answer_queries(QuerySet.elements(np.asarray([3, element, 5])))


def _reference_from_payload(data: bytes, depth: int):
    """The per-row dictionary decoder that OpeningBatch.from_payload
    replaced: (distinct proofs in first-occurrence order, index)."""
    rec = cm.record_len(depth)
    count = int.from_bytes(data[:4], "little")
    if len(data) != 4 + count * rec:
        raise ValueError("opening batch length mismatch")
    blank = b"\x00" * rec
    proofs: list[Opening] = []
    index = np.empty(count, dtype=np.int64)
    seen: dict[bytes, int] = {}
    for i in range(count):
        chunk = data[4 + i * rec : 4 + (i + 1) * rec]
        if chunk == blank:
            index[i] = -1
            continue
        j = seen.get(chunk)
        if j is None:
            j = len(proofs)
            seen[chunk] = j
            proofs.append(Opening.from_bytes(chunk))
        index[i] = j
    return proofs, index


def _reference_frame(seq: int, proofs, index, depth: int) -> bytes:
    """The join-based encoder that frame/payload replaced."""
    blank = b"\x00" * cm.record_len(depth)
    encoded = [p.to_bytes() for p in proofs]
    body = b"".join(encoded[j] if j >= 0 else blank for j in index)
    payload = len(index).to_bytes(4, "little") + body
    return (
        seq.to_bytes(4, "little") + bytes([MsgType.OPENING_BATCH])
        + len(payload).to_bytes(4, "little") + payload
    )


@functools.lru_cache
def _honest_records(n: int) -> tuple[int, tuple[bytes, ...]]:
    """(depth, encoded honest opening of every element) at domain size n."""
    prover = HonestProver(random_distribution(n, rng_from(n, "records")))
    prover.receive_key(HashKey(bytes(16), 128))
    batch = prover.answer_queries(QuerySet.elements(np.arange(1, n + 1)))
    return batch.depth, tuple(row.tobytes() for row in batch.proofs)


_WELL_FORMED = ("honest",) * 4 + ("blank", "other-path", "zero-head")
_MALFORMED = ("bad-direction", "bad-depth")


@st.composite
def _payloads(draw):
    """(depth, payload) built from honest records: repeats, rows with an
    honest head and another path, blank rows, non-blank rows with a zero
    head; sometimes a direction byte of 2, a depth byte off by one or a
    wrong total length. N = 1 gives depth 0; the batch may be empty."""
    n = draw(st.sampled_from([1, 2, 5, 16]))
    depth, records = _honest_records(n)
    kinds = _WELL_FORMED + (_MALFORMED if draw(st.booleans()) else ())
    rows = []
    picks = st.tuples(st.sampled_from(kinds), st.integers(0, n - 1), st.integers(0, 7))
    for kind, which, variant in draw(st.lists(picks, max_size=30)):
        row = bytearray(records[which])
        if kind == "blank":
            row = bytearray(len(row))
        elif kind == "other-path" and depth:
            row[25 + (variant * 53) % (len(row) - 25)] ^= 1  # keeps direction bytes in {0, 1}
        elif kind == "zero-head":
            row[:24] = bytes(24)
        elif kind == "bad-direction" and depth:
            row[25 + 41 * (variant % depth) + 40] = 2
        elif kind in ("bad-direction", "bad-depth"):
            row[24] = (depth + (1 if variant % 2 else 255)) % 256
        rows.append(bytes(row))
    payload = len(rows).to_bytes(4, "little") + b"".join(rows)
    length = draw(st.sampled_from(["exact"] * 6 + ["one-more", "one-less"]))
    if length == "one-more":
        payload += b"\x00"
    elif length == "one-less":
        payload = payload[:-1]
    return depth, payload


def _decode(decoder, payload, depth):
    try:
        return decoder(payload, depth)
    except ValueError:
        return None


def _decoded(decode):
    """decode()'s distinct records and index, or its ValueError's message."""
    try:
        proofs, index = decode()
    except ValueError as exc:
        return str(exc)
    return [p.to_bytes() for p in proofs], index.tolist()


class _RecordingWriter:
    """Byte writer that keeps a copy of every write and, for each flush, the
    number of writes before it."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.flushes: list[int] = []

    def write(self, data):
        self.writes.append(bytes(data))

    def flush(self):
        self.flushes.append(len(self.writes))


class TestBatchCodecDifferential:
    """The array-native batch codec against the per-row reference codec."""

    @settings(max_examples=400, deadline=None)
    @given(_payloads())
    def test_from_payload_matches_reference(self, case):
        depth, payload = case
        got = _decode(OpeningBatch.from_payload, payload, depth)
        ref = _decode(_reference_from_payload, payload, depth)
        assert (got is None) == (ref is None)
        if got is not None:
            proofs, index = ref
            assert got.index.tolist() == index.tolist()
            assert openings(got) == proofs
            assert got.payload() == payload

    @settings(max_examples=300, deadline=None)
    @given(_payloads())
    def test_record_matrix_matches_row_decode(self, case):
        """from_payload's record matrix and index against a per-row
        Opening.from_bytes decode of the same payload: the rows are
        the decoded records re-encoded, or both raise the same ValueError."""
        depth, payload = case
        try:
            batch = OpeningBatch.from_payload(payload, depth)
            got = batch._rows(), batch.index
        except ValueError as exc:
            got = str(exc)
        ref = _decoded(lambda: _reference_from_payload(payload, depth))
        if isinstance(ref, str):
            assert got == ref
        else:
            rows, index = got
            assert rows.dtype == np.uint8
            assert rows.shape == (len(ref[0]), cm.record_len(depth))
            assert [row.tobytes() for row in rows] == ref[0]
            assert index.dtype == np.int64 and index.tolist() == ref[1]

    @settings(max_examples=400, deadline=None)
    @given(
        _payloads(),
        st.lists(st.integers(1, 5), min_size=1, max_size=6),
        st.sampled_from([0, 0, 0, 0, -1, 1]),
    )
    def test_blocks_decode_matches_reference(self, case, block_records, shift):
        """The body as blocks of whole records (their sizes cycling through
        block_records) with the count field apart, sometimes off by one:
        from_payload gives what the reference gives for the same bytes, and
        takes every block, also when it raises."""
        depth, payload = case
        rec = cm.record_len(depth)
        body = payload[4:]
        body = body[: len(body) // rec * rec]  # a streamed body is whole records
        count = (int.from_bytes(payload[:4], "little") + shift) % (1 << 32)
        ref = _decoded(lambda: _reference_from_payload(count.to_bytes(4, "little") + body, depth))
        cuts, sizes = [0], itertools.cycle(block_records)
        while cuts[-1] < len(body):
            cuts.append(cuts[-1] + next(sizes) * rec)
        blocks = iter([body[s:e] for s, e in itertools.pairwise(cuts)])

        def decode():
            batch = OpeningBatch.from_payload(count, depth, blocks)
            return openings(batch), batch.index

        assert _decoded(decode) == ref
        assert next(blocks, None) is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 5, 16]),
        st.lists(st.integers(-2, 16), max_size=30),
        st.integers(0, (1 << 32) - 1),
        st.integers(1, 4),
    )
    @example(1, [0, -1, 0], 0, 1)  # depth 0, with a refusal
    @example(5, [], 7, 1)  # an empty batch
    def test_frame_matches_reference(self, n, picks, seq, block_records):
        depth, records = _honest_records(n)
        rows = np.frombuffer(b"".join(records), dtype=np.uint8).reshape(len(records), -1)
        rows = np.concatenate([rows, rows[:1]])  # a prover may list one opening twice
        index = [j if j < 0 else j % len(rows) for j in picks]  # -1, -2: refusals
        batch = OpeningBatch(rows, np.asarray(index, dtype=np.int64), depth)
        expected = _reference_frame(seq, openings(batch), index, depth)
        assert frame(seq, batch) == expected
        assert batch.payload() == expected[HEADER_LEN:]
        # streamed: the header and count, then blocks of block_records records
        # gathered into one reused buffer, then one flush
        rec = batch.record_len()
        writer = _RecordingWriter()
        with mock.patch.object(streams, "_READ_CHUNK", block_records * rec):
            write_frame(writer, seq, batch)
        assert b"".join(writer.writes) == expected
        assert writer.flushes == [len(writer.writes)]
        assert len(writer.writes[0]) == HEADER_LEN + 4
        assert all(len(w) <= block_records * rec for w in writer.writes[1:])

    def test_conflicting_heads_decode_exactly(self):
        # every row shares one head and differs in its path
        depth, records = _honest_records(16)
        base = np.frombuffer(records[5], dtype=np.uint8)
        rows = np.tile(base, (3000, 1))
        rows[:, -3] = np.arange(3000) % 256
        rows[:, -4] = np.arange(3000) // 256
        rows[::7] = base  # and repeats of the honest row
        payload = (3000).to_bytes(4, "little") + rows.tobytes()
        got = OpeningBatch.from_payload(payload, depth)
        proofs, index = _reference_from_payload(payload, depth)
        assert got.index.tolist() == index.tolist()
        assert openings(got) == proofs


def _honest_encodings() -> dict:
    """decoder name -> (decoder, honest encodings it accepts)."""
    prover = HonestProver(random_distribution(16, rng_from(16, "records")))
    key = HashKey(bytes(range(16)), 128)
    digest = prover.receive_key(key).digest
    depth = digest.depth
    qs = concat(
        QuerySet.quantiles(np.asarray([1, 3, 7])), QuerySet.elements(np.asarray([2, 2, 9]))
    )
    batch = prover.answer_queries(qs)
    empty = OpeningBatch(batch.proofs[:0], batch.index[:0], depth)

    def check_record(data: bytes) -> bool:
        """One record through package code: verify_opening gives any bytes
        a verdict and never raises, and check_records on the record as a
        one-row matrix, at the depth its depth byte names, raises only
        ValueError."""
        x = int.from_bytes(data[:8], "little")
        try:
            verdict = cm.verify_opening(x, data, key, digest)
        except ValueError as exc:  # not the ValueError the contract allows
            raise AssertionError("verify_opening raised") from exc
        assert isinstance(verdict, bool)
        named = data[DEPTH_BYTE] if len(data) > DEPTH_BYTE else depth
        cm.check_records(np.frombuffer(data, dtype=np.uint8).reshape(1, -1), named)
        return verdict

    return {
        "HashKey": (HashKey.from_bytes, [key.to_bytes()]),
        "Digest": (cm.Digest.from_bytes, [digest.to_bytes()]),
        # one record, at this digest's depth and at depth 0
        "OpeningProof": (
            check_record,
            [row.tobytes() for row in batch.proofs[:3]] + [_honest_records(1)[1][0]],
        ),
        "OpeningBatch": (
            lambda data: OpeningBatch.from_payload(data, depth),
            [bytes(batch.payload()), bytes(empty.payload())],
        ),
        "QuerySet": (QuerySet.from_payload, [qs.payload(), QuerySet.elements([]).payload()]),
        "BackendSelect": (BackendSelect.from_payload, [BackendSelect(2, b"xy").payload()]),
        "GrainDistribution": (
            GrainDistribution.from_bytes,
            [prover.q.to_bytes(), GrainDistribution(3, 5, (0, 5, 0)).to_bytes()],
        ),
        "RepresentationString": (
            RepresentationString.from_bytes,
            [build_representation(GrainDistribution(4, 6, (1, 0, 2, 3))).to_bytes()],
        ),
    }


_DECODERS = _honest_encodings()

# honest frames for the read_frame fuzz: a key, an opening batch, a verdict
_FRAMES = [
    bytes(frame(0, KeyMsg(HashKey(bytes(range(16)), 128)))),
    bytes(frame(1, OpeningBatch.from_payload(_DECODERS["OpeningBatch"][1][0], 4))),
    bytes(frame(2, Verdict(False, Reason.INVALID_OPENING))),
]


@st.composite
def _decoder_inputs(draw):
    """(decoder, bytes): random bytes, or an honest encoding with bytes
    changed, inserted, deleted, cut off or appended."""
    decoder, honest = _DECODERS[draw(st.sampled_from(sorted(_DECODERS)))]
    if draw(st.booleans()):
        return decoder, draw(st.binary(max_size=200))
    data = bytearray(draw(st.sampled_from(honest)))
    for op, pos, byte in draw(st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete", "cut", "append"]),
                  st.integers(0, 1 << 16), st.integers(0, 255)),
        max_size=4,
    )):
        at = pos % (len(data) + 1)
        if op == "set" and data:
            data[at % len(data)] = byte
        elif op == "insert":
            data.insert(at, byte)
        elif op == "delete" and data:
            del data[at % len(data)]
        elif op == "cut":
            del data[at:]
        elif op == "append":
            data += bytes([byte]) * (1 + pos % 64)
    return decoder, bytes(data)


class TestDecodeFailureContract:
    """Every decoder of prover- or verifier-sent bytes fails only with
    ValueError: serve_prover ends on a ValueError from a request decoder,
    and a backend catches only ValueError."""

    @settings(max_examples=600, deadline=None)
    @given(_decoder_inputs())
    def test_only_value_error(self, case):
        decoder, data = case
        try:
            decoder(data)
        except ValueError:
            pass

    @pytest.mark.parametrize("name", sorted(_DECODERS))
    def test_honest_encodings_decode(self, name):
        decoder, honest = _DECODERS[name]
        for data in honest:
            decoder(data)


def _read_expected(stream, seq=None, mtype=None, length=None, max_length=None):
    """One frame read as the verifier reads a reply: the header through
    read_header with every expectation, then the body; with none but seq,
    through read_frame, as serve_prover reads a request."""
    if (mtype, length, max_length) == (None, None, None):
        return read_frame(stream, seq=seq)
    got_seq, got_type, got_len = read_header(
        stream, seq=seq, mtype=mtype, length=length, max_length=max_length
    )
    return got_seq, got_type, streams._read_exact(stream, got_len, streams._READ_CHUNK)


class TestReadFrameFailureContract:
    """Reading a frame over a byte stream, through read_frame or read_header
    and a body read, fails only with ValueError (a header that does not match
    what was expected) or EOFError (a stream that ends mid-frame), whatever
    the bytes and expectations."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(st.binary(max_size=120), st.sampled_from(_FRAMES)),
        st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3),
        st.integers(0, 1 << 16),
        st.tuples(*[st.none() | st.integers(0, 1 << 12)] * 4),
    )
    def test_only_value_or_eof_error(self, data, sets, cut, expect):
        data = bytearray(data)
        for pos, byte in sets:
            if data:
                data[pos % len(data)] = byte
        if cut % 2:
            del data[cut % (len(data) + 1):]
        seq, mtype, length, max_length = expect
        stream = io.BytesIO(bytes(data))
        try:
            while True:
                _read_expected(stream, seq, mtype, length, max_length)
        except (ValueError, EOFError):
            pass

    @pytest.mark.parametrize("raw", _FRAMES)
    def test_honest_frames_read(self, raw):
        seq, mtype, payload = _read_expected(io.BytesIO(raw), length=len(raw) - HEADER_LEN)
        assert (mtype, HEADER_LEN + len(payload)) == (raw[4], len(raw))
        assert read_frame(io.BytesIO(raw), seq=seq) == (seq, mtype, payload)


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

    @pytest.mark.parametrize(
        "adversary",
        [
            lambda q: InconsistentOpeningAdversary(q, F(1, 50), seed=4),
            lambda q: FarCommitAdversary(point_mass(q.n, 1), seed=4),
        ],
        ids=["inconsistent-opening", "far-commit"],
    )
    def test_served_side_reads_the_transcript_verdict(self, adversary):
        n = 32
        q = random_distribution(n, rng_from(22, "q"))
        left, right = socket.socketpair()
        lr, lw = left.makefile("rb"), left.makefile("wb")
        rr, rw = right.makefile("rb"), right.makefile("wb")
        served = _TeeReader(rr)
        server = threading.Thread(
            target=serve_prover, args=(served, rw, adversary(q)), daemon=True
        )
        server.start()
        cfg = VerifierConfig(n, F(1, 2), record_payloads=True)
        try:
            remote = RemoteProver(lr, lw)
            res = run_oracle_session(cfg, remote, DSampler(q), seed=9)
            remote.close()
            server.join(timeout=5)
            assert not server.is_alive()
        finally:
            for f in (lr, lw, rr, rw, left, right):
                f.close()
        assert not res.accept
        stream = io.BytesIO(bytes(served.data))
        frames = []
        while stream.tell() < len(served.data):
            frames.append(read_frame(stream))
        last = res.transcript.entries[-1]
        assert frames[-1][1:] == (MsgType.VERDICT, last.payload)
        assert last.payload == Verdict(False, res.reason).payload()
        local = run_oracle_session(cfg, adversary(q), DSampler(q), seed=9)
        assert res.transcript.to_text() == local.transcript.to_text()

    def test_close_before_a_verdict_sends_a_rejection(self):
        sink = io.BytesIO()
        RemoteProver(io.BytesIO(), sink).close()
        _, mtype, payload = read_frame(io.BytesIO(sink.getvalue()))
        assert (mtype, payload) == (MsgType.VERDICT, Verdict(False, Reason.MALFORMED).payload())


class _TeeReader:
    """Byte reader that keeps a copy of everything it reads."""

    def __init__(self, raw):
        self.raw = raw
        self.data = bytearray()

    def read(self, size):
        chunk = self.raw.read(size)
        self.data += chunk
        return chunk


class _EditingWriter:
    """Byte writer that edits the body of every opening-batch frame with
    edit(frame, record_len) before passing it on. Writes are collected
    until a whole frame has arrived, since a frame may come in several
    writes (an opening batch does, block by block)."""

    def __init__(self, raw, edit):
        self.raw = raw
        self.edit = edit
        self.pending = bytearray()

    def write(self, data):
        self.pending += data  # a copy: the writer may reuse its buffer
        while len(self.pending) >= HEADER_LEN:
            end = HEADER_LEN + int.from_bytes(self.pending[5:HEADER_LEN], "little")
            if len(self.pending) < end:
                break
            data, self.pending = self.pending[:end], self.pending[end:]
            if data[4] == MsgType.OPENING_BATCH:
                count = int.from_bytes(data[HEADER_LEN : HEADER_LEN + 4], "little")
                self.edit(data, (len(data) - HEADER_LEN - 4) // count)
            self.raw.write(data)

    def flush(self):
        self.raw.flush()


def _row(data, rec, i):
    """Offset of record i in an opening-batch frame (i < 0 from the end)."""
    return HEADER_LEN + 4 + (i % ((len(data) - HEADER_LEN - 4) // rec)) * rec


def _bump_pdf_of_record_1(data, rec):
    data[_row(data, rec, 1) + 8] ^= 1


def _direction_byte_2_in_last_record(data, rec):
    data[_row(data, rec, -1) + 25 + 40] = 2


def _depth_byte_off_in_last_record(data, rec):
    data[_row(data, rec, -1) + 24] += 1


def _refuse_last_record(data, rec):
    i = _row(data, rec, -1)
    data[i : i + rec] = bytes(rec)


def _bump_pdf_of_last_record(data, rec):
    data[_row(data, rec, -1) + 8] ^= 1


def _add_to_field(data, at, delta):
    """Add delta to the little-endian u64 at byte `at` of data, modulo 2^64."""
    value = (int.from_bytes(data[at : at + 8], "little") + delta) % (1 << 64)
    data[at : at + 8] = value.to_bytes(8, "little")


def _bump_every_claim(data, rec):
    for at in range(HEADER_LEN + 4, len(data), rec):
        _add_to_field(data, at + 8, 1)  # pdf
        _add_to_field(data, at + 16, 1)  # cdf


_decode_time_cases = pytest.mark.parametrize(
    "edits, reason",
    [
        ((_bump_pdf_of_record_1,), Reason.INVALID_OPENING),
        ((_bump_pdf_of_record_1, _direction_byte_2_in_last_record), Reason.MALFORMED),
        ((_bump_pdf_of_record_1, _depth_byte_off_in_last_record), Reason.MALFORMED),
        ((_bump_pdf_of_record_1, _refuse_last_record), Reason.MALFORMED),
        ((_refuse_last_record,), Reason.MALFORMED),
    ],
    ids=["invalid-opening", "then-direction-byte-2", "then-depth-byte-off",
         "then-refusal", "refusal"],
)


class _FrameEditProver(HonestProver):
    """Honest prover whose batches are the records of their frames after
    edit(frame, record_len), one row per probe, handed over in process."""

    def __init__(self, q, edit):
        super().__init__(q)
        self.edit = edit

    def answer_queries(self, qs):
        batch = super().answer_queries(qs)
        data = bytearray(frame(0, batch))
        self.edit(data, batch.record_len())
        rows = np.frombuffer(data, dtype=np.uint8, offset=HEADER_LEN + 4)
        return OpeningBatch(rows.reshape(len(qs), -1), np.arange(len(qs)), batch.depth)


class TestDecodeTimeRejection:
    """A record the decoder rejects ends the session in MALFORMED even when
    it sits after the first invalid opening: the verifier stops walking and
    numbering records there, but checks the format of every record of the
    batch before it gives its verdict. In process, the batch's whole record
    matrix is checked before any row is walked, so the verdicts agree (a
    refusal is a zeroed row there, whose depth byte is wrong)."""

    @_decode_time_cases
    @pytest.mark.parametrize("record_payloads", [False, True], ids=["no-payloads", "payloads"])
    def test_in_process_batch(self, edits, reason, record_payloads):
        def edit(data, rec):
            for e in edits:
                e(data, rec)

        n = 16
        cfg = VerifierConfig(
            n, F(1, 2), generator=quantile_sampling_generator(10), record_payloads=record_payloads
        )
        prover = _FrameEditProver(uniform(n), edit)
        res = run_oracle_session(cfg, prover, DSampler(uniform(n)), seed=5)
        assert not res.accept and res.reason == reason

    @_decode_time_cases
    def test_served_batch(self, edits, reason):
        def edit(data, rec):
            for e in edits:
                e(data, rec)

        n = 16
        left, right = socket.socketpair()
        lr, lw = left.makefile("rb"), left.makefile("wb")
        rr, rw = right.makefile("rb"), right.makefile("wb")
        server = threading.Thread(
            target=serve_prover,
            args=(rr, _EditingWriter(rw, edit), HonestProver(uniform(n))),
            daemon=True,
        )
        server.start()
        try:
            remote = RemoteProver(lr, lw)
            cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(10))
            res = run_oracle_session(cfg, remote, DSampler(uniform(n)), seed=5)
            remote.close()
            server.join(timeout=5)
            assert not server.is_alive()
        finally:
            for f in (lr, lw, rr, rw, left, right):
                f.close()
        assert not res.accept and res.reason == reason


def _count_field_one_more(data, rec):
    count = int.from_bytes(data[HEADER_LEN : HEADER_LEN + 4], "little")
    data[HEADER_LEN : HEADER_LEN + 4] = (count + 1).to_bytes(4, "little")


def _two_sessions(q, cfg, seed, edit, chunk):
    """Two oracle sessions at cfg and seed, one after another over one
    socketpair, each against an honest prover of q served as a prover
    process serves them: the first session's batch frames pass through
    edit(frame, record_len) on their way. Batch bodies cross in blocks of
    whole records of at most chunk bytes."""
    left, right = socket.socketpair()
    left.settimeout(10)  # a verifier left mid-frame fails instead of hanging
    lr, lw = left.makefile("rb"), left.makefile("wb")
    rr, rw = right.makefile("rb"), right.makefile("wb")

    def serve():
        serve_prover(rr, _EditingWriter(rw, edit), HonestProver(q))
        serve_prover(rr, rw, HonestProver(q))

    server = threading.Thread(target=serve, daemon=True)
    results = []
    with mock.patch.object(streams, "_READ_CHUNK", chunk):
        server.start()
        try:
            for _ in range(2):
                remote = RemoteProver(lr, lw)
                results.append(run_oracle_session(cfg, remote, DSampler(q), seed))
                remote.close()
            server.join(timeout=5)
        finally:
            for f in (lr, lw, left):  # hang up, so a server blocked in a write stops
                f.close()
            server.join(timeout=5)
            for f in (rr, rw, right):
                f.close()
    assert not server.is_alive()
    return results


def _first_batch_only(*edits):
    """An _EditingWriter edit that changes only the first batch frame, by
    each edit(frame, rec) in turn; its `payloads` lists that frame's
    payload as it was and as it was sent."""
    payloads = []

    def edit(data, rec):
        if not payloads:
            original = bytes(data[HEADER_LEN:])
            for e in edits:
                e(data, rec)
            payloads.extend([original, bytes(data[HEADER_LEN:])])

    edit.payloads = payloads
    return edit


class _ReplayProver(HonestProver):
    """Honest prover that answers its first query set with a recorded batch
    payload, decoded whole by the per-row reference decoder; a payload that
    decoder rejects makes the prover raise, so the session ends MALFORMED."""

    def __init__(self, q, payload):
        super().__init__(q)
        self.payload = payload

    def answer_queries(self, qs):
        if self.payload is None:
            return super().answer_queries(qs)
        payload, self.payload = self.payload, None
        depth = self.digest.depth
        proofs, index = _reference_from_payload(payload, depth)
        rows = np.frombuffer(b"".join(p.to_bytes() for p in proofs), dtype=np.uint8)
        rows = rows.reshape(len(proofs), cm.record_len(depth))
        return OpeningBatch(rows, index, depth)


def _full_decode_reference(q, cfg, seed, payload):
    """The session at cfg and seed whose first batch is `payload`, read by
    a full decode: the whole payload decoded by the per-row reference
    decoder, then every record walked by the verify-every-record session."""
    with mock.patch.object(protocol, "VerifiedOracleSession", _VerifyEverySession):
        return run_oracle_session(cfg, _ReplayProver(q, payload), DSampler(q), seed)


def _assert_same_session(got, ref):
    assert (got.accept, got.reason) == (ref.accept, ref.reason)
    assert got.verified_openings == ref.verified_openings
    assert got.transcript.to_text() == ref.transcript.to_text()
    assert (got.transcript.bytes_sent, got.transcript.bytes_received) == (
        ref.transcript.bytes_sent, ref.transcript.bytes_received
    )


_FRAME_EDITS = (
    "pdf+1", "cdf+1", "flip-path-bit", "depth-byte", "direction-byte", "zeroed",
    "conflicting-duplicate", "count-field",
)


def _frame_edit(kind, where, offset, variant, block):
    """edit(frame, rec): one edit of an opening-batch frame whose body
    crosses in blocks of `block` records, to the record at `offset` (modulo
    the block) within its first, a middle or its last block; `variant`
    picks the byte, bit or value."""

    def edit(data, rec):
        count = (len(data) - HEADER_LEN - 4) // rec
        start = {"first": 0, "middle": (count - 1) // block // 2, "last": (count - 1) // block}
        i = min(start[where] * block + offset % block, count - 1)
        at = HEADER_LEN + 4 + i * rec
        depth = (rec - DEPTH_BYTE - 1) // 41
        if kind == "pdf+1":
            _add_to_field(data, at + 8, 1)
        elif kind == "cdf+1":
            _add_to_field(data, at + 16, 1)
        elif kind == "flip-path-bit":  # a sibling's mass or hash, or a direction byte
            data[at + DEPTH_BYTE + 1 + variant % (rec - DEPTH_BYTE - 1)] ^= 1 << variant % 8
        elif kind == "depth-byte":
            data[at + DEPTH_BYTE] = (depth + 1 + variant % 255) % 256
        elif kind == "direction-byte":  # the other direction, or a value past 1
            column = at + direction_byte(variant % depth)
            data[column] = data[column] ^ 1 if variant % 2 else 2 + variant % 254
        elif kind == "zeroed":
            data[at : at + rec] = bytes(rec)
        elif kind == "conflicting-duplicate":  # another record's claim, this path
            other = HEADER_LEN + 4 + (i + 1 + variant % (count - 1)) % count * rec
            data[at : at + DEPTH_BYTE] = data[other : other + DEPTH_BYTE]
        else:
            assert kind == "count-field"
            delta = (-1, 1, 2, 1 << 31)[variant % 4]
            data[HEADER_LEN : HEADER_LEN + 4] = ((count + delta) % (1 << 32)).to_bytes(4, "little")

    return edit


# N = 1, G = 1: a record has depth 0 and no path
_ONE = GrainDistribution(1, 1, (1,))


class TestStreamedBatch:
    """An opening batch crosses the stream in blocks of whole records: a
    faulty batch ends its session with the stream at a frame boundary, and
    neither end of a session holds the whole frame. The verifier walks each
    block's new rows as they arrive and, after the first invalid opening,
    only checks and counts the records, with the verdict of a full decode."""

    @pytest.mark.parametrize(
        "fault",
        [_count_field_one_more, _direction_byte_2_in_last_record, _refuse_last_record],
        ids=["count-field", "direction-byte-2", "refusal"],
    )
    def test_next_session_starts_at_a_frame_boundary(self, fault):
        # blocks of 5 records at depth 4, so the body spans many blocks
        n = 16
        cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(10))
        results = _two_sessions(uniform(n), cfg, 5, fault, 1000)
        assert [(r.accept, r.reason) for r in results] == [
            (False, Reason.MALFORMED), (True, Reason.ACCEPT)
        ]

    def test_count_field_mismatch_walks_no_record(self, monkeypatch):
        # the count field alone makes the batch MALFORMED, so none of its
        # records is worth a walk
        calls = _counting_verify(monkeypatch)
        n = 16
        cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(10))
        first, second = _two_sessions(uniform(n), cfg, 5, _count_field_one_more, 1000)
        assert (first.reason, second.reason) == (Reason.MALFORMED, Reason.ACCEPT)
        assert len(calls) == len(second.verified_openings)  # the second session's walks

    @pytest.mark.parametrize("record", [False, True], ids=["counters-only", "record-payloads"])
    @pytest.mark.parametrize(
        "n, edits, reason",
        [
            (16, (_bump_pdf_of_record_1, _direction_byte_2_in_last_record), Reason.MALFORMED),
            (16, (_bump_pdf_of_record_1, _depth_byte_off_in_last_record), Reason.MALFORMED),
            (16, (_bump_pdf_of_record_1, _refuse_last_record), Reason.MALFORMED),
            (16, (_bump_pdf_of_record_1, _count_field_one_more), Reason.MALFORMED),
            (16, (_bump_pdf_of_last_record,), Reason.INVALID_OPENING),
            (1, (_bump_pdf_of_record_1, _depth_byte_off_in_last_record), Reason.MALFORMED),
            (1, (_bump_pdf_of_record_1, _refuse_last_record), Reason.MALFORMED),
            (1, (_bump_pdf_of_record_1, _count_field_one_more), Reason.MALFORMED),
            (1, (_bump_pdf_of_last_record,), Reason.INVALID_OPENING),
            (1, (_bump_every_claim,), Reason.INVALID_OPENING),
        ],
        ids=["then-direction-byte-2", "then-depth-byte-off", "then-refusal",
             "then-count-field", "last-invalid", "n1-then-depth-byte-off", "n1-then-refusal",
             "n1-then-count-field", "n1-last-invalid", "n1-every-claim-bumped"],
    )
    def test_invalid_opening_in_a_multi_block_batch(self, n, edits, reason, record):
        # 16 records to a block; the first invalid opening is record 1 or
        # the last record, and a format fault sits in the last block
        q = _ONE if n == 1 else uniform(n)
        cfg = VerifierConfig(
            n, F(1, 2), generator=quantile_sampling_generator(10), record_payloads=record
        )
        edit = _first_batch_only(*edits)
        rec = cm.record_len((n - 1).bit_length())
        first, second = _two_sessions(q, cfg, 5, edit, 16 * rec)
        _, sent = edit.payloads
        assert len(sent) > 3 * 16 * rec  # the batch spans more than three blocks
        assert (first.accept, first.reason) == (False, reason)
        if reason == Reason.MALFORMED:
            assert not first.verified_openings
        _assert_same_session(first, _full_decode_reference(q, cfg, 5, sent))
        assert second.accept

    @pytest.mark.parametrize("n", [16, 1])
    def test_clean_blocks_after_the_stop_get_one_flat_check(self, n, monkeypatch):
        # record 1 fails its walk in the first block; at depth 4 each later
        # (clean) block passes the flat check and is never searched for
        # refusals, while at depth 0 a refusal would pass that check, so
        # every later block is searched
        calls = {"clean": 0, "blank": 0}
        for name, kind in (("records_clean", "clean"), ("_blank_rows", "blank")):

            def counted(*args, _raw=getattr(wire, name), _kind=kind):
                calls[_kind] += 1
                return _raw(*args)

            monkeypatch.setattr(wire, name, counted)
        q = _ONE if n == 1 else uniform(n)
        cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(10))
        rec = cm.record_len((n - 1).bit_length())
        edit = _first_batch_only(_bump_pdf_of_record_1)
        first, second = _two_sessions(q, cfg, 5, edit, 16 * rec)
        _, sent = edit.payloads
        after_stop = -(-(len(sent) - 4) // (16 * rec)) - 1  # every block but the first
        assert after_stop >= 3
        assert (first.accept, first.reason) == (False, Reason.INVALID_OPENING)
        assert second.accept
        if n == 16:
            assert calls == {"clean": after_stop, "blank": 0}
        else:
            assert calls == {"clean": 0, "blank": after_stop}

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["uniform", "random"]),
        st.lists(
            st.tuples(
                st.sampled_from(_FRAME_EDITS),
                st.sampled_from(["first", "middle", "last"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
        st.integers(0, 3),
    )
    def test_edited_batch_matches_full_decode(self, dist, edits, record, seed):
        """An honest identity batch at N = 16 crosses in blocks of 16
        records, with edits placed in its first, a middle and its last
        block: the session ends as the full-decode reference does, never
        accepts a changed batch, and leaves the stream where the next
        session accepts."""
        n, block = 16, 16
        q = uniform(n) if dist == "uniform" else random_distribution(n, rng_from(seed, "q"))
        cfg = VerifierConfig(
            n, F(1, 2), generator=quantile_sampling_generator(10), record_payloads=record
        )
        edit = _first_batch_only(*(_frame_edit(*e, block) for e in edits))
        first, second = _two_sessions(q, cfg, seed, edit, block * cm.record_len(4))
        original, sent = edit.payloads
        _assert_same_session(first, _full_decode_reference(q, cfg, seed, sent))
        assert sent == original or not first.accept
        assert second.accept

    @pytest.mark.parametrize(
        "cut", [HEADER_LEN + 2, HEADER_LEN + 4 + 5 * 189, -1],
        ids=["in-the-count", "after-a-block", "last-byte"],
    )
    def test_body_cut_short_is_eof(self, cut):
        # a batch frame cut short raises EOFError, which a session turns into
        # MALFORMED; records are 189 bytes at depth 4, 5 to a 1000-byte block
        prover = HonestProver(uniform(16))
        key = HashKey(bytes(range(16)), 128)
        digest = prover.receive_key(key)
        qs = QuerySet.elements(np.arange(1, 17).repeat(3))
        batch = bytes(frame(1, prover.answer_queries(qs)))
        remote = RemoteProver(io.BytesIO(bytes(frame(0, digest)) + batch[:cut]), io.BytesIO())
        remote.receive_key(key)
        with mock.patch.object(streams, "_READ_CHUNK", 1000), pytest.raises(EOFError):
            remote.answer_queries(qs)

    def test_neither_end_holds_the_whole_frame(self):
        """Both ends of a session at N = 1024, epsilon = 1/4 in this process,
        against the inconsistent-opening adversary: the traced heap peak
        stays below half the batch frame's length. An end that holds the
        whole frame alone reaches the frame's length."""
        n = 1024
        q = random_distribution(n, rng_from(1, "q"))
        left, right = socket.socketpair()
        lr, lw = left.makefile("rb"), left.makefile("wb")
        rr, rw = right.makefile("rb"), right.makefile("wb")
        adversary = InconsistentOpeningAdversary(q, F(1, 500), seed=3)
        server = threading.Thread(target=serve_prover, args=(rr, rw, adversary), daemon=True)
        cfg = VerifierConfig(n, F(1, 4), generator=protocol.empty_generator())
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            server.start()
            remote = RemoteProver(lr, lw)
            res = run_oracle_session(cfg, remote, DSampler(q), 3)
            remote.close()
            server.join(timeout=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            for f in (lr, lw, rr, rw, left, right):
                f.close()
        assert not server.is_alive()
        assert not res.accept and res.reason == Reason.INVALID_OPENING
        (batch_len,) = [
            e.length for e in res.transcript.entries if e.msg_type == MsgType.OPENING_BATCH
        ]
        assert batch_len > 20 << 20
        assert peak < batch_len / 2


class _RecordingReader:
    """Byte reader that records the size of every read request."""

    def __init__(self, raw):
        self.raw = raw
        self.requests: list[int] = []

    def read(self, size):
        self.requests.append(size)
        return self.raw.read(size)


def _oracle_session(remote):
    return run_oracle_session(VerifierConfig(16, F(1, 2)), remote, DSampler(uniform(16)), 3)


def _general_session(backend):
    def run(remote):
        target = make_fixed_target(uniform(16))
        res = run_general_argument(
            target, 16, F(0), F(4, 5), DSampler(uniform(16)), remote, backend, 3
        )
        return res.session

    return run


_BACKENDS = [FullRevealBackend(), SpotCheckBackend()]


def _fake_server_session(reply, session=_oracle_session):
    """session(remote) at N = 16 against a fake server, an oracle session by
    default. For each frame it reads, the server writes
    reply(seq, type, payload) as raw bytes; when reply returns None it
    closes its end."""
    left, right = socket.socketpair()
    left.settimeout(10)  # a verifier that waits for a body the server never sends fails
    lr, lw = left.makefile("rb"), left.makefile("wb")
    rr, rw = right.makefile("rb"), right.makefile("wb")

    def serve():
        try:
            while (out := reply(*read_frame(rr))) is not None:
                rw.write(out)
                rw.flush()
        except (EOFError, OSError):
            pass  # the verifier hung up
        finally:
            right.shutdown(socket.SHUT_WR)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    reader = _RecordingReader(lr)
    try:
        res = session(RemoteProver(reader, lw))
    finally:
        for f in (lr, lw, left):  # hang up, so a server blocked in a write stops
            f.close()
        server.join(timeout=5)
        for f in (rr, rw, right):
            f.close()
    assert not server.is_alive()
    return res, reader.requests


def _raw_frame(seq, mtype, length, body=b""):
    return seq.to_bytes(4, "little") + bytes([mtype]) + length.to_bytes(4, "little") + body


def _honest_reply(tamper=None, seq_shift=0, mtype=None, length=None):
    """Reply function serving an honest prover, frame by frame. The reply to
    the frame of type `tamper` gets its header rewritten: the sequence number
    shifted by seq_shift, and the type or declared length replaced when
    given."""
    prover = HonestProver(uniform(16))

    def reply(seq, got_type, payload):
        if got_type == MsgType.KEY:
            msg = prover.receive_key(HashKey.from_bytes(payload))
        elif got_type == MsgType.QUERY_SET:
            msg = prover.answer_queries(QuerySet.from_payload(payload))
        elif got_type == MsgType.BACKEND_SELECT:
            msg = prover.backend_payload(BackendSelect.from_payload(payload))
        else:
            return None
        if got_type != tamper:
            return frame(seq, msg)
        body = msg.payload()
        declared = len(body) if length is None else length
        return _raw_frame(seq + seq_shift, mtype or msg.TYPE, declared, body)

    return reply


class TestRemoteFailsClosed:
    """RemoteProver checks each reply's header before reading its body; a
    bad reply ends the session in MALFORMED."""

    def test_honest_fake_server_accepts(self):
        res, _ = _fake_server_session(_honest_reply())
        assert res.accept

    def test_wrong_sequence_number(self):
        res, requests = _fake_server_session(_honest_reply(MsgType.KEY, seq_shift=1))
        assert not res.accept and res.reason == Reason.MALFORMED
        assert requests == [HEADER_LEN]

    def test_wrong_message_type(self):
        reply = _honest_reply(MsgType.KEY, mtype=MsgType.OPENING_BATCH)
        res, requests = _fake_server_session(reply)
        assert not res.accept and res.reason == Reason.MALFORMED
        assert requests == [HEADER_LEN]

    def test_oversized_digest_length_rejected_before_the_body(self):
        res, requests = _fake_server_session(_honest_reply(MsgType.KEY, length=(1 << 32) - 1))
        assert not res.accept and res.reason == Reason.MALFORMED
        assert requests == [HEADER_LEN]  # the declared 4 GiB body is never requested

    def test_oversized_batch_length_rejected_before_the_body(self):
        reply = _honest_reply(MsgType.QUERY_SET, length=(1 << 32) - 1)
        res, requests = _fake_server_session(reply)
        assert not res.accept and res.reason == Reason.MALFORMED
        assert requests[-1] == HEADER_LEN  # the batch's header, then nothing

    @pytest.mark.parametrize("backend", _BACKENDS, ids=lambda b: b.name)
    def test_honest_backend_data_accepted(self, backend):
        res, _ = _fake_server_session(_honest_reply(), _general_session(backend))
        assert res.accept

    @pytest.mark.parametrize("backend", _BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("excess", [1, None], ids=["one-byte-over", "4GiB"])
    def test_oversized_backend_data_rejected_before_the_body(self, backend, excess):
        # the honest blob for N = 16, G = 256 is the longest one accepted
        limit = backend.blob_len(16, uniform(16).grains)
        assert limit == len(backend.honest_blob(uniform(16)))
        length = (1 << 32) - 1 if excess is None else limit + excess
        reply = _honest_reply(MsgType.BACKEND_SELECT, length=length)
        res, requests = _fake_server_session(reply, _general_session(backend))
        assert not res.accept and res.reason == Reason.MALFORMED
        assert requests[-1] == HEADER_LEN  # the backend data's header, then nothing

    def test_body_read_in_bounded_chunks(self):
        # with no expected length (as for backend data) the body is read in
        # chunks, so a declared 4 GiB allocates only what arrives
        left, right = socket.socketpair()
        try:
            left.sendall(_raw_frame(0, MsgType.BACKEND_DATA, (1 << 32) - 1, b"abc"))
            left.shutdown(socket.SHUT_WR)
            with right.makefile("rb") as raw:
                reader = _RecordingReader(raw)
                with pytest.raises(EOFError):
                    read_frame(reader)
            assert max(reader.requests) <= 1 << 20
        finally:
            left.close()
            right.close()



_KEY_FRAME = frame(0, KeyMsg(HashKey(bytes(range(16)), 128)))
_PROBES = QuerySet.elements(np.asarray([1, 5, 5]))


def _served(requests: bytes, prover=None) -> list[tuple[int, int]]:
    """(seq, type) of every reply serve_prover writes to the request bytes,
    read after it has returned and its end is closed; the prover is honest
    for uniform(16) unless given."""
    left, right = socket.socketpair()
    try:
        left.sendall(requests)
        left.shutdown(socket.SHUT_WR)
        with right.makefile("rb") as rr, right.makefile("wb") as rw:
            serve_prover(rr, rw, prover or HonestProver(uniform(16)))
        right.close()
        replies = []
        with left.makefile("rb") as lr:
            while True:
                try:
                    seq, mtype, _ = read_frame(lr)
                except EOFError:
                    return replies
                replies.append((seq, mtype))
    finally:
        left.close()
        right.close()


class TestServeProverFailsClosed:
    """serve_prover answers requests in sequence and returns, without a
    reply and without raising, on anything else."""

    def test_honest_requests_answered_until_the_verdict(self):
        requests = (
            _KEY_FRAME + frame(1, _PROBES) + frame(2, Verdict(True, Reason.ACCEPT))
            + frame(3, _PROBES)
        )
        assert _served(requests) == [(0, MsgType.DIGEST), (1, MsgType.OPENING_BATCH)]

    @pytest.mark.parametrize("mtype", [99, MsgType.DIGEST], ids=["unknown", "prover-type"])
    def test_frame_of_another_type(self, mtype):
        requests = _KEY_FRAME + _raw_frame(1, mtype, 3, b"abc") + frame(2, _PROBES)
        assert _served(requests) == [(0, MsgType.DIGEST)]

    @pytest.mark.parametrize("seq", [0, 2, 1 << 31])
    def test_sequence_number_other_than_the_next(self, seq):
        assert _served(_KEY_FRAME + frame(seq, _PROBES)) == [(0, MsgType.DIGEST)]

    @pytest.mark.parametrize(
        "mtype, body",
        [
            (MsgType.KEY, bytes(19)),
            (MsgType.QUERY_SET, _PROBES.payload() + b"\x00"),
            (MsgType.QUERY_SET, _PROBES.payload()[:-1]),
            (MsgType.QUERY_SET, b""),
            (MsgType.BACKEND_SELECT, b""),
        ],
        ids=["short-key", "query-set-trailing-byte", "query-set-truncated",
             "query-set-empty", "backend-select-empty"],
    )
    def test_payload_its_decoder_rejects(self, mtype, body):
        if mtype == MsgType.KEY:
            requests = _raw_frame(0, mtype, len(body), body)
            expected = []
        else:
            requests = _KEY_FRAME + _raw_frame(1, mtype, len(body), body)
            expected = [(0, MsgType.DIGEST)]
        assert _served(requests) == expected

    @pytest.mark.parametrize(
        "msg",
        [
            QuerySet.elements(np.asarray([3, 0])),
            QuerySet.elements(np.asarray([17])),
            QuerySet.quantiles(np.asarray([uniform(16).grains + 1])),
            BackendSelect(9),
        ],
        ids=["element-0", "element-17", "quantile-past-G", "backend-id-9"],
    )
    def test_request_the_prover_cannot_answer(self, msg):
        requests = _KEY_FRAME + frame(1, msg) + frame(2, _PROBES)
        assert _served(requests) == [(0, MsgType.DIGEST)]

    def test_query_set_before_any_key(self):
        assert _served(frame(0, _PROBES) + frame(1, _PROBES)) == []

    def test_reply_that_cannot_be_encoded(self):
        # the batch's first record has a depth byte one short
        prover = _BatchTamper(uniform(16), _set_first_depth_byte_short)
        requests = _KEY_FRAME + frame(1, _PROBES) + frame(2, _PROBES)
        assert _served(requests, prover) == [(0, MsgType.DIGEST)]
