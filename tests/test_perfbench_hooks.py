"""The benchmark's traced run replaces vdo functions and methods by looking
them up in their owner's __dict__. A rename there would only break a traced
bench run; this test makes it break the test suite."""

import socket
import threading
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.mark.parametrize("role", ["verifier", "prover"])
def test_every_hook_point_exists(tracing, role):
    for owner, attr, _name, _after in tracing.Tracer(role)._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    for attr in ("_hash_leaf", "_hash_node", "_hash_header"):
        assert attr in tracing.commitment.__dict__, attr


def test_traced_sessions_count_hashes_and_decode_spans(tracing):
    """One in-process oracle session and one socketpair session against the
    inconsistent-opening adversary, run under the benchmark's Tracer: the
    hashes counted at the hash functions equal the closed form, and the
    batch decoding is recorded as wire.decode spans. A refactor that breaks
    the traced benchmark run fails here."""
    from fractions import Fraction as F

    from vdo.adversaries import InconsistentOpeningAdversary
    from vdo.protocol import HonestProver, VerifierConfig, run_oracle_session
    from vdo.testers import DSampler
    from vdo.wire import Reason

    n = 64
    q = tracing.bench.make_dist(("random", 1.0), n, None, 3)
    cfg = VerifierConfig(n, F(1, 2))
    tracer = tracing.Tracer("verifier")
    tracer.install()
    try:
        tracer.begin(0)
        local = run_oracle_session(cfg, HonestProver(q), DSampler(q), 3)
        tracer.begin(1)
        left, right = socket.socketpair()
        lr, lw = left.makefile("rb"), left.makefile("wb")
        rr, rw = right.makefile("rb"), right.makefile("wb")
        adversary = InconsistentOpeningAdversary(q, F(1, 20), seed=3)
        server = threading.Thread(
            target=tracing.streams.serve_prover, args=(rr, rw, adversary), daemon=True
        )
        server.start()
        try:
            remote = tracing.RemoteProver(lr, lw)
            hostile = run_oracle_session(cfg, remote, DSampler(q), 3)
            remote.close()
            server.join(timeout=5)
        finally:
            for f in (lr, lw, rr, rw, left, right):
                f.close()
    finally:
        tracer.restore()
    assert local.accept
    assert not hostile.accept and hostile.reason == Reason.INVALID_OPENING

    spans, counters = tracing.merge([tracer.export()])
    table = tracing.per_trial(spans, counters, {0: 1.0, 1: 1.0})
    assert tracing.check_hashes(table, [0, 1]) == []
    for trial in (0, 1):
        assert table[trial][tracing.HASH_COUNT] > 0
        assert table[trial]["commitment.verify.calls"] > 0
    assert "wire.decode" not in {s[1] for s in spans if s[0] == 0}
    decode_spans = [s for s in spans if s[0] == 1 and s[1] == "wire.decode"]
    assert len(decode_spans) >= 2  # the prover's query sets and the verifier's batch


def test_traced_streamed_session_that_stops_early(tracing, monkeypatch):
    """A socketpair session at N = 64 against the inconsistent-opening
    adversary, its identity batch crossing in blocks of 64 records, run
    under the Tracer twice: with counters only, where the verifier walks
    each block's new rows as they arrive and stops numbering rows after the
    first invalid opening, and with payloads recorded, where it decodes the
    whole batch before it walks a row. Both count the hashes of the closed
    form and walk the same records, fewer than the batch's distinct ones."""
    from fractions import Fraction as F

    from vdo.adversaries import InconsistentOpeningAdversary
    from vdo.commitment import record_len
    from vdo.protocol import VerifierConfig, run_oracle_session
    from vdo.testers import DSampler
    from vdo.wire import MsgType, OpeningBatch, Reason

    n = 64
    q = tracing.bench.make_dist(("random", 1.0), n, None, 3)
    rec = record_len(6)
    monkeypatch.setattr(tracing.streams, "_READ_CHUNK", 64 * rec)
    tracer = tracing.Tracer("verifier")
    tracer.install()
    results = []
    try:
        for trial, record in enumerate((False, True)):
            tracer.begin(trial)
            left, right = socket.socketpair()
            lr, lw = left.makefile("rb"), left.makefile("wb")
            rr, rw = right.makefile("rb"), right.makefile("wb")
            adversary = InconsistentOpeningAdversary(q, F(1, 20), seed=3)
            server = threading.Thread(
                target=tracing.streams.serve_prover, args=(rr, rw, adversary), daemon=True
            )
            server.start()
            try:
                remote = tracing.RemoteProver(lr, lw)
                cfg = VerifierConfig(n, F(1, 2), record_payloads=record)
                results.append(run_oracle_session(cfg, remote, DSampler(q), 3))
                remote.close()
                server.join(timeout=5)
            finally:
                for f in (lr, lw, rr, rw, left, right):
                    f.close()
    finally:
        tracer.restore()
    assert [r.reason for r in results] == [Reason.INVALID_OPENING] * 2
    assert results[0].transcript.total_bytes() == results[1].transcript.total_bytes()
    (payload,) = [
        e.payload for e in results[1].transcript.entries if e.msg_type == MsgType.OPENING_BATCH
    ]
    assert len(payload) > 3 * 64 * rec  # more than three blocks
    distinct = len(OpeningBatch.from_payload(payload, 6).proofs)

    spans, counters = tracing.merge([tracer.export()])
    table = tracing.per_trial(spans, counters, {0: 1.0, 1: 1.0})
    assert tracing.check_hashes(table, [0, 1]) == []
    calls = [table[t]["commitment.verify.calls"] for t in (0, 1)]
    assert calls[0] == calls[1] < distinct


def test_traced_label_session_records_property_spans(tracing):
    """One label-invariant argument at N = 64 run under the Tracer records
    the wrapped properties.estimate_histogram and uniformity_decide as
    spans. A call path that bypasses the module attributes fails here. Its
    two batches repeat records: the hashes counted still equal the closed
    form, and verify_opening runs once per distinct accepted record."""
    from fractions import Fraction as F

    from vdo.dist import uniform
    from vdo.properties import make_uniformity, run_label_invariant_argument
    from vdo.protocol import HonestProver
    from vdo.testers import DSampler

    n = 64
    d = uniform(n)
    prop = make_uniformity()  # built before install: decide looks up at call time
    tracer = tracing.Tracer("verifier")
    tracer.install()
    try:
        tracer.begin(0)
        result = run_label_invariant_argument(
            prop, n, F(1, 20), F(9, 20), DSampler(d), HonestProver(d), 3
        )
    finally:
        tracer.restore()
    assert result.accept  # the decision ran

    spans, counters = tracing.merge([tracer.export()])
    names = [s[1] for s in spans]
    assert names.count("properties.histogram") == 1
    assert names.count("properties.decide") == 1
    table = tracing.per_trial(spans, counters, {0: 1.0})
    assert tracing.check_hashes(table, [0]) == []
    assert table[0]["commitment.verify.calls"] == len(result.session.verified_openings)


def test_traced_in_process_session_codes_no_record(tracing):
    """The traced run reads len(result.proofs) of every honest batch, a
    record matrix, and the hashes counted in a traced in-process session
    still equal the closed form."""
    from fractions import Fraction as F

    from vdo.protocol import (
        HonestProver,
        VerifierConfig,
        quantile_sampling_generator,
        run_oracle_session,
    )
    from vdo.testers import DSampler

    n = 64
    q = tracing.bench.make_dist(("random", 1.0), n, None, 3)
    cfg = VerifierConfig(n, F(1, 2), generator=quantile_sampling_generator(40))
    tracer = tracing.Tracer("verifier")
    tracer.install()
    try:
        tracer.begin(0)
        res = run_oracle_session(cfg, HonestProver(q), DSampler(q), 3)
    finally:
        tracer.restore()
    assert res.accept

    spans, counters = tracing.merge([tracer.export()])
    table = tracing.per_trial(spans, counters, {0: 1.0})
    assert tracing.check_hashes(table, [0]) == []
    assert table[0]["commitment.verify.calls"] == len(res.verified_openings)
    # both batches' distinct openings were counted; the second repeats some
    assert table[0]["protocol.answer.distinct"] > len(res.verified_openings)
