"""Every rejection, whichever exchange raises it, ends the session in
exactly one verdict that carries its reason."""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from vdo import commitment as cm
from vdo.adversaries import (
    BackendSwapAdversary,
    FarCommitAdversary,
    InconsistentOpeningAdversary,
)
from vdo.argument import FullRevealBackend, SpotCheckBackend, run_general_argument
from vdo.commitment import NodeLabel
from vdo.dist import GrainDistribution, point_mass, random_distribution, uniform
from vdo.properties import make_fixed_target
from vdo.protocol import (
    HonestProver,
    VerifierConfig,
    quantile_sampling_generator,
    run_oracle_session,
)
from vdo.rngutil import rng_from
from vdo.testers import DSampler
from vdo.wire import (
    BackendData,
    DigestMsg,
    MsgType,
    OpeningBatch,
    ProbeKind,
    QuerySet,
    Reason,
    Verdict,
)

from conftest import DEPTH_BYTE, direction_byte, edited, openings

N = 64
T = random_distribution(N, rng_from(1, "T"), grains=N * N * 5)


class _WrongRootMass(HonestProver):
    def receive_key(self, key):
        d = super().receive_key(key).digest
        return DigestMsg(dataclasses.replace(d, root=NodeLabel(d.root.mass + 1, d.root.digest)))


class _KeyRaises(HonestProver):
    def receive_key(self, key):
        raise RuntimeError("prover crashed")


class _PayloadRaises(HonestProver):
    def backend_payload(self, select):
        raise RuntimeError("prover crashed")


class _NoPayload(HonestProver):
    def backend_payload(self, select):
        return None


class _StuckQuantile(HonestProver):
    """Answers the first `honest_batches` query sets faithfully, then every
    quantile probe with element 1's opening."""

    def __init__(self, q, honest_batches=0):
        super().__init__(q)
        self.honest_batches = honest_batches

    def resolve_queries(self, qs):
        out = super().resolve_queries(qs)
        if self.honest_batches:
            self.honest_batches -= 1
        else:
            out[np.asarray(qs.kinds) == ProbeKind.QUANTILE] = 1
        return out


def _oracle(prover, d=None, record=True, probes=20):
    cfg = VerifierConfig(
        prover.q.n, F(1, 2), generator=quantile_sampling_generator(probes), record_payloads=record
    )
    return run_oracle_session(cfg, prover, DSampler(d or prover.q), 7)


def _general(prover, backend=FullRevealBackend, record=True):
    return run_general_argument(
        make_fixed_target(T), N, F(0), F(3, 5), DSampler(T), prover, backend(), 3,
        record_payloads=record,
    )


REJECTIONS = {
    "bad-digest": (Reason.BAD_DIGEST, lambda: _oracle(_WrongRootMass(uniform(N)))),
    "receive-key-raises": (Reason.MALFORMED, lambda: _oracle(_KeyRaises(uniform(N)))),
    "backend-payload-raises": (Reason.MALFORMED, lambda: _general(_PayloadRaises(T)).session),
    "backend-payload-none": (Reason.MALFORMED, lambda: _general(_NoPayload(T)).session),
    "invalid-opening": (
        Reason.INVALID_OPENING,
        lambda: _oracle(InconsistentOpeningAdversary(uniform(N), F(1, 10), seed=3)),
    ),
    "quantile-invalid": (Reason.QUANTILE_INVALID, lambda: _oracle(_StuckQuantile(uniform(N)))),
    "identity-fail": (
        Reason.IDENTITY_FAIL,
        lambda: _oracle(FarCommitAdversary(uniform(N)), d=point_mass(N, 1)),
    ),
    "backend-mismatch": (
        Reason.BACKEND_MISMATCH,
        lambda: _general(BackendSwapAdversary(T, uniform(N))).session,
    ),
}


def _assert_one_verdict(res, reason):
    assert not res.accept and res.reason == reason
    entries = res.transcript.entries
    assert [e.msg_type for e in entries].count(MsgType.VERDICT) == 1
    assert entries[-1].msg_type == MsgType.VERDICT
    assert entries[-1].payload == Verdict(False, reason).payload()


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejection_ends_in_one_verdict(case):
    reason, run = REJECTIONS[case]
    _assert_one_verdict(run(), reason)


def test_spot_check_probe_rejection_reaches_the_backend_outcome():
    # honest through the identity round, stuck on the spot-check's probes
    res = _general(_StuckQuantile(T, honest_batches=1), SpotCheckBackend)
    assert res.backend is not None
    assert res.backend.reason == Reason.QUANTILE_INVALID
    assert not res.backend.probe_mismatch and res.backend.measured is None
    _assert_one_verdict(res.session, Reason.QUANTILE_INVALID)
    assert res.reason == Reason.QUANTILE_INVALID


# -- the verdict does not depend on record_payloads ----------------------------


class _NegativeRootMass(HonestProver):
    def receive_key(self, key):
        d = super().receive_key(key).digest
        return DigestMsg(dataclasses.replace(d, root=NodeLabel(-1, d.root.digest)))


class _StrBlob(HonestProver):
    def backend_payload(self, select):
        return BackendData("x" * 600)


class _EditedBatch(HonestProver):
    """Honest prover whose batches (each holding a record matrix) pass
    through edit(batch), which returns the batch to send."""

    def __init__(self, q, edit):
        super().__init__(q)
        self.edit = edit

    def answer_queries(self, qs):
        return self.edit(super().answer_queries(qs))


def _replaced(of_proofs=False, **change):
    """edit(batch): each attribute a of the batch replaced by change[a](old),
    after the batch is rebuilt from a copy of its record matrix when
    of_proofs is set."""

    def edit(batch):
        if of_proofs:
            batch = edited(batch)
        for attr, new in change.items():
            setattr(batch, attr, new(getattr(batch, attr)))
        return batch

    return edit


def _sending(edit, q=None):
    """run(record): a session against honest batches of q (uniform(N) by
    default) passed through edit(batch), which returns the batch to send."""
    return lambda record: _oracle(_EditedBatch(q or uniform(N), edit), record=record)


def _edited_records(**change):
    return _sending(_replaced(**change))


def _edited_batch(*edits):
    """run(record): the batches' record matrices edited in place by edits."""
    return _sending(lambda batch: edited(batch, *edits))


def _constructed(change):
    """run(record): each batch rebuilt through the constructor with its
    index replaced by change(index)."""
    return _sending(lambda batch: OpeningBatch(batch.proofs, change(batch.index), batch.depth))


def _proof_list(i=0, **change):
    """run(record): each batch's `proofs` replaced by its rows decoded to a
    list of decoded openings (conftest.Opening), proof i with each field f replaced by
    change[f](old); a list is not a record matrix, whatever its proofs."""

    def edit(batch):
        proofs = openings(batch)
        p = proofs[i]
        proofs[i] = dataclasses.replace(p, **{f: g(getattr(p, f)) for f, g in change.items()})
        batch.proofs = proofs
        return batch

    return _sending(edit)


def _set_head(i: int, field: int, change):
    """edit(rows): head field `field` of row i (0 the element, 1 the pdf, 2
    the cdf) set to change(old) modulo 2^64."""

    def edit(rows):
        heads = cm.record_heads(rows)
        heads[i, field] = change(int(heads[i, field])) % (1 << 64)

    return edit


def _set_byte(i: int, column: int, value: int):
    """edit(rows): byte `column` of row i set to value."""

    def edit(rows):
        rows[i, column] = value

    return edit


class _RowInEmptyBatch(HonestProver):
    """Answers an empty query set with a batch that holds one record, with a
    direction byte of 2, all the same."""

    def answer_queries(self, qs):
        batch = super().answer_queries(qs)
        if not len(qs):
            one = super().answer_queries(QuerySet.elements(np.asarray([1])))
            batch = edited(one, _set_byte(0, direction_byte(0), 2), index=batch.index)
        return batch


def _bad_depth_byte(rows):
    rows[:, DEPTH_BYTE] += 1


_BAD_PDF = _set_head(0, 1, lambda pdf: pdf + 1)  # fails verification


def _bump_every_claim(rows):
    cm.record_heads(rows)[:, 1:] += 1  # pdf and cdf


# N = 1, G = 1: a record has depth 0 and no path
ONE = GrainDistribution(1, 1, (1,))

# case -> (reason in either mode, run(record))
PARITY = {
    "honest": (Reason.ACCEPT, _edited_batch()),
    "element-minus-1": (Reason.INVALID_OPENING, _edited_batch(_set_head(0, 0, lambda x: -1))),
    # a list of decoded openings is not a record matrix, however they encode
    "honest-proof-list": (Reason.MALFORMED, _proof_list()),
    "path-one-level-short": (Reason.MALFORMED, _proof_list(path=lambda b: b[41:])),
    "path-one-level-long": (Reason.MALFORMED, _proof_list(path=lambda b: b + b[:41])),
    "element-2^64": (Reason.MALFORMED, _proof_list(element=lambda x: 1 << 64)),
    "float-cdf-that-verifies": (Reason.MALFORMED, _proof_list(claimed_cdf=float)),
    "invalid-encodable": (Reason.INVALID_OPENING, _edited_batch(_BAD_PDF)),
    # the batch's one distinct record, walked like any other
    "n1-every-claim-bumped": (
        Reason.INVALID_OPENING,
        _sending(lambda batch: edited(batch, _bump_every_claim), q=ONE),
    ),
    "invalid-ahead-of-unencodable": (
        Reason.MALFORMED,
        _edited_batch(_BAD_PDF, _set_byte(1, direction_byte(0), 2)),
    ),
    "float-index": (Reason.MALFORMED, _edited_records(index=lambda i: i.astype(float))),
    "float-index-of-proofs": (
        Reason.MALFORMED, _edited_records(of_proofs=True, index=lambda i: i.astype(float)),
    ),
    "float-index-via-constructor": (Reason.MALFORMED, _constructed(lambda i: i + 0.5)),
    "uint64-index-via-constructor": (
        Reason.MALFORMED, _constructed(lambda i: i.astype(np.uint64)),
    ),
    "2-d-index": (Reason.MALFORMED, _edited_records(index=lambda i: i.reshape(-1, 1))),
    "uint64-index": (Reason.MALFORMED, _edited_records(index=lambda i: i.astype(np.uint64))),
    "int32-index": (Reason.ACCEPT, _edited_records(index=lambda i: i.astype(np.int32))),
    "fortran-order-rows": (Reason.ACCEPT, _edited_records(proofs=np.asfortranarray)),
    "int64-rows": (Reason.MALFORMED, _edited_records(proofs=lambda r: r.astype(np.int64))),
    "rows-one-level-short": (Reason.MALFORMED, _edited_records(proofs=lambda r: r[:, :-41])),
    "rows-bad-depth-byte": (Reason.MALFORMED, _edited_batch(_bad_depth_byte)),
    "proof-in-empty-batch": (
        Reason.MALFORMED,
        lambda record: _oracle(_RowInEmptyBatch(uniform(N)), record=record, probes=0),
    ),
    "root-mass-minus-1": (
        Reason.MALFORMED, lambda record: _oracle(_NegativeRootMass(uniform(N)), record=record),
    ),
    "str-blob-full-reveal": (
        Reason.MALFORMED, lambda record: _general(_StrBlob(T), FullRevealBackend, record).session,
    ),
    "str-blob-spot-check": (
        Reason.MALFORMED, lambda record: _general(_StrBlob(T), SpotCheckBackend, record).session,
    ),
}

@pytest.mark.parametrize("record", [False, True], ids=["counters-only", "record-payloads"])
@pytest.mark.parametrize("case", list(PARITY))
def test_verdict_does_not_depend_on_record_payloads(case, record):
    reason, run = PARITY[case]
    res = run(record)
    assert (res.accept, res.reason) == (reason == Reason.ACCEPT, reason)


@pytest.mark.parametrize("record", [False, True], ids=["counters-only", "record-payloads"])
def test_malformed_row_behind_an_invalid_one_walks_no_row(record):
    # the malformed row rejects the whole batch before row 0 is walked
    res = PARITY["invalid-ahead-of-unencodable"][1](record)
    assert res.reason == Reason.MALFORMED and not res.verified_openings
