"""The verified distribution oracle session.

A session establishes query access to whatever distribution the digest
binds the prover to, guaranteed close to the unknown sampled distribution:

  1. verifier sends a fresh hash key; prover replies with a digest
     (rejected unless the root mass equals the declared denominator and
     that denominator is at most max_grains(N), the int64 bound of the
     identity test);
  2. the verifier ships one batch holding its quantile draws (reference
     samples) and every element probe of the identity test, the prover
     answers positionally, and the identity verdict is computed locally —
     four messages total;
  3. a second phase: the oracle session's query phase sends the
     generator's probes and returns the verified (element, pdf, cdf)
     answers as int64 arrays; the label-invariant argument decides on a
     histogram of such answers; the general argument runs a backend
     exchange.

One step, _exchange_distinct, sends a batch and verifies the answers.
Its one input is the batch's record matrix, the (k, record_len) uint8
rows of its distinct openings, and its int64 probe index: the honest
prover builds the matrix with commitment.open_batch and a decoded batch
carries it. A batch without that input (anything but a uint8 matrix of
records that pass check_records, an index that is not a 1-D array of
integers castable to int64) is MALFORMED before any record is walked.
Element, pdf and cdf are read as the matrix's little-endian uint64
columns. The step returns the distinct verified (element, pdf, cdf)
arrays and the per-probe index. Its element and quantile checks run over
fixed blocks of probes, every element block before any quantile block; a
block gathers each field it reads once, reads it under its kind's mask,
and is skipped when it holds no probe of that kind.
query_set gathers per-probe answers from that result. The identity round
expands nothing per probe: it hands complete() the distinct pdfs plus
the index past its first s_tail entries, and, only when the tail is
sampled, the reference samples' pdfs read through those first s_tail
entries.

An identity round holds one int64 values buffer, [quantile grains |
element probes], which plan() fills and which is the query message's
values; the message's kinds live until the exchange ends, and the reply's
probe index from then on. The honest prover resolves quantile probes into
one copy of the values (a block of quantile probes alone in place) and
writes each element's rank over that copy, both in blocks of CHECK_BLOCK
probes, and the copy becomes the reply's index. After the exchange the
query has been sent, logged and checked, and complete() overwrites the
buffer's mixed part with the pair keys; the keep mask and the collision
count's sorted copy of the keys come and go within it. The verifier's
checks, the pair lifting and the collision count run over blocks of the
same length; dist defines it.

run_session is the one skeleton behind all three protocols: establish,
the second phase, conclude. Every exchange that rejects raises
SessionRejected with a Reason, and run_session alone catches it and
concludes, so each session ends in exactly one verdict.

A row of an opening batch counts as verified only when the session's own
walk (_RowWalker) accepts it: _exchange_distinct walks the batch's whole
record matrix once the batch has passed its checks, in every transport
and payload mode, and maps each accepted (element, pdf, cdf) to the record
that proved it, so a record is walked once per session. Over a stream
with no payload recorded, the decoder is handed the same walker only so
that it stops numbering rows at the first invalid opening; the rows it
walks are staged, merged once the batch has passed its checks, and not
walked again. In every mode the verdict is MALFORMED for a count field,
record or refusal anywhere in the batch that a full decode rejects, or
for any other prover message without an encoding, and otherwise
INVALID_OPENING at the first distinct row that fails. With payloads
recorded, a streamed batch is decoded whole, so its logged payload is the
frame's. The rule bounds what a prover's replies and calls can do; a
prover in process shares the verifier's interpreter, and could as well
write into the walker's maps or rebind commitment.verify_opening.

Rejection is immediate and terminal per message. All randomness comes from
streams derived from the session seed, so a session replays byte-exactly.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.random import Generator

from . import commitment as cm
from .dist import GrainDistribution
from .rngutil import rng_from
from .testers import (
    CHECK_BLOCK,
    DSampler,
    IdentityResult,
    IdentityTestRun,
    check_domain,
    max_grains,
)
from .wire import (
    BackendData,
    BackendSelect,
    DigestMsg,
    KeyMsg,
    OpeningBatch,
    ProbeKind,
    QuerySet,
    Reason,
    SessionTranscript,
    Verdict,
)


# (N, eps, denominator, rng) -> the query-phase probe list
QueryGenerator = Callable[[int, Fraction, int, Generator], QuerySet]

# verified (elements, pdf_grains, cdf_grains) per probe, as int64 arrays
Answers = tuple[np.ndarray, np.ndarray, np.ndarray]

# verified (elements, pdf_grains, cdf_grains) per distinct opening, plus the
# per-probe index into them, as int64 arrays
DistinctAnswers = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def quantile_sampling_generator(count: int) -> QueryGenerator:
    def make(n, epsilon, denominator, rng):
        gs = rng.integers(1, denominator + 1, size=count, dtype=np.int64)
        return QuerySet.quantiles(gs)

    return make


def empty_generator() -> QueryGenerator:
    return lambda n, e, g, rng: QuerySet.elements(np.empty(0, dtype=np.int64))


@dataclass
class VerifierConfig:
    n: int
    epsilon: Fraction
    kappa: int = 128
    generator: QueryGenerator | None = None
    amplification: int = 1
    record_payloads: bool = False

    def __post_init__(self):
        check_domain(self.n)
        self.epsilon = Fraction(self.epsilon)
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0,1)")
        if self.amplification < 1:
            raise ValueError("amplification must be at least 1")
        if self.kappa < 128:
            raise ValueError("security parameter below 128 bits")


@dataclass
class SessionResult:
    accept: bool
    reason: Reason
    answers: Answers | None  # None when no query phase ran
    transcript: SessionTranscript
    digest: cm.Digest | None = None
    key: cm.HashKey | None = None
    identity: IdentityResult | None = None
    verified_openings: frozenset[tuple[int, int, int]] = frozenset()


# elements per replayed opening run (the extractor's opening oracle)
OPENING_RUN = 32


class HonestProver:
    """Prover that commits to a fixed distribution and answers faithfully."""

    def __init__(self, q: GrainDistribution):
        self.q = q
        self.key: cm.HashKey | None = None
        self.digest: cm.Digest | None = None
        self.aux: cm.TreeAux | None = None
        self._records: list[bytes] | None = None  # every element's record, once opened

    def receive_key(self, key: cm.HashKey) -> DigestMsg:
        self.key = key
        self.digest, self.aux = cm.digest(key, self.q)
        self._records = None
        return DigestMsg(self.digest)

    def resolve_queries(self, qs: QuerySet) -> np.ndarray:
        """Element answered at each probe position, as a fresh int64 array
        that answer_queries overwrites with the batch's index; an override
        edits and returns super()'s array. Quantile probes resolve block by
        block into it, a block of quantile probes alone in place."""
        out = np.array(qs.values, dtype=np.int64)
        kinds = np.asarray(qs.kinds)
        for s in range(0, out.shape[0], CHECK_BLOCK):
            b = out[s : s + CHECK_BLOCK]
            quant = kinds[s : s + CHECK_BLOCK] == ProbeKind.QUANTILE
            if quant.all():
                b[:] = self.q.quantile_grain_batch(b)
            elif quant.any():
                b[quant] = self.q.quantile_grain_batch(b[quant])
        return out

    def answer_queries(self, qs: QuerySet) -> OpeningBatch:
        """The batch holds the record matrix of the distinct elements,
        gathered by open_batch."""
        elements = self.resolve_queries(qs)
        n = self.q.n
        if elements.size and (elements.min() < 1 or elements.max() > n):
            raise ValueError(f"resolved element outside [1, {n}]")
        # elements lie in [1, N]: mark them, and number the marks in order
        # (the sorted distinct elements and inverse of np.unique, without a sort)
        seen = np.zeros(n + 1, dtype=bool)
        seen[elements] = True
        distinct = np.flatnonzero(seen)
        rank = np.cumsum(seen, dtype=np.int64)
        rank -= 1
        # each element becomes its rank in place, a block at a time (a take
        # with out= overlapping its input would buffer the whole batch)
        for s in range(0, elements.shape[0], CHECK_BLOCK):
            b = elements[s : s + CHECK_BLOCK]
            b[:] = rank[b]
        rows = cm.open_batch(distinct, self.digest, self.aux)
        return OpeningBatch(rows, elements, self.digest.depth)

    def backend_payload(self, select: BackendSelect) -> BackendData:
        from .argument import honest_backend_payload

        return honest_backend_payload(self, select)

    # -- extraction interface --------------------------------------------------

    def opening_run(self, run_index: int):
        """Replayable opening oracle: run r lists the records of a
        deterministic window of OPENING_RUN elements, cycling through the
        whole domain across runs. The first run after a key opens every
        element in one open_batch."""
        if self.digest is None:
            return []
        n = self.q.n
        if self._records is None:
            rows = cm.open_batch(np.arange(1, n + 1), self.digest, self.aux)
            self._records = [row.tobytes() for row in rows]
        start = (run_index * OPENING_RUN) % n
        return [self._records[(start + i) % n] for i in range(min(OPENING_RUN, n))]


class SessionRejected(Exception):
    """Raised by a session exchange that rejects; run_session concludes."""

    def __init__(self, reason: Reason):
        super().__init__(reason.name)
        self.reason = reason


class _RowWalker:
    """walk(rows): verify rows of one batch's record matrix in row order,
    over one or more calls, and return whether every row passed. A row
    whose record equals the one already held for its claim, in the
    session's map or in staged, is accepted unwalked, since verify_opening's
    verdict depends only on the record, the key and the digest; every other
    row goes to verify_opening, looked up at call time, as a copy of its
    bytes. The first row that fails ends the walk: failed is set, and later
    calls walk nothing. Each accepted row's claim and record go to staged,
    first record first: the session's map itself in process, or a dict of
    their own over a stream."""

    def __init__(self, key: cm.HashKey, digest: cm.Digest, verified: dict, staged: dict):
        self.key, self.digest, self.verified, self.staged = key, digest, verified, staged
        self.failed = False

    def __call__(self, rows: np.ndarray) -> bool:
        if self.failed:
            return False
        key, digest, verified, staged = self.key, self.digest, self.verified, self.staged
        rec = rows.shape[1]
        records = memoryview(rows.reshape(-1))  # the rows, end to end
        starts = range(0, rows.size, rec)
        for x, pdf, cdf, start in zip(*cm.record_heads(rows).T.tolist(), starts):
            claim, record = (x, pdf, cdf), records[start : start + rec].tobytes()
            if verified.get(claim) == record or staged.get(claim) == record:
                continue
            if not cm.verify_opening(x, record, key, digest):
                self.failed = True
                return False
            staged.setdefault(claim, record)
        return True


class VerifiedOracleSession:
    """Verifier-side session driver: establish(), then query_set()/backend
    exchanges, then conclude(), in the order run_session keeps. Every
    exchange that rejects raises SessionRejected."""

    def __init__(
        self,
        config: VerifierConfig,
        prover,
        d_sampler: DSampler,
        seed: int,
    ):
        self.config = config
        self.prover = prover
        self.d_sampler = d_sampler
        self.seed = seed
        self.transcript = SessionTranscript(record_payloads=config.record_payloads)
        self.key: cm.HashKey | None = None
        self.digest: cm.Digest | None = None
        self.identity: IdentityResult | None = None
        # every (element, pdf, cdf) that passed verification this session,
        # with the record that proved it
        self.verified_openings: dict[tuple[int, int, int], bytes] = {}

    # -- low-level exchange -----------------------------------------------------

    def _send(self, msg) -> None:
        self.transcript.log("V", msg)

    def _receive(self, msg, expected_type) -> None:
        """Log a prover message: MALFORMED unless it has the expected type
        and, whether or not payloads are recorded, an encoding (for any
        message but a batch, payload() gives payload_len() bytes; a batch's
        record matrix and index are checked in _exchange_distinct)."""
        if not isinstance(msg, expected_type):
            raise SessionRejected(Reason.MALFORMED)
        try:
            if not isinstance(msg, OpeningBatch) and (
                memoryview(msg.payload()).nbytes != msg.payload_len()
            ):
                raise ValueError("payload length mismatch")
            self.transcript.log("P", msg)
        except Exception:
            raise SessionRejected(Reason.MALFORMED)

    def _ask(self, msg, answer: Callable[[], object], reply_type):
        """Send msg, get the prover's reply from answer() and receive it;
        MALFORMED if the prover raises."""
        self._send(msg)
        try:
            reply = answer()
        except Exception:
            raise SessionRejected(Reason.MALFORMED)
        self._receive(reply, reply_type)
        return reply

    def _exchange_distinct(self, qs: QuerySet) -> DistinctAnswers:
        """Send a QuerySet and verify the positional answers. Returns the
        distinct verified (element, pdf, cdf) arrays and the probe index:
        probe i is answered by entry index[i]."""
        self.transcript.q_probes += len(qs)
        verified = self.verified_openings
        # a prover over a stream gets the walker for its decoder, unless the
        # whole batch is to be logged; the rows walk accepts are staged
        # apart until the batch has passed its checks
        streamed = not self.config.record_payloads and getattr(self.prover, "answer_walked", None)
        walk = _RowWalker(self.key, self.digest, verified, {} if streamed else verified)
        batch = self._ask(
            qs,
            lambda: streamed(qs, walk) if streamed else self.prover.answer_queries(qs),
            OpeningBatch,
        )
        try:
            if len(batch) != len(qs) or batch.depth != self.digest.depth:
                raise ValueError("batch of another length or depth")
            rows, index = batch._rows(), batch._index()
        except Exception:  # e.g. records that are not a matrix, a float index
            raise SessionRejected(Reason.MALFORMED)
        if len(qs) and index.min() < 0:  # a refusal
            raise SessionRejected(Reason.MALFORMED)
        # a batch whose decoder stopped numbering at a failed walk points
        # its unnumbered records past its rows
        if not walk.failed and len(qs) and index.max() >= rows.shape[0]:
            raise SessionRejected(Reason.MALFORMED)
        walk(rows)
        if streamed:
            for claim, record in walk.staged.items():
                verified.setdefault(claim, record)
        if walk.failed:
            raise SessionRejected(Reason.INVALID_OPENING)
        # every record verified, so each field is at most max(N, G) < 2^63
        pe, ppdf, pcdf = cm.record_heads(rows).astype(np.int64).T
        kinds = np.asarray(qs.kinds)
        values = np.asarray(qs.values, dtype=np.int64)
        blocks = [slice(s, s + CHECK_BLOCK) for s in range(0, len(qs), CHECK_BLOCK)]
        # every element probe is checked before any quantile probe; a block
        # gathers each field it reads once over the whole block, reads it
        # under its kind's mask, and is skipped when it holds no probe of
        # that kind
        for b in blocks:
            is_elem = kinds[b] == ProbeKind.ELEMENT
            if is_elem.any() and (is_elem & (pe[index[b]] != values[b])).any():
                raise SessionRejected(Reason.INVALID_OPENING)
        plo = pcdf - ppdf
        for b in blocks:
            is_quant = kinds[b] == ProbeKind.QUANTILE
            if is_quant.any():
                at, g = index[b], values[b]
                if (is_quant & ((g <= plo[at]) | (g > pcdf[at]))).any():
                    raise SessionRejected(Reason.QUANTILE_INVALID)
        return pe, ppdf, pcdf, index

    # -- phase 1 ------------------------------------------------------------------

    def establish(self) -> None:
        """Key/digest exchange plus the interactive identity test."""
        cfg = self.config
        self.key = key = cm.gen(cfg.kappa, cfg.n, rng_from(self.seed, "key"))
        d = self._ask(KeyMsg(key), lambda: self.prover.receive_key(key), DigestMsg).digest
        if d.domain_size != cfg.n or d.denominator > max_grains(cfg.n) or not d.well_formed():
            raise SessionRejected(Reason.BAD_DIGEST)
        self.digest = d
        votes = sum(self._identity_round(rep) for rep in range(cfg.amplification))
        if 2 * votes <= cfg.amplification:
            raise SessionRejected(Reason.IDENTITY_FAIL)

    def _identity_round(self, rep: int) -> bool:
        cfg = self.config
        g = self.digest.denominator
        run = IdentityTestRun(
            cfg.n,
            cfg.epsilon,
            rng_from(self.seed, "tail", rep),
            rng_from(self.seed, "pairs", rep),
        )
        s_tail = run.s_tail
        # one values buffer, [quantile grains | element probes]; complete()
        # writes the pair keys over its mixed part once the exchange is over
        values = run.plan(
            self.d_sampler,
            rng_from(self.seed, "mix", rep),
            rng_from(self.seed, "qgrains", rep).integers(1, g + 1, size=s_tail, dtype=np.int64),
        )
        kinds = np.full(values.shape[0], ProbeKind.ELEMENT, dtype="u1")
        kinds[:s_tail] = ProbeKind.QUANTILE
        _, pdfs, _, index = self._exchange_distinct(QuerySet(kinds, values))
        del kinds
        self.transcript.q_samples += s_tail
        # an exact tail reads no reference sample
        q_pdfs = np.empty(0, dtype=np.int64) if run.tail_exact else pdfs[index[:s_tail]]
        res = run.complete(pdfs, index[s_tail:], q_pdfs, g)
        res.counters.q_samples = s_tail
        self.identity = res
        self.transcript.d_samples = self.d_sampler.draws
        return res.accept

    # -- phase 2 ------------------------------------------------------------------

    def query_set(self, qs: QuerySet) -> Answers:
        """Run one query-phase batch and return its verified answers, one
        per probe. The identity round calls _exchange_distinct directly, so
        a trace of query_set covers only the second phase."""
        elems, pdfs, cdfs, index = self._exchange_distinct(qs)
        return elems[index], pdfs[index], cdfs[index]

    def backend_exchange(self, select: BackendSelect) -> BackendData:
        return self._ask(select, lambda: self.prover.backend_payload(select), BackendData)

    # -- conclusion ------------------------------------------------------------------

    def conclude(self, accept: bool, reason: Reason, answers: Answers | None) -> SessionResult:
        verdict = Verdict(accept, reason)
        self._send(verdict)
        # a prover over a stream sends the verdict on, one in process needs
        # no such method; whatever the hook does, the verdict stands
        with suppress(Exception):
            tell = getattr(self.prover, "receive_verdict", None)
            if tell is not None:
                tell(verdict)
        self.transcript.d_samples = self.d_sampler.draws
        return SessionResult(
            accept,
            reason,
            answers,
            self.transcript,
            self.digest,
            self.key,
            self.identity,
            frozenset(self.verified_openings),
        )


def run_session(
    config: VerifierConfig,
    prover,
    d_sampler: DSampler,
    seed: int,
    phase: Callable[[VerifiedOracleSession], tuple],
) -> tuple[SessionResult, object]:
    """The skeleton every protocol shares: establish(), the second phase,
    conclude(). phase(session) returns (accept, reason, answers, extra). A
    SessionRejected from either phase concludes with its reason. Returns the
    session result and the phase's extra value (None on rejection)."""
    session = VerifiedOracleSession(config, prover, d_sampler, seed)
    try:
        session.establish()
        accept, reason, answers, extra = phase(session)
    except SessionRejected as rej:
        accept, reason, answers, extra = False, rej.reason, None, None
    return session.conclude(accept, reason, answers), extra


def query_phase(session: VerifiedOracleSession) -> Answers:
    """Send the configured generator's probes and return the verified
    answers."""
    cfg = session.config
    qs = (cfg.generator or empty_generator())(
        cfg.n, cfg.epsilon, session.digest.denominator, rng_from(session.seed, "gen")
    )
    return session.query_set(qs)


def run_oracle_session(
    config: VerifierConfig,
    prover,
    d_sampler: DSampler,
    seed: int,
) -> SessionResult:
    """The full oracle protocol: establish, run the generator's probes,
    output verified (element, pdf, cdf) answers."""

    def phase(session):
        return True, Reason.ACCEPT, query_phase(session), None

    return run_session(config, prover, d_sampler, seed, phase)[0]
