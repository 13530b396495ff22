"""Scripted cheating provers for empirical soundness measurement.

Scripts are deterministic given their seed, implement the prover responder
interface, and expose the replayable opening oracle the extractor needs.
They measure soundness against fixed strategies; no collision search.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import commitment as cm
from .dist import GrainDistribution
from .protocol import HonestProver
from .rngutil import rng_from
from .wire import BackendData, BackendSelect, OpeningBatch, QuerySet


_PDF_CDF = struct.Struct("<QQ")  # a record's pdf and cdf, after its u64 element


def _at_most(args: list[str], k: int) -> None:
    if len(args) > k:
        raise ValueError(f"adversary takes at most {k} parameter(s), got {len(args)}")


class AdversaryScript(HonestProver):
    """Base: honest behavior plus a strategy label; subclasses deviate.

    cli_params() turns command-line strings into the parameters that
    from_params() takes; `dist_spec` parses a distribution spec and `dist`
    builds a distribution from one.
    """

    strategy = "honest"

    def __init__(self, q: GrainDistribution, seed: int = 0):
        super().__init__(q)
        self.seed = seed
        self._calls = 0

    @classmethod
    def from_params(cls, q: GrainDistribution, seed: int, dist, *params) -> AdversaryScript:
        return cls(q, *params, seed=seed)

    @staticmethod
    def cli_params(args: list[str], dist_spec) -> tuple:
        _at_most(args, 0)
        return ()


class FarCommitAdversary(AdversaryScript):
    """Commits to its own distribution and answers honestly from it.

    Cheats only in the choice of committed distribution; every opening
    verifies, so rejection must come from the testing layers.
    """

    strategy = "far-commit"


class InconsistentOpeningAdversary(AdversaryScript):
    """Perturbs claimed pdf values without recomputing the tree.

    Each answered position is flipped independently with probability
    flip_prob (the claimed pdf is bumped by one grain, path untouched), so
    any flipped opening fails verification.
    """

    strategy = "inconsistent-opening"

    def __init__(self, q: GrainDistribution, flip_prob, seed: int = 0):
        super().__init__(q, seed)
        self.flip_prob = Fraction(flip_prob)
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("flip probability out of range")

    @staticmethod
    def cli_params(args, dist_spec) -> tuple:
        _at_most(args, 1)
        return (Fraction(args[0]) if args else Fraction(1, 100),)

    def _flip_mask(self, count: int, stream: str) -> np.ndarray:
        rng = rng_from(self.seed, "flip", stream, self._calls)
        self._calls += 1
        p = self.flip_prob
        draws = rng.integers(0, p.denominator, size=count)
        return draws < p.numerator

    def _perturb(self, record: bytes) -> bytes:
        """record with its pdf and cdf bumped by one grain, path untouched;
        a bump wraps mod 2^64, as answer_queries' uint64 bump does."""
        pdf, cdf = _PDF_CDF.unpack_from(record, 8)
        return record[:8] + _PDF_CDF.pack((pdf + 1) % 2**64, (cdf + 1) % 2**64) + record[24:]

    def answer_queries(self, qs: QuerySet) -> OpeningBatch:
        batch = super().answer_queries(qs)
        mask = self._flip_mask(len(batch), "answers")
        if not mask.any():
            return batch
        # each flipped probe gets its own copy of its record, appended after
        # the distinct ones, with the pdf and cdf bumped as _perturb does
        rows, index = batch.proofs, batch.index.copy()
        flips = np.flatnonzero(mask)
        bumped = rows[index[flips]]
        cm.record_heads(bumped)[:, 1:] += 1
        index[flips] = np.arange(len(rows), len(rows) + len(flips))
        return OpeningBatch(np.concatenate([rows, bumped]), index, batch.depth)

    def opening_run(self, run_index: int):
        records = super().opening_run(run_index)
        mask = self._flip_mask(len(records), f"run{run_index}")
        return [self._perturb(r) if flip else r for r, flip in zip(records, mask)]


class SelectiveRefusalAdversary(AdversaryScript):
    """Honest except that openings for a blocked element set are refused
    (a zeroed record in the batch, which the verifier treats as malformed)."""

    strategy = "selective-refusal"

    def __init__(self, q: GrainDistribution, blocked, seed: int = 0):
        super().__init__(q, seed)
        self.blocked = frozenset(int(x) for x in blocked)

    @staticmethod
    def cli_params(args, dist_spec) -> tuple:
        return (tuple(int(a) for a in args) or (1,),)

    def answer_queries(self, qs: QuerySet) -> OpeningBatch:
        batch = super().answer_queries(qs)
        if not self.blocked:
            return batch
        elements = cm.record_heads(batch.proofs)[:, 0].astype(np.int64)
        refuse = np.isin(elements, np.asarray(sorted(self.blocked), dtype=np.int64))
        if not refuse.any():
            return batch
        index = batch.index.copy()
        index[refuse[batch.index]] = -1
        return OpeningBatch(batch.proofs, index, batch.depth)

    def opening_run(self, run_index: int):
        return [
            r
            for r in super().opening_run(run_index)
            if int.from_bytes(r[:8], "little") not in self.blocked
        ]


class BackendSwapAdversary(AdversaryScript):
    """Runs the commitment phase honestly but computes the backend payload
    from a different distribution than the committed one."""

    strategy = "backend-swap"

    def __init__(self, commit_q: GrainDistribution, reveal_q: GrainDistribution, seed: int = 0):
        super().__init__(commit_q, seed)
        self.reveal_q = reveal_q

    @classmethod
    def from_params(cls, q, seed, dist, reveal) -> BackendSwapAdversary:
        return cls(q, dist(reveal) if dist else reveal, seed)

    @staticmethod
    def cli_params(args, dist_spec) -> tuple:
        _at_most(args, 1)
        return (dist_spec(args[0]) if args else ("uniform",),)

    def backend_payload(self, select: BackendSelect) -> BackendData:
        from .argument import backend_by_id

        return BackendData(backend_by_id(select.backend_id).honest_blob(self.reveal_q))


# strategy name -> script class
ADVERSARIES: dict[str, type[AdversaryScript]] = {
    cls.strategy: cls
    for cls in (
        AdversaryScript,
        FarCommitAdversary,
        InconsistentOpeningAdversary,
        SelectiveRefusalAdversary,
        BackendSwapAdversary,
    )
}


@dataclass(frozen=True)
class AdversarySpec:
    """Declarative adversary description, constructible inside workers."""

    strategy: str
    params: tuple = ()

    def build(self, q: GrainDistribution, seed: int, dist=None) -> AdversaryScript:
        """The script committing to q; `dist` builds a distribution from a
        spec parameter (None: such parameters already are distributions)."""
        cls = ADVERSARIES.get(self.strategy)
        if cls is None:
            raise ValueError(f"unknown adversary strategy: {self.strategy}")
        return cls.from_params(q, seed, dist, *self.params)
