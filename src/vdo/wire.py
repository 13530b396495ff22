"""Canonical message encodings and session transcripts.

Every protocol message is one framed record:

    seq:u32 | type:u8 | payload_len:u32 | payload

All integers are little-endian. Quantile probes carry a grain index g
(the probed mass is g/G for the committed denominator G); batched replies
answer a query set positionally.

An opening is its record (commitment.record_len bytes: element, pdf, cdf,
depth byte, path), on the wire as everywhere else. An opening batch
repeats each probe's record in full but holds only its distinct records,
as a record matrix: a (k, record_len) uint8 matrix whose rows are the
distinct records, plus an int64 index that picks each probe's row (-1 for
a refusal, sent as a zeroed record). The matrix is the batch's one form:
the honest prover builds it with commitment.open_batch, decoding builds it
straight from the payload, and an adversary edits a copy of one. _rows()
and _index() are the batch as the verifier reads it, and anything else in
their place is refused.

One gather routine fills any run of probes' records from the rows with a
numpy take into a caller's buffer. payload() runs it once, straight into
the payload's own buffer, and frame() prefixes the header to that payload
as for any other message; streams.write_frame, the path a served batch
takes, runs it block by block into one reused buffer. Decoding numbers
the rows in one streaming dictionary pass over whole records, which may
arrive as a sequence of blocks, checks each block's new distinct rows'
depth and direction bytes with commitment.check_records and stacks them
into the matrix, up to a refusal or a row the session's walker rejects
(_number_rows).

Transcripts record direction, framing and counters. Payload retention can
be disabled for bulk runs; byte counters are exact either way because every
record length is computable from the structured message.
"""

from __future__ import annotations

import itertools
import struct
from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .commitment import Digest, HashKey, check_records, record_len, records_clean

HEADER_LEN = 9


class MsgType(IntEnum):
    KEY = 1
    DIGEST = 2
    QUERY_SET = 3
    OPENING_BATCH = 5
    BACKEND_SELECT = 6
    BACKEND_DATA = 7
    VERDICT = 8


class ProbeKind(IntEnum):
    ELEMENT = 1
    QUANTILE = 2


class Reason(IntEnum):
    ACCEPT = 0
    BAD_DIGEST = 1
    MALFORMED = 2
    INVALID_OPENING = 3
    QUANTILE_INVALID = 4
    IDENTITY_FAIL = 5
    PROPERTY_REJECT = 6
    BACKEND_MISMATCH = 7
    BACKEND_REJECT = 8


@dataclass(frozen=True)
class KeyMsg:
    key: HashKey

    TYPE = MsgType.KEY

    def payload(self) -> bytes:
        return self.key.to_bytes()

    def payload_len(self) -> int:
        return 20


@dataclass(frozen=True)
class DigestMsg:
    digest: Digest

    TYPE = MsgType.DIGEST

    def payload(self) -> bytes:
        return self.digest.to_bytes()

    def payload_len(self) -> int:
        return Digest.ENCODED_LEN


@dataclass(frozen=True)
class QuerySet:
    """Ordered probe batch: kinds[i] says whether values[i] is an element
    or a quantile grain index."""

    kinds: np.ndarray  # u8 per probe
    values: np.ndarray  # i64 per probe

    TYPE = MsgType.QUERY_SET

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    def payload(self) -> bytes:
        count = len(self)
        return (
            count.to_bytes(4, "little")
            + np.asarray(self.kinds, dtype="u1").tobytes()
            + np.asarray(self.values, dtype="<i8").tobytes()
        )

    def payload_len(self) -> int:
        return 4 + 9 * len(self)

    @classmethod
    def from_payload(cls, data: bytes) -> "QuerySet":
        count = int.from_bytes(data[:4], "little")
        if len(data) != 4 + 9 * count:
            raise ValueError("query set length mismatch")
        kinds = np.frombuffer(data, dtype="u1", count=count, offset=4)
        values = np.frombuffer(data, dtype="<i8", count=count, offset=4 + count)
        return cls(kinds, values)

    @classmethod
    def elements(cls, xs: np.ndarray) -> "QuerySet":
        xs = np.asarray(xs, dtype=np.int64)
        return cls(np.full(xs.shape[0], ProbeKind.ELEMENT, dtype="u1"), xs)

    @classmethod
    def quantiles(cls, grains: np.ndarray) -> "QuerySet":
        gs = np.asarray(grains, dtype=np.int64)
        return cls(np.full(gs.shape[0], ProbeKind.QUANTILE, dtype="u1"), gs)


# a record's depth byte, after its element, pdf and cdf
_DEPTH_BYTE = record_len(0) - 1


def _blank_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the all-zero rows (refusals) of a record matrix; only rows
    whose depth byte is 0 are read whole."""
    blank = rows[:, _DEPTH_BYTE] == 0
    if blank.any():
        blank[blank] = ~rows[blank].any(axis=1)
    return blank


def _number_rows(blocks, depth: int, count: int, walk=None):
    """Exact dedup of the records of a sequence of blocks of whole records,
    in one streaming dictionary pass that consumes every block: the
    distinct non-blank rows in first-occurrence order, as a matrix, and each
    record's number among them (-1 for an all-zero record, a refusal). Each
    block's new distinct rows are checked with check_records as they are
    numbered, and after the first error the remaining blocks are only
    counted. ValueError, raised once every block is consumed, for a number
    of records other than count, or else for that first error.

    walk(rows), when given, is handed each block's new distinct rows in
    order once they pass. Numbering stops after a block that holds a
    refusal (whose rows are not walked) or whose walk returns False, since
    the verdict can then no longer be an accept: later records are only
    checked (one records_clean pass per block, check_records on the
    non-blank ones where that pass fails or the depth is 0) and counted,
    numbered -1 if blank and len(distinct rows) otherwise."""
    rec = record_len(depth)
    blank = (bytes(rec),)
    number = defaultdict(itertools.count().__next__, {blank: -1})
    unpack = struct.Struct(f"{rec}s").iter_unpack
    distinct, parts, total, error, numbering = [], [], 0, None, True
    for block in blocks:
        size = len(block) // rec
        total += size
        if error is not None:
            continue
        try:
            if numbering:
                seen = len(number)
                part = np.fromiter(map(number.__getitem__, unpack(block)), dtype=np.int64)
                new = b"".join(row for (row,) in itertools.islice(number, seen, None))
                rows = np.frombuffer(new, dtype=np.uint8).reshape(-1, rec)
                check_records(rows, depth)
            else:
                rows = np.frombuffer(block, dtype=np.uint8).reshape(size, rec)
                part = np.full(size, len(number) - 1, dtype=np.int64)
                # A refusal's depth byte is 0, so at depth >= 1 a block
                # that passes the flat check holds none. At depth 0 (N = 1)
                # a refusal passes that check, so the blank rows are
                # always masked there (case n1-then-refusal).
                if not (depth and records_clean(rows, depth)):
                    refused = _blank_rows(rows)
                    check_records(rows[~refused] if refused.any() else rows, depth)
                    part[refused] = -1
        except ValueError as exc:
            error = exc
            continue
        parts.append(part)
        if numbering:
            distinct.append(rows)
            if walk is not None:
                numbering = not (size and part.min() < 0) and walk(rows)
        del block, rows  # freed before the next block is read
    if total != count:
        raise ValueError("opening batch length mismatch")
    if error is not None:
        raise error
    rows = np.concatenate([np.empty((0, rec), dtype=np.uint8), *distinct])
    return rows, np.concatenate([np.empty(0, dtype=np.int64), *parts])


class OpeningBatch:
    """Positional answers to a QuerySet.

    Stored deduplicated: `proofs` is the record matrix of the distinct
    openings, and `index[i]` picks the row answering probe i. The wire
    encoding repeats each record in full, so byte counts match per-probe
    framing; refusals are encoded as a zeroed record and index -1.
    """

    TYPE = MsgType.OPENING_BATCH

    def __init__(self, proofs, index: np.ndarray, depth: int):
        self.proofs = proofs
        self.index = np.asarray(index)
        self.depth = depth

    def __len__(self) -> int:
        return int(self.index.shape[0])

    def record_len(self) -> int:
        return record_len(self.depth)

    def payload_len(self) -> int:
        return 4 + len(self) * self.record_len()

    def _rows(self) -> np.ndarray:
        """The distinct records as a C-contiguous (k, record_len) uint8
        matrix that passes check_records; ValueError otherwise."""
        rows = np.ascontiguousarray(self.proofs)
        if rows.dtype != np.uint8 or rows.shape[1:] != (self.record_len(),):
            raise ValueError("records are not a uint8 matrix of the batch's record length")
        check_records(rows, self.depth)
        return rows

    def _index(self) -> np.ndarray:
        """The index as a 1-D int64 array; ValueError for another shape or
        for a dtype that does not cast to int64 safely (floats, uint64)."""
        index = np.asarray(self.index)
        dtype = index.dtype
        if index.ndim != 1 or dtype.kind not in "iu" or not np.can_cast(dtype, np.int64):
            raise ValueError("opening index is not a 1-D integer array castable to int64")
        return index.astype(np.int64, copy=False)

    def gatherer(self):
        """fill(s, e, out): write the records of probes [s, e) into the
        writable buffer out, each gathered from the distinct rows and a
        refusal's zeroed. The distinct rows are read, and the index
        checked against them, once, here."""
        rows, index = self._rows(), self._index()
        k, rec = rows.shape
        if len(index) and index.max() >= k:
            raise IndexError("opening index past the distinct proofs")
        table = np.concatenate([rows, np.zeros((1, rec), dtype=np.uint8)])
        picks = np.where(index < 0, k, index)

        def fill(s: int, e: int, out) -> None:
            body = np.frombuffer(out, dtype=np.uint8, count=(e - s) * rec).reshape(e - s, rec)
            np.take(table, picks[s:e], axis=0, out=body, mode="clip")

        return fill

    def payload(self) -> bytearray:
        """The count, then each probe's record gathered straight into place."""
        count = len(self)
        fill = self.gatherer()
        out = bytearray(4 + count * self.record_len())
        out[:4] = count.to_bytes(4, "little")
        fill(0, count, memoryview(out)[4:])
        return out

    @classmethod
    def from_payload(cls, data, depth: int, blocks=None, walk=None) -> "OpeningBatch":
        """Decode a payload, or, with blocks given, a payload whose count
        field is data (an int) and whose records follow as the iterable
        blocks, each a bytes-like run of whole records. Deduplicates the
        rows into a record matrix, checking them block by block. ValueError
        for a record count other than the count field, or with
        check_records' message for the first distinct record it rejects;
        either is raised only after every block has been
        consumed, so a stream read through blocks is left at the frame's
        end. A batch whose numbering stopped at a refusal or at a row walk
        rejected (see _number_rows) is good only for its length: it holds a
        refusal (index -1), or its index points past its rows."""
        rec = record_len(depth)
        if blocks is None:
            count = int.from_bytes(data[:4], "little")
            if len(data) != 4 + count * rec:
                raise ValueError("opening batch length mismatch")
            blocks = (memoryview(data)[4:],)
        else:
            count = data
        return cls(*_number_rows(blocks, depth, count, walk), depth)


@dataclass(frozen=True)
class BackendSelect:
    backend_id: int
    params: bytes = b""

    TYPE = MsgType.BACKEND_SELECT

    def payload(self) -> bytes:
        return self.backend_id.to_bytes(1, "little") + self.params

    def payload_len(self) -> int:
        return 1 + len(self.params)

    @classmethod
    def from_payload(cls, data: bytes) -> "BackendSelect":
        if not data:
            raise ValueError("empty backend selection")
        return cls(data[0], bytes(data[1:]))


@dataclass(frozen=True)
class BackendData:
    blob: bytes

    TYPE = MsgType.BACKEND_DATA

    def payload(self) -> bytes:
        return self.blob

    def payload_len(self) -> int:
        return len(self.blob)


@dataclass(frozen=True)
class Verdict:
    accept: bool
    reason: Reason

    TYPE = MsgType.VERDICT

    def payload(self) -> bytes:
        return bytes([1 if self.accept else 0, int(self.reason)])

    def payload_len(self) -> int:
        return 2


def frame_head(seq: int, mtype: int, length: int) -> bytes:
    """The 9-byte header of a frame whose payload is length bytes."""
    return seq.to_bytes(4, "little") + bytes([int(mtype)]) + length.to_bytes(4, "little")


def frame(seq: int, msg) -> bytes:
    payload = msg.payload()
    return frame_head(seq, msg.TYPE, len(payload)) + payload


def frame_len(msg) -> int:
    return HEADER_LEN + msg.payload_len()


@dataclass
class TranscriptEntry:
    seq: int
    sender: str  # "V" or "P"
    msg_type: MsgType
    length: int  # full framed length
    payload: bytes | None  # retained only when recording payloads


@dataclass
class SessionTranscript:
    """Ordered, byte-exact protocol record with usage counters."""

    record_payloads: bool = True
    entries: list[TranscriptEntry] = field(default_factory=list)
    d_samples: int = 0
    q_probes: int = 0
    q_samples: int = 0
    bytes_sent: int = 0  # verifier -> prover
    bytes_received: int = 0  # prover -> verifier
    _next_seq: int = 0

    def log(self, sender: str, msg) -> int:
        seq = self._next_seq
        self._next_seq += 1
        length = frame_len(msg)
        payload = msg.payload() if self.record_payloads else None
        self.entries.append(
            TranscriptEntry(seq, sender, MsgType(msg.TYPE), length, payload)
        )
        if sender == "V":
            self.bytes_sent += length
        else:
            self.bytes_received += length
        return seq

    @property
    def message_count(self) -> int:
        return len(self.entries)

    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def to_text(self) -> str:
        """One record per line: seq sender type length hexpayload."""
        lines = []
        for e in self.entries:
            hexpart = e.payload.hex() if e.payload is not None else "-"
            lines.append(f"{e.seq} {e.sender} {e.msg_type.name} {e.length} {hexpart}")
        return "\n".join(lines) + "\n"

    def recompute_counters(self) -> tuple[int, int]:
        sent = sum(e.length for e in self.entries if e.sender == "V")
        recv = sum(e.length for e in self.entries if e.sender == "P")
        return sent, recv
