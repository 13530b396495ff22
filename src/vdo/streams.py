"""Prover/verifier separation over a byte stream.

The default transport is in-process (the verifier calls the prover's
responder methods directly). This module runs the same protocol over any
pair of file-like byte streams using the framed wire encoding, e.g. a
socketpair or pipes between processes. The session hands its verdict to
RemoteProver, and close() sends it as the last frame, so the served side
reads the verdict the transcript logs. RemoteProver checks each reply's
header (sequence number, type, length) with read_header before it reads
the body; serve_prover reads each request with read_frame, which checks
its sequence number, and ends without a reply on anything it cannot
decode, answer or encode.

An opening batch, nearly all of a session's bytes, is never held whole on
either side: write_frame gathers its records block by block into one
reused buffer of at most 1 MiB, and RemoteProver checks the batch's header,
then reads the body in blocks of whole records (commitment.record_len
bytes each, the openings' one form) of at most 1 MiB and feeds
them to OpeningBatch.from_payload as they arrive.
"""

from __future__ import annotations

from .argument import backend_by_id
from .commitment import Digest, HashKey, record_len
from .wire import (
    HEADER_LEN,
    BackendData,
    BackendSelect,
    DigestMsg,
    KeyMsg,
    MsgType,
    OpeningBatch,
    QuerySet,
    Reason,
    Verdict,
    frame,
    frame_head,
)


# largest single read of a body whose length the reader did not expect: such
# a body is read in chunks, so its declared length allocates memory only as
# bytes actually arrive. An opening batch's body is written and read in
# blocks of whole records of at most this size.
_READ_CHUNK = 1 << 20


def _block_records(rec: int) -> int:
    """Records of rec bytes in one block of an opening batch's body."""
    return max(1, _READ_CHUNK // rec)


def _read_exact(stream, count: int, max_read: int) -> bytes:
    """Exactly count bytes, asking the stream for at most max_read at a time.
    One read (max_read >= count) returns the stream's buffer uncopied."""
    chunks = []
    while count:
        chunk = stream.read(min(count, max_read))
        if not chunk:
            raise EOFError("stream closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_header(
    stream,
    *,
    seq: int | None = None,
    mtype: int | None = None,
    length: int | None = None,
    max_length: int | None = None,
) -> tuple[int, int, int]:
    """Read one frame header as (seq, type, payload length), leaving the
    body unread. Each of seq, mtype and length that is given must match the
    header, and a declared length must not exceed max_length when given, or
    ValueError is raised."""
    head = _read_exact(stream, HEADER_LEN, HEADER_LEN)
    got_seq = int.from_bytes(head[0:4], "little")
    got_type = head[4]
    got_len = int.from_bytes(head[5:9], "little")
    for name, want, got in (
        ("sequence number", seq, got_seq),
        ("message type", mtype, got_type),
        ("payload length", length, got_len),
    ):
        if want is not None and got != want:
            raise ValueError(f"frame {name} {got}, expected {want}")
    if max_length is not None and got_len > max_length:
        raise ValueError(f"frame payload length {got_len}, at most {max_length} expected")
    return got_seq, got_type, got_len


def read_frame(stream, *, seq: int | None = None) -> tuple[int, int, bytes]:
    """Read one frame as (seq, type, payload), checking its sequence number
    as read_header does before the body is read; the body is read in chunks
    of at most 1 MiB."""
    got_seq, got_type, got_len = read_header(stream, seq=seq)
    return got_seq, got_type, _read_exact(stream, got_len, _READ_CHUNK)


def _record_blocks(stream, count: int, rec: int):
    """The next count records of rec bytes on stream, read as blocks of
    whole records of at most 1 MiB."""
    step = _block_records(rec)
    for s in range(0, count, step):
        size = min(step, count - s) * rec
        yield _read_exact(stream, size, size)


def write_frame(stream, seq: int, msg) -> None:
    """Write one frame, then flush. An opening batch's records are gathered
    block by block into one reused buffer, each block written before the
    next is gathered, so the frame is never held whole; the stream must
    copy what each write hands it, as io's buffered writers do, and keep
    no reference to it."""
    if not isinstance(msg, OpeningBatch):
        stream.write(frame(seq, msg))
    else:
        count, rec = len(msg), msg.record_len()
        fill = msg.gatherer()  # checks the batch before any byte is written
        stream.write(frame_head(seq, msg.TYPE, msg.payload_len()) + count.to_bytes(4, "little"))
        step = _block_records(rec)
        block = memoryview(bytearray(min(step, count) * rec))
        for s in range(0, count, step):
            e = min(s + step, count)
            fill(s, e, block)
            stream.write(block[: (e - s) * rec])
    stream.flush()


def serve_prover(reader, writer, prover) -> None:
    """Answer framed verifier requests until the stream ends or a verdict
    arrives. Fails closed: a frame whose sequence number is not the next
    one, a frame of any other type, a payload its decoder rejects, a request
    the prover raises on and a reply that cannot be encoded end the loop as
    well, without a reply (write_frame checks a batch before it writes any
    byte); the caller closes the streams."""
    seq = 0
    while True:
        try:
            _, mtype, payload = read_frame(reader, seq=seq)
            if mtype == MsgType.KEY:
                answer, request = prover.receive_key, HashKey.from_bytes(payload)
            elif mtype == MsgType.QUERY_SET:
                answer, request = prover.answer_queries, QuerySet.from_payload(payload)
            elif mtype == MsgType.BACKEND_SELECT:
                answer, request = prover.backend_payload, BackendSelect.from_payload(payload)
            else:  # a verdict, or a type no verifier sends
                return
            write_frame(writer, seq, answer(request))
        except Exception:
            return
        seq += 1


class RemoteProver:
    """Responder interface backed by a served prover on the far side of a
    byte stream; drop-in for the in-process prover objects."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._seq = 0
        self._digest: Digest | None = None
        self._verdict: Verdict | None = None

    def _roundtrip(
        self, msg, mtype: int, length: int | None = None, max_length: int | None = None
    ) -> int:
        """Send msg and read the reply's header, which must carry the
        request's sequence number and type mtype, and, when given, declare
        exactly length or at most max_length payload bytes; otherwise
        ValueError. Returns the declared payload length; the body is left
        for the caller to read."""
        seq = self._seq
        write_frame(self.writer, seq, msg)
        self._seq += 1
        return read_header(
            self.reader, seq=seq, mtype=mtype, length=length, max_length=max_length
        )[2]

    def receive_key(self, key: HashKey) -> DigestMsg:
        length = self._roundtrip(KeyMsg(key), MsgType.DIGEST, Digest.ENCODED_LEN)
        msg = DigestMsg(Digest.from_bytes(_read_exact(self.reader, length, length)))
        self._digest = msg.digest
        return msg

    def answer_queries(self, qs: QuerySet) -> OpeningBatch:
        """The batch's body is read in blocks of whole records as the
        decoder consumes them; it consumes every block, even when the count
        field or a record is bad, so the stream stays at a frame boundary."""
        return self.answer_walked(qs, None)

    def answer_walked(self, qs: QuerySet, walk) -> OpeningBatch:
        """answer_queries, with the session's row walker, when given,
        passed to the decoder (OpeningBatch.from_payload), which stops
        numbering rows once it returns False. A count field other than the
        query's length fails decoding whatever the records hold, so then no
        row is walked."""
        depth = self._digest.depth
        rec = record_len(depth)
        self._roundtrip(qs, MsgType.OPENING_BATCH, 4 + len(qs) * rec)
        count = int.from_bytes(_read_exact(self.reader, 4, 4), "little")
        blocks = _record_blocks(self.reader, len(qs), rec)
        return OpeningBatch.from_payload(
            count, depth, blocks, walk=walk if count == len(qs) else None
        )

    def backend_payload(self, select: BackendSelect) -> BackendData:
        """The backend's blob, no longer than the honest blob for the N and
        G of the digest received; a longer frame is refused unread."""
        d = self._digest
        limit = backend_by_id(select.backend_id).blob_len(d.domain_size, d.denominator)
        length = self._roundtrip(select, MsgType.BACKEND_DATA, max_length=limit)
        return BackendData(_read_exact(self.reader, length, _READ_CHUNK))

    def receive_verdict(self, verdict: Verdict) -> None:
        """Keep the verdict the session concluded with, for close()."""
        self._verdict = verdict

    def close(self) -> None:
        """Send the session's verdict, which ends the served session. A
        session that never concluded fails closed: it is sent a rejection."""
        verdict = self._verdict or Verdict(False, Reason.MALFORMED)
        write_frame(self.writer, self._seq, verdict)
