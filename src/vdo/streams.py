"""Prover/verifier separation over a byte stream.

The default transport is in-process (the verifier calls the prover's
responder methods directly). This module runs the same protocol over any
pair of file-like byte streams using the framed wire encoding, e.g. a
socketpair or pipes between processes.
"""

from __future__ import annotations

from .commitment import Digest, HashKey
from .wire import (
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
)


def _read_exact(stream, count: int) -> bytes:
    buf = b""
    while len(buf) < count:
        chunk = stream.read(count - len(buf))
        if not chunk:
            raise EOFError("stream closed mid-frame")
        buf += chunk
    return buf


def read_frame(stream) -> tuple[int, int, bytes]:
    head = _read_exact(stream, 9)
    seq = int.from_bytes(head[0:4], "little")
    mtype = head[4]
    length = int.from_bytes(head[5:9], "little")
    return seq, mtype, _read_exact(stream, length)


def write_frame(stream, seq: int, msg) -> None:
    stream.write(frame(seq, msg))
    stream.flush()


def serve_prover(reader, writer, prover) -> None:
    """Answer framed verifier messages until a verdict arrives."""
    seq_out = 0
    while True:
        try:
            _, mtype, payload = read_frame(reader)
        except EOFError:
            return
        if mtype == MsgType.KEY:
            key = HashKey.from_bytes(payload)
            reply = prover.receive_key(key)
        elif mtype == MsgType.QUERY_SET:
            reply = prover.answer_queries(QuerySet.from_payload(payload))
        elif mtype == MsgType.BACKEND_SELECT:
            sel = BackendSelect(payload[0], bytes(payload[1:]))
            reply = prover.backend_payload(sel)
        elif mtype == MsgType.VERDICT:
            return
        else:
            raise ValueError(f"unexpected message type {mtype}")
        write_frame(writer, seq_out, reply)
        seq_out += 1


class RemoteProver:
    """Responder interface backed by a served prover on the far side of a
    byte stream; drop-in for the in-process prover objects."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._seq = 0
        self._depth = 0

    def _roundtrip(self, msg) -> tuple[int, bytes]:
        write_frame(self.writer, self._seq, msg)
        self._seq += 1
        _, mtype, payload = read_frame(self.reader)
        return mtype, payload

    def receive_key(self, key: HashKey) -> DigestMsg:
        mtype, payload = self._roundtrip(KeyMsg(key))
        if mtype != MsgType.DIGEST:
            raise ValueError("expected digest")
        msg = DigestMsg(Digest.from_bytes(payload))
        self._depth = msg.digest.padded_size.bit_length() - 1
        return msg

    def answer_queries(self, qs: QuerySet) -> OpeningBatch:
        mtype, payload = self._roundtrip(qs)
        if mtype != MsgType.OPENING_BATCH:
            raise ValueError("expected opening batch")
        return OpeningBatch.from_payload(payload, self._depth)

    def backend_payload(self, select: BackendSelect) -> BackendData:
        mtype, payload = self._roundtrip(select)
        if mtype != MsgType.BACKEND_DATA:
            raise ValueError("expected backend data")
        return BackendData(bytes(payload))

    def close(self) -> None:
        write_frame(self.writer, self._seq, Verdict(True, Reason.ACCEPT))
