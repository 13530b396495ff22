from fractions import Fraction as F
from itertools import combinations

import pytest

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdo.representation import decode_blocks
from vdo.rscode import BlockCode, element_code


def _decode(code: BlockCode, block: bytes, n: int) -> int | None:
    """Element encoded by one block, or None when it is not a codeword."""
    row = np.frombuffer(block, dtype=np.uint8).reshape(1, -1)
    vals = decode_blocks(row, code, n)
    return None if vals is None else int(vals[0])


def test_element_code_parameters():
    c = element_code(4)
    assert (c.message_symbols, c.codeword_symbols) == (1, 4)
    assert c.relative_distance >= F(1, 10)
    c2 = element_code(1024)
    assert (c2.message_symbols, c2.codeword_symbols) == (2, 4)
    c3 = element_code(255)
    assert c3.message_symbols == 1
    c4 = element_code(256)
    assert c4.message_symbols == 2


def test_systematic_roundtrip():
    code = element_code(300)
    for x in (1, 2, 150, 255, 256, 300):
        block = code.encode_int(x)
        assert len(block) == code.codeword_symbols
        assert block[: code.message_symbols] == x.to_bytes(code.message_symbols, "big")
        assert _decode(code, block, 300) == x


def test_non_codewords_rejected():
    code = element_code(40)
    block = bytearray(code.encode_int(17))
    for pos in range(len(block)):
        for delta in (1, 0x80):
            block[pos] ^= delta
            assert _decode(code, bytes(block), 40) is None
            block[pos] ^= delta
    assert _decode(code, b"", 40) is None


def test_minimum_distance_exhaustive_small():
    code = element_code(64)
    dist = code.codeword_symbols - code.message_symbols + 1
    words = [code.encode_int(x) for x in range(1, 65)]
    for a, b in combinations(words, 2):
        diff = sum(1 for s, t in zip(a, b) if s != t)
        assert diff >= dist


def test_encode_table_matches_scalar():
    # every row against the scalar encoder, for k = 1, 2 and 3 message bytes
    for n in (100, 256, 4096, 70000):
        code = element_code(n)
        table = code.encode_table(n)
        assert table.shape == (n + 1, code.codeword_symbols)
        assert table.tobytes() == b"".join(code.encode_int(x) for x in range(n + 1))
    assert {element_code(n).message_symbols for n in (100, 256, 70000)} == {1, 2, 3}


def test_decode_blocks_wrapped_message_rejected():
    # eight message bytes led by 0x80 shift past int64: the value wraps
    # negative, and the range check rejects it before any table is built
    code = BlockCode(8, 10)
    block = code.encode_message(bytes([0x80, 0, 0, 0, 0, 0, 0, 1]))
    row = np.frombuffer(block, dtype=np.uint8).reshape(1, -1)
    assert decode_blocks(row, code, (1 << 63) - 1) is None


def _decode_every_row(blocks, code, n):
    """The row-by-row decode that decoding by runs replaced: every row is
    decoded and checked against the table, then the values must not fall."""
    if blocks.ndim != 2 or blocks.shape[1] != code.codeword_symbols:
        return None
    k = code.message_symbols
    msg = blocks[:, :k].astype(np.int64)
    vals = np.zeros(blocks.shape[0], dtype=np.int64)
    for i in range(k):
        vals = (vals << 8) | msg[:, i]
    if (vals < 1).any() or (vals > n).any():
        return None
    table = code.encode_table(n)
    if not (table[vals] == blocks).all():
        return None
    if (np.diff(vals) < 0).any():
        return None
    return vals


@st.composite
def _block_matrices(draw):
    """(blocks, code, n): runs of codewords, sorted or not, with some rows
    edited. Codewords of 4, 5 and 10 bytes reach both row compares; with 8
    message bytes, a leading 0x80 wraps the decoded int64 negative."""
    code = draw(st.sampled_from([BlockCode(1, 4), BlockCode(2, 4), BlockCode(2, 5),
                                 BlockCode(3, 12), BlockCode(8, 10)]))
    n = draw(st.integers(1, 255 if code.message_symbols == 1 else 600))
    runs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, 4)), max_size=12))
    if draw(st.booleans()):
        runs.sort()
    vals = [v for v, length in runs for _ in range(length)]
    table = code.encode_table(n)
    blocks = table[np.asarray(vals, dtype=np.int64)].reshape(-1, code.codeword_symbols)
    for row, col, bit in draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 11),
                                                 st.integers(0, 7)), max_size=2)):
        if blocks.shape[0]:
            blocks[row % blocks.shape[0], col % code.codeword_symbols] ^= 1 << bit
    return blocks, code, n


class TestDecodeByRuns:
    @settings(max_examples=400, deadline=None)
    @given(_block_matrices())
    @example((np.zeros((0, 4), dtype=np.uint8), BlockCode(2, 4), 300))
    @example((np.frombuffer(BlockCode(8, 10).encode_message(bytes([0x80] + [0] * 6 + [1])),
                            dtype=np.uint8).reshape(1, 10).copy(), BlockCode(8, 10), 600))
    def test_matches_decoding_every_row(self, case):
        blocks, code, n = case
        got, ref = decode_blocks(blocks, code, n), _decode_every_row(blocks, code, n)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got.dtype == np.int64
            assert got.tolist() == ref.tolist()

    def test_wrong_width_rejected(self):
        code = BlockCode(2, 4)
        assert decode_blocks(np.zeros((3, 5), dtype=np.uint8), code, 9) is None
        assert decode_blocks(np.zeros(4, dtype=np.uint8), code, 9) is None


def test_bad_parameters():
    with pytest.raises(ValueError):
        BlockCode(0, 4)
    with pytest.raises(ValueError):
        BlockCode(4, 4)
