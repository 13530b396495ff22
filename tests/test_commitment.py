import dataclasses
import functools
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdo.commitment as cm
from vdo.commitment import (
    Digest,
    HashKey,
    NodeLabel,
    canonical_distribution,
    check_records,
    digest,
    extract,
    gen,
    open_batch,
    open_element,
    record_heads,
    record_len,
    verify_opening,
)
from vdo.dist import GrainDistribution, random_distribution, uniform
from vdo.protocol import HonestProver
from vdo.rngutil import rng_from
from vdo.wire import QuerySet

from conftest import DEPTH_BYTE, Opening, direction_byte, open_reference, openings

KEY = HashKey(bytes(range(16)), 128)
SMALL = GrainDistribution(4, 16, (4, 4, 8, 0))

# frozen canonical encodings for (KEY, SMALL); any encoding change must be deliberate
GOLDEN_DIGEST = (
    "0400000000000000100000000000000004000000000000001000000000000000"
    "f03b34d4b1637c2ae694da605333278ff173683607c7b8380b5fd643c8ca724c"
)
GOLDEN_OPEN_3 = (
    "030000000000000008000000000000001000000000000000020000000000000000"
    "8f0f69dc2278be8153b5927cf34ac2944621da5aa144c583001f7cc82f812a1e00"
    "08000000000000007c0d0753d775da875c2074ae53f7687236bf87b5d31d92ca7f"
    "636190a8b681dc01"
)


class TestPrefixStates:
    """Each hash copies one of its key's prefix states, sha256(salt + tag)."""

    @settings(max_examples=200, deadline=None)
    @given(
        salt=st.binary(min_size=16, max_size=16),
        mass=st.integers(0, 2**64 - 1),
        left=st.binary(min_size=40, max_size=40),
        right=st.binary(min_size=40, max_size=40),
        geometry=st.tuples(*[st.integers(0, 2**64 - 1)] * 3),
        root=st.binary(min_size=32, max_size=32),
    )
    def test_hashes_equal_one_shot_sha256(self, salt, mass, left, right, geometry, root):
        leaf, node, head = HashKey(salt, 128).prefixes
        leaf_in = salt + b"\x00" + mass.to_bytes(8, "little")
        node_in = salt + b"\x01" + left + right
        head_in = salt + b"\x02" + struct.pack("<QQQ", *geometry) + root
        # twice in a row: a state updated in place would change the second digest
        for _ in range(2):
            assert cm._hash_leaf(leaf, mass) == hashlib.sha256(leaf_in).digest()
            assert cm._hash_node(node, left, right) == hashlib.sha256(node_in).digest()
            assert cm._hash_header(head, *geometry, root) == hashlib.sha256(head_in).digest()

    def test_states_take_no_part_in_equality_hash_or_encoding(self):
        a, b = HashKey(bytes(range(16)), 128), HashKey(bytes(range(16)), 128)
        assert a.prefixes[0] is not b.prefixes[0]
        assert a == b and hash(a) == hash(b)
        assert a.to_bytes() == b.to_bytes() == bytes(range(16)) + (128).to_bytes(4, "little")
        assert HashKey.from_bytes(a.to_bytes()) == a
        assert "prefixes" not in repr(a)
        assert a != HashKey(bytes(16), 128)


class TestKeyGen:
    def test_distinct_salts(self):
        a = gen(128, 4, rng_from(1, "a"))
        b = gen(128, 4, rng_from(2, "b"))
        assert a.salt != b.salt

    def test_reproducible(self):
        assert gen(128, 4, rng_from(5, "k")) == gen(128, 4, rng_from(5, "k"))

    def test_small_kappa_rejected(self):
        with pytest.raises(ValueError):
            gen(64, 4, rng_from(1, "x"))

    def test_roundtrip(self):
        assert HashKey.from_bytes(KEY.to_bytes()) == KEY


class TestDigest:
    def test_deterministic(self):
        d1, _ = digest(KEY, SMALL)
        d2, _ = digest(KEY, SMALL)
        assert d1 == d2

    def test_one_grain_moved_changes_digest(self):
        d1, _ = digest(KEY, SMALL)
        d2, _ = digest(KEY, GrainDistribution(4, 16, (5, 3, 8, 0)))
        assert d1 != d2

    def test_root_mass_is_denominator(self):
        d, _ = digest(KEY, SMALL)
        assert d.root.mass == 16
        assert d.padded_size == 4

    def test_golden_vector(self):
        d, _ = digest(KEY, SMALL)
        assert d.to_bytes().hex() == GOLDEN_DIGEST
        assert Digest.from_bytes(bytes.fromhex(GOLDEN_DIGEST)) == d

    def test_padding_to_power_of_two(self):
        q = GrainDistribution(5, 8, (2, 2, 2, 1, 1))
        d, aux = digest(KEY, q)
        assert d.padded_size == 8
        for x in range(1, 6):
            assert verify_opening(x, open_element(x, KEY, d, aux), KEY, d)


def _opened(x, key, d, aux) -> Opening:
    """Element x's record from open_element, decoded into its fields."""
    return Opening.from_bytes(open_element(x, key, d, aux))


class TestOpenVerify:
    def test_open_examples(self):
        d, aux = digest(KEY, SMALL)
        p3 = _opened(3, KEY, d, aux)
        assert (p3.claimed_pdf, p3.claimed_cdf) == (8, 16)
        p4 = _opened(4, KEY, d, aux)
        assert (p4.claimed_pdf, p4.claimed_cdf) == (0, 16)
        p1 = _opened(1, KEY, d, aux)
        assert p1.claimed_cdf == p1.claimed_pdf

    def test_golden_opening(self):
        d, aux = digest(KEY, SMALL)
        blob = open_element(3, KEY, d, aux)
        assert type(blob) is bytes and blob.hex() == GOLDEN_OPEN_3
        assert blob == open_reference(3, d, aux)
        assert Opening.from_bytes(blob).to_bytes() == blob

    def test_honest_completeness_all_elements(self):
        rng = rng_from(17, "c")
        for n in (1, 2, 3, 7, 16, 33):
            q = random_distribution(n, rng_from(n, "q"))
            key = gen(128, n, rng)
            d, aux = digest(key, q)
            for x in range(1, n + 1):
                assert verify_opening(x, open_element(x, key, d, aux), key, d)
                p = _opened(x, key, d, aux)
                assert p.claimed_pdf == q.pdf_grains(x)
                assert p.claimed_cdf == q.cdf_grains(x)

    def test_cdf_off_by_one_grain_rejected(self):
        d, aux = digest(KEY, SMALL)
        p = _opened(2, KEY, d, aux)
        bad = Opening(2, p.claimed_pdf, p.claimed_cdf + 1, p.path)
        assert not verify_opening(2, bad.to_bytes(), KEY, d)

    def test_out_of_range_rejected(self):
        d, aux = digest(KEY, SMALL)
        p = _opened(2, KEY, d, aux)
        bad = Opening(5, p.claimed_pdf, p.claimed_cdf, p.path)
        assert not verify_opening(5, bad.to_bytes(), KEY, d)

    def test_wrong_element_rejected(self):
        d, aux = digest(KEY, SMALL)
        p = _opened(2, KEY, d, aux)
        assert not verify_opening(1, p.to_bytes(), KEY, d)
        bad = Opening(1, p.claimed_pdf, p.claimed_cdf, p.path)
        assert not verify_opening(1, bad.to_bytes(), KEY, d)

    def test_single_bit_mutations_rejected(self):
        d, aux = digest(KEY, SMALL)
        blob = bytearray(open_element(2, KEY, d, aux))
        rng = rng_from(23, "mut")
        for _ in range(300):
            i = int(rng.integers(0, len(blob)))
            b = int(rng.integers(0, 8))
            blob[i] ^= 1 << b
            # checked at the element it names, a malformed record included
            x = int.from_bytes(blob[:8], "little")
            assert not verify_opening(x, bytes(blob), KEY, d)
            blob[i] ^= 1 << b

    def test_digest_bit_mutations_rejected(self):
        d, aux = digest(KEY, SMALL)
        p = open_element(2, KEY, d, aux)
        blob = bytearray(d.to_bytes())
        rng = rng_from(29, "mutd")
        for _ in range(300):
            i = int(rng.integers(0, len(blob)))
            b = int(rng.integers(0, 8))
            blob[i] ^= 1 << b
            try:
                mutated = Digest.from_bytes(bytes(blob))
                assert not verify_opening(2, p, KEY, mutated)
            except ValueError:
                pass
            blob[i] ^= 1 << b

    def test_proof_size_bound(self):
        for n in (4, 5, 16, 100, 1024):
            q = uniform(n)
            d, aux = digest(KEY, q)
            p = open_element(1, KEY, d, aux)
            depth = d.padded_size.bit_length() - 1
            node_record = 8 + 32 + 1
            assert len(p) == record_len(depth) <= (1 + depth) * node_record + 25


class TestOpenBatch:
    """open_batch, which gathers each level's sibling rows of many elements
    at once from the label matrix, against the reference opener's walk up
    the tree, one element at a time."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32), st.booleans())
    def test_rows_equal_open_element(self, n, seed, big):
        grains = int(rng_from(seed, "g").integers(n, 2**62 if big else 4 * n + 2))
        q = random_distribution(n, rng_from(seed, "q"), grains)
        d, aux = digest(KEY, q)
        xs = np.arange(1, n + 1)
        rows = open_batch(xs, d, aux)
        assert rows.dtype == np.uint8
        assert rows.shape == (n, record_len(d.depth))
        for x, row in zip(xs.tolist(), rows):
            assert row.tobytes() == open_reference(x, d, aux) == open_element(x, KEY, d, aux)
        # any order, with repeats
        picks = rng_from(seed, "picks").integers(1, n + 1, size=7)
        assert [r.tobytes() for r in open_batch(picks, d, aux)] == [
            rows[x - 1].tobytes() for x in picks.tolist()
        ]

    def test_label_matrix(self):
        d, aux = digest(KEY, SMALL)
        assert aux.labels.shape == (2 * d.padded_size, 40) and aux.labels.dtype == np.uint8
        assert aux.masses.dtype == np.int64
        assert aux.masses[1:].tolist() == [
            int.from_bytes(label[:8].tobytes(), "little") for label in aux.labels[1:]
        ]
        assert aux.masses[1] == d.root.mass == 16

    @pytest.mark.parametrize("x", [0, 5, -1])
    def test_out_of_domain_element_raises(self, x):
        d, aux = digest(KEY, SMALL)
        with pytest.raises(ValueError):
            open_batch(np.asarray([1, x]), d, aux)


def _reference_from_bytes(data: bytes) -> Opening:
    """A field-by-field record decoder; its results and its ValueErrors
    are the reference for Opening.from_bytes."""
    if len(data) < 25:
        raise ValueError("truncated opening")
    element = int.from_bytes(data[0:8], "little")
    pdf = int.from_bytes(data[8:16], "little")
    cdf = int.from_bytes(data[16:24], "little")
    depth = data[24]
    rec = 8 + 32 + 1
    if len(data) != 25 + depth * rec:
        raise ValueError("opening length mismatch")
    for off in range(25, len(data), rec):
        if data[off + 40] not in (0, 1):
            raise ValueError("bad direction byte")
    return Opening(element, pdf, cdf, bytes(data[25:]))


def _object_path(path: bytes) -> tuple:
    """An encoded path as (sibling NodeLabel, sibling_is_left) pairs, the
    form _reference_walk reads."""
    return tuple(
        (NodeLabel(int.from_bytes(path[off : off + 8], "little"), path[off + 8 : off + 40]),
         path[off + 40] == 1)
        for off in range(0, len(path), 41)
    )


def _reference_walk(x, record, key, d, pinned=None) -> bool:
    """The walk over (NodeLabel, sibling_is_left) path tuples that
    commitment._walk replaced, on the record as the field-by-field decoder
    reads it (a record it rejects is rejected unwalked); its verdict, its
    pinned labels and its hash calls (through the module's hash functions)
    are the reference."""
    try:
        proof = _reference_from_bytes(record)
    except ValueError:
        return False
    denom = d.denominator
    if not d.well_formed() or not 1 <= x <= d.domain_size or proof.element != x:
        return False
    path = _object_path(proof.path)
    if len(path) != d.depth or not 0 <= proof.claimed_pdf <= denom:
        return False
    leaf_pos = x - 1
    for level, (_, sib_is_left) in enumerate(path):
        if sib_is_left != ((leaf_pos >> level) & 1 == 1):
            return False
    leaf_state, node_state, head_state = key.prefixes
    mass = cdf = proof.claimed_pdf
    node_hash = cm._hash_leaf(leaf_state, mass)
    for label, sib_is_left in path:
        sib_mass = label.mass
        if not 0 <= sib_mass <= denom:
            return False
        sib = sib_mass.to_bytes(8, "little") + label.digest
        cur = mass.to_bytes(8, "little") + node_hash
        if pinned is not None:
            pinned += (cur, sib)
        if sib_is_left:
            cdf += sib_mass
            node_hash = cm._hash_node(node_state, sib, cur)
        else:
            node_hash = cm._hash_node(node_state, cur, sib)
        mass += sib_mass
    if mass != d.root.mass or cdf != proof.claimed_cdf:
        return False
    if pinned is not None:
        pinned.append(mass.to_bytes(8, "little") + node_hash)
    header = cm._hash_header(head_state, d.domain_size, denom, d.padded_size, node_hash)
    return header == d.root.digest


def _decode_both(blob: bytes):
    """(opening or ValueError message) from the decoder and the reference."""
    out = []
    for decode in (Opening.from_bytes, _reference_from_bytes):
        try:
            out.append(decode(blob))
        except ValueError as e:
            out.append(str(e))
    return out


@functools.lru_cache
def _honest_tree(n: int):
    """(digest, aux, every element's record) of a random tree."""
    q = random_distribution(n, rng_from(n, "decode"))
    d, aux = digest(KEY, q)
    return d, aux, [open_element(x, KEY, d, aux) for x in range(1, n + 1)]


def _honest_blobs(n: int) -> list[bytes]:
    return _honest_tree(n)[2]


def _assert_package_agrees(blob: bytes, n: int, reference) -> None:
    """The package on a record that the reference decoder decodes to
    `reference` (an Opening, or its ValueError message), against the
    digest of _honest_tree(n): verify_opening rejects it, at the element
    it names, whenever the reference rejects it; and a one-row record
    matrix of the digest's record length fails check_records with the
    reference's message, or passes when the reference decodes it."""
    d = _honest_tree(n)[0]
    if isinstance(reference, str):
        assert not verify_opening(int.from_bytes(blob[:8], "little"), blob, KEY, d)
    if len(blob) == record_len(d.depth):
        try:
            check_records(np.frombuffer(blob, dtype=np.uint8).reshape(1, -1), d.depth)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == (reference if isinstance(reference, str) else None)


class TestOpeningDecode:
    """Records against the reference decoder Opening.from_bytes (one
    header unpack, one check of the direction bytes, one slice), its
    to_bytes round trips and the field-by-field reference; the package's
    record checks, check_records and verify_opening, reject exactly what
    the reference rejects, with its message."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 33, 1024])
    def test_round_trip_byte_for_byte(self, n):
        d, aux, blobs = _honest_tree(n)
        heads = record_heads(open_batch(np.arange(1, n + 1), d, aux)).tolist()
        for x, blob in enumerate(blobs, 1):
            p = Opening.from_bytes(blob)
            assert p.to_bytes() == blob
            assert p == _reference_from_bytes(blob)
            assert type(p.path) is bytes
            assert [p.element, p.claimed_pdf, p.claimed_cdf] == heads[x - 1]
            assert verify_opening(x, blob, KEY, d)
            _assert_package_agrees(blob, n, p)

    @pytest.mark.parametrize("size", [0, 1, 24])
    def test_truncated(self, size):
        blob = _honest_blobs(16)[3][:size]
        with pytest.raises(ValueError, match="truncated opening"):
            Opening.from_bytes(blob)
        _assert_package_agrees(blob, 16, "truncated opening")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b + b"\x00",
            lambda b: b[:-1],
            lambda b: b[:24] + bytes([b[24] + 1]) + b[25:],
            lambda b: b[:24] + bytes([b[24] - 1]) + b[25:],
            lambda b: b[:25],
        ],
        ids=["trailing-byte", "short-by-one", "depth-plus-one", "depth-minus-one", "head-only"],
    )
    def test_length_mismatch(self, edit):
        blob = edit(_honest_blobs(16)[3])
        with pytest.raises(ValueError, match="opening length mismatch"):
            Opening.from_bytes(blob)
        _assert_package_agrees(blob, 16, "opening length mismatch")

    @pytest.mark.parametrize("level", [0, 3])
    @pytest.mark.parametrize("side", [2, 255])
    def test_bad_direction_byte(self, level, side):
        blob = bytearray(_honest_blobs(16)[3])
        blob[25 + 41 * level + 40] = side
        with pytest.raises(ValueError, match="bad direction byte"):
            Opening.from_bytes(bytes(blob))
        _assert_package_agrees(bytes(blob), 16, "bad direction byte")

    def test_shared_levels(self):
        # one encoding from commit to verify: every path level of a record
        # is the committed tree's encoded label of that sibling, byte for
        # byte, and a direction byte saying which child the sibling is
        d, aux, blobs = _honest_tree(16)
        for x, blob in enumerate(blobs, 1):
            path = Opening.from_bytes(blob).path
            node = d.padded_size + x - 1
            for off in range(0, 41 * d.depth, 41):
                assert path[off : off + 40] == aux.labels[node ^ 1].tobytes()
                assert path[off + 40] == node & 1
                node >>= 1
            assert node == 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 2, 5, 16]),
        st.integers(0, 15),
        st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 255)), max_size=4),
        st.sampled_from([None, 0, 1, 24, -1]),
    )
    def test_matches_reference_on_mutations(self, n, which, edits, cut):
        blob = bytearray(_honest_blobs(n)[which % n])
        for pos, value in edits:
            blob[pos % len(blob)] = value
        if cut is not None:
            blob = blob[:cut] if cut >= 0 else blob + b"\x01"
        decoded, reference = _decode_both(bytes(blob))
        assert decoded == reference
        _assert_package_agrees(bytes(blob), n, reference)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 16, 1024]),
        st.lists(st.integers(0, 1023), max_size=40),
        st.lists(
            st.tuples(
                st.integers(0, 39),
                st.sampled_from(["depth", "direction", "both", "zeroed"]),
                st.sampled_from([-1, 1]),
                st.integers(0, 9),
                st.integers(2, 255),
            ),
            max_size=4,
        ),
    )
    def test_matrix_names_its_first_bad_row(self, n, picks, faults):
        """A matrix of honest records at depth 0, 4 or 10, some rows given a
        depth byte off by one, a direction byte past 1, both, or zeroed:
        check_records passes it exactly when every row passes alone, and
        otherwise raises the one-row reference's message for its first bad
        row; records_clean agrees."""
        d, _, blobs = _honest_tree(n)
        rows = [bytearray(blobs[i % n]) for i in picks]
        for at, kind, sign, level, value in faults:
            if not rows:
                break
            row = rows[at % len(rows)]
            if kind in ("depth", "both"):
                row[DEPTH_BYTE] = (d.depth + sign) % 256
            if kind in ("direction", "both") and d.depth:
                row[direction_byte(level % d.depth)] = value
            if kind == "zeroed":
                row[:] = bytes(len(row))
        expected = None
        for row in rows:
            try:
                _reference_from_bytes(bytes(row))
            except ValueError as e:
                expected = str(e)
                break
        matrix = np.frombuffer(b"".join(rows), dtype=np.uint8)
        matrix = matrix.reshape(len(rows), record_len(d.depth))
        try:
            check_records(matrix, d.depth)
            got = None
        except ValueError as e:
            got = str(e)
        assert got == expected
        assert cm.records_clean(matrix, d.depth) == (expected is None)


def _count_hashes(monkeypatch) -> dict[str, int]:
    """Count calls to the three hash functions from here on, by kind."""
    counts = {"leaf": 0, "node": 0, "header": 0}
    for kind in counts:
        raw = getattr(cm, f"_hash_{kind}")

        def counted(*args, _raw=raw, _kind=kind):
            counts[_kind] += 1
            return _raw(*args)

        monkeypatch.setattr(cm, f"_hash_{kind}", counted)
    return counts


class TestHashCount:
    """Hashes computed per call: 2 * padded per digest, depth + 2 per
    accepted record, depth + 1 when the root-mass or cdf check rejects, and
    none for a record of another element, depth byte or length."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 100])
    def test_closed_form(self, monkeypatch, n):
        q = random_distribution(n, rng_from(n, "hash-count"))
        counts = _count_hashes(monkeypatch)
        d, aux = digest(KEY, q)
        padded = d.padded_size
        depth = padded.bit_length() - 1
        assert counts == {"leaf": padded, "node": padded - 1, "header": 1}
        for x in range(1, n + 1):
            record = open_element(x, KEY, d, aux)
            p = Opening.from_bytes(record)
            pdf = p.claimed_pdf + 1 if p.claimed_pdf < q.grains else p.claimed_pdf - 1
            # the inconsistent-opening adversary's flip: the root mass is off
            mass_off = dataclasses.replace(p, claimed_pdf=pdf, claimed_cdf=p.claimed_cdf + 1)
            cdf_off = dataclasses.replace(p, claimed_cdf=p.claimed_cdf + 1)
            element_off = dataclasses.replace(p, element=x + 1)
            depth_off = record[:DEPTH_BYTE] + bytes([depth + 1]) + record[DEPTH_BYTE + 1 :]
            cases = (
                (record, True, depth + 2),
                (mass_off.to_bytes(), False, depth + 1),
                (cdf_off.to_bytes(), False, depth + 1),
                (element_off.to_bytes(), False, 0),
                (depth_off, False, 0),
                (record + b"\x00", False, 0),
                (record[:-1], False, 0),
            )
            for blob, verdict, hashes in cases:
                for kind in counts:
                    counts[kind] = 0
                assert verify_opening(x, blob, KEY, d) is verdict
                assert sum(counts.values()) == hashes
                assert counts["header"] == (1 if verdict else 0)


_PROP_KEY = gen(128, 64, rng_from(41, "prop-key"))
_PROP_TREES = {
    n: digest(_PROP_KEY, random_distribution(n, rng_from(n, "prop"), grains=1000))
    for n in (1, 2, 5, 64)
}
_U64 = st.integers(0, 2**64 - 1)


def _near(value: int):
    """The honest value, one next to it, or any 64-bit value."""
    return st.one_of(st.integers(max(0, value - 2), value + 2), _U64)


class TestVerifyProperty:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_the_honest_opening(self, data):
        n = data.draw(st.sampled_from(sorted(_PROP_TREES)), label="n")
        d, aux = _PROP_TREES[n]
        x = data.draw(st.integers(1, n), label="x")
        record = open_element(x, _PROP_KEY, d, aux)
        honest = Opening.from_bytes(record)
        path = bytearray(honest.path)
        kinds = ["pdf", "cdf", "element", "element-field", "length", "depth", "whole-length"]
        if path:
            kinds += ["mass", "hash", "side"]
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "pdf":
            edit = dataclasses.replace(honest, claimed_pdf=data.draw(_near(honest.claimed_pdf)))
        elif kind == "cdf":
            edit = dataclasses.replace(honest, claimed_cdf=data.draw(_near(honest.claimed_cdf)))
        elif kind == "element":
            edit = dataclasses.replace(honest, element=data.draw(st.integers(0, n + 1)))
        elif kind == "element-field":  # any 64-bit element
            edit = dataclasses.replace(honest, element=data.draw(_near(x)))
        elif kind == "length":  # the path at any length, most of them not a whole number of levels
            size = data.draw(st.integers(0, len(path) + 2 * 41))
            edit = record[:25] + bytes(path + bytes(size))[:size]  # the head kept
        elif kind == "depth":
            edit = record[:DEPTH_BYTE] + bytes([data.draw(st.integers(0, 255))]) + record[25:]
        elif kind == "whole-length":  # the record cut short or padded with zeros
            size = data.draw(st.integers(0, len(record) + 2 * 41))
            edit = (record + bytes(size))[:size]
        else:
            off = 41 * data.draw(st.integers(0, len(path) // 41 - 1), label="level")
            if kind == "mass":
                mass = int.from_bytes(path[off : off + 8], "little")
                path[off : off + 8] = min(data.draw(_near(mass)), 2**64 - 1).to_bytes(8, "little")
            elif kind == "hash":
                path[off + data.draw(st.integers(8, 39))] = data.draw(st.integers(0, 255))
            else:
                path[off + 40] = data.draw(st.integers(0, 255))
            edit = dataclasses.replace(honest, path=bytes(path))
        mutated = edit if isinstance(edit, bytes) else edit.to_bytes()
        assert verify_opening(x, mutated, _PROP_KEY, d) == (mutated == record)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(_PROP_TREES)), st.integers(-1, 66), st.binary(max_size=400))
    def test_any_bytes_get_a_verdict(self, n, x, blob):
        # bytes of any length, at any element: a verdict, never an exception
        d, aux = _PROP_TREES[n]
        honest = open_element(x, _PROP_KEY, d, aux) if 1 <= x <= n else None
        assert verify_opening(x, blob, _PROP_KEY, d) is (blob == honest)

    @pytest.mark.parametrize("n", [2, 4, 1024])
    def test_masses_past_eight_bytes_reject(self, n):
        # a digest whose G lets a path's running mass pass 2^64 is not well
        # formed, so the walk rejects before it would have to encode one
        q = GrainDistribution(n, 16, [16] + [0] * (n - 1))
        d, aux = digest(KEY, q)
        p = Opening.from_bytes(open_element(2, KEY, d, aux))
        g = 2**64 - 1
        big = Digest(NodeLabel(g, d.root.digest), d.padded_size, n, g)
        assert not big.well_formed()
        assert not verify_opening(2, Opening(2, g, g, p.path).to_bytes(), KEY, big)


class TestWalkDifferential:
    def test_matches_object_walk(self, monkeypatch):
        # on edited honest records, the walk over the record's bytes agrees
        # with the object walk on the verdict, the pinned labels and the
        # hash calls by kind
        counts = _count_hashes(monkeypatch)

        def walk(fn, x, record, d, pinned):
            counts.update(dict.fromkeys(counts, 0))
            return fn(x, record, _PROP_KEY, d, pinned), pinned, dict(counts)

        @settings(max_examples=400, deadline=None)
        @given(
            st.sampled_from(sorted(_PROP_TREES)),
            st.integers(1, 64),
            st.lists(
                st.tuples(st.integers(0, 10**4), st.one_of(st.integers(0, 1), st.integers(0, 255))),
                max_size=3,
            ),
            st.one_of(st.none(), st.integers(0, 65)),
            st.one_of(st.none(), st.integers(0, 255)),
            st.one_of(st.none(), st.integers(0, 400)),
        )
        def check(n, which, edits, at, depth_byte, size):
            d, aux = _PROP_TREES[n]
            blob = bytearray(open_element(1 + which % n, _PROP_KEY, d, aux))
            for pos, value in edits:
                blob[pos % len(blob)] = value
            if depth_byte is not None:
                blob[DEPTH_BYTE] = depth_byte
            if size is not None:  # the record cut short or padded with zeros
                blob = (blob + bytes(size))[:size]
            record = bytes(blob)
            x = int.from_bytes(record[:8], "little") if at is None else at
            expected = walk(_reference_walk, x, record, d, [])
            assert walk(cm._walk, x, record, d, []) == expected
            verdict_and_hashes = walk(lambda *a: verify_opening(*a[:4]), x, record, d, None)[::2]
            assert verdict_and_hashes == expected[::2]

        check()


def _quantile_openings(q: GrainDistribution, grains: list[int]):
    """The honest prover's openings answering quantile probes g/G, in order."""
    prover = HonestProver(q)
    d = prover.receive_key(KEY).digest
    batch = prover.answer_queries(QuerySet.quantiles(np.asarray(grains)))
    proofs = openings(batch)
    return d, [proofs[j] for j in batch.index]


def _covers(g: int, p) -> bool:
    """Grain g lies in the opened element's run (cdf - pdf, cdf]."""
    return p.claimed_cdf - p.claimed_pdf < g <= p.claimed_cdf


class TestQuantileOpen:
    def test_example(self):
        d, (p,) = _quantile_openings(SMALL, [5])
        assert p.element == 2
        assert verify_opening(2, p.to_bytes(), KEY, d)
        assert _covers(5, p)

    def test_mu_one_last_positive(self):
        _, (p,) = _quantile_openings(SMALL, [16])
        assert p.element == 3

    def test_every_grain_yields_valid_opening(self):
        q = GrainDistribution(6, 24, (3, 0, 9, 6, 0, 6))
        d, proofs = _quantile_openings(q, list(range(1, 25)))
        for g, p in zip(range(1, 25), proofs):
            assert verify_opening(p.element, p.to_bytes(), KEY, d)
            assert _covers(g, p)
            assert q.pdf_grains(p.element) > 0

    def test_uniform_mu_samples_committed_distribution(self):
        # exact: grain g covers element quantile(g/G), counting grains per
        # element reproduces the counts
        q = GrainDistribution(5, 20, (2, 6, 0, 10, 2))
        _, proofs = _quantile_openings(q, list(range(1, 21)))
        hits = [0] * 5
        for p in proofs:
            hits[p.element - 1] += 1
        assert tuple(hits) == q.counts


class _ScriptedOpener:
    """Replayable opening oracle exposing a fixed list per run."""

    def __init__(self, runs):
        self.runs = runs

    def opening_run(self, r):
        return self.runs[r % len(self.runs)]


class TestExtract:
    def test_honest_full_opener_recovers_committed(self):
        q = random_distribution(16, rng_from(31, "q"))
        prover = HonestProver(q)
        key = gen(128, 16, rng_from(31, "k"))
        prover.receive_key(key)
        report = extract(prover, key, prover.digest, eta=1)
        assert report.collision is None
        assert report.distribution == q

    def test_partial_opener_spreads_remaining_mass(self):
        # open only leaf 1 (mass 4 of 16): siblings pin leaf 2 and the right
        # subtree (mass 8); the right subtree spreads 4+4 over elements 3,4
        d, aux = digest(KEY, SMALL)
        p1 = open_element(1, KEY, d, aux)
        report = extract(_ScriptedOpener([[p1]]), KEY, d, eta=1)
        assert report.collision is None
        out = report.distribution
        assert out.counts[0] == 4
        assert out.counts[1] == 4  # sibling leaf pinned by the path
        assert out.counts[2] + out.counts[3] == 8  # spread of the unopened subtree
        assert out.counts[2] == 4 and out.counts[3] == 4

    def test_only_bytes_are_walked(self):
        # an opener hands out records; anything else, a decoded opening or
        # a bytearray of a record included, is skipped unwalked, and a
        # record listed twice is walked once
        d, aux = digest(KEY, SMALL)
        p1 = open_element(1, KEY, d, aux)
        runs = [[Opening.from_bytes(p1), bytearray(p1), None, 7, p1, p1]]
        report = extract(_ScriptedOpener(runs), KEY, d, eta=1)
        assert report.openings_seen == 1
        assert report.distribution == extract(_ScriptedOpener([[p1]]), KEY, d, eta=1).distribution

    def test_never_opening_gives_canonical(self):
        d, aux = digest(KEY, SMALL)
        report = extract(_ScriptedOpener([[]]), KEY, d, eta=1)
        assert report.collision is None
        assert report.distribution == canonical_distribution(4, 16)

    def test_openings_always_consistent_with_extraction(self):
        q = random_distribution(8, rng_from(37, "q"))
        prover = HonestProver(q)
        key = gen(128, 8, rng_from(37, "k"))
        prover.receive_key(key)
        report = extract(prover, key, prover.digest, eta=1)
        for x in range(1, 9):
            record = open_element(x, key, prover.digest, prover.aux)
            assert verify_opening(x, record, key, prover.digest)
            p = Opening.from_bytes(record)
            assert p.claimed_pdf == report.distribution.pdf_grains(x)
            assert p.claimed_cdf == report.distribution.cdf_grains(x)

    def test_conflicting_labels_reported_as_collision(self):
        # simulate a collision by presenting openings from two different
        # trees under digests forced equal; easiest: same tree, tampered
        # claimed pdf with a recomputed path is just rejected, so instead
        # feed two proofs for one element from two *different* keys -- the
        # second fails verification and extraction stays consistent.
        d, aux = digest(KEY, SMALL)
        other_key = HashKey(bytes(range(1, 17)), 128)
        d2, aux2 = digest(other_key, SMALL)
        p_real = open_element(1, KEY, d, aux)
        p_fake = open_element(1, other_key, d2, aux2)
        report = extract(_ScriptedOpener([[p_real, p_fake]]), KEY, d, eta=1)
        assert report.collision is None  # fake never verifies, no conflict
        assert report.distribution.counts[0] == 4

    def test_collision_reported_with_canonical_output(self, monkeypatch):
        # with constant leaf and node hashes, openings of two distributions
        # with the same N and G both verify against one digest; their
        # labels for element 1's leaf disagree (mass 4 against 8)
        monkeypatch.setattr(cm, "_hash_leaf", lambda salt, mass: bytes(32))
        monkeypatch.setattr(cm, "_hash_node", lambda salt, left, right: bytes(32))
        other = GrainDistribution(4, 16, (8, 0, 4, 4))
        d, aux = digest(KEY, SMALL)
        d2, aux2 = digest(KEY, other)
        assert d2 == d
        p_small = open_element(1, KEY, d, aux)
        p_other = open_element(1, KEY, d2, aux2)
        assert verify_opening(1, p_small, KEY, d) and verify_opening(1, p_other, KEY, d)
        report = extract(_ScriptedOpener([[p_small, p_other]]), KEY, d, eta=1)
        assert report.collision is not None
        assert report.openings_seen == 2
        assert report.distribution == canonical_distribution(4, 16)

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_one_walk_per_distinct_verified_opening(self, monkeypatch, n):
        # depth + 2 hashes per distinct verified opening: its walk is both
        # the verification and what extraction records
        q = random_distribution(n, rng_from(n, "extract-hashes"))
        prover = HonestProver(q)
        prover.receive_key(KEY)
        counts = _count_hashes(monkeypatch)
        report = extract(prover, KEY, prover.digest, eta=1)
        assert report.distribution == q and report.openings_seen == n
        depth = prover.digest.padded_size.bit_length() - 1
        assert sum(counts.values()) == n * (depth + 2)

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_extract_output_is_valid_distribution(self, n, seed):
        q = random_distribution(n, rng_from(seed, "q"), grains=64)
        prover = HonestProver(q)
        key = gen(128, n, rng_from(seed, "k"))
        prover.receive_key(key)
        report = extract(prover, key, prover.digest, eta=1)
        assert sum(report.distribution.counts) == 64
