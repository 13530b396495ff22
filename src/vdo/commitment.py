"""Succinct distribution commitments with locally checkable openings.

The committer builds a full binary tree over the (power-of-two padded)
domain. Each leaf holds an element's grain count; each internal node holds
the sum of its children's counts plus a keyed SHA-256 hash of the two child
labels. The digest is the root label together with the tree geometry, and
an opening authenticates one element's pdf and cdf with a leaf-to-root
sibling path.

Hashing is domain-separated: 0x00 for leaf labels, 0x01 for internal
nodes, 0x02 for the digest header, with the session salt prepended. An
internal node hashes its children's encoded labels (mass, then hash).
Each HashKey builds its three prefix states, sha256(salt + tag), once;
a hash copies its state and adds the rest of its input, so every hash
reads the same bytes as a one-shot sha256(salt + tag + ...).
The cdf is not hashed anywhere; it is checked arithmetically against the
masses of left siblings on the path, which the hashes do bind.

Nodes are heap-indexed: node 1 is the root, node i has children 2i and
2i+1, and element x's leaf is node padded + x - 1. A node label has one
form, its 40-byte encoding. TreeAux keeps every label digest builds as one
row of a (2 * padded, 40) uint8 label matrix, beside an int64 column of the
masses. An opening has one form, its record, which is also its wire
encoding: element, pdf and cdf (u64 each) and a depth byte, then per level,
leaf to root, the sibling's label and a direction byte (1 when the sibling
is the left child). open_batch builds the records of many elements at once
as the rows of a record matrix, gathering each level's sibling rows with
one fancy index; open_element is open_batch of one element.
check_records checks the width, depth and direction bytes of a record
matrix, a clean one in records_clean's one flat pass.

Verification and extraction share one walk per record: the leaf hash,
one node hash per level, then the header hash once the mass and cdf checks
pass; extraction keeps the labels that walk pins, by heap index. A
committed tree costs 2 * padded hashes (padded leaves, padded - 1 nodes,
one header), a verified opening depth + 2.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.random import Generator

from .constants import get_constants
from .dist import GrainDistribution
from .exactmath import frac_ceil

HASH_LEN = 32
_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"
_HEAD_TAG = b"\x02"


class CollisionEvidence(Exception):
    """Two verified openings assigned different encoded labels to one tree
    node (a heap index)."""

    def __init__(self, node: int, first: bytes, second: bytes):
        super().__init__(f"conflicting labels for node {node}")
        self.node = node
        self.first = first
        self.second = second


@dataclass(frozen=True)
class HashKey:
    """Session hash key: a fresh salt chosen by the verifier. prefixes, its
    leaf, node and header prefix states, take no part in equality, repr or
    the encoding."""

    salt: bytes
    security_param: int = 128
    prefixes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.salt) != 16:
            raise ValueError("salt must be 16 bytes")
        if self.security_param < 128:
            raise ValueError("security parameter below 128 bits")
        states = tuple(hashlib.sha256(self.salt + t) for t in (_LEAF_TAG, _NODE_TAG, _HEAD_TAG))
        object.__setattr__(self, "prefixes", states)

    def to_bytes(self) -> bytes:
        return self.salt + self.security_param.to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "HashKey":
        if len(data) != 20:
            raise ValueError("bad key encoding")
        return cls(bytes(data[:16]), int.from_bytes(data[16:20], "little"))


@dataclass(frozen=True)
class NodeLabel:
    """Mass (grain count) and hash of the digest's root."""

    mass: int
    digest: bytes


# an encoded digest: N, G, padded size and the root mass, then the root hash
_DIGEST_HEAD = struct.Struct("<QQQQ")


@dataclass(frozen=True)
class Digest:
    """Root label plus tree geometry. root.digest binds the geometry fields."""

    root: NodeLabel
    padded_size: int
    domain_size: int
    denominator: int

    @property
    def depth(self) -> int:
        """Sibling-path length of an opening."""
        return self.padded_size.bit_length() - 1

    def well_formed(self) -> bool:
        """padded_size is the power of two the domain needs, and the root
        mass is the denominator G, with 1 <= G and (depth + 1) * G < 2^64."""
        p = self.padded_size
        return (
            p >= 1 and not p & (p - 1) and p // 2 < self.domain_size <= p
            and 1 <= self.denominator == self.root.mass
            and self.denominator * p.bit_length() < 1 << 64
        )

    def to_bytes(self) -> bytes:
        head = (self.domain_size, self.denominator, self.padded_size, self.root.mass)
        return _DIGEST_HEAD.pack(*head) + self.root.digest

    @classmethod
    def from_bytes(cls, data: bytes) -> "Digest":
        if len(data) != cls.ENCODED_LEN:
            raise ValueError("bad digest encoding")
        n, g, p, mass = _DIGEST_HEAD.unpack_from(data)
        return cls(NodeLabel(mass, bytes(data[_DIGEST_HEAD.size :])), p, n, g)

    ENCODED_LEN = _DIGEST_HEAD.size + HASH_LEN


# an encoded opening: element, pdf, cdf and depth, then the path
_OPENING_HEAD = struct.Struct("<QQQB")
_LABEL_LEN = 8 + HASH_LEN  # an encoded node label: mass, then hash
_LEVEL_LEN = _LABEL_LEN + 1  # a path level: the sibling's label, a direction byte
_HEAD_FIELDS = 24  # the element, pdf and cdf of an encoded opening; the depth byte follows
_MASS = struct.Struct("<Q")  # a label's mass


def record_len(depth: int) -> int:
    """Length of an opening's record at the given depth."""
    return _OPENING_HEAD.size + depth * _LEVEL_LEN


class TreeAux:
    """Every encoded node label of a committed tree, heap-indexed: row 1 of
    the (2 * padded, 40) uint8 matrix labels is the root's, node i has
    children 2i and 2i+1, and element x's leaf is row padded + x - 1
    (padding leaves carry mass 0; row 0 is unused and zero). masses holds
    each node's mass as int64. digest builds each label once; the openers
    only read them."""

    __slots__ = ("padded", "labels", "masses")

    def __init__(self, padded: int, labels: np.ndarray, masses: np.ndarray):
        self.padded = padded
        self.labels = labels
        self.masses = masses


def _hash_leaf(state, mass: int) -> bytes:
    h = state.copy()
    h.update(mass.to_bytes(8, "little"))
    return h.digest()


def _hash_node(state, left: bytes, right: bytes) -> bytes:
    """Hash of an internal node from its children's encoded labels."""
    h = state.copy()
    h.update(left + right)
    return h.digest()


def _hash_header(state, n: int, grains: int, padded: int, root_hash: bytes) -> bytes:
    h = state.copy()
    h.update(struct.pack("<QQQ", n, grains, padded) + root_hash)
    return h.digest()


def gen(kappa: int, n: int, rng: Generator) -> HashKey:
    """Fresh verifier-chosen key; kappa must be at least 128 (HashKey checks)."""
    salt = bytes(int(b) for b in rng.integers(0, 256, size=16))
    return HashKey(salt, kappa)


def digest(key: HashKey, q: GrainDistribution) -> tuple[Digest, TreeAux]:
    """Commit to q. Deterministic in (key, q); aux holds every node label."""
    padded = 1 << (q.n - 1).bit_length()
    leaf_state, node_state, head_state = key.prefixes
    masses = [0] * padded + list(q.counts) + [0] * (padded - q.n)  # slot 0 unused
    for i in range(padded - 1, 0, -1):
        masses[i] = masses[2 * i] + masses[2 * i + 1]
    labels = list(map(_MASS.pack, masses))
    for i in range(padded, 2 * padded):
        labels[i] += _hash_leaf(leaf_state, masses[i])
    for i in range(padded - 1, 0, -1):
        labels[i] += _hash_node(node_state, labels[2 * i], labels[2 * i + 1])
    root_hash = _hash_header(head_state, q.n, q.grains, padded, labels[1][8:])
    d = Digest(NodeLabel(masses[1], root_hash), padded, q.n, q.grains)
    labels[0] = bytes(_LABEL_LEN)
    matrix = np.frombuffer(b"".join(labels), dtype=np.uint8).reshape(2 * padded, _LABEL_LEN)
    return d, TreeAux(padded, matrix, np.asarray(masses, dtype=np.int64))


def open_element(x: int, key: HashKey, d: Digest, aux: TreeAux) -> bytes:
    """Record of element x's opening: pdf, cdf and the sibling path."""
    return open_batch(np.asarray([x]), d, aux)[0].tobytes()


def open_batch(xs: np.ndarray, d: Digest, aux: TreeAux) -> np.ndarray:
    """Records of the openings of elements xs (a 1-D integer array) as a
    (len(xs), record_len) uint8 matrix, row i the record of xs[i]. Each
    level's sibling labels are gathered for every element at once."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 1 or xs.max() > d.domain_size):
        raise ValueError(f"element outside [1, {d.domain_size}]")
    rows = np.empty((xs.shape[0], record_len(d.depth)), dtype=np.uint8)
    node = xs + (aux.padded - 1)
    # Each running sum is the mass of disjoint subtrees of leaves 1..x, so
    # it is at most cdf(x) <= G < 2^63 (GrainDistribution's bound): the
    # int64 sums are exact, and each non-negative sum fits the uint64 head.
    cdf = aux.masses[node]
    head = record_heads(rows)
    head[:, 0] = xs
    head[:, 1] = cdf
    for off in range(_OPENING_HEAD.size, rows.shape[1], _LEVEL_LEN):
        left = node & 1  # the sibling is the left child
        sib = node ^ 1
        rows[:, off : off + _LABEL_LEN] = aux.labels[sib]
        rows[:, off + _LABEL_LEN] = left
        cdf += aux.masses[sib] * left
        node >>= 1
    head[:, 2] = cdf
    rows[:, _HEAD_FIELDS] = d.depth
    return rows


def record_heads(rows: np.ndarray) -> np.ndarray:
    """The element, pdf and cdf of each row of a record matrix, as a (k, 3)
    little-endian uint64 view of its first 24 columns."""
    return rows[:, :_HEAD_FIELDS].view("<u8")


def records_clean(rows: np.ndarray, depth: int) -> bool:
    """Whether the record matrix rows passes check_records, in one flat
    pass: one compare over the depth column, one max over the direction
    columns."""
    return (
        rows.shape[1] == record_len(depth)
        and bool((rows[:, _HEAD_FIELDS] == depth).all())
        and int(rows[:, _OPENING_HEAD.size + _LABEL_LEN :: _LEVEL_LEN].max(initial=0)) <= 1
    )


def check_records(rows: np.ndarray, depth: int) -> None:
    """ValueError unless the record matrix rows is record_len(depth) wide
    and every row carries the depth byte depth and direction bytes in
    {0, 1}; the message, "opening length mismatch" or "bad direction byte",
    names the first row's fault. A clean matrix is answered by
    records_clean's one pass; the per-row masks are built only to name the
    first fault."""
    if records_clean(rows, depth):
        return
    if rows.shape[1] != record_len(depth):
        raise ValueError("opening length mismatch")
    bad_depth = rows[:, _HEAD_FIELDS] != depth
    bad = bad_depth | (rows[:, _OPENING_HEAD.size + _LABEL_LEN :: _LEVEL_LEN] > 1).any(axis=1)
    first = int(bad.argmax())
    raise ValueError("opening length mismatch" if bad_depth[first] else "bad direction byte")


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII binary digits to bytes 0 and 1


@functools.cache
def _level_unpackers(depth: int):
    """Unpackers of a depth-level path from an offset: its sibling labels,
    their masses."""
    labels, masses = f"{_LABEL_LEN}sx" * depth, f"Q{HASH_LEN}xx" * depth
    return struct.Struct("<" + labels).unpack_from, struct.Struct("<" + masses).unpack_from


def _walk(
    x: int, record: bytes, key: HashKey, d: Digest, pinned: list[bytes] | None = None
) -> bool:
    """The checks and hashes of verify_opening: any bytes record gets a
    verdict, never an exception (a well-formed digest keeps every running
    mass within 8 bytes). Given a list `pinned`, the walk also appends the
    encoded labels the path pins, leaf to root: the running node, then its
    sibling, at each level, and last the root before the header hash; they
    hold only if the walk accepts. verify_opening passes no list:
    collecting the labels on every verification made it about 7 % slower."""
    denom, depth = d.denominator, d.depth
    if not d.well_formed() or not 1 <= x <= d.domain_size or len(record) != record_len(depth):
        return False
    element, mass, claimed_cdf, depth_byte = _OPENING_HEAD.unpack_from(record)
    if element != x or depth_byte != depth or mass > denom:
        return False
    # the direction bytes must spell the element's position, low bit first
    sides = record[_OPENING_HEAD.size + _LABEL_LEN :: _LEVEL_LEN]
    if sides != format(x - 1, f"0{depth}b")[::-1][:depth].encode().translate(_BITS):
        return False
    sibs, masses = _level_unpackers(depth)
    leaf_state, node_state, head_state = key.prefixes
    cdf = mass
    node = _MASS.pack(mass) + _hash_leaf(leaf_state, mass)
    levels = zip(sibs(record, _OPENING_HEAD.size), masses(record, _OPENING_HEAD.size), sides)
    for sib, sib_mass, sib_is_left in levels:
        if sib_mass > denom:
            return False
        if pinned is not None:
            pinned += (node, sib)
        mass += sib_mass
        if sib_is_left:
            cdf += sib_mass
            node = _MASS.pack(mass) + _hash_node(node_state, sib, node)
        else:
            node = _MASS.pack(mass) + _hash_node(node_state, node, sib)
    if mass != d.root.mass or cdf != claimed_cdf:
        return False
    if pinned is not None:
        pinned.append(node)
    return _hash_header(head_state, d.domain_size, denom, d.padded_size, node[8:]) == d.root.digest


def verify_opening(x: int, record: bytes, key: HashKey, d: Digest) -> bool:
    """Accept iff the record claims element x at the digest's depth, its
    path reproduces the digest, every level is mass-additive, and the
    claimed cdf equals the leaf mass plus all left-sibling masses.

    Hashes the leaf, one node per level, and the header only once the root
    mass and cdf checks pass: depth + 2 hashes to accept, depth + 1 for a
    mass or cdf rejection, and none for a record whose length, depth byte,
    element, pdf or direction bytes fail the checks before the leaf hash.
    """
    return _walk(x, record, key, d)


# -- extraction ----------------------------------------------------------------


def _even_spread(mass: int, k: int) -> list[int]:
    """mass split over k slots as evenly as possible, leftmost slots taking
    the remainder."""
    base, extra = divmod(mass, k)
    return [base + 1] * extra + [base] * (k - extra)


def canonical_distribution(n: int, grains: int) -> GrainDistribution:
    """Deterministic fallback output: grains spread as evenly as possible."""
    return GrainDistribution(n, grains, _even_spread(grains, n))


@dataclass
class ExtractReport:
    """Extraction outcome: the bound distribution, or collision evidence."""

    distribution: GrainDistribution
    collision: CollisionEvidence | None
    runs: int
    openings_seen: int
    known_nodes: int


def extract(
    adversary,
    key: HashKey,
    d: Digest,
    eta: Fraction | float = 1,
) -> ExtractReport:
    """Recover the unique distribution a replayable opener is bound to.

    Runs the adversary ceil(c_ext*N/eta) times with fresh run indices, keeps
    the records (bytes; anything else is skipped) that verify at the
    element they name, and stores the encoded labels their walks pin, by
    heap index. Mass of maximal subtrees that were never pinned is spread
    evenly over their in-range leaves (leftmost leaves take the remainder;
    subtrees consisting only of padding give their mass to element N).
    Conflicting labels witness a hash collision: the report carries the
    evidence and a canonical output.
    """
    n = d.domain_size
    padded = d.padded_size
    runs = frac_ceil(Fraction(get_constants().c_ext * n) / Fraction(eta))
    known: dict[int, bytes] = {}
    seen = 0
    processed: set[bytes] = set()
    try:
        for r in range(runs):
            for record in adversary.opening_run(r):
                if not isinstance(record, bytes) or record in processed:
                    continue
                processed.add(record)
                labels: list[bytes] = []
                x = int.from_bytes(record[:8], "little")
                if not _walk(x, record, key, d, labels):
                    continue
                seen += 1
                leaf = padded + x - 1
                for j, label in enumerate(labels):
                    # labels[2l] is the path's node at level l, labels[2l+1]
                    # its sibling; the last one is the root
                    node = (leaf >> (j >> 1)) ^ (j & 1)
                    prev = known.setdefault(node, label)
                    if prev != label:
                        raise CollisionEvidence(node, prev, label)
    except CollisionEvidence as ev:
        return ExtractReport(
            canonical_distribution(n, d.denominator), ev, runs, seen, len(known)
        )

    counts = [0] * n

    def fill(node: int, mass: int) -> None:
        if node < padded:
            left, right = known.get(2 * node), known.get(2 * node + 1)
            if left is not None and right is not None:
                fill(2 * node, int.from_bytes(left[:8], "little"))
                fill(2 * node + 1, int.from_bytes(right[:8], "little"))
                return
        width = padded >> (node.bit_length() - 1)
        lo = node * width - padded  # first leaf position covered, 0-based
        hi = min(lo + width, n)  # clip padding
        if hi <= lo:
            counts[n - 1] += mass
            return
        for i, c in enumerate(_even_spread(mass, hi - lo), lo):
            counts[i] += c

    fill(1, d.denominator)
    out = GrainDistribution(n, d.denominator, counts)
    return ExtractReport(out, None, runs, seen, len(known))
