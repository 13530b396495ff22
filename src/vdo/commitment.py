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
The cdf is not hashed anywhere; it is checked arithmetically against the
masses of left siblings on the path, which the hashes do bind.

Nodes are heap-indexed: node 1 is the root, node i has children 2i and
2i+1, and element x's leaf is node padded + x - 1. The committer builds
every node label once and keeps them in TreeAux, so an opening only reads
labels. Verification and extraction share one walk per opening: the leaf
hash, one node hash per level, then the header hash once the mass and cdf
checks pass; extraction keeps the encoded labels that walk pins, by heap
index. A committed tree costs 2 * padded hashes (padded leaves, padded - 1
nodes, one header), a verified opening depth + 2.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction

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
    """Session hash key: a fresh salt chosen by the verifier."""

    salt: bytes
    security_param: int = 128

    def __post_init__(self):
        if len(self.salt) != 16:
            raise ValueError("salt must be 16 bytes")
        if self.security_param < 128:
            raise ValueError("security parameter below 128 bits")

    def to_bytes(self) -> bytes:
        return self.salt + self.security_param.to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "HashKey":
        if len(data) != 20:
            raise ValueError("bad key encoding")
        return cls(bytes(data[:16]), int.from_bytes(data[16:20], "little"))


@dataclass(frozen=True)
class NodeLabel:
    """Mass (grain count) and hash of one tree node."""

    mass: int
    digest: bytes

    def to_bytes(self) -> bytes:
        return self.mass.to_bytes(8, "little") + self.digest


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
        mass is the denominator, at least 1."""
        p = self.padded_size
        return (
            p >= 1 and not p & (p - 1) and p // 2 < self.domain_size <= p
            and 1 <= self.denominator == self.root.mass
        )

    def to_bytes(self) -> bytes:
        return (
            self.domain_size.to_bytes(8, "little")
            + self.denominator.to_bytes(8, "little")
            + self.padded_size.to_bytes(8, "little")
            + self.root.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Digest":
        if len(data) != 24 + 8 + HASH_LEN:
            raise ValueError("bad digest encoding")
        n = int.from_bytes(data[0:8], "little")
        g = int.from_bytes(data[8:16], "little")
        p = int.from_bytes(data[16:24], "little")
        mass = int.from_bytes(data[24:32], "little")
        return cls(NodeLabel(mass, bytes(data[32:])), p, n, g)

    ENCODED_LEN = 24 + 8 + HASH_LEN


# an encoded opening: element, pdf, cdf, depth, then per level the sibling's
# mass and hash and a direction byte (1: the sibling is the left child)
_OPENING_HEAD = struct.Struct("<QQQB")
_OPENING_LEVEL = struct.Struct(f"<Q{HASH_LEN}sB")


@dataclass(frozen=True)
class OpeningProof:
    """Authenticated pdf/cdf claim for one element.

    path runs leaf to root: (sibling label, sibling_is_left). Left siblings'
    masses accumulate into the cdf.
    """

    element: int
    claimed_pdf: int
    claimed_cdf: int
    path: tuple[tuple[NodeLabel, bool], ...]

    def to_bytes(self) -> bytes:
        out = [
            self.element.to_bytes(8, "little"),
            self.claimed_pdf.to_bytes(8, "little"),
            self.claimed_cdf.to_bytes(8, "little"),
            len(self.path).to_bytes(1, "little"),
        ]
        for label, is_left in self.path:
            out.append(label.to_bytes())
            out.append(b"\x01" if is_left else b"\x00")
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, levels: dict | None = None) -> "OpeningProof":
        """Decode one record (ValueError if malformed). levels maps each
        (mass, hash, direction byte) path level decoded so far to its path
        entry and gains this record's; openings of one tree share most of
        their levels, so decoding many with one dict builds each label
        once."""
        if len(data) < _OPENING_HEAD.size:
            raise ValueError("truncated opening")
        element, pdf, cdf, depth = _OPENING_HEAD.unpack_from(data)
        if len(data) != cls.encoded_len(depth):
            raise ValueError("opening length mismatch")
        if levels is None:
            levels = {}
        path = []
        for level in _OPENING_LEVEL.iter_unpack(memoryview(data)[_OPENING_HEAD.size :]):
            entry = levels.get(level)
            if entry is None:
                mass, h, side = level
                if side > 1:
                    raise ValueError("bad direction byte")
                entry = levels[level] = (NodeLabel(mass, h), side == 1)
            path.append(entry)
        return cls(element, pdf, cdf, tuple(path))

    @staticmethod
    def encoded_len(depth: int) -> int:
        return _OPENING_HEAD.size + depth * _OPENING_LEVEL.size


class TreeAux:
    """Every node label of a committed tree, heap-indexed: labels[1] is the
    root, node i has children 2i and 2i+1, and element x's leaf is
    labels[padded + x - 1] (padding leaves carry mass 0). digest builds each
    label once; open_element only reads them."""

    __slots__ = ("padded", "labels")

    def __init__(self, padded: int, labels: list[NodeLabel]):
        self.padded = padded
        self.labels = labels


def _hash_leaf(salt: bytes, mass: int) -> bytes:
    return hashlib.sha256(salt + _LEAF_TAG + mass.to_bytes(8, "little")).digest()


def _hash_node(salt: bytes, left: bytes, right: bytes) -> bytes:
    """Hash of an internal node from its children's encoded labels
    (NodeLabel.to_bytes())."""
    return hashlib.sha256(salt + _NODE_TAG + left + right).digest()


def _hash_header(salt: bytes, n: int, grains: int, padded: int, root_hash: bytes) -> bytes:
    return hashlib.sha256(
        salt
        + _HEAD_TAG
        + n.to_bytes(8, "little")
        + grains.to_bytes(8, "little")
        + padded.to_bytes(8, "little")
        + root_hash
    ).digest()


def gen(kappa: int, n: int, rng: Generator) -> HashKey:
    """Fresh verifier-chosen key; kappa must be at least 128."""
    if kappa < 128:
        raise ValueError("security parameter below 128 bits")
    salt = bytes(int(b) for b in rng.integers(0, 256, size=16))
    return HashKey(salt, kappa)


def digest(key: HashKey, q: GrainDistribution) -> tuple[Digest, TreeAux]:
    """Commit to q. Deterministic in (key, q); aux holds every node label."""
    padded = 1 << (q.n - 1).bit_length()
    salt = key.salt
    labels: list[NodeLabel] = [None] * (2 * padded)  # slot 0 unused
    for i, mass in enumerate(q.counts + (0,) * (padded - q.n), padded):
        labels[i] = NodeLabel(mass, _hash_leaf(salt, mass))
    for i in range(padded - 1, 0, -1):
        left, right = labels[2 * i], labels[2 * i + 1]
        labels[i] = NodeLabel(
            left.mass + right.mass, _hash_node(salt, left.to_bytes(), right.to_bytes())
        )
    root = labels[1]
    root_hash = _hash_header(salt, q.n, q.grains, padded, root.digest)
    d = Digest(NodeLabel(root.mass, root_hash), padded, q.n, q.grains)
    return d, TreeAux(padded, labels)


def open_element(x: int, key: HashKey, d: Digest, aux: TreeAux) -> OpeningProof:
    """Opening for element x: pdf, cdf and the sibling path."""
    if not 1 <= x <= d.domain_size:
        raise ValueError(f"element {x} outside [1, {d.domain_size}]")
    labels = aux.labels
    idx = aux.padded + x - 1
    pdf = labels[idx].mass
    cdf = pdf
    path = []
    while idx > 1:
        sib = labels[idx ^ 1]
        sib_is_left = bool(idx & 1)
        if sib_is_left:
            cdf += sib.mass
        path.append((sib, sib_is_left))
        idx >>= 1
    return OpeningProof(x, pdf, cdf, tuple(path))


def _walk(
    x: int, proof: OpeningProof, key: HashKey, d: Digest, pinned: list[bytes] | None = None
) -> bool:
    """The checks and hashes of verify_opening. Given a list `pinned`, the
    walk also appends the encoded labels (NodeLabel.to_bytes()) the path
    pins, leaf to root: the running node, then its sibling, at each level,
    and last the root before the header hash; they hold only if the walk
    accepts. verify_opening passes no list: collecting the labels on every
    verification made it about 7 % slower."""
    denom = d.denominator
    if not d.well_formed() or not 1 <= x <= d.domain_size or proof.element != x:
        return False
    path = proof.path
    if len(path) != d.depth or not 0 <= proof.claimed_pdf <= denom:
        return False
    # direction bits must match the element's position
    leaf_pos = x - 1
    for level, (_, sib_is_left) in enumerate(path):
        if sib_is_left != ((leaf_pos >> level) & 1 == 1):
            return False
    salt = key.salt
    mass = cdf = proof.claimed_pdf
    node_hash = _hash_leaf(salt, mass)
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
            node_hash = _hash_node(salt, sib, cur)
        else:
            node_hash = _hash_node(salt, cur, sib)
        mass += sib_mass
    if mass != d.root.mass or cdf != proof.claimed_cdf:
        return False
    if pinned is not None:
        pinned.append(mass.to_bytes(8, "little") + node_hash)
    return _hash_header(salt, d.domain_size, denom, d.padded_size, node_hash) == d.root.digest


def verify_opening(x: int, proof: OpeningProof, key: HashKey, d: Digest) -> bool:
    """Accept iff the path reproduces the digest, every level is mass-additive,
    and the claimed cdf equals the leaf mass plus all left-sibling masses.

    Hashes the leaf, one node per level, and the header only once the root
    mass and cdf checks pass: depth + 2 hashes to accept, depth + 1 for a
    mass or cdf rejection.
    """
    return _walk(x, proof, key, d)


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
    openings that verify, and stores the encoded labels their walks pin, by
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
    processed: set[OpeningProof] = set()
    try:
        for r in range(runs):
            for proof in adversary.opening_run(r):
                if not isinstance(proof, OpeningProof) or proof in processed:
                    continue
                processed.add(proof)
                labels: list[bytes] = []
                if not _walk(proof.element, proof, key, d, labels):
                    continue
                seen += 1
                leaf = padded + proof.element - 1
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
