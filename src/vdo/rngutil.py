"""Splittable counter-based randomness.

Every stochastic operation in the package takes an explicit generator.
Streams are derived from a root seed plus a label path, hashed into a
Philox key, so independent protocol phases (and parallel trials) get
independent, reproducible streams.
"""

from __future__ import annotations

import hashlib

from numpy.random import Generator, Philox


def derive_key(seed: int, *labels: object) -> int:
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(32, "little", signed=True))
    for lab in labels:
        h.update(repr(lab).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:16], "little")


def rng_from(seed: int, *labels: object) -> Generator:
    """Counter-based generator for the stream named by (seed, labels)."""
    return Generator(Philox(key=derive_key(seed, *labels)))
