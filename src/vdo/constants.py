"""Calibrated tester constants, loaded from a key=value text file.

The committed file ships with the package; VDO_CONSTANTS overrides the
path. A file names every field. Values are parsed as exact rationals where
they feed protocol arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources

_ENV_VAR = "VDO_CONSTANTS"


@dataclass(frozen=True)
class Constants:
    version: int
    c_id: int  # identity tester D-sample coefficient
    c_tail: int  # tail-estimate sample coefficient (per eps^-4)
    c_hist: int  # histogram sample coefficient (per log^3 N / tau^4)
    c_spot: int  # spot-check probe coefficient (per 1/eps')
    c_ext: int  # extractor replay coefficient (per N/eta)
    eps_floor_coeff: Fraction  # eps must exceed this / N^(1/4)
    hist_probe_cap: int  # protocol-side cap on histogram probes
    decide_margin: Fraction  # accept threshold = margin * tau

    def to_text(self) -> str:
        lines = ["# vdo calibration constants"]
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"


def parse_constants(text: str) -> Constants:
    kw = {}
    types = {f.name: f.type for f in fields(Constants)}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ValueError(f"unknown constants key: {key}")
        kw[key] = Fraction(val) if "Fraction" in str(types[key]) else int(val)
    missing = [key for key in types if key not in kw]
    if missing:
        raise ValueError(f"constants file lacks {', '.join(missing)}")
    return Constants(**kw)


_cached: Constants | None = None


def get_constants() -> Constants:
    """Constants from VDO_CONSTANTS, or else the packaged file."""
    global _cached
    if _cached is not None:
        return _cached
    path = os.environ.get(_ENV_VAR)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("vdo").joinpath("constants.txt").read_text()
    _cached = parse_constants(text)
    return _cached


def reset_cache() -> None:
    global _cached
    _cached = None
