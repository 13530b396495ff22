"""Golden SHA-256 pins of transcripts and CLI reports.

Each digest was computed once and is fixed here, so any change to a
verdict, counter, seed stream, message encoding or report line shows up as
a mismatch, not only a difference between two runs of the same code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction as F

import pytest

from vdo.argument import FullRevealBackend, SpotCheckBackend, run_general_argument
from vdo.cli import main
from vdo.dist import random_distribution, uniform
from vdo.properties import make_fixed_target, make_uniformity, run_label_invariant_argument
from vdo.protocol import (
    HonestProver,
    VerifierConfig,
    quantile_sampling_generator,
    run_oracle_session,
)
from vdo.rngutil import rng_from
from vdo.testers import DSampler

N = 64


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_oracle_session_transcript():
    q = random_distribution(N, rng_from(1, "golden"))
    cfg = VerifierConfig(
        N, F(1, 2), generator=quantile_sampling_generator(16), record_payloads=True
    )
    res = run_oracle_session(cfg, HonestProver(q), DSampler(q), 5)
    assert res.accept
    assert _sha(res.transcript.to_text()) == (
        "b703ed36596cca4efb889bdaa89a21771c2b6299f605a0251ed6a1700161151d"
    )


def test_label_invariant_transcript():
    u = uniform(N)
    res = run_label_invariant_argument(
        make_uniformity(), N, F(1, 20), F(9, 20), DSampler(u), HonestProver(u), 6,
        record_payloads=True,
    )
    assert res.accept
    assert _sha(res.session.transcript.to_text()) == (
        "a2feba9c110315fd9e7bbf14e28cdfb6faca3dbe7da132d85bd0a30152154c15"
    )


@pytest.mark.parametrize(
    "backend, digest",
    [
        (FullRevealBackend, "28f3f3dbdb0315c06f5555c9c1a41d92e381c363a0138a8c7a2ac83fc4ead286"),
        (SpotCheckBackend, "30ebfc8ea6b21c85db1f2a5fff0c1185de5ba9bcb19a21ce51fe9c3fa5bdf114"),
    ],
)
def test_general_argument_transcript(backend, digest):
    t = random_distribution(N, rng_from(2, "golden"), grains=N * N * 5)
    res = run_general_argument(
        make_fixed_target(t), N, F(0), F(3, 5), DSampler(t), HonestProver(t),
        backend(), 7, record_payloads=True,
    )
    assert res.accept
    assert _sha(res.session.transcript.to_text()) == digest


ORACLE = ["--mode", "oracle-session", "--n", "64", "--eps", "1/2", "--trials", "3", "--seed", "7"]
LABEL = ["--mode", "label-invariant", "--n", "64", "--trials", "2", "--seed", "8"]
GENERAL = ["--mode", "general-argument", "--n", "64", "--trials", "2", "--seed", "9"]


@pytest.mark.parametrize(
    "args, digest",
    [
        (ORACLE, "d08251f2b6753d09f8e465e2acfb07a8ac8bcac334e68708bc252b7954a9f0e5"),
        (
            ORACLE + ["--adversary", "inconsistent-opening", "--adversary-param", "1/50"],
            "3ac16941de2731362dfa4cfbb5951b77ee3cedd04578b307d9582349b51e8634",
        ),
        (
            ORACLE + ["--adversary", "selective-refusal", "--adversary-param", "3"],
            "d1f88f92e0ac1ddfa72764a1130864b819e9ffe5e9002ac1849cec45445f23da",
        ),
        (
            ORACLE + ["--adversary", "far-commit", "--q-dist", "point:1"],
            "e8fd99c2a648a39039351eac71ded5f068dcaf177ae0902eea36eae83b402634",
        ),
        (LABEL, "2c0f9dc541f124a8a61f272afca725fc500c17d70fe222958ae7eff07fcaea86"),
        (
            LABEL + ["--property", "support-size", "--property-param", "32"],
            "16fdede3d73be10071292de65f94d15957f268f15c8cf934e893fc40af4894db",
        ),
        (
            GENERAL + ["--backend", "spot-check", "--target", "random:1.0", "--d-dist", "random:1.0"],
            "0d44846c2d94e3d4065bb1880138b88b66b5c6ed7939a3e53fae3487d6bb419f",
        ),
        (
            GENERAL + ["--adversary", "backend-swap", "--adversary-param", "point:1"],
            "6ff22f015e6a3b96fc844992bbfe879c04dab287d991046b85b79f884e088cfb",
        ),
    ],
)
def test_cli_report(args, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(args + ["--jobs", "1"])
    assert _sha(out.getvalue()) == digest
