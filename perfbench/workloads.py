"""The four benchmark workloads: trial specs from a seed, the verdict each
trial class must reach, and how one trial runs.

Every workload is homogeneous in path (all trials take the same accept or
reject route), except general-256, whose four classes interleave and lie
within 15% of each other in cost. Mixed accept/reject workloads put the
median on a boundary between trial clusters and do not repeat.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from vdo.adversaries import AdversarySpec
from vdo.bench import (
    GeneralTrialSpec,
    LabelTrialSpec,
    OracleTrialSpec,
    general_trial,
    label_trial,
    make_dist,
    oracle_trial,
    trial_seed,
)
from vdo.protocol import VerifierConfig, empty_generator, run_oracle_session
from vdo.streams import RemoteProver
from vdo.testers import DSampler

WORKLOADS = ("oracle-4096", "label-1024", "general-256", "hostile-remote-1024")

# Fields of a trial row that the pinned output digest covers.
ROW_KEYS = ("accept", "reason", "bytes", "d_samples", "q_probes")

PROVER_SCRIPT = Path(__file__).resolve().with_name("prover.py")

_TARGET = ("random", 1.0)
_FAR = ("shift", _TARGET, "3/5")
_GENERAL_CLASSES = (
    ("full-reveal", "near"),
    ("spot-check", "near"),
    ("full-reveal", "far"),
    ("spot-check", "far"),
)


@dataclass(frozen=True)
class Trial:
    """One generated trial: the spec the program receives, plus the verdict
    its class must reach (near and honest accept, far and cheating reject)."""

    index: int
    spec: object
    expect_accept: bool


def make_trial(workload: str, seed: int, index) -> Trial:
    """Trial `index` of `workload` under benchmark seed `seed`. `index` may be
    any hashable label; the warm-up trial uses "warmup"."""
    s = trial_seed(seed, (workload, index))
    if workload == "oracle-4096":
        spec = OracleTrialSpec(4096, Fraction(1, 4), _TARGET, _TARGET, s)
        return Trial(index, spec, True)
    if workload == "label-1024":
        spec = LabelTrialSpec(
            1024, Fraction(1, 20), Fraction(9, 20), "uniformity", (),
            ("uniform",), ("uniform",), s,
        )
        return Trial(index, spec, True)
    if workload == "general-256":
        k = index if isinstance(index, int) else 0
        backend, cls = _GENERAL_CLASSES[k % len(_GENERAL_CLASSES)]
        d = _TARGET if cls == "near" else _FAR
        spec = GeneralTrialSpec(
            256, Fraction(0), Fraction(3, 5), _TARGET, d, d, backend, s, 81920
        )
        return Trial(index, spec, cls == "near")
    if workload == "hostile-remote-1024":
        spec = OracleTrialSpec(
            1024, Fraction(1, 4), _TARGET, _TARGET, s,
            adversary=AdversarySpec("inconsistent-opening", (Fraction(1, 500),)),
        )
        return Trial(index, spec, False)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def canonical_row(row: dict) -> dict:
    return {k: row[k] for k in ROW_KEYS}


class ProverProcess:
    """The hostile prover, in one spawned process on the far end of a
    socketpair. Sessions are served one after another: the verifier names
    the trial on the process's stdin, then runs the session over the socket.
    """

    def __init__(self, workload: str, seed: int):
        self.sock, far = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(PROVER_SCRIPT), "--fd", str(far.fileno()),
                 "--workload", workload, "--seed", str(seed)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                pass_fds=(far.fileno(),),
            )
        finally:
            far.close()
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")

    def session(self, index, traced: bool) -> RemoteProver:
        self.proc.stdin.write(f"{index} {int(traced)}\n".encode())
        self.proc.stdin.flush()
        return RemoteProver(self.reader, self.writer)

    def finish(self, timeout: float = 60.0) -> bytes:
        """Stop the process and return what it printed (its spans and peak
        memory, as one JSON document)."""
        try:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.reader.close()
            self.writer.close()
            self.sock.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"prover process exited with {self.proc.returncode}")
        return out


def parse_session_line(line: str):
    """Inverse of the line ProverProcess.session writes."""
    index, traced = line.split()
    return (int(index) if index.isdigit() else index), traced == "1"


def remote_trial(trial: Trial, prover: ProverProcess, traced: bool = False) -> dict:
    """Verifier side of one oracle session against the remote prover; the
    same configuration and row as vdo.bench.oracle_trial."""
    ts = trial.spec
    d = make_dist(ts.d_spec, ts.n, ts.grains, ts.seed)
    remote = prover.session(trial.index, traced)
    cfg = VerifierConfig(
        ts.n, ts.epsilon, kappa=ts.kappa, generator=empty_generator(),
        amplification=ts.amplification,
    )
    res = run_oracle_session(cfg, remote, DSampler(d), ts.seed)
    remote.close()
    t = res.transcript
    return {
        "accept": res.accept,
        "reason": res.reason.name,
        "d_samples": t.d_samples,
        "q_probes": t.q_probes,
        "bytes": t.total_bytes(),
    }


_IN_PROCESS = {
    "oracle-4096": oracle_trial,
    "label-1024": label_trial,
    "general-256": general_trial,
}


class Runner:
    """Runs the trials of one workload, sequentially, in this process (plus
    the prover process for the remote workload)."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.prover = ProverProcess(workload, seed) if workload not in _IN_PROCESS else None

    def trial(self, index) -> Trial:
        return make_trial(self.workload, self.seed, index)

    def run(self, trial: Trial, traced: bool = False) -> dict:
        if self.workload not in _IN_PROCESS:
            return remote_trial(trial, self.prover, traced)
        return _IN_PROCESS[self.workload](trial.spec)

    def close(self) -> dict | None:
        """Stop the prover process, if one is running, and return its export."""
        prover, self.prover = self.prover, None
        if prover is None:
            return None
        return json.loads(prover.finish())


def prover_layout(workload: str) -> str:
    if workload in _IN_PROCESS:
        return "in-process honest prover, one process"
    return "verifier process + one spawned prover process, one socketpair, sessions in sequence"

