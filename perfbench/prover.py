"""Prover process of the hostile-remote-1024 workload.

Serves oracle sessions over an inherited socket, one after another. Each
line on stdin names the next trial ("<index> <traced>"); the prover builds
that trial's cheating prover from the same spec the verifier generated and
serves one session until the verdict frame. When stdin closes it prints its
spans, counters and peak memory as one JSON document and exits.

Run by the benchmark worker, not by hand:
    python3 perfbench/prover.py --fd N --workload hostile-remote-1024 --seed S
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import vdo.bench  # noqa: E402
import vdo.streams  # noqa: E402
from speed import reference_ms  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import make_trial, parse_session_line  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fd", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    tracer = Tracer("prover")
    refs = []  # reference-kernel ms after each session, in session order
    with socket.socket(fileno=args.fd) as sock, sock.makefile("rb") as reader, \
            sock.makefile("wb") as writer:
        for line in sys.stdin:
            index, traced = parse_session_line(line)
            if traced:
                tracer.install()
                tracer.begin(index)
            try:
                ts = make_trial(args.workload, args.seed, index).spec
                # looked up at call time so the traced session times it
                q = vdo.bench.make_dist(ts.q_spec, ts.n, ts.grains, ts.seed)
                prover = ts.adversary.build(q, ts.seed)
                vdo.streams.serve_prover(reader, writer, prover)
            finally:
                tracer.restore()
            refs.append(reference_ms())
    sys.stdout.write(json.dumps({**tracer.export(), "ref_ms": refs}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
