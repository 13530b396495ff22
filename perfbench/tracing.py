"""Timing wrappers for the traced run.

`Tracer.install()` replaces public functions and methods of `vdo` with
wrappers, at the attribute each caller looks up, and `restore()` puts the
originals back; no source file changes. A wrapper records a span (name,
start, end, parent, trial) and, through an optional hook, per-trial
counters. Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans. Trials run one at a time in one thread per process, so
children nest strictly and their durations simply add.
"""

from __future__ import annotations

import resource
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

import vdo.argument as argument
import vdo.bench as bench
import vdo.commitment as commitment
import vdo.properties as properties
import vdo.representation as representation
import vdo.streams as streams
import vdo.testers as testers
from vdo.dist import GrainDistribution
from vdo.protocol import HonestProver, VerifiedOracleSession
from vdo.rscode import BlockCode
from vdo.streams import RemoteProver
from vdo.testers import IdentityTestRun
from vdo.wire import OpeningBatch, QuerySet, SessionTranscript

# (metric name, unit, better) of every per-layer metric the traced run
# reports, in report order.
LAYER_METRICS = (
    ("commitment.verify.ms", "ms", "lower"),
    ("commitment.verify.calls", "count", "lower"),
    ("commitment.verify.rejects", "count", "lower"),
    ("commitment.hashes", "count", "lower"),
    ("commitment.open.ms", "ms", "lower"),
    ("commitment.open.calls", "count", "lower"),
    ("commitment.digest.ms", "ms", "lower"),
    ("commitment.digest.calls", "count", "lower"),
    ("protocol.answer.ms", "ms", "lower"),
    ("protocol.answer.probes", "count", "lower"),
    ("protocol.answer.distinct_ratio", "ratio", "lower"),
    ("protocol.establish.ms", "ms", "lower"),
    ("protocol.query.ms", "ms", "lower"),
    ("dist.sample.ms", "ms", "lower"),
    ("dist.sample.draws", "count", "lower"),
    ("testers.plan.ms", "ms", "lower"),
    ("testers.complete.ms", "ms", "lower"),
    ("testers.uniformity.ms", "ms", "lower"),
    ("properties.histogram.ms", "ms", "lower"),
    ("properties.decide.ms", "ms", "lower"),
    ("argument.full_reveal.ms", "ms", "lower"),
    ("argument.spot_check.ms", "ms", "lower"),
    ("argument.payload.ms", "ms", "lower"),
    ("representation.build.ms", "ms", "lower"),
    ("representation.decode.ms", "ms", "lower"),
    ("rscode.table.ms", "ms", "lower"),
    ("rscode.table.calls", "count", "lower"),
    ("wire.log.ms", "ms", "lower"),
    ("wire.encode.ms", "ms", "lower"),
    ("wire.decode.ms", "ms", "lower"),
    ("streams.wait.ms", "ms", "lower"),
    ("streams.serve.ms", "ms", "lower"),
    ("streams.frames", "count", "lower"),
    ("bench.make_dist.ms", "ms", "lower"),
    ("bench.trial.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Counters whose per-trial values must agree exactly between the closed
# form and the count made at the hash functions.
HASH_COUNT = "commitment.hashes"
HASH_CLOSED_FORM = "commitment.hashes.closed_form"


def _after_verify(add, args, result):
    depth = args[3].padded_size.bit_length() - 1
    add("commitment.verify.calls", 1)
    add("commitment.verify.rejects", 0 if result else 1)
    # leaf + one per level + header when accepted; a flipped opening fails
    # the root-mass or cdf check before the header hash
    add(HASH_CLOSED_FORM, depth + 2 if result else depth + 1)


def _after_digest(add, args, result):
    add("commitment.digest.calls", 1)
    add(HASH_CLOSED_FORM, 2 * result[0].padded_size)  # P leaves, P-1 nodes, header


def _after_answer(add, args, result):
    add("protocol.answer.probes", len(args[1]))
    add("protocol.answer.distinct", len(result.proofs))


def _counter(name):
    def after(add, args, result):
        add(name, 1)

    return after


def _after_sample(add, args, result):
    add("dist.sample.draws", int(args[1]))


class Tracer:
    """Span and counter recorder for one process.

    role "verifier" runs in the benchmark process; role "prover" runs in the
    remote workload's prover process, where blocking reads are the idle
    time subtracted from `streams.serve`.
    """

    def __init__(self, role: str = "verifier"):
        self.role = role
        # one entry per span, in integer columns: lists would give the cyclic
        # garbage collector one more object to walk per span, and the traced
        # run would slow down as spans pile up
        self._span_names: list[str] = []  # name of each name id
        self._trials = array("q")
        self._names = array("H")
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        self.counters: dict = {}  # trial -> {counter name: value}
        self.transcripts: dict[int, SessionTranscript] = {}
        self.trial = None
        self._counts: dict[str, int] = {}
        self._hashes = [0]  # bumped on every hash; the cheapest counter there is
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def begin(self, trial) -> None:
        """Attribute spans and counts from here on to `trial`."""
        self._flush()
        self.trial = trial
        self._counts = self.counters.setdefault(trial, {})

    def _flush(self) -> None:
        if self._hashes[0]:
            self._counts[HASH_COUNT] = self._counts.get(HASH_COUNT, 0) + self._hashes[0]
            self._hashes[0] = 0

    def add(self, name: str, value: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        stack, add = self._stack, self.add
        trials, names, parents = self._trials, self._names, self._parents
        starts, ends = self._starts, self._ends

        if name is None:  # counter only

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(add, args, result)
                return result

            return counted

        if name not in self._span_names:
            self._span_names.append(name)
        name_id = self._span_names.index(name)

        def traced(*args, **kwargs):
            idx = len(names)
            trials.append(self.trial)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = start
                stack.pop()
            if after is not None:
                after(add, args, result)
            return result

        return traced

    def count_hashes(self, fn):
        cell = self._hashes

        def hashed(*args):
            cell[0] += 1
            return fn(*args)

        return hashed

    def span(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    def _log_hook(self, add, args, result):
        t = args[0]
        self.transcripts[id(t)] = t

    # -- installation ------------------------------------------------------------

    def _targets(self):
        targets = [
            (commitment, "verify_opening", "commitment.verify", _after_verify),
            (commitment, "open_element", "commitment.open", _counter("commitment.open.calls")),
            (commitment, "digest", "commitment.digest", _after_digest),
            (HonestProver, "answer_queries", "protocol.answer", _after_answer),
            (VerifiedOracleSession, "establish", "protocol.establish", None),
            (VerifiedOracleSession, "query_set", "protocol.query", None),
            (GrainDistribution, "sample_batch", "dist.sample", _after_sample),
            (IdentityTestRun, "plan", "testers.plan", None),
            (IdentityTestRun, "complete", "testers.complete", None),
            (testers, "uniformity_test", "testers.uniformity", None),
            (properties, "estimate_histogram", "properties.histogram", None),
            (properties, "uniformity_decide", "properties.decide", None),
            (argument.FullRevealBackend, "verify", "argument.full_reveal", None),
            (argument.SpotCheckBackend, "verify", "argument.spot_check", None),
            (argument, "honest_backend_payload", "argument.payload", None),
            (argument, "build_representation", "representation.build", None),
            (representation, "decode_blocks", "representation.decode", None),
            (BlockCode, "encode_table", "rscode.table", _counter("rscode.table.calls")),
            (SessionTranscript, "log", "wire.log", self._log_hook),
            (streams, "frame", "wire.encode", None),
            (OpeningBatch, "from_payload", "wire.decode", None),
            (QuerySet, "from_payload", "wire.decode", None),
            (bench, "make_dist", "bench.make_dist", None),
        ]
        if self.role == "prover":
            targets += [
                (streams, "serve_prover", "streams.serve", None),
                (streams, "read_frame", "streams.idle", None),
            ]
        else:
            targets += [
                (RemoteProver, "_roundtrip", "streams.wait", None),
                (streams, "read_frame", None, _counter("streams.frames")),
                (streams, "write_frame", None, _counter("streams.frames")),
            ]
        return targets

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, after in self._targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, after)))
            else:
                setattr(owner, attr, self.wrap(name, raw, after))
        for attr in ("_hash_leaf", "_hash_node", "_hash_header"):
            raw = commitment.__dict__[attr]
            self._saved.append((commitment, attr, raw))
            setattr(commitment, attr, self.count_hashes(raw))

    def restore(self) -> None:
        self._flush()
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- export ------------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": [
                [trial, self._span_names[name], start, end, parent]
                for trial, name, start, end, parent in zip(
                    self._trials, self._names, self._starts, self._ends, self._parents
                )
            ],
            "counters": [
                [t, n, v] for t, counts in self.counters.items() for n, v in counts.items()
            ],
            "rss_mb": peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def merge(parts: list[dict]) -> tuple[list[list], dict[tuple, int]]:
    """Concatenate the exports of several processes, re-basing parent indices."""
    spans: list[list] = []
    counters: dict[tuple, int] = defaultdict(int)
    for part in parts:
        base = len(spans)
        for trial, name, start, end, parent in part["spans"]:
            spans.append([trial, name, start, end, parent + base if parent >= 0 else -1])
        for trial, name, value in part["counters"]:
            counters[(trial, name)] += value
    return spans, counters


def per_trial(spans: list[list], counters: dict[tuple, int], speeds: dict) -> dict:
    """{trial: {metric: value}}: self time in ms per span name, scaled by the
    trial's speed factor to nominal machine speed, plus counters.

    `streams.serve.ms` is the prover process's busy time: the serve span's
    duration minus the time it spent blocked reading the next frame.
    """
    covered = [0] * len(spans)
    idle = [0] * len(spans)
    for trial, name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
            if name == "streams.idle":
                idle[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (trial, name, start, end, parent) in enumerate(spans):
        if name == "streams.idle":
            continue
        if name == "streams.serve":
            busy = end - start - idle[i]
        else:
            busy = end - start - covered[i]
        out[trial][name + ".ms"] += busy / 1e6 * speeds[trial]
    for (trial, name), value in counters.items():
        out[trial][name] += value
    return out


def layer_medians(table: dict, trials: list, count_window: int) -> dict[str, float]:
    """Median of each layer metric over the trials in which that layer ran
    (0 where it never ran). Counts use only the first `count_window`
    trials, so that they repeat exactly from run to run."""
    result = {}
    for name, unit, _better in LAYER_METRICS:
        over = trials[:count_window] if unit == "count" else trials
        if name == "protocol.answer.distinct_ratio":
            vals = [
                table[t]["protocol.answer.distinct"] / table[t]["protocol.answer.probes"]
                for t in over
                if table[t].get("protocol.answer.probes")
            ]
        else:
            vals = [table[t][name] for t in over if name in table[t]]
        result[name] = float(statistics.median(vals)) if vals else 0.0
    return result


def check_hashes(table: dict, trials: list) -> list[str]:
    """Trials whose counted hashes differ from the closed form."""
    bad = []
    for t in trials:
        counted = table[t].get(HASH_COUNT, 0)
        closed = table[t].get(HASH_CLOSED_FORM, 0)
        if counted != closed:
            bad.append(f"trial {t}: {counted} hashes counted, closed form {closed}")
    return bad


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial\tname\tstart_ns\tend_ns\tparent\n")
        for trial, name, start, end, parent in spans:
            fh.write(f"{trial}\t{name}\t{start}\t{end}\t{parent}\n")
