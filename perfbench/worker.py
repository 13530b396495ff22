"""Measuring process of the vdo benchmark; started by run.py.

Imports vdo from the checkout's src/, runs one untimed warm-up trial and
prints READY (run.py times process start to READY as set-up). Unless
--setup-only, it then runs trials closed-loop, one at a time, and prints
one JSON line with the raw rows and timings:

  untraced: trials for --seconds, and at least EXACT_WINDOW of them;
  traced:   untraced trials for half of --seconds (at least TRACE_MIN),
            then the same trials again with the tracing wrappers
            installed; the two sets of rows must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import vdo  # noqa: E402
import tracing  # noqa: E402
from speed import REF_NOMINAL_MS, reference_ms  # noqa: E402
from workloads import WORKLOADS, Runner, canonical_row, prover_layout  # noqa: E402

EXACT_WINDOW = 40  # every untraced run completes these; pins and exact counts use them
TRACE_MIN = 16  # traced trials per traced run, at least; exact layer counts use these


def run_one(runner: Runner, index, tracer: tracing.Tracer | None = None) -> dict:
    trial = runner.trial(index)
    out = {"index": index, "expect": trial.expect_accept, "row": None, "error": None}
    start = perf_counter_ns()
    try:
        if tracer is None:
            row = runner.run(trial)
        else:
            row = tracer.span("bench.trial", runner.run, trial, True)
        out["row"] = canonical_row(row)
    except Exception as exc:  # a raised trial is an error, counted as failed
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["ns"] = perf_counter_ns() - start
    return out


class TrialLoop:
    """Runs trials one at a time and times the reference kernel between
    them; each result's "ref_ms" is the mean kernel time just before and
    just after its trial."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.before = reference_ms()

    def run(self, index, tracer: tracing.Tracer | None = None) -> dict:
        res = run_one(self.runner, index, tracer)
        after = reference_ms()
        res["ref_ms"] = (self.before + after) / 2
        self.before = after
        return res


def timed_loop(runner: Runner, seconds: float, minimum: int) -> list[dict]:
    """Trials 0, 1, ... until `seconds` have passed and `minimum` are done."""
    loop = TrialLoop(runner)
    results = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while len(results) < minimum or perf_counter_ns() < deadline:
        results.append(loop.run(len(results)))
    return results


def traced_pass(runner: Runner, count: int) -> tuple[list[dict], tracing.Tracer, list[str]]:
    """Re-run trials 0..count-1 with tracing; check transcripts as they end."""
    loop = TrialLoop(runner)
    tracer = tracing.Tracer("verifier")
    problems = []
    results = []
    tracer.install()
    try:
        for i in range(count):
            tracer.begin(i)
            res = loop.run(i, tracer)
            results.append(res)
            for t in tracer.transcripts.values():
                if t.recompute_counters() != (t.bytes_sent, t.bytes_received):
                    problems.append(f"trial {i}: transcript byte counters differ from recompute_counters()")
            logged = sum(t.total_bytes() for t in tracer.transcripts.values())
            if res["row"] is not None and logged != res["row"]["bytes"]:
                problems.append(f"trial {i}: transcript holds {logged} bytes, row says {res['row']['bytes']}")
            tracer.transcripts.clear()
    finally:
        tracer.restore()
    return results, tracer, problems


def apply_speed(results: list[dict], prover: dict | None) -> None:
    """Set each result's "speed": REF_NOMINAL_MS over its kernel time,
    averaged with the prover process's kernel time after the same session
    when a prover process did half of the trial's work."""
    prover_refs = prover["ref_ms"][1:] if prover else None  # [0] is the warm-up
    for i, r in enumerate(results):
        ref = r.pop("ref_ms")
        if prover_refs is not None:
            ref = (ref + prover_refs[i]) / 2
        r["speed"] = REF_NOMINAL_MS / ref


def untraced_run(runner: Runner, seconds: float) -> dict:
    results = timed_loop(runner, seconds, EXACT_WINDOW)
    prover = runner.close()
    apply_speed(results, prover)
    rss = tracing.peak_rss_mb() + (prover["rss_mb"] if prover else 0)
    return {"results": results, "rss_mb": rss, "problems": []}


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    plain = timed_loop(runner, seconds / 2, TRACE_MIN)
    traced, tracer, problems = traced_pass(runner, len(plain))
    prover = runner.close()
    apply_speed(plain + traced, prover)
    spans, counters = tracing.merge([tracer.export()] + ([prover] if prover else []))
    table = tracing.per_trial(spans, counters, {r["index"]: r["speed"] for r in traced})
    trials = [r["index"] for r in traced]
    problems += tracing.check_hashes(table, trials)
    for a, b in zip(plain, traced):
        if (a["row"], a["error"]) != (b["row"], b["error"]):
            problems.append(f"trial {a['index']}: traced row {b['row']} differs from untraced {a['row']}")
    layers = tracing.layer_medians(table, trials, TRACE_MIN)
    layers["trace.overhead_ratio"] = statistics.median(
        r["ns"] * r["speed"] for r in traced
    ) / statistics.median(r["ns"] * r["speed"] for r in plain)
    spans_path.parent.mkdir(exist_ok=True)
    tracing.write_spans(spans_path, spans)
    return {
        "results": plain,
        "traced": traced,
        "layers": {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS},
        "problems": problems,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names the code it ran
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "vdo"
    for path in sorted(pkg.glob("*.py")) + [pkg / "constants.txt"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def context(workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vdo": vdo.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "jobs": 1,
        "prover_layout": prover_layout(workload),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="measuring process of the vdo benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    try:
        warm = run_one(runner, "warmup")
        if warm["error"] is not None:
            print(f"warm-up trial failed: {warm['error']}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out = traced_run(runner, args.seconds, ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.tsv")
        else:
            out = untraced_run(runner, args.seconds)
        out["context"] = context(args.workload)
        out["exact_window"] = EXACT_WINDOW
        print(json.dumps(out), flush=True)
        return 0
    finally:
        runner.close()

if __name__ == "__main__":
    sys.exit(main())
