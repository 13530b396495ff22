"""The vdo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory): oracle-4096, label-1024,
general-256, hostile-remote-1024. The seed generates every trial spec; the
program receives only the specs. Trials run closed-loop and sequentially,
one at a time, in one measuring process (plus one prover process for
hostile-remote-1024); vdo's own worker pool is never used.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a traced run. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the machine and code fields and the checks made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"

DEADLINE_S = 170  # the whole run, set-up included, ends within this
SETUP_SAMPLES = 5  # fresh processes timed from start to READY; the median is setup_s
TAIL_PERCENTILE = 75  # every run times at least 40 trials, so 10 or more lie above it

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "bytes_per_trial": "B",
    "d_samples_per_trial": "draws",
    "verdict_agreement": "ratio",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One measuring process, in its own process group so that a timeout
    also stops the prover process it may have started."""

    def __init__(self, args, setup_only: bool, deadline: float):
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        self.started = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
        self.timer = threading.Timer(max(0.0, deadline - monotonic()), self._kill)
        self.timer.start()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait_ready(self) -> float:
        """Seconds from process start to READY."""
        line = self.proc.stdout.readline()
        if line.strip() != b"READY":
            self.close()
            raise WorkerError(f"worker did not become ready (exit {self.proc.returncode})")
        return perf_counter() - self.started

    def close(self) -> bytes:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self._kill()  # stragglers of the group, if any
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with {self.proc.returncode}")
        return out


def rows_digest(results: list[dict]) -> str:
    rows = [r["row"] if r["error"] is None else {"error": r["error"]} for r in results]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trial_failed(r: dict) -> bool:
    """A trial fails when it raised, when a far or cheating trial was
    accepted, or when an honest or near trial was rejected for any reason
    but the identity tester's designed completeness error."""
    if r["error"] is not None:
        return True
    accept = r["row"]["accept"]
    if not r["expect"]:
        return accept
    return not accept and r["row"]["reason"] != "IDENTITY_FAIL"


def end_to_end(raw: dict, setup: list[float]) -> dict:
    """Times are scaled to nominal machine speed (see speed.py): each trial
    by its own speed factor, set-up by the run's median factor. Exact counts
    come from the first exact_window trials, which every run completes."""
    results = raw["results"]
    ms = [r["ns"] / 1e6 * r["speed"] for r in results]
    speed = statistics.median(r["speed"] for r in results)
    window = results[:raw["exact_window"]]
    rows = [r["row"] for r in window if r["row"] is not None]
    agree = sum(
        1 for r in window if r["row"] is not None and r["row"]["accept"] == r["expect"]
    )
    values = {
        "trials_per_s": len(results) / (sum(ms) / 1e3),
        "trial_ms_p50": statistics.median(ms),
        "trial_ms_tail": statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "setup_s": statistics.median(setup) * speed,
        "peak_rss_mb": raw["rss_mb"],
        "bytes_per_trial": statistics.median(r["bytes"] for r in rows) if rows else 0,
        "d_samples_per_trial": statistics.median(r["d_samples"] for r in rows) if rows else 0,
        "verdict_agreement": agree / len(window),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vdo benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vdo" / "__init__.py").is_file():
        print(f"benchmark: no vdo sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S

    try:
        setup: list[float] = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                w = Worker(args, True, deadline)
                setup.append(w.wait_ready())
                w.close()
        w = Worker(args, False, deadline)
        setup.append(w.wait_ready())
        lines = w.close().splitlines()
        raw = json.loads(lines[-1]) if lines else None
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if raw is None:
        print("benchmark: worker printed no result", file=sys.stderr)
        return 1

    results = raw["results"]
    attempted = results + raw.get("traced", [])
    problems = list(raw["problems"])
    pin_state = "not checked"
    digest = rows_digest(results[:raw["exact_window"]])
    pins = json.loads(PINS.read_text())
    pinned = pins["rows_sha256"].get(args.workload)
    if len(results) >= raw["exact_window"] and args.seed == pins["seed"] and pinned:
        pin_state = "match" if digest == pinned else "mismatch"
        if pin_state == "mismatch":
            problems.append(f"rows at seed {args.seed} differ from the pinned digest")

    failed = sum(1 for r in attempted if trial_failed(r))
    correct = not problems and failed == 0
    if problems:
        failed = len(attempted)

    metrics = raw["layers"] if args.trace else end_to_end(raw, setup)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_trials": len(results),
        "tail_percentile": TAIL_PERCENTILE,
        "setup_samples_s": setup,
        "trial_ms_p50_unscaled": statistics.median(r["ns"] / 1e6 for r in results),
        "speed_p50": statistics.median(r["speed"] for r in results),
        "rows_sha256": digest,
        "pin": pin_state,
        "problems": problems[:10],
        "context": raw["context"],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
