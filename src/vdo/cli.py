"""Command-line front end: sessions, calibration, scaling sweeps, and the
brute-force suites, emitting machine-readable reports.

Exit status is 0 iff every asserted threshold passes. Same flags and seed
give a byte-identical report.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import partial

from .adversaries import ADVERSARIES, AdversarySpec
from .argument import BACKENDS
from .bench import (
    CALIBRATION_EPSILON,
    GeneralTrialSpec,
    LabelTrialSpec,
    OracleTrialSpec,
    Report,
    accept_rate,
    calibrate,
    first_far_dist,
    general_trial,
    label_trial,
    measure_scaling,
    median_of,
    oracle_trial,
    run_trials,
    trial_seed,
)
from .bruteforce import run_brute_force_suite
from .constants import get_constants
from .properties import LABEL_INVARIANT
from .testers import check_epsilon, max_grains


def parse_dist_spec(text: str) -> tuple:
    """Distribution flag grammar: uniform | point:<x> | random:<spread> |
    two-level | shift:<base>:<delta> | file:<path>."""
    parts = text.split(":")
    kind = parts[0]
    if kind == "uniform":
        return ("uniform",)
    if kind == "two-level":
        return ("two-level",)
    if kind == "point":
        return ("point", int(parts[1]) if len(parts) > 1 else 1)
    if kind == "random":
        return ("random", float(parts[1]) if len(parts) > 1 else 1.0)
    if kind == "shift":
        if len(parts) < 3:
            raise argparse.ArgumentTypeError("shift needs a base spec and a delta")
        return ("shift", parse_dist_spec(":".join(parts[1:-1])), str(Fraction(parts[-1])))
    if kind == "file":
        return ("file", ":".join(parts[1:]))
    raise argparse.ArgumentTypeError(f"bad distribution spec: {text}")


def parse_adversary(name: str, params: list[str]) -> AdversarySpec:
    if name not in ADVERSARIES:
        raise argparse.ArgumentTypeError(f"unknown adversary: {name}")
    return AdversarySpec(name, ADVERSARIES[name].cli_params(params, parse_dist_spec))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vdo", description=__doc__)
    p.add_argument("--mode", required=True, choices=list(MODES))
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--grains", type=int, default=None)
    p.add_argument("--eps", type=Fraction, default=None)
    p.add_argument("--delta-c", type=Fraction, default=None)
    p.add_argument("--delta-f", type=Fraction, default=None)
    p.add_argument("--kappa", type=int, default=128)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument(
        "--property", dest="property_name", default="uniformity", choices=list(LABEL_INVARIANT)
    )
    p.add_argument("--property-param", action="append", default=[])
    p.add_argument("--adversary", default="honest", choices=list(ADVERSARIES))
    p.add_argument("--adversary-param", action="append", default=[])
    p.add_argument("--backend", default="full-reveal", choices=list(BACKENDS))
    p.add_argument("--d-dist", type=parse_dist_spec, default=("uniform",))
    p.add_argument("--q-dist", type=parse_dist_spec, default=None)
    p.add_argument("--target", type=parse_dist_spec, default=("uniform",))
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--assert-accept-rate", type=Fraction, default=None)
    p.add_argument("--assert-reject-rate", type=Fraction, default=None)
    return p


@contextmanager
def _usage_errors():
    """Checks of flags that no trial can run with: a ValueError or OSError
    they raise is a usage error (exit 2) before any trial runs."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise argparse.ArgumentError(None, str(e)) from e


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"--trials {trials}: need at least one trial")


def _check_out(args) -> None:
    """OSError unless every file the mode may write (--out, and calibrate's
    <out>.constants) can be created or overwritten."""
    if not args.out:
        return
    paths = [args.out, args.out + ".constants"] if args.mode == "calibrate" else [args.out]
    for path in paths:
        folder = os.path.dirname(path) or "."
        if (
            not os.path.isdir(folder)
            or os.path.isdir(path)
            or not os.access(path if os.path.exists(path) else folder, os.W_OK)
        ):
            raise OSError(f"--out: cannot write {path}")


# A session mode's setup(args, q_spec, adversary) returns its parameters and
# further config lines, each as (key, value) pairs, and its trial spec with
# seed 0; the runner sets each trial's seed.


def _oracle(args, q_spec, adv):
    eps = args.eps or Fraction(1, 4)
    spec = OracleTrialSpec(
        args.n, eps, args.d_dist, q_spec, 0,
        grains=args.grains, adversary=adv, kappa=args.kappa,
    )
    return [("eps", eps)], [], spec


def _label(args, q_spec, adv):
    dc = args.delta_c if args.delta_c is not None else Fraction(1, 20)
    df = args.delta_f if args.delta_f is not None else Fraction(9, 20)
    spec = LabelTrialSpec(
        args.n, dc, df, args.property_name, tuple(args.property_param),
        args.d_dist, q_spec, 0, grains=args.grains, adversary=adv,
    )
    return [("delta_c", dc), ("delta_f", df)], [("property", args.property_name)], spec


def _general(args, q_spec, adv):
    dc = args.delta_c if args.delta_c is not None else Fraction(0)
    df = args.delta_f if args.delta_f is not None else Fraction(3, 5)
    spec = GeneralTrialSpec(
        args.n, dc, df, args.target, args.d_dist, q_spec, args.backend, 0,
        grains=args.grains, adversary=adv,
    )
    extra = [("backend", args.backend), ("target", args.target)]
    return [("delta_c", dc), ("delta_f", df)], extra, spec


def _session_mode(trial, setup, q_default, args) -> Report:
    """Run args.trials sessions of one protocol; q_default is the committed
    distribution's spec without --q-dist (None: the --d-dist one)."""
    report = Report(args.mode)
    q_spec = args.q_dist or q_default or args.d_dist
    with _usage_errors():  # build what the first trial builds
        adv = parse_adversary(args.adversary, args.adversary_param)
        params, extra, spec = setup(args, q_spec, adv)
        _check_trials(args.trials)
        specs = [replace(spec, seed=trial_seed(args.seed, i)) for i in range(args.trials)]
        check_epsilon(spec.n, spec.epsilon)
        g = specs[0].inputs()[-1].q.grains  # the prover's committed denominator
        if g > max_grains(spec.n):
            raise ValueError(f"committed denominator {g} exceeds max_grains({spec.n}) = "
                             f"{max_grains(spec.n)}")
    for k, v in (
        ("n", args.n), *params, ("seed", args.seed), ("trials", args.trials), *extra,
        ("d_dist", args.d_dist), ("q_dist", q_spec), ("adversary", adv.strategy),
    ):
        report.config(k, v)
    rows = run_trials(trial, specs, args.jobs)
    for i, row in enumerate(rows):
        report.trial(i, row)
    rate = accept_rate(rows)
    report.summary("trials", len(rows))
    report.summary("accept_rate", f"{float(rate):.4f}")
    for key in ("d_samples", "q_probes", "bytes"):
        if rows and key in rows[0]:
            report.summary(f"median_{key}", median_of(rows, key))
    if args.assert_accept_rate is not None:
        report.check(
            f"accept_rate>={float(args.assert_accept_rate):.2f}",
            rate >= args.assert_accept_rate,
        )
    if args.assert_reject_rate is not None:
        report.check(
            f"reject_rate>={float(args.assert_reject_rate):.2f}",
            (1 - rate) >= args.assert_reject_rate,
        )
    return report


def cmd_calibrate(args) -> Report:
    with _usage_errors():
        _check_trials(args.trials)
        check_epsilon(args.n, CALIBRATION_EPSILON)
        first_far_dist(args.n, args.seed)
    report = Report("calibrate")
    report.config("n", args.n)
    report.config("trials", args.trials)
    report.config("seed", args.seed)
    cons, history = calibrate(
        n=args.n, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    for row in history:
        report.trial(
            row["c"],
            {
                "c": row["c"],
                "accept_rate": f"{float(row['accept_rate']):.4f}",
                "reject_rate": f"{float(row['reject_rate']):.4f}",
            },
        )
    found = cons is not None  # some candidate met both targets with the margin
    if found:
        report.summary("chosen_c_id", cons.c_id)
        report.summary("constants", cons.to_text().replace("\n", "; "))
    report.check("calibration-found", found)
    if args.out and found:
        with open(args.out + ".constants", "w", encoding="utf-8") as fh:
            fh.write(cons.to_text())
    return report


def cmd_scaling(args) -> Report:
    with _usage_errors():
        _check_trials(args.trials)
    report = Report("scaling")
    report.config("seed", args.seed)
    report.config("trials", args.trials)
    sc = measure_scaling(trials=args.trials, seed=args.seed, jobs=args.jobs)
    for n, row in sorted(sc.per_n.items()):
        report.trial(n, {"n": n, **{k: row[k] for k in sorted(row)}})
    for a, b, dr, br in sc.n_ratios:
        report.summary(f"ratio_{a}_to_{b}_d_samples", f"{dr:.3f}")
        report.summary(f"ratio_{a}_to_{b}_bytes", f"{br:.3f}")
    report.summary("eps_halving_d_ratio", f"{sc.eps_ratio:.3f}")
    for label, ok in sc.checks():
        report.check(label, ok)
    return report


def cmd_brute_force(args) -> Report:
    report = Report("brute-force")
    out = run_brute_force_suite()
    for name, res in out.items():
        report.trial(0, {"suite": name, **res})
        report.check(name, bool(res["ok"]))
    return report


# --mode name -> its runner, args -> Report
MODES = {
    "oracle-session": partial(_session_mode, oracle_trial, _oracle, None),
    "label-invariant": partial(_session_mode, label_trial, _label, ("uniform",)),
    "general-argument": partial(_session_mode, general_trial, _general, None),
    "calibrate": cmd_calibrate,
    "scaling": cmd_scaling,
    "brute-force": cmd_brute_force,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _usage_errors():  # the constants every mode reads, the files it writes
            get_constants()
            _check_out(args)
        report = MODES[args.mode](args)
    except argparse.ArgumentError as e:
        parser.error(str(e))
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
