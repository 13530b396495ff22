import argparse
import dataclasses
import os
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from vdo.bench import (
    IdentityTrialSpec,
    OracleTrialSpec,
    Report,
    accept_rate,
    identity_trial,
    make_dist,
    oracle_trial,
    run_trials,
    trial_seed,
)
import vdo
import vdo.bench as bench
import vdo.cli as cli
from vdo.cli import main, parse_dist_spec
from vdo.constants import get_constants, parse_constants, reset_cache
from vdo.dist import exact_histogram, uniform
from vdo.testers import MAX_DOMAIN, max_grains


class TestMakeDist:
    def test_specs(self):
        assert make_dist(("uniform",), 4, 16, 0) == uniform(4, 16)
        assert make_dist(("point", 2), 4, 16, 0).counts == (0, 16, 0, 0)
        two = make_dist(("two-level",), 8, None, 0)
        assert sum(two.counts) == two.grains
        shifted = make_dist(("shift", ("uniform",), "1/4"), 8, 64, 3)
        from conftest import tv_oracle

        assert tv_oracle(shifted, uniform(8, 64)) == F(1, 4)

    def test_file_roundtrip(self, tmp_path):
        d = uniform(8, 64)
        path = tmp_path / "dist.bin"
        path.write_bytes(d.to_bytes())
        assert make_dist(("file", str(path)), 8, None, 0) == d


class TestRunTrials:
    def test_pool_matches_serial(self):
        specs = [
            OracleTrialSpec(16, F(1, 2), ("uniform",), ("uniform",), trial_seed(5, i))
            for i in range(4)
        ]
        serial = run_trials(oracle_trial, specs, jobs=1)
        pooled = run_trials(oracle_trial, specs, jobs=2)
        assert serial == pooled

    def test_identity_trial_runs(self):
        row = identity_trial(
            IdentityTrialSpec(32, F(1, 2), ("uniform",), ("uniform",), 7)
        )
        assert set(row) >= {"accept", "d_samples"}


class TestReport:
    def test_deterministic_text(self):
        def build():
            r = Report("demo")
            r.config("n", 8)
            r.trial(0, {"accept": True, "bytes": 10})
            r.summary("accept_rate", "1.0000")
            r.check("threshold", True)
            return r.to_text()

        assert build() == build()
        assert "result PASS" in build()

    def test_failing_check_fails_report(self):
        r = Report("demo")
        r.check("x", False)
        assert not r.passed

    def test_provenance_embedded(self):
        import vdo
        text = Report("demo").to_text()
        assert f"code_revision={vdo.__version__}" in text
        assert f"constants_version={get_constants().version}" in text

    def test_package_binds_only_its_version_and_submodules(self):
        # names are imported from their modules; the package re-exports none
        import types

        import vdo

        assert isinstance(vdo.__version__, str)
        for name, value in vars(vdo).items():
            if not name.startswith("_"):
                assert isinstance(value, types.ModuleType), name
                assert value.__name__ == f"vdo.{name}"


class TestConstants:
    def test_parse_roundtrip(self):
        c = dataclasses.replace(get_constants(), version=3, c_id=7, eps_floor_coeff=F(1, 7))
        assert parse_constants(c.to_text()) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_constants("nonsense=1\n")

    def test_file_must_name_every_field(self, tmp_path, monkeypatch, capsys):
        # a file naming c_hist alone is refused, with the fields it lacks
        with pytest.raises(ValueError, match="lacks version, c_id, c_tail"):
            parse_constants("c_hist=4\n")
        path = tmp_path / "consts.txt"
        path.write_text("c_hist=4\n")
        monkeypatch.setenv("VDO_CONSTANTS", str(path))
        reset_cache()
        for mode in (["oracle-session", "--n", "64", "--eps", "1/2", "--seed", "7"], ["scaling"]):
            with pytest.raises(SystemExit) as exit_:
                main(["--mode", *mode, "--trials", "2", "--jobs", "1"])
            assert exit_.value.code == 2
            assert "constants file lacks version, c_id" in capsys.readouterr().err
        reset_cache()

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "consts.txt"
        path.write_text(dataclasses.replace(get_constants(), version=42).to_text())
        monkeypatch.setenv("VDO_CONSTANTS", str(path))
        reset_cache()
        assert get_constants().version == 42
        monkeypatch.delenv("VDO_CONSTANTS")
        reset_cache()
        # unset, the packaged file is read again
        packaged = resources.files("vdo").joinpath("constants.txt").read_text()
        assert get_constants() == parse_constants(packaged)

    def test_packaged_constants_are_calibrated(self):
        reset_cache()
        c = get_constants()
        assert c.version >= 1
        assert c.c_id <= 8  # calibration picked a working small coefficient


class TestCli:
    def test_dist_spec_parse(self):
        assert parse_dist_spec("uniform") == ("uniform",)
        assert parse_dist_spec("point:3") == ("point", 3)
        assert parse_dist_spec("shift:uniform:3/10") == ("shift", ("uniform",), "3/10")

    def test_every_adversary_builds_from_cli_flags(self):
        from vdo.adversaries import ADVERSARIES
        from vdo.cli import parse_adversary
        from vdo.dist import GrainDistribution

        q = uniform(4, 16)
        for name in ADVERSARIES:
            spec = parse_adversary(name, [])
            adv = spec.build(q, 1, lambda s: make_dist(s, 4, 16, 1))
            assert adv.strategy == name and adv.q == q
        swap = parse_adversary("backend-swap", ["point:2"]).build(
            q, 1, lambda s: make_dist(s, 4, 16, 1)
        )
        assert isinstance(swap.reveal_q, GrainDistribution)
        assert swap.reveal_q.counts == (0, 16, 0, 0)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_adversary("no-such-strategy", [])

    def test_names_come_from_the_tables(self, capsys):
        from vdo.adversaries import ADVERSARIES
        from vdo.argument import BACKENDS
        from vdo.bench import _label_property
        from vdo.properties import LABEL_INVARIANT

        hist = exact_histogram(uniform(4, 16), F(1, 20))
        assert not _label_property("support-size", ("3",))(hist)  # 1/4 outside 3 elements
        assert _label_property("support-size", ("4",))(hist)
        with pytest.raises(ValueError):
            _label_property("no-such-property", ())
        for flag, table in (
            ("--adversary", ADVERSARIES),
            ("--property", LABEL_INVARIANT),
            ("--backend", BACKENDS),
        ):
            with pytest.raises(SystemExit):
                main(["--mode", "oracle-session", flag, "no-such-name"])
            listed = capsys.readouterr().err.split("choose from ")[1]
            assert all(repr(name) in listed for name in table)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "general-argument", "--n", "32", "--delta-c", "1/10"],
             "distance parameter 1/20 too small for domain 32"),
            (["--mode", "label-invariant", "--n", "32", "--delta-c", "1/20", "--delta-f", "1/10"],
             "distance parameter 11/200 too small for domain 32"),
            (["--mode", "label-invariant", "--n", "32", "--delta-c", "1/2", "--delta-f", "1/4"],
             "need delta_c < delta_f"),
            (["--mode", "oracle-session", "--n", "16", "--eps", "1/100"],
             "distance parameter 1/100 too small for domain 16"),
        ],
        ids=["general-argument", "label-invariant", "label-invariant-deltas", "oracle-session"],
    )
    def test_bad_distance_parameter_is_a_usage_error(self, monkeypatch, capsys, flags, message):
        def no_trials(*args):
            raise AssertionError("no trial may run")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        with pytest.raises(SystemExit) as exit_:
            main(flags + ["--trials", "1", "--jobs", "1"])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "oracle-session", "--kappa", "64"], "security parameter below 128 bits"),
            (["--mode", "oracle-session", "--n", "0"], "domain size must be positive"),
            (["--mode", "oracle-session", "--n", str(MAX_DOMAIN + 1)], "exceeds MAX_DOMAIN"),
            (["--mode", "oracle-session", "--grains", "0"], "denominator must lie in"),
            (["--mode", "oracle-session", "--d-dist", "point:99"], "atom outside domain"),
            (["--mode", "general-argument", "--target", "point:99"], "atom outside domain"),
            (["--mode", "label-invariant", "--property", "support-size"],
             "property support-size: wrong number of parameters"),
            (["--mode", "oracle-session", "--trials", "0"], "need at least one trial"),
            (["--mode", "oracle-session", "--q-dist", "file:/no/such/file"], "No such file"),
            (["--mode", "oracle-session", "--adversary", "inconsistent-opening",
              "--adversary-param", "x"], "Invalid literal for Fraction"),
            (["--mode", "label-invariant", "--property", "support-size",
              "--property-param", "3", "--property-param", "7"],
             "property support-size: wrong number of parameters"),
            (["--mode", "label-invariant", "--property", "uniformity", "--property-param", "9"],
             "property uniformity: wrong number of parameters"),
            (["--mode", "label-invariant", "--property", "support-size",
              "--property-param", "-3"], "support-size bound -3 is negative"),
            (["--mode", "oracle-session", "--adversary", "far-commit",
              "--adversary-param", "1/2"], "adversary takes at most 0 parameter(s), got 1"),
            (["--mode", "oracle-session", "--adversary", "inconsistent-opening",
              "--adversary-param", "1/2", "--adversary-param", "1/3"],
             "adversary takes at most 1 parameter(s), got 2"),
            (["--mode", "general-argument", "--adversary", "backend-swap",
              "--adversary-param", "uniform", "--adversary-param", "point:1"],
             "adversary takes at most 1 parameter(s), got 2"),
            (["--mode", "calibrate", "--trials", "0"], "need at least one trial"),
            (["--mode", "calibrate", "--trials", "-2"], "need at least one trial"),
            (["--mode", "calibrate", "--n", "0"], "domain size must be positive"),
            (["--mode", "scaling", "--trials", "0"], "need at least one trial"),
            (["--mode", "calibrate", "--n", "1"], "no receiver elements available"),
            # uniform pads both past max_grains(8): no honest session could pass
            (["--mode", "oracle-session", "--n", "8", "--grains", str(max_grains(8))],
             "exceeds max_grains(8)"),
            (["--mode", "oracle-session", "--n", "8", "--grains", str(max_grains(8) + 1)],
             "exceeds max_grains(8)"),
            (["--mode", "oracle-session", "--out", "/no/such/dir/report.txt"],
             "cannot write /no/such/dir/report.txt"),
            (["--mode", "calibrate", "--out", "/no/such/dir/cal"], "cannot write /no/such/dir/cal"),
        ],
        ids=["kappa", "n", "n-max-plus-one", "grains", "d-dist", "target", "property-param", "trials", "file",
             "adversary-param", "support-size-two-params", "uniformity-one-param",
             "support-size-negative", "far-commit-one-param", "inconsistent-opening-two-params",
             "backend-swap-two-params", "calibrate-trials", "calibrate-negative-trials",
             "calibrate-n", "scaling-trials", "calibrate-n-one", "grains-max",
             "grains-max-plus-one", "out-dir-missing", "calibrate-out-dir-missing"],
    )
    def test_flags_no_trial_can_run_with_are_usage_errors(
        self, monkeypatch, capsys, flags, message
    ):
        def no_trials(*args):
            raise AssertionError("no trial may run")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        with pytest.raises(SystemExit) as exit_:
            main(["--n", "64", "--trials", "1", "--jobs", "1"] + flags)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "accept, reject, found",
        [(F(1), F(1), True), (F(23, 25), F(1), False), (F(1), F(23, 25), False)],
        ids=["met", "accept-below-margin", "reject-below-margin"],
    )
    def test_calibration_found_only_when_a_candidate_meets_both_targets(
        self, monkeypatch, tmp_path, capsys, accept, reject, found
    ):
        # no trial runs: every candidate reads the patched rates
        def rates(n, epsilon, trials, far_delta, *rest):
            return accept if far_delta is None else 1 - reject

        monkeypatch.setattr(bench, "_calibration_rates", rates)
        out = tmp_path / "cal.txt"
        code = main(["--mode", "calibrate", "--trials", "3", "--jobs", "1", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == (0 if found else 1)
        assert f"check calibration-found {'PASS' if found else 'FAIL'}" in text
        assert ("chosen_c_id=2" in text) == found
        assert (tmp_path / "cal.txt.constants").exists() == found

    def test_oracle_session_mode(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(
            [
                "--mode", "oracle-session", "--n", "32", "--eps", "1/2",
                "--trials", "5", "--seed", "9", "--jobs", "1",
                "--d-dist", "uniform", "--out", str(out),
                "--assert-accept-rate", "3/5",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "mode=oracle-session" in text and "result PASS" in text

    def test_report_byte_identical_across_runs(self, tmp_path):
        args = [
            "--mode", "oracle-session", "--n", "16", "--eps", "1/2",
            "--trials", "3", "--seed", "4", "--jobs", "1",
        ]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threshold_failure_sets_exit_code(self, tmp_path):
        code = main(
            [
                "--mode", "oracle-session", "--n", "16", "--eps", "1/2",
                "--trials", "3", "--seed", "4", "--jobs", "1",
                "--adversary", "selective-refusal", "--adversary-param", "1",
                "--assert-accept-rate", "1/2",
            ]
        )
        assert code == 1

    def test_console_entry_point(self):
        # the child imports the vdo this test imported, from a checkout too
        path = [str(Path(vdo.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "vdo", "--mode", "oracle-session", "--n", "16",
             "--eps", "1/2", "--trials", "2", "--seed", "1", "--jobs", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "result PASS" in proc.stdout
