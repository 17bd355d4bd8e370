"""CLI jobs: reports, exit codes, determinism."""

import csv
import json
import math
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimap.cli import EXIT_BAD_INPUT, EXIT_CERTIFICATE, EXIT_NONCONVERGENCE, EXIT_OK, JobConfig, main, run
from quasimap.exponents import Exponent, parse_exponent
from quasimap.reflection import sample_quadratic_domain
from quasimap.series import LogPowerSeries
from quasimap.surface import QuadraticDomain

SQUARE = [[1, 1], [-1, 1], [-1, -1], [1, -1]]


def slit_disk_json() -> dict:
    seg = {"d": 1, "coeffs": [[0.0, 0.0], [-1.0, 0.0]]}
    seg_neg = {"d": 1, "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
    circle_up = {
        "d": 1,
        "coeffs": [[0.0, 0.0]] + [[(-(1j) ** n / math.factorial(n)).real, (-(1j) ** n / math.factorial(n)).imag] for n in range(1, 9)],
    }
    circle_down = {
        "d": 1,
        "coeffs": [[0.0, 0.0]] + [[(-((-1j) ** n) / math.factorial(n)).real, (-((-1j) ** n) / math.factorial(n)).imag] for n in range(1, 9)],
    }
    two = Exponent(2).to_json()
    one = Exponent(1).to_json()
    return {
        "bounded": True,
        "sites": [
            {"vertex": [0.5, 0.0], "components": [{"arc1": seg, "arc2": seg, "angle_over_pi": two}]},
            {"vertex": [-0.5, 0.0], "components": [{"arc1": seg_neg, "arc2": seg_neg, "angle_over_pi": two}]},
            {"vertex": [1.0, 0.0], "components": [{"arc1": circle_up, "arc2": circle_down, "angle_over_pi": one}]},
        ],
    }


class TestAnalyze:
    def test_slit_disk_report(self, tmp_path):
        inp = tmp_path / "domain.json"
        inp.write_text(json.dumps(slit_disk_json()))
        out = tmp_path / "out"
        code = run(JobConfig(command="analyze", input=str(inp), out=str(out)))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        pts = sorted(p["point"][0] for p in report["singular_points"])
        assert pts == [-0.5, 0.5]
        for p in report["singular_points"]:
            assert p["angles_over_pi"] == [{"irrational_multiples": {}, "rational": [2, 1]}]
        assert (out / "samples.csv").exists() and (out / "plot.svg").exists()
        assert report["config_hash"] and report["version"]

    def test_square_reads_alike_in_every_schema(self, tmp_path):
        # polygon shorthand, flat arcs and sites without angles: four measured angles, snapped to exact 1/2
        vs = [complex(x, y) for x, y in SQUARE]
        arcs, sites = [], []
        for k, w in enumerate(vs):
            pair = [{"coeffs": [[0, 0], [(to - w).real, (to - w).imag]]} for to in (vs[(k + 1) % 4], vs[k - 1])]
            arcs += [dict(a, vertex=[w.real, w.imag]) for a in pair]
            sites.append({"vertex": [w.real, w.imag], "components": [{"arc1": pair[0], "arc2": pair[1]}]})
        found = []
        for name, data in (("polygon", {"polygon": SQUARE}), ("arcs", {"arcs": arcs}), ("sites", {"sites": sites})):
            inp = tmp_path / f"{name}.json"
            inp.write_text(json.dumps(data))
            assert run(JobConfig(command="analyze", input=str(inp), out=str(tmp_path / name))) == EXIT_OK
            found.append(json.loads((tmp_path / name / "report.json").read_text())["singular_points"])
        assert found[0] == found[1] == found[2]
        assert [p["angles_over_pi"] for p in found[0]] == [[{"irrational_multiples": {}, "rational": [1, 2]}]] * 4


class TestContinue:
    def test_model_corner_continuation(self, tmp_path):
        out = tmp_path / "out"
        code = run(JobConfig(command="continue", alpha="sqrt2", K=6, out=str(out)))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["closed_form_check"]["max_abs_error"] < 1e-10
        assert report["tower"]["quad"]["c"] > 0 and report["tower"]["quad"]["C"] > 0
        assert len(report["tower"]["levels"]) == 7


class TestVerifyCommand:
    def test_planted_wrong_series_exits_2_with_witness(self, tmp_path):
        bad = LogPowerSeries.monomial(1.0, "1/3")
        series_path = tmp_path / "bad.json"
        series_path.write_text(json.dumps(bad.to_json()))
        out = tmp_path / "out"
        code = run(
            JobConfig(command="verify", alpha="1/2", R=0.4, series=str(series_path), out=str(out), K=5)
        )
        assert code == EXIT_CERTIFICATE
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "certificate-failed"
        assert report["certificate"]["witness"] is not None

    def test_a_repeated_exponent_is_summed(self, tmp_path):
        # z^(1/2) listed twice with 0.5 each is the model germ's own z^(1/2)
        half = {"exponent": Exponent(Fraction(1, 2)).to_json(), "log_poly": [[0.5, 0.0]]}
        series_path = tmp_path / "twice.json"
        series_path.write_text(json.dumps({"terms": [half, half], "truncation_bound": None}))
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha="1/2", series=str(series_path), out=str(out))) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["certificate"]["passed"]

    @pytest.mark.parametrize("bound, reason", [
        (0.6, r"truncation bound 0\.6 lies below the horizon R = 1\b"),
        (0.3, r"malformed 'series'.*z\^\(1/2\) lies above the series' truncation_bound 0\.3"),
    ])
    def test_a_series_bound_below_the_horizon_is_bad_input(self, tmp_path, bound, reason):
        # z^(1/2) says nothing about the exponents in (bound, R = 1]; below 1/2 the file contradicts itself
        half = {"exponent": Exponent(Fraction(1, 2)).to_json(), "log_poly": [[1.0, 0.0]]}
        series_path = tmp_path / "bounded.json"
        series_path.write_text(json.dumps({"terms": [half], "truncation_bound": bound}))
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha="1/2", series=str(series_path), out=str(out))) == EXIT_BAD_INPUT
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "bad-input"
        assert re.search(reason, report["reason"]), report["reason"]

    def test_the_shells_sample_only_the_built_sheets(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--alpha", "1/2", "--K", "1", "--shells", "30", "--out", str(out)]) == EXIT_OK
        args = [float(row[1]) for row in list(csv.reader((out / "samples.csv").open()))[1:]]
        domain = json.loads((out / "report.json").read_text())["certificate"]["domain"]
        assert domain["max_arg"] == 0.98 * math.pi and max(map(abs, args)) <= domain["max_arg"]

    def test_correct_series_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run(JobConfig(command="verify", alpha="1/2", K=5, out=str(out), tol=1e-8))
        assert code == EXIT_OK
        ladder = json.loads((out / "report.json").read_text())["remainder_ladder"]
        assert ladder["R"] == 1.0 and ladder["T"] > ladder["R"] and ladder["m"] == 5
        assert ladder["log_c_R"] < 0 < ladder["C_R"]

    @pytest.mark.parametrize("alpha, K, log_c_R", [("1/2", 8, -350.6282413610543), ("3/4", 8, -911.6334275387411),
                                                    ("1/2", 72, None)])
    def test_remainder_ladder_in_log_space(self, tmp_path, alpha, K, log_c_R):
        # c_R underflows to 0 for 3/4 at K = 8, and L_hat overflows for 1/2 from K = 51:
        # the report carries every constant as a finite log, valid as strict JSON
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha=alpha, K=K, out=str(out))) == EXIT_OK
        report = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)
        ladder = report["remainder_ladder"]
        assert sorted(ladder) == sorted(["R", "S", "m", "T", "T_bar", "log_L", "M_log", "log_c_R", "C_R", "M_bar_log"])
        assert all(math.isfinite(v) for v in ladder.values())
        if log_c_R is not None:
            assert ladder["log_c_R"] == pytest.approx(log_c_R, rel=1e-12)

    def test_each_sample_evaluated_once(self, tmp_path, monkeypatch):
        from quasimap.reflection import Extension

        calls = []
        evaluate = Extension.evaluate

        def counted(self, pts):
            calls.extend(pts)  # verify evaluates one list of points per shell
            return evaluate(self, pts)

        monkeypatch.setattr(Extension, "evaluate", counted)
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha="1/2", K=5, shells=4, out=str(out), tol=1e-8)) == EXIT_OK
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) == 4 * 64


class TestExpandCommand:
    def test_an_exponent_within_the_horizon_slack_is_reported(self, tmp_path):
        # z^1 lies 5e-13 above the horizon R: within the slack of 1e-12, so it is fitted and reported
        out = tmp_path / "out"
        assert run(JobConfig(command="expand", alpha="1/3", R=0.9999999999995, out=str(out))) == EXIT_OK
        terms = json.loads((out / "report.json").read_text())["series"]["terms"]
        assert [t["exponent"]["rational"] for t in terms] == [[1, 3], [2, 3], [1, 1]]

    @pytest.mark.parametrize(
        "argv",
        [["--alpha", "2", "--shells", "120"], ["--alpha", "sqrt2", "--shells", "120"],
         ["--alpha", "sqrt2", "--K", "2"], ["--alpha", "2", "--K", "2"]],
    )
    def test_the_shells_sample_only_the_built_sheets(self, argv, tmp_path):
        # the inner shells' radii admit arguments past the built sheets; the certified domain's reach stops the fit there
        assert main(["expand", *argv, "--out", str(tmp_path / "out")]) == EXIT_OK


class TestDichotomyCommand:
    def test_planted_log_term_flags(self, tmp_path):
        s2 = Exponent.generator("sqrt2")
        g = LogPowerSeries.monomial(1.0, s2) + LogPowerSeries.monomial(1e-3, s2 * 2, log_degree=1)
        series_path = tmp_path / "series.json"
        series_path.write_text(json.dumps(g.to_json()))
        out = tmp_path / "out"
        code = run(
            JobConfig(command="dichotomy", series=str(series_path), angle_class="irrational", out=str(out), tol=1e-8)
        )
        assert code == EXIT_CERTIFICATE
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "dichotomy-violation"
        assert len(report["offending_terms"]) == 1


class TestScSolveCommand:
    def test_square(self, tmp_path):
        inp = tmp_path / "poly.json"
        inp.write_text(
            json.dumps({"polygon": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "angles_over_pi": ["1/2"] * 4})
        )
        out = tmp_path / "out"
        code = run(JobConfig(command="sc-solve", input=str(inp), out=str(out)))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["prevertices"]) == 4
        assert report["residual"] < 1e-10
        assert report["angles_over_pi"] == [{"irrational_multiples": {}, "rational": [1, 2]}] * 4

    def test_irrational_triangle(self, tmp_path):
        # angles (sqrt2/4, 1/2, 1/2 - sqrt2/4) pi, read as text and written in the exponent-object form
        inp = tmp_path / "poly.json"
        vertices = [[0, 0], [1, 0], [1, math.tan(math.sqrt(2) * math.pi / 4)]]
        inp.write_text(json.dumps({"vertices": vertices, "angles_over_pi": ["1/4*sqrt2", "1/2", "1/2+-1/4*sqrt2"]}))
        out = tmp_path / "out"
        assert run(JobConfig(command="sc-solve", input=str(inp), out=str(out))) == EXIT_OK
        angles = json.loads((out / "report.json").read_text())["angles_over_pi"]
        want = [parse_exponent(a) for a in ("1/4*sqrt2", "1/2", "1/2+-1/4*sqrt2")]
        assert [Exponent.from_json(a) for a in angles] == want
        assert angles[0] == {"rational": [0, 1], "irrational_multiples": {"sqrt2": [1, 4]}}

    @pytest.mark.parametrize("angles", [[[1, 2]] * 4, [0.5] * 4], ids=["pairs", "numbers"])
    def test_pairs_and_json_numbers_are_read_exactly(self, angles, tmp_path):
        inp = tmp_path / "poly.json"
        inp.write_text(json.dumps({"polygon": SQUARE, "angles_over_pi": angles}))
        out = tmp_path / "out"
        assert run(JobConfig(command="sc-solve", input=str(inp), out=str(out))) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["angles_over_pi"][0]["rational"] == [1, 2]

    def test_overflowing_trial_step_is_rejected_without_warnings(self, tmp_path):
        # a thin rectangle: the damped Newton steps overflow the prevertex gaps
        inp = tmp_path / "poly.json"
        inp.write_text(
            json.dumps({"polygon": [[3, 0.1], [-3, 0.1], [-3, -0.1], [3, -0.1]], "angles_over_pi": ["1/2"] * 4})
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(JobConfig(command="sc-solve", input=str(inp), out=str(out)))
        assert code == EXIT_NONCONVERGENCE
        assert json.loads((out / "report.json").read_text())["status"] == "nonconvergence"


    def test_a_weight_exponent_of_minus_one_exits_4(self, tmp_path):
        # alpha = 1e-60 is in (0, 2] exactly, but alpha - 1 is -1 as a double, where Gauss-Jacobi rules stop
        vertices = [[0, 0], [1, 0], [1, math.tan(1e-60 * math.pi)]]
        inp = tmp_path / "thin.json"
        inp.write_text(json.dumps({"vertices": vertices, "angles_over_pi": ["1e-60", "1/2", "1/2+-1e-60"]}))
        out = tmp_path / "out"
        assert run(JobConfig(command="sc-solve", input=str(inp), out=str(out))) == EXIT_BAD_INPUT
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "bad-input" and "vertex 0" in report["reason"] and "above -1" in report["reason"]


class TestGeneratorRegistry:
    @staticmethod
    def _analyze(tmp_path, generators: dict) -> int:
        arcs = [{"vertex": [0, 0], "coeffs": [[0, 0], [1, 0]]}, {"vertex": [0, 0], "coeffs": [[0, 0], [0, 1]]}]
        inp = tmp_path / "domain.json"
        inp.write_text(json.dumps({"arcs": arcs, "irrational_generators": generators}))
        return run(JobConfig(command="analyze", input=str(inp), out=str(tmp_path / "out")))

    def test_redefining_a_builtin_exits_4_and_keeps_it(self, tmp_path, capsys):
        assert self._analyze(tmp_path, {"sqrt2": "1.5"}) == EXIT_BAD_INPUT
        assert "'sqrt2'" in capsys.readouterr().err
        assert parse_exponent("sqrt2").value() == 1.4142135623730951

    def test_sites_declare_the_generators_their_angles_use(self, tmp_path):
        angle = {"rational": [0, 1], "irrational_multiples": {"cli_sites_gen": [1, 2]}}
        arc1, arc2 = {"coeffs": [[0, 0], [1, 0]]}, {"coeffs": [[0, 0], [0, 1]]}
        site = {"vertex": [0, 0], "components": [{"arc1": arc1, "arc2": arc2, "angle_over_pi": angle}]}
        inp = tmp_path / "domain.json"
        inp.write_text(json.dumps({"sites": [site], "irrational_generators": {"cli_sites_gen": "1.0625"}}))
        assert run(JobConfig(command="analyze", input=str(inp), out=str(tmp_path / "out"))) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["singular_points"][0]["angles_over_pi"] == [angle]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_a_generator_that_is_not_finite_exits_4(self, value, tmp_path, capsys):
        assert self._analyze(tmp_path, {"cli_not_finite": value}) == EXIT_BAD_INPUT
        assert "'irrational_generators'" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "bad-input" and "'irrational_generators'" in report["reason"]
        # the name stays undeclared, so it reads as a malformed number
        with pytest.raises(ValueError):
            parse_exponent("cli_not_finite")

    @pytest.mark.parametrize("value", ["1/3", True])
    def test_a_generator_of_rational_value_exits_4(self, value, tmp_path, capsys):
        assert self._analyze(tmp_path, {"cli_rational_gen": value}) == EXIT_BAD_INPUT
        assert "'irrational_generators'" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "bad-input" and "'irrational_generators'" in report["reason"]
        assert "'cli_rational_gen'" in report["reason"]

    def test_same_value_and_new_names_still_declare(self, tmp_path):
        same = "1.41421356237309504880168872420969807856967187537694807317667973799"
        assert self._analyze(tmp_path, {"sqrt2": same, "cli_registry_gen": "1.2345"}) == EXIT_OK
        assert self._analyze(tmp_path, {"cli_registry_gen": "1.2345"}) == EXIT_OK
        assert parse_exponent("cli_registry_gen").value() == 1.2345
        assert parse_exponent("sqrt2").value() == 1.4142135623730951


class TestPlumbing:
    def test_unknown_command(self, tmp_path):
        out = tmp_path / "out"
        assert run(JobConfig(command="nope", out=str(out))) == EXIT_BAD_INPUT
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "bad-input" and report["reason"] == "unknown command 'nope'"

    def test_missing_input(self, tmp_path):
        assert run(JobConfig(command="analyze", out=str(tmp_path / "out"))) == EXIT_BAD_INPUT

    def test_bad_input_with_an_unwritable_out_exits_4(self, tmp_path, capsys):
        # --out names a file: the bad-input report cannot be written, and the exit stays 4
        out = tmp_path / "taken"
        out.write_text("")
        assert run(JobConfig(command="expand", alpha="1/2", R=0.1, out=str(out))) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "bad input: horizon R = 0.1 is below alpha = 0.5" in err and "no report written" in err

    def test_negative_depth_exits_4(self, tmp_path, capsys):
        assert main(["expand", "--alpha", "1/2", "--K", "-1", "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert "--K must be >= 0" in capsys.readouterr().err

    def test_depth_beyond_the_ladder_exits_4(self, tmp_path, capsys):
        # t_K of the alpha = 1/2 ladder leaves the normal doubles after K = 72
        assert main(["expand", "--alpha", "1/2", "--K", "80", "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert "the largest admissible K is 72" in capsys.readouterr().err

    def test_continue_samples_within_the_sample_radii(self, tmp_path):
        # at K = 13 the sheets reach past the |arg| where the sample radii underflow
        out = tmp_path / "out"
        assert main(["continue", "--alpha", "1/2", "--K", "13", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["closed_form_check"]["max_abs_error"] < 1e-10
        quad = QuadraticDomain(**report["tower"]["quad"])
        with pytest.raises(ValueError) as info:
            sample_quadratic_domain(quad, 8, 0, max_abs_arg=quad.max_arg)
        err = str(info.value)
        assert "radii c exp(-C sqrt|arg|) underflow" in err and "the largest admissible |arg| is" in err

    def test_main_argv_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["continue", "--alpha", "1/2", "--K", "4", "--out", str(out)]) == EXIT_OK

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "out"
        cfg = JobConfig(command="expand", alpha="1/2", K=5, shells=8, out=str(out))
        assert run(cfg) == EXIT_OK
        first = {name: (out / name).read_bytes() for name in ("report.json", "samples.csv", "plot.svg")}
        assert run(cfg) == EXIT_OK
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


class TestDepthZero:
    """At K = 0 only the germ's sheet [0, pi] is built: the jobs sample it one-sided, up to 0.98 pi."""

    ALPHAS = ["1/3", "1/2", "2/3", "3/4", "3/2", "sqrt2", "golden"]

    @staticmethod
    def _args(out) -> list:
        return [float(row[1]) for row in list(csv.reader((out / "samples.csv").open()))[1:]]

    @pytest.mark.parametrize("command", ["expand", "verify"])
    @pytest.mark.parametrize("alpha", ALPHAS + ["2"])
    def test_expand_and_verify_pass(self, command, alpha, tmp_path):
        out = tmp_path / "out"
        assert main([command, "--alpha", alpha, "--K", "0", "--out", str(out)]) == EXIT_OK
        if command == "verify":
            args = self._args(out)
            assert 0.0 <= min(args) and max(args) <= 0.98 * math.pi

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dichotomy_stays_on_the_germs_sheet(self, alpha, tmp_path):
        out = tmp_path / "out"
        code = main(["dichotomy", "--alpha", alpha, "--K", "0", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert code == EXIT_OK or code == EXIT_BAD_INPUT and "tower" not in report["reason"], report

    def test_continue_samples_across_the_germs_sheet(self, tmp_path):
        out = tmp_path / "out"
        assert main(["continue", "--alpha", "1/2", "--K", "0", "--out", str(out)]) == EXIT_OK
        args = self._args(out)
        assert len(set(args)) == 512 and 0.0 <= min(args) < 0.1 and 0.9 * math.pi < max(args) <= 0.98 * math.pi
        assert json.loads((out / "report.json").read_text())["closed_form_check"]["max_abs_error"] < 1e-12


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["expand", "--alpha", "1/2", "--R", "inf"], "--R must be finite and > 0"),
            (["expand", "--alpha", "1/2", "--R", "nan"], "--R must be finite and > 0"),
            (["dichotomy", "--alpha", "sqrt2", "--R", "1e6"], "samples cannot determine them"),
            (["verify", "--alpha", "1/2", "--R", "1e6"], "rho^R underflows"),
            (["verify", "--alpha", "1/2", "--tol", "nan"], "--tol must be finite and > 0"),
            (["verify", "--alpha", "1/2", "--tol", "-1"], "--tol must be finite and > 0"),
            (["expand", "--alpha", "1/2", "--shells", "0"], "--shells must be >= 1"),
            (["expand", "--alpha", "1/2", "--shells", "1100"], "1100 shells from rho0"),
            (["dichotomy", "--alpha", "1/2", "--shells", "1100"], "1100 shells from rho0"),
            (["expand", "--alpha", "1/0"], "zero denominator in exponent '1/0'"),
            (["dichotomy", "--alpha", "1/2", "--angle-class", "irational"],
             "--angle-class must be rational or irrational, got 'irational'"),
            (["expand", "--alpha", "1/2", "--R", "0.1"], "horizon R = 0.1 is below alpha = 0.5"),
            (["dichotomy", "--alpha", "1/2", "--R", "0.1"], "the lattice has no exponent up to R"),
            (["expand", "--alpha", "1/2", "--R", "15", "--shells", "1"],
             "the deeper half of 64 samples cannot determine 33 coefficients"),
            (["expand", "--alpha", "1/2", "--seed", "-1"], "--seed must be >= 0"),
            (["continue", "--alpha", "1/2", "--seed", "-1"], "--seed must be >= 0"),
        ],
    )
    def test_bad_flag_exits_4(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err
        # strict JSON: a non-finite flag such as --tol nan is written as its string
        report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=pytest.fail)
        assert report["status"] == "bad-input" and message in report["reason"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["expand", "--alpha", "1/2", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["expand", "--alpha", "1/2", "--precision", "5"], "unrecognized arguments: --precision 5"),
            (["expand", "--alpha", "1/2", "--K", "abc"], "argument --K: invalid int value: 'abc'"),
            (["--K", "abc", "expand", "--alpha", "1/2"], "argument --K: invalid int value: 'abc'"),
        ],
    )
    def test_a_flag_the_parser_refuses_exits_4(self, argv, message, tmp_path, monkeypatch, capsys):
        # not argparse's exit 2, the certificate-failure code: a bad-input report, at --out or at the default out
        monkeypatch.chdir(tmp_path)
        for out in (str(tmp_path / "given"), "out"):
            assert main(argv + (["--out", out] if out != "out" else [])) == EXIT_BAD_INPUT
            assert f"bad input: {message}" in capsys.readouterr().err
            report = json.loads((tmp_path / out / "report.json").read_text())
            assert report["status"] == "bad-input" and report["reason"] == message
            assert report["config"]["command"] == "expand" and report["config"]["out"] == out

    def test_help_exits_0_and_a_missing_command_4_without_a_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0 and "--precision" not in capsys.readouterr().out
        assert main(["--K", "3"]) == EXIT_BAD_INPUT
        assert "missing command" in capsys.readouterr().err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("sc-solve", {"polygon": SQUARE, "angles_over_pi": ["1/2"] * 3 + [[1, 0]]}, "'angles_over_pi'"),
            ("sc-solve", {"polygon": SQUARE, "angles_over_pi": ["1/2"] * 3 + [None]}, "'angles_over_pi'"),
            ("sc-solve", {"polygon": [["a", 1]] + SQUARE[1:], "angles_over_pi": ["1/2"] * 4}, "'polygon'"),
            ("sc-solve", [SQUARE], "polygon JSON must be an object"),
            ("sc-solve", {"polygon": [[1, 1], [1, 1], [-1, -1], [1, -1]], "angles_over_pi": ["1/2"] * 4},
             "consecutive vertices must be distinct"),
            ("analyze", {"arcs": [{"vertex": [0, 0], "coeffs": 5}]}, "'arcs'"),
            ("analyze", {"sites": [{"vertex": [0, 0], "components": [{"arc1": {"coeffs": 5}}]}]}, "'sites'"),
            ("analyze", [{"polygon": SQUARE}], "domain JSON must be an object"),
            ("analyze", {"polygon": [[math.nan, 1]] + SQUARE[1:]}, "holds NaN, which is not a finite double"),
            ("analyze", {"bounded": False, "polygon": SQUARE}, "'bounded' must be true"),
            ("analyze", {"sites": [{"vertex": [0, 0], "at_infinity": True, "components": []}]},
             "'at_infinity' must be false"),
            ("analyze", {"polygon": SQUARE[::-1]}, "must run counterclockwise"),
            ("sc-solve", {"polygon": SQUARE[::-1], "angles_over_pi": ["1/2"] * 4}, "must run counterclockwise"),
            ("sc-solve", {"polygon": SQUARE, "angles_over_pi": ["1/2"] * 3 + [[1, 2, 3]]}, "'angles_over_pi'"),
            ("sc-solve", {"polygon": SQUARE, "angles_over_pi": ["1/2"] * 3 + [[True, 2]]}, "'angles_over_pi'"),
            ("sc-solve", {"polygon": SQUARE, "angles_over_pi": ["1/2"] * 3 + [True]}, "'angles_over_pi'"),
        ],
    )
    def test_malformed_json_exits_4(self, command, data, message, tmp_path, capsys):
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps(data))
        assert run(JobConfig(command=command, input=str(inp), out=str(tmp_path / "out"))) == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "bad-input" and message in report["reason"]

    @pytest.mark.parametrize(
        "term, message",
        [
            ({"exponent": {"rational": [1, 2]}, "log_poly": 5}, "'int' object is not iterable"),
            ({"exponent": [1, 2], "log_poly": [[1.0, 0.0]]}, "list indices must be integers"),
            (None, "'int' object is not iterable"),
        ],
    )
    def test_malformed_series_exits_4(self, term, message, tmp_path, capsys):
        series_path = tmp_path / "series.json"
        series_path.write_text(json.dumps({"terms": 3} if term is None else {"terms": [term]}))
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha="1/2", series=str(series_path), out=str(out))) == EXIT_BAD_INPUT
        assert f"malformed 'series': TypeError: {message}" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "bad-input" and "'series'" in report["reason"]


# JSON-shaped inputs near the two schemas: real fields with fuzzed contents.
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "3/2", "1/0", "sqrt2", "", "x"]),
)
_value = st.recursive(
    _leaf, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_pair = st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3)), min_size=2, max_size=2)
_points = st.one_of(st.lists(_pair, min_size=3, max_size=5), st.just(SQUARE), _value)
_angle = st.one_of(st.sampled_from(["1/2", "3/2", "1/3", "2", "0", "-1"]), st.fractions(-2, 3).map(str),
                   st.lists(st.integers(-3, 3), min_size=2, max_size=2), _leaf)
_polygon = st.builds(
    lambda key, vertices, angles: {key: vertices, "angles_over_pi": angles},
    st.sampled_from(["polygon", "vertices"]),
    _points,
    st.one_of(st.lists(_angle, min_size=3, max_size=5), st.just(["1/2"] * 4), _value),
)
_arc = st.fixed_dictionaries(
    {"coeffs": st.one_of(st.lists(_pair, min_size=1, max_size=3), _value)},
    optional={"d": _value, "vertex": st.one_of(_pair, _value), "m": _value, "angle_over_pi": _angle},
)
_component = st.fixed_dictionaries({"arc1": _arc, "arc2": _arc}, optional={"angle_over_pi": _angle})
_site = st.fixed_dictionaries({"vertex": st.one_of(_pair, _value), "components": st.lists(_component, max_size=2)})
_domain = st.one_of(
    st.fixed_dictionaries({"polygon": _points}),
    st.fixed_dictionaries({"arcs": st.one_of(st.lists(_arc, max_size=4), _value)}),
    st.fixed_dictionaries({"sites": st.lists(_site, max_size=2)}),
    _value,
)


@settings(max_examples=150)
@given(command=st.sampled_from(["analyze", "sc-solve"]), data=st.data())
def test_fuzzed_json_ends_in_a_documented_exit_code(tmp_path_factory, command, data):
    inp = tmp_path_factory.mktemp("fuzz") / "input.json"
    inp.write_text(json.dumps(data.draw(_domain if command == "analyze" else _polygon)))
    code = run(JobConfig(command=command, input=str(inp), out=str(inp.parent / "out")))
    assert code in (EXIT_OK, EXIT_CERTIFICATE, EXIT_NONCONVERGENCE, EXIT_BAD_INPUT)


class TestNonConvergenceExit:
    def test_exit_code_3(self, tmp_path, monkeypatch):
        import quasimap.cli as cli_mod
        from quasimap.errors import NonConvergence

        def stall(*args, **kwargs):
            raise NonConvergence(0.5)

        monkeypatch.setattr(cli_mod, "solve_sc", stall)
        inp = tmp_path / "poly.json"
        inp.write_text(
            json.dumps({"polygon": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "angles_over_pi": ["1/2"] * 4})
        )
        out = tmp_path / "out"
        code = run(JobConfig(command="sc-solve", input=str(inp), out=str(out)))
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "nonconvergence"


class TestNonFiniteSampleExit:
    @pytest.mark.parametrize("command", ["expand", "verify", "dichotomy"])
    def test_a_nan_sample_exits_4_naming_it(self, tmp_path, monkeypatch, capsys, command):
        from quasimap.reflection import Extension

        evaluate = Extension.evaluate

        def planted(self, pts):
            values = evaluate(self, pts)
            values[5] = complex(math.nan, 0.0)
            return values

        monkeypatch.setattr(Extension, "evaluate", planted)
        out = tmp_path / "out"
        assert run(JobConfig(command=command, alpha="1/2", K=5, shells=4, out=str(out))) == EXIT_BAD_INPUT
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "bad-input"
        assert report["reason"].startswith("the sampled function f is (nan+0j) at sample 5, LPoint(")
        assert report["reason"] in capsys.readouterr().err
