"""CLI jobs: reports, exit codes, determinism."""

import json
import math

from quasimap.cli import EXIT_BAD_INPUT, EXIT_CERTIFICATE, EXIT_OK, JobConfig, main, run
from quasimap.exponents import Exponent
from quasimap.series import LogPowerSeries


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

    def test_correct_series_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run(JobConfig(command="verify", alpha="1/2", K=5, out=str(out), tol=1e-8))
        assert code == EXIT_OK

    def test_each_sample_evaluated_once(self, tmp_path, monkeypatch):
        from quasimap.reflection import Extension

        calls = []
        evaluate = Extension.evaluate

        def counted(self, z, use_exact=True):
            calls.append(z)
            return evaluate(self, z, use_exact)

        monkeypatch.setattr(Extension, "evaluate", counted)
        out = tmp_path / "out"
        assert run(JobConfig(command="verify", alpha="1/2", K=5, shells=4, out=str(out), tol=1e-8)) == EXIT_OK
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) == 4 * 64


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


class TestPlumbing:
    def test_unknown_command(self):
        assert run(JobConfig(command="nope")) == EXIT_BAD_INPUT

    def test_missing_input(self):
        assert run(JobConfig(command="analyze")) == EXIT_BAD_INPUT

    def test_negative_depth_exits_4(self, tmp_path, capsys):
        assert main(["expand", "--alpha", "1/2", "--K", "-1", "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert "--K must be >= 0" in capsys.readouterr().err

    def test_zero_precision_exits_4(self, tmp_path, capsys):
        code = run(JobConfig(command="continue", alpha="1/2", K=2, precision=0, out=str(tmp_path / "out")))
        assert code == EXIT_BAD_INPUT
        assert "--precision must be >= 1" in capsys.readouterr().err

    def test_depth_beyond_the_ladder_exits_4(self, tmp_path, capsys):
        # t_K of the alpha = 1/2 ladder leaves the normal doubles after K = 72
        assert main(["expand", "--alpha", "1/2", "--K", "80", "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        assert "the largest admissible K is 72" in capsys.readouterr().err

    def test_sample_radii_underflow_exits_4(self, tmp_path, capsys):
        assert main(["continue", "--alpha", "1/2", "--K", "13", "--out", str(tmp_path / "out")]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "radii c exp(-C sqrt|arg|) underflow" in err and "the largest admissible |arg| is" in err

    def test_main_argv_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["continue", "--alpha", "1/2", "--K", "4", "--out", str(out)]) == EXIT_OK
        assert main(["--command", "continue", "--alpha", "1/2", "--K", "4", "--out", str(out)]) == EXIT_OK

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "out"
        cfg = JobConfig(command="expand", alpha="1/2", K=5, shells=8, out=str(out))
        assert run(cfg) == EXIT_OK
        first = {name: (out / name).read_bytes() for name in ("report.json", "samples.csv", "plot.svg")}
        assert run(cfg) == EXIT_OK
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


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
