"""Command-line parsing, execution, output formats, and determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from evidkit.cli import RunConfig, main, parse_args, run
from evidkit.dataio import format_number, read_observations, render_json
from evidkit.exceptions import DataError, UsageError


@pytest.fixture
def y_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y\n2.0\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def xy_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(30)
    y = 1.0 + 0.5 * x - 0.8 * x**2 + 0.3 * rng.standard_normal(30)
    lines = ["x,y"] + [f"{format_number(a)},{format_number(b)}" for a, b in zip(x, y)]
    path = tmp_path / "xy.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestParseArgs:
    def test_evidence_construction(self, y_csv):
        config = parse_args(["evidence", "--data", y_csv, "--sigma", "1",
                             "--lambda", "1", "--out", "r.json"])
        assert config.command == "evidence"
        assert config.data_path == y_csv
        assert config.output_path == "r.json"
        assert config.format == "json"
        assert config.params["sigma"] == 1.0
        assert config.params["lam"] == 1.0
        assert config.params["estimator"] == "glm-exact"
        assert config.params["seed"] == 0

    def test_degree_range_expansion(self, y_csv):
        config = parse_args(["select", "--degrees", "0..9", "--sigma", "1",
                             "--lambda", "1", "--data", y_csv, "--out", "s.csv",
                             "--format", "csv"])
        assert config.params["degrees"] == tuple(range(10))
        assert config.format == "csv"

    def test_degree_list_and_range_mix(self, y_csv):
        config = parse_args(["select", "--degrees", "0..2,7", "--sigma", "1",
                             "--lambda", "1", "--data", y_csv, "--out", "s.json"])
        assert config.params["degrees"] == (0, 1, 2, 7)

    def test_negative_sigma_rejected(self, y_csv):
        with pytest.raises(UsageError, match="sigma must be positive"):
            parse_args(["evidence", "--data", y_csv, "--sigma", "-1",
                        "--lambda", "1", "--out", "r.json"])

    def test_unknown_key_names_token(self, y_csv):
        with pytest.raises(UsageError, match="--frobnicate"):
            parse_args(["evidence", "--data", y_csv, "--sigma", "1",
                        "--lambda", "1", "--out", "r.json", "--frobnicate", "3"])

    def test_missing_required_key(self, y_csv):
        with pytest.raises(UsageError, match="--out"):
            parse_args(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1"])

    def test_malformed_number_names_argument(self, y_csv):
        with pytest.raises(UsageError, match="--sigma"):
            parse_args(["evidence", "--data", y_csv, "--sigma", "abc",
                        "--lambda", "1", "--out", "r.json"])

    def test_weights_validated(self, y_csv):
        with pytest.raises(UsageError, match="sum"):
            parse_args(["select", "--degrees", "0,1", "--weights", "0.9,0.2",
                        "--sigma", "1", "--lambda", "1", "--data", y_csv,
                        "--out", "s.json"])

    @pytest.mark.parametrize("command, extra", [
        ("select", ["--degrees=-1,0"]),
        ("select", ["--degrees", "0,1,1"]),
        ("select", ["--degrees", "0,1", "--weights", "0.5,0.6"]),
        ("select", ["--degrees", "0,1", "--weights", "nan,nan"]),
        ("select", ["--degrees", "0,1", "--weights", "1.0"]),
        ("risk", ["--degrees", "0,0"]),
        ("risk", ["--degrees", "0,1", "--weights", "0.3,0.3"]),
        ("poly-demo", ["--degrees=-2..1", "--true-degree", "0"]),
    ])
    def test_degree_and_weight_checks_are_usage_errors(self, y_csv, command, extra):
        data = ["--data", y_csv] if command == "select" else ["--n", "10"]
        with pytest.raises(UsageError, match="degrees|weights"):
            parse_args([command, *extra, "--sigma", "1", "--lambda", "1", *data,
                        "--out", "s.json"])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "command" in capsys.readouterr().out

    def test_bic_sweep_theta_default(self):
        config = parse_args(["bic-sweep", "--d", "2", "--ns", "100,1000",
                             "--out", "b.json"])
        assert config.params["theta"] == (1.0, -0.5)
        assert config.params["ns"] == (100, 1000)


class TestReadObservations:
    def test_y_only(self, y_csv):
        obs = read_observations(y_csv)
        assert obs.x is None
        np.testing.assert_allclose(obs.y, [2.0])

    def test_xy(self, xy_csv):
        obs = read_observations(xy_csv)
        assert obs.x is not None and obs.n == 30

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            read_observations(str(path))

    def test_non_numeric_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\noops\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 3"):
            read_observations(str(path))

    def test_comma_decimal_breaks_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1,5\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            read_observations(str(path))


class TestSerialization:
    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(1)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, size=200):
            assert float(format_number(value)) == value

    def test_render_json_round_trips(self):
        payload = {"a": [1, 2.5, None, True], "b": {"c": "text", "d": float("nan")}}
        parsed = json.loads(render_json(payload))
        assert parsed["a"] == [1, 2.5, None, True]
        assert np.isnan(parsed["b"]["d"])


class TestRun:
    def test_evidence_worked_example(self, y_csv, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                     "--out", out])
        assert code == 0
        payload = json.loads(open(out, encoding="utf-8").read())
        assert payload["result"]["log_evidence"] == pytest.approx(-2.265512, abs=1e-6)
        assert payload["result"]["flexibility"] == pytest.approx(0.846574, abs=1e-6)
        assert payload["config"]["params"]["seed"] == 0
        assert payload["diagnostics"]["package"] == "evidkit"

    def test_estimator_variants_agree(self, y_csv, tmp_path):
        values = {}
        for estimator in ("glm-exact", "quadrature", "laplace"):
            out = str(tmp_path / f"{estimator}.json")
            assert main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                         "--estimator", estimator, "--out", out]) == 0
            values[estimator] = json.loads(open(out).read())["result"]["log_evidence"]
        assert values["quadrature"] == pytest.approx(values["glm-exact"], abs=1e-6)
        assert values["laplace"] == pytest.approx(values["glm-exact"], abs=1e-6)

    def test_importance_estimator_runs(self, y_csv, tmp_path):
        out = str(tmp_path / "is.json")
        assert main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                     "--estimator", "importance-sampling", "--samples", "20000",
                     "--seed", "1", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["result"]["log_evidence"] == pytest.approx(-2.265512, abs=0.05)

    def test_fit_and_select_csv(self, xy_csv, tmp_path):
        fit_out = str(tmp_path / "fit.csv")
        assert main(["fit", "--data", xy_csv, "--sigma", "0.3", "--lambda", "1",
                     "--degree", "2", "--out", fit_out, "--format", "csv"]) == 0
        lines = open(fit_out).read().splitlines()
        assert lines[0].startswith("# argv:")
        assert lines[2] == "coefficient,theta_hat,column_scale"
        assert len(lines) == 6

        sel_out = str(tmp_path / "sel.json")
        assert main(["select", "--data", xy_csv, "--degrees", "0..5",
                     "--sigma", "0.3", "--lambda", "1", "--out", sel_out]) == 0
        payload = json.loads(open(sel_out).read())
        assert payload["result"]["chosen_label"] == "degree-2"

    def test_decompose_output(self, tmp_path):
        out = str(tmp_path / "dec.json")
        assert main(["decompose", "--log-evidence", "-2.265512",
                     "--log-fit", "-1.418939", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["result"]["flexibility"] == pytest.approx(0.846573, abs=1e-6)

    def test_mackay_demo_csv_has_two_crossover_rows(self, tmp_path):
        out = str(tmp_path / "mk.csv")
        assert main(["mackay-demo", "--lambda-simple", "10", "--lambda-complex", "0.1",
                     "--out", out, "--format", "csv"]) == 0
        lines = open(out).read().splitlines()
        crossover_rows = [line for line in lines if line.startswith("crossover,")]
        assert len(crossover_rows) == 2
        for row in crossover_rows:
            assert abs(float(row.split(",")[4])) < 1e-8

    def test_risk_and_poly_demo_and_bic_sweep(self, tmp_path):
        risk_out = str(tmp_path / "risk.json")
        assert main(["risk", "--degrees", "1,5", "--n", "60", "--sigma", "0.3",
                     "--lambda", "1", "--reps", "40", "--seed", "2",
                     "--out", risk_out]) == 0
        payload = json.loads(open(risk_out).read())
        assert payload["result"]["risks"][0] < 0.5

        poly_out = str(tmp_path / "poly.json")
        assert main(["poly-demo", "--true-degree", "1", "--degrees", "0..3",
                     "--n", "60", "--sigma", "1", "--lambda", "1", "--reps", "20",
                     "--seed", "8", "--out", poly_out]) == 0
        payload = json.loads(open(poly_out).read())
        assert payload["result"]["modal_degree"] == 1

        sweep_out = str(tmp_path / "sweep.csv")
        assert main(["bic-sweep", "--d", "2", "--ns", "100,1000,10000",
                     "--seed", "13", "--out", sweep_out, "--format", "csv"]) == 0
        lines = open(sweep_out).read().splitlines()
        assert lines[2].split(",")[0] == "n"
        assert len(lines) == 6

    def test_bic_sweep_csv_columns(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["bic-sweep", "--d", "2", "--ns", "100,1000,10000",
                     "--seed", "13", "--out", out, "--format", "csv"]) == 0
        lines = [line for line in open(out).read().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert [row["n"] for row in rows] == [100, 1000, 10000]
        for row in rows:
            assert row["bic_penalty"] == pytest.approx(np.log(row["n"]), rel=1e-15)
            assert row["gap"] == pytest.approx(row["flexibility"] - row["bic_penalty"],
                                               abs=1e-12)

    def test_byte_identical_reruns(self, xy_csv, tmp_path):
        out = str(tmp_path / "a.json")
        args = ["risk", "--degrees", "0,2", "--n", "40", "--sigma", "1",
                "--lambda", "1", "--reps", "30", "--seed", "5", "--out", out]
        assert main(args) == 0
        first = open(out, "rb").read()
        assert main(args) == 0
        assert open(out, "rb").read() == first

    def test_input_file_not_mutated(self, xy_csv, tmp_path):
        digest = hashlib.sha256(open(xy_csv, "rb").read()).hexdigest()
        out = str(tmp_path / "r.json")
        assert main(["evidence", "--data", xy_csv, "--sigma", "1", "--lambda", "1",
                     "--out", out]) == 0
        assert hashlib.sha256(open(xy_csv, "rb").read()).hexdigest() == digest

    def test_no_temp_files_left_behind(self, y_csv, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                     "--out", out]) == 0
        leftovers = [name for name in os.listdir(tmp_path) if "tmp" in name]
        assert leftovers == []

    def test_round_trip_json_config(self, y_csv, tmp_path):
        out = str(tmp_path / "r.json")
        argv = ["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                "--seed", "3", "--out", out]
        config = parse_args(argv)
        assert run(config) == 0
        payload = json.loads(open(out).read())
        replayed = parse_args(payload["config"]["argv"])
        assert replayed == config

    def test_round_trip_csv_comment(self, y_csv, tmp_path):
        out = str(tmp_path / "r.csv")
        argv = ["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                "--out", out, "--format", "csv"]
        config = parse_args(argv)
        assert run(config) == 0
        first_line = open(out).read().splitlines()[0]
        assert first_line.startswith("# argv: ")
        replayed = parse_args(json.loads(first_line[len("# argv: "):]))
        assert replayed == config

    def test_domain_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y\n1.0\nnope\n", encoding="utf-8")
        out = str(tmp_path / "r.json")
        code = main(["evidence", "--data", str(bad), "--sigma", "1", "--lambda", "1",
                     "--out", out])
        assert code == 1
        assert not os.path.exists(out)

    def test_usage_error_exit_code(self, y_csv, capsys):
        code = main(["evidence", "--data", y_csv, "--sigma", "-2", "--lambda", "1",
                     "--out", "r.json"])
        assert code == 2
        assert "sigma must be positive" in capsys.readouterr().err

    def test_config_equality_is_structural(self, y_csv):
        argv = ["fit", "--data", y_csv, "--sigma", "1", "--lambda", "2",
                "--out", "o.json"]
        assert parse_args(argv) == parse_args(list(argv))
        assert isinstance(parse_args(argv), RunConfig)
