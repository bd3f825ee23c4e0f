"""Command-line parsing, execution, output formats, and determinism."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import evidkit.cli
import evidkit.dataio
from evidkit.cli import RunConfig, main, parse_args, run
from evidkit.dataio import _parse_rows, format_number, read_observations, render_json, write_csv
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

    @pytest.mark.parametrize("text, degrees", [
        ("0..2,7", (0, 1, 2, 7)), ("5..5", (5,)), (" 1 .. 3 ,7", (1, 2, 3, 7))])
    def test_degree_list_and_range_mix(self, y_csv, text, degrees):
        config = parse_args(["select", "--degrees", text, "--sigma", "1",
                             "--lambda", "1", "--data", y_csv, "--out", "s.json"])
        assert config.params["degrees"] == degrees

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

    def test_weight_sum_message_is_a_plain_number(self, y_csv, capsys):
        assert main(["select", "--data", y_csv, *_MODEL, "--degrees", "0,1",
                     "--weights", "0.5,0.6", "--out", "s.json"]) == 2
        assert capsys.readouterr().err == (
            "evidkit: usage error: weights sum to 1.1, expected 1 within 1e-12\n")

    def test_negative_seed_message_names_the_argument(self, capsys):
        assert main(["decompose", "--log-evidence", "-2", "--log-fit", "-1",
                     "--seed", "-1", "--out", "d.json"]) == 2
        assert capsys.readouterr().err == (
            "evidkit: usage error: argument --seed: seed must be >= 0\n")

    def test_bic_sweep_theta_default(self):
        config = parse_args(["bic-sweep", "--d", "2", "--ns", "100,1000",
                             "--out", "b.json"])
        assert config.params["theta"] == (1.0, -0.5)
        assert config.params["ns"] == (100, 1000)

    def test_two_parses_build_the_parser_once(self, monkeypatch):
        built = []
        init = evidkit.cli._Parser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(evidkit.cli._Parser, "__init__", counting)
        evidkit.cli._build_parser.cache_clear()  # as if this were the first call in the process
        argv = ["decompose", "--log-evidence", "-2", "--log-fit", "-1", "--out", "d.json"]
        first, second = parse_args(argv), parse_args(argv)
        assert built.count("evidkit") == 1
        assert first == second
        assert (first.command, first.params["log_evidence"]) == ("decompose", -2.0)

    def test_the_built_parser_keeps_no_state_between_calls(self, y_csv, tmp_path, capsys):
        out = tmp_path / "s.json"
        missing_lambda = ["select", "--data", y_csv, "--sigma", "1", "--degrees", "0",
                          "--rule", "max-posterior", "--out", str(out)]

        def usage_error():
            code = main(missing_lambda)
            return code, capsys.readouterr(), out.exists()

        first, second = usage_error(), usage_error()
        assert main(missing_lambda + ["--lambda", "1"]) == 0
        out.unlink()
        capsys.readouterr()
        expected = (2, ("", "evidkit: usage error: the following arguments are required: "
                            "--lambda\n"), False)
        assert first == second == usage_error() == expected


# Files that are not UTF-8, each with the message the reader gives, path aside.
_UNDECODABLE = {
    "lf": ("x,y\n1,2\n3,4 caf\u00e9\n5,6\n".encode("latin-1"),
           "row 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 7: "
           "invalid continuation byte"),
    "crlf": ("x,y\r\n1,2\r\n3,4 caf\u00e9\r\n5,6\r\n".encode("latin-1"),
             "row 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 7: "
             "invalid continuation byte"),
    "cr-only": ("x,y\r1,2\r3,4 caf\u00e9\r5,6\r".encode("latin-1"),
                "row 1: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 15: "
                "invalid continuation byte"),
    "first-line": (b"\xffy\n1\n",
                   "row 1: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte"),
    # The whole file is decoded before any row is parsed, so the bad byte wins over row 2.
    "line-5003": (b"y\nabc\n" + b"1.0\n" * 5000 + b"caf\xe9\n",
                  "row 5003: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 3: "
                  "invalid continuation byte"),
    "cut-1-of-2": (b"y\n1\n\xc3",
                   "row 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xc3 in position 0: "
                   "unexpected end of data"),
    "cut-2-of-3": (b"y\n1\n\xe2\x82",
                   "row 3: not UTF-8 text: 'utf-8' codec can't decode bytes in position 0-1: "
                   "unexpected end of data"),
    "cut-3-of-4": (b"y\n1\n\xf0\x9f\x98",
                   "row 3: not UTF-8 text: 'utf-8' codec can't decode bytes in position 0-2: "
                   "unexpected end of data"),
    "overlong": (b"y\n\xc0\xaf\n",
                 "row 2: not UTF-8 text: 'utf-8' codec can't decode byte 0xc0 in position 0: "
                 "invalid start byte"),
    "surrogate": (b"y\n1\n\xed\xa0\x80\n",
                  "row 3: not UTF-8 text: 'utf-8' codec can't decode byte 0xed in position 0: "
                  "invalid continuation byte"),
}


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

    @pytest.mark.parametrize("text, line", [
        ("x,y\n1,2\n\n3,abc\n", 4),
        ("\n\nx,y\n1,2\n3,abc\n", 5),
    ], ids=["blank-line-between-rows", "two-leading-blank-lines"])
    def test_blank_lines_count_toward_the_row_number(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"row {line}: non-numeric value 'abc'"):
            read_observations(str(path))

    @pytest.mark.parametrize("raw, message", list(_UNDECODABLE.values()), ids=list(_UNDECODABLE))
    def test_not_utf8_names_file_and_line(self, tmp_path, capsys, monkeypatch, raw, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        opened, real_open = [], open

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        with pytest.raises(DataError) as caught:
            read_observations(str(path))
        assert str(caught.value) == f"{path}: {message}"
        assert len(opened) == 1  # the message comes from the decode error, not a second read
        monkeypatch.undo()
        argv = ["fit", "--data", str(path), *_MODEL, "--out", str(tmp_path / "o.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"evidkit: error: {path}: {message}\n"

    def test_comma_decimal_breaks_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y\n1,5\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2"):
            read_observations(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"row 3: non-finite value '{cell}' "
                                                      f"in column y")):
            read_observations(str(path))

    @pytest.mark.parametrize("text", ["y\n", "x,y\n\n\n", "x,y\r\n"])
    def test_header_only_file_warns_nothing(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows$"):
                read_observations(str(path))

    def test_bulk_parse_matches_row_wise_parse(self, tmp_path):
        # Equal doubles bit for bit, or the same error text, on every file.
        differ = []
        for k, text in enumerate(_READER_CORPUS + _generated_corpus(400, seed=5)):
            path = tmp_path / f"c{k}.csv"
            path.write_bytes(text.encode("utf-8"))
            if _outcome(read_observations, str(path)) != _outcome(_row_wise, str(path)):
                differ.append(text)
        assert differ == []

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4\n", "x,y\r\n1,2\r\n3,4", "x,y\r1,2\r3,4\r",
        '"x","y"\n"1", 2 \n\n\t3,"4\n"\n', "\n\ny\n1\n\n2\n", "\ufeffx,y\n1,2\n3,4\n",
    ], ids=["lf", "crlf", "cr", "quoted-and-padded", "blank-lines", "byte-order-mark"])
    def test_clean_file_never_reaches_the_row_wise_parse(self, tmp_path, monkeypatch, text):
        path = tmp_path / "clean.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_row_wise, str(path))
        monkeypatch.setattr(evidkit.dataio, "_parse_rows", _unreachable)
        assert _outcome(read_observations, str(path)) == expected

    def test_a_byte_order_mark_keeps_line_numbers(self, tmp_path):
        # Excel's "CSV UTF-8" export starts with one; rows and byte offsets count as without it.
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,a\n")
        with pytest.raises(DataError, match="row 3: non-numeric value 'a' in column y$"):
            read_observations(str(path))
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,\xff\n")
        with pytest.raises(DataError, match="row 2: not UTF-8 text: 'utf-8' codec can't decode "
                                            "byte 0xff in position 2"):
            read_observations(str(path))

    def test_round_trip_is_bit_exact(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        values = np.ldexp(rng.uniform(-1.0, 1.0, 100_000), rng.integers(-1074, 1024, 100_000))
        lines = ["x,y"] + [f"{v!r},{v:.17g}" for v in values.tolist()]
        path = tmp_path / "round.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(evidkit.dataio, "_parse_rows", _unreachable)
        obs = read_observations(str(path))
        assert obs.x.tobytes() == values.tobytes()
        assert obs.y.tobytes() == values.tobytes()


# Blank lines, line ends, quoting, padding, values only float() takes, non-finite
# values, column counts, comments, a BOM, bad headers and empty files.
_READER_CORPUS = [
    "\n\ny\n1\n\n2\n", "x,y\r\n1,2\r\n\r\n3,4\r\n", "x,y\r1,2\r\r3,4", "y\n1\r2\r\n3\n",
    '"x","y"\n"1","2"\n', '"y"\n"1\n"\n"2\r"\n', '"x\n",y\n1,2\n', 'y\n"1"2\n', 'y\n "1"\n',
    'y\n"1\n2"\n', "x, y \n 1 , 2 \n\t3,4\xa0\n", "y\n  \n1\n", 'y\n""\n', "y\n1_0\n",
    "y\n\u0661\u0662\n", "y\nnan\n", "y\ninf\n", "y\n-Infinity\n", "y\n1e999\n", "y\n-1e-400\n",
    "x,y\n1,\n", "x,y\n1,2,3\n", "x,y\n1\n", "y\n1,5\n", "# note\ny\n1\n", "y\n#1\n",
    "y\n1 # c\n", "\ufeffy\n1\n", "y\n\ufeff1\n", "value\n1\n", "y,x\n1,2\n", ",\n1\n",
    "y\n", "x,y\n\n", "", "\n\r\n", "y\n1\x002\n", "y\n0x10\n",
]
_CELLS = ["1", "-0", ".5", "5.", "+1e5", "1_0", "nan", "inf", "-Infinity", "1e999", "", " ",
          "#1", "abc", "\u0661", '"2"', " 3 ", "\t4\xa0", '"5\n"', '"6"7', '"8', "0x10"]


def _generated_corpus(count, seed):
    """Seeded files mixing clean rows with the corpus's hazards."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        header = str(rng.choice(["y", "x,y", "x,y", " x , y ", '"x","y"', "y,x"]))
        width = header.count(",") + 1
        lines = [""] * int(rng.integers(0, 2)) + [header]
        for _ in range(int(rng.integers(0, 6))):
            cells = [str(rng.choice(_CELLS)) if rng.random() < 0.15
                     else repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
                     for _ in range(width + int(rng.choice([-1, 0, 1], p=[0.05, 0.9, 0.05])))]
            lines += [",".join(cells)] + [""] * int(rng.random() < 0.1)
        ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines), p=[0.6, 0.3, 0.1])
        texts.append("".join(line + end for line, end in zip(lines, ends)))
    return texts


def _row_wise(path):
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        return _parse_rows(path, ((reader.line_num, row) for row in reader if row))


def _outcome(read, path):
    """The parsed doubles as bytes, or the error text."""
    try:
        obs = read(path)
    except DataError as exc:
        return str(exc)
    return obs.y.tobytes(), None if obs.x is None else obs.x.tobytes()


def _unreachable(*args):
    raise AssertionError("the row-wise parse ran on a clean file")


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

    @pytest.mark.parametrize("render, value, text", [
        (render_json, np.array([1.0, 2.5]), "[\n  1,\n  2.5\n]"), (render_json, {}, "{}"),
        (format_number, float("-inf"), "-Infinity"),
    ], ids=["ndarray", "empty-dict", "negative-infinity"])
    def test_edge_values_render(self, render, value, text):
        assert render(value) == text

    @pytest.mark.parametrize("render, value", [
        (render_json, {1.0}), (format_number, True), (format_number, np.bool_(False)),
    ], ids=["set", "bool", "numpy-bool"])
    def test_unrenderable_value_raises_type_error(self, render, value):
        with pytest.raises(TypeError):
            render(value)

    def test_csv_cells_are_quoted_where_needed(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [["x,y", 'say "hi"'], ["two\nlines", None]])
        text = path.read_text(encoding="utf-8")
        assert text == 'a,b\n"x,y","say ""hi"""\n"two\nlines",\n'
        assert list(csv.reader(text.splitlines(keepends=True))) == [
            ["a", "b"], ["x,y", 'say "hi"'], ["two\nlines", ""]]


class TestRun:
    def test_evidence_worked_example(self, y_csv, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                     "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
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
            payload = json.loads(Path(out).read_text(encoding="utf-8"))
            values[estimator] = payload["result"]["log_evidence"]
        assert values["quadrature"] == pytest.approx(values["glm-exact"], abs=1e-6)
        assert values["laplace"] == pytest.approx(values["glm-exact"], abs=1e-6)

    def test_importance_estimator_runs(self, y_csv, tmp_path):
        out = str(tmp_path / "is.json")
        assert main(["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                     "--estimator", "importance-sampling", "--samples", "20000",
                     "--seed", "1", "--out", out]) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        assert payload["result"]["log_evidence"] == pytest.approx(-2.265512, abs=0.05)

    def test_fit_and_select_csv(self, xy_csv, tmp_path):
        fit_out = str(tmp_path / "fit.csv")
        assert main(["fit", "--data", xy_csv, "--sigma", "0.3", "--lambda", "1",
                     "--degree", "2", "--out", fit_out, "--format", "csv"]) == 0
        lines = Path(fit_out).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# argv:")
        assert lines[2] == "coefficient,theta_hat,column_scale"
        assert len(lines) == 6

        sel_out = str(tmp_path / "sel.json")
        assert main(["select", "--data", xy_csv, "--degrees", "0..5",
                     "--sigma", "0.3", "--lambda", "1", "--out", sel_out]) == 0
        payload = json.loads(Path(sel_out).read_text(encoding="utf-8"))
        assert payload["result"]["chosen_label"] == "degree-2"

    def test_decompose_output(self, tmp_path):
        out = str(tmp_path / "dec.json")
        assert main(["decompose", "--log-evidence", "-2.265512",
                     "--log-fit", "-1.418939", "--out", out]) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        assert payload["result"]["flexibility"] == pytest.approx(0.846573, abs=1e-6)

    def test_main_reads_its_arguments_from_the_command_line(self, tmp_path, monkeypatch):
        out = tmp_path / "dec.json"
        monkeypatch.setattr(sys, "argv", ["evidkit", "decompose", "--log-evidence", "-2.265512",
                                          "--log-fit", "-1.418939", "--out", str(out)])
        assert main() == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["result"]["flexibility"] == pytest.approx(0.846573, abs=1e-6)

    def test_mackay_demo_csv_has_two_crossover_rows(self, tmp_path):
        out = str(tmp_path / "mk.csv")
        assert main(["mackay-demo", "--lambda-simple", "10", "--lambda-complex", "0.1",
                     "--out", out, "--format", "csv"]) == 0
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        crossover_rows = [line for line in lines if line.startswith("crossover,")]
        assert len(crossover_rows) == 2
        for row in crossover_rows:
            assert abs(float(row.split(",")[4])) < 1e-8

    def test_risk_and_poly_demo_and_bic_sweep(self, tmp_path):
        risk_out = str(tmp_path / "risk.json")
        assert main(["risk", "--degrees", "1,5", "--n", "60", "--sigma", "0.3",
                     "--lambda", "1", "--reps", "40", "--seed", "2",
                     "--out", risk_out]) == 0
        payload = json.loads(Path(risk_out).read_text(encoding="utf-8"))
        assert payload["result"]["risks"][0] < 0.5

        poly_out = str(tmp_path / "poly.json")
        assert main(["poly-demo", "--true-degree", "1", "--degrees", "0..3",
                     "--n", "60", "--sigma", "1", "--lambda", "1", "--reps", "20",
                     "--seed", "8", "--out", poly_out]) == 0
        payload = json.loads(Path(poly_out).read_text(encoding="utf-8"))
        assert payload["result"]["modal_degree"] == 1

        sweep_out = str(tmp_path / "sweep.csv")
        assert main(["bic-sweep", "--d", "2", "--ns", "100,1000,10000",
                     "--seed", "13", "--out", sweep_out, "--format", "csv"]) == 0
        lines = Path(sweep_out).read_text(encoding="utf-8").splitlines()
        assert lines[2].split(",")[0] == "n"
        assert len(lines) == 6

    def test_bic_sweep_csv_columns(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["bic-sweep", "--d", "2", "--ns", "100,1000,10000",
                     "--seed", "13", "--out", out, "--format", "csv"]) == 0
        lines = [line for line in Path(out).read_text(encoding="utf-8").splitlines()
                 if not line.startswith("#")]
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
        first = Path(out).read_bytes()
        assert main(args) == 0
        assert Path(out).read_bytes() == first

    def test_input_file_not_mutated(self, xy_csv, tmp_path):
        digest = hashlib.sha256(Path(xy_csv).read_bytes()).hexdigest()
        out = str(tmp_path / "r.json")
        assert main(["evidence", "--data", xy_csv, "--sigma", "1", "--lambda", "1",
                     "--out", out]) == 0
        assert hashlib.sha256(Path(xy_csv).read_bytes()).hexdigest() == digest

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
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        replayed = parse_args(payload["config"]["argv"])
        assert replayed == config

    def test_round_trip_csv_comment(self, y_csv, tmp_path):
        out = str(tmp_path / "r.csv")
        argv = ["evidence", "--data", y_csv, "--sigma", "1", "--lambda", "1",
                "--out", out, "--format", "csv"]
        config = parse_args(argv)
        assert run(config) == 0
        first_line = Path(out).read_text(encoding="utf-8").splitlines()[0]
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


# Seeded runs whose result payloads are pinned by sha256: a change that moves
# any reported bit fails here.  The payload is the ``result`` object of a JSON
# output, re-rendered, or a CSV output without its argv and config comments,
# since those name the output path.
GOLDEN_PAYLOADS = {
    "risk-json": (
        "risk --degrees 0..5 --n 100 --sigma 0.3 --lambda 1 --reps 300 --seed 7",
        "613ecd24c433b8586bae2ca10185104dd95cc8366bf79aa8ad443fd2e0aa9da2"),
    "risk-weighted-csv": (
        "risk --degrees 1,5 --weights 0.3,0.7 --n 60 --sigma 0.3 --lambda 1 --reps 200 "
        "--seed 2 --format csv",
        "c8efbf077099ea9aedf94951d32d05b2d3829f7617bc178419b114a0b99b4c8f"),
    "risk-degrees-0-9-json": (
        "risk --degrees 0..9 --n 100 --sigma 0.3 --lambda 1 --reps 200 --seed 11",
        "6a6ed51407f9c15595b49f21b1879405b42386c28adbb91e4d017e762794d2a5"),
    "mackay-demo-csv": (
        "mackay-demo --lambda-simple 10 --lambda-complex 0.1 --format csv",
        "27a5170448a44c168194d306e89a2ceb99247fbff8a7091c9efd5eccea30b712"),
    "mackay-demo-json": (
        "mackay-demo --lambda-simple 10 --lambda-complex 0.1",
        "2d5a4c9e3a3c76c079cb0fd0863f55ffc1deb16748f8ddccafcb59c17555244c"),
    "mackay-demo-sigma-2.7-csv": (
        "mackay-demo --sigma 2.7 --lambda-simple 3 --lambda-complex 0.05 --y-min -60 "
        "--y-max 60 --grid 2001 --format csv",
        "698a50c255be5bfe02454f31ee3d5eba4f59c512aa2095826b843e7b15f0dfed"),
    "poly-demo-json": (
        "poly-demo --true-degree 3 --degrees 0..9 --n 100 --sigma 0.3 --lambda 1 --reps 60 "
        "--seed 4",
        "47a84bd20104c58ee9a23cc56dd8fae7f3a20e3dbca32d2d864395950ebe91dc"),
    "decompose-negative-flexibility-csv": (
        "decompose --log-evidence -3 --log-fit -5 --format csv",
        "a990315414fdab29fdb3e40430f4dabed9b4200ceae5621d6216fb7f806fd2e6"),
    # The paper's flexibility against the (d/2) log n penalty of BIC.
    "bic-sweep-json": (
        "bic-sweep --d 3 --ns 100,1000,10000,100000 --seed 13",
        "169cc55ef97722b17e7fda2c7cd1200f4162557957cf260fda3ce3b385122892"),
    "poly-demo-csv": (
        "poly-demo --true-degree 3 --degrees 0..9 --n 100 --sigma 0.3 --lambda 1 --reps 60 "
        "--seed 4 --format csv",
        "29c0b17eb8cba4b2244689034bcf8d6a55a2a9c4a2c51d362436d855ee208397"),
}

# Commands that read a data file, run beside the seeded ``xy_csv`` fixture.
GOLDEN_DATA_PAYLOADS = {
    "select-weighted-max-posterior-json": (
        "select --data xy.csv --degrees 0..4 --weights 0.1,0.2,0.3,0.2,0.2 "
        "--rule max-posterior --sigma 0.3 --lambda 1",
        "63c2466b9a4c9b7cb509e790f2c983ec950e022aadab8265b9b95b5b23749ef0"),
    "fit-csv": (
        "fit --data xy.csv --degree 2 --sigma 0.3 --lambda 1 --format csv",
        "5d7af8c18ee5b0b9d915249b92f873dd5b1e40986814221f37a192fbe042f59c"),
    "fit-json": (
        "fit --data xy.csv --degree 2 --sigma 0.3 --lambda 1",
        "ffdf4c013e060126012d9c5e869b34dcfbea97b9f7cf865803a3a3ccfbeaf785"),
    "evidence-laplace-json": (
        "evidence --data xy.csv --estimator laplace --degree 1 --sigma 0.3 --lambda 1",
        "f9113f84c53669909ea14bf639a4d0d8457cf8d66b55e0376587108ea8203b52"),
    "evidence-quadrature-json": (
        "evidence --data xy.csv --estimator quadrature --degree 2 --sigma 0.3 --lambda 1",
        "20689b2c492b5c9f2a8f38add1dee4c09f48956f73df2f8f1cf245fa17db07b1"),
    "evidence-importance-sampling-json": (
        "evidence --data xy.csv --estimator importance-sampling --degree 2 --sigma 0.3 "
        "--lambda 1",
        "aca1fd537b64741a0ecefa7072aa32e882efdf0bed459bc41cce89113494df0f"),
    # d = 5, where numpy's Cholesky and LAPACK's potrf round differently: these pin the one
    # routine, potrf, for the Laplace curvature and the importance draws alike.
    "evidence-laplace-degree-4-json": (
        "evidence --data xy.csv --estimator laplace --degree 4 --sigma 0.3 --lambda 1",
        "77c7f5996b57167cb64146793e8f87f979a36597be2d5f237328a6bb60d5cd0e"),
    "evidence-importance-sampling-degree-4-json": (
        "evidence --data xy.csv --estimator importance-sampling --degree 4 --sigma 0.3 "
        "--lambda 1",
        "2fe1b5613b7616f4770cf0117b8028e2a046bac137e7680400cca379d4fd1dda"),
    "evidence-quadrature-csv": (
        "evidence --data xy.csv --estimator quadrature --degree 2 --sigma 0.3 --lambda 1 "
        "--format csv",
        "724e99dd22fb99f1d46cb2120d15ffdc1f80b7855041e6eee3f9d72c0afabfb1"),
    "select-csv": (
        "select --data xy.csv --degrees 0..4 --sigma 0.3 --lambda 1 --format csv",
        "76b39e84361922c533dd0e013c0940dbcc9d7f857b17bb4a0c8d394ecbdf9780"),
}


class TestGoldenPayloads:
    @pytest.mark.parametrize("argv, digest", list(GOLDEN_PAYLOADS.values()),
                             ids=list(GOLDEN_PAYLOADS))
    def test_result_payload_digest(self, argv, digest, tmp_path):
        out = tmp_path / "out"
        argv = argv.split() + ["--out", str(out)]
        assert main(argv) == 0
        text = out.read_text(encoding="utf-8")
        if parse_args(argv).format == "csv":
            payload = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
        else:
            payload = render_json(json.loads(text)["result"])
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", list(GOLDEN_DATA_PAYLOADS.values()),
                             ids=list(GOLDEN_DATA_PAYLOADS))
    def test_data_file_payload_digest(self, argv, digest, xy_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.test_result_payload_digest(argv, digest, tmp_path)

    def test_digests_hold_at_one_blas_thread(self):
        # The goldens above run in this process at whatever thread count BLAS
        # picked; run them again in a fresh process pinned to one thread.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
             "-k", "test_result_payload_digest or test_data_file_payload_digest"],
            cwd=Path(__file__).parent.parent, env=env, capture_output=True, text=True,
            timeout=600)
        assert result.returncode == 0, result.stdout + result.stderr
        passed = len(GOLDEN_PAYLOADS) + len(GOLDEN_DATA_PAYLOADS)
        assert re.search(rf"\b{passed} passed\b", result.stdout), result.stdout


_MODEL = ["--sigma", "1", "--lambda", "1"]
_DATA = ["--data", "unused.csv"]

# Every argv that parse_args rejects: the library's rules, applied at parse
# time through its validators, and the rules only the CLI states.
REJECTED = {
    "fit-sigma-zero": ["fit", *_DATA, "--sigma", "0", "--lambda", "1"],
    "fit-sigma-nan": ["fit", *_DATA, "--sigma", "nan", "--lambda", "1"],
    "fit-lambda-negative": ["fit", *_DATA, "--sigma", "1", "--lambda", "-1"],
    "fit-lambda-inf": ["fit", *_DATA, "--sigma", "1", "--lambda", "inf"],
    "fit-degree-negative": ["fit", *_DATA, *_MODEL, "--degree", "-1"],
    "evidence-sigma-negative": ["evidence", *_DATA, "--sigma", "-1", "--lambda", "1"],
    "evidence-degree-negative": ["evidence", *_DATA, *_MODEL, "--degree", "-2"],
    "evidence-grid-4": ["evidence", *_DATA, *_MODEL, "--grid", "4"],
    "evidence-grid-over-node-limit": ["evidence", *_DATA, *_MODEL, "--grid", "20000001"],
    "evidence-quadrature-grid-40": ["evidence", *_DATA, *_MODEL, "--estimator", "quadrature",
                                    "--grid", "40"],
    "evidence-glm-exact-grid": ["evidence", *_DATA, *_MODEL, "--grid", "41"],
    "evidence-importance-sampling-grid": ["evidence", *_DATA, *_MODEL, "--estimator",
                                          "importance-sampling", "--grid", "41"],
    "evidence-samples-1": ["evidence", *_DATA, *_MODEL, "--samples", "1"],
    "evidence-inflation-zero": ["evidence", *_DATA, *_MODEL, "--inflation", "0"],
    "evidence-inflation-nan": ["evidence", *_DATA, *_MODEL, "--inflation", "nan"],
    "decompose-evidence-inf": ["decompose", "--log-evidence", "inf", "--log-fit", "0"],
    "decompose-fit-nan": ["decompose", "--log-evidence", "0", "--log-fit", "nan"],
    "select-sigma-zero": ["select", *_DATA, "--sigma", "0", "--lambda", "1", "--degrees", "0,1"],
    "select-degrees-repeated": ["select", *_DATA, *_MODEL, "--degrees", "1,1"],
    "select-degrees-negative": ["select", *_DATA, *_MODEL, "--degrees=-1,0"],
    "select-weights-sum": ["select", *_DATA, *_MODEL, "--degrees", "0,1",
                           "--weights", "0.5,0.6"],
    "select-weights-count": ["select", *_DATA, *_MODEL, "--degrees", "0,1", "--weights", "1"],
    "select-weights-not-numbers": ["select", *_DATA, *_MODEL, "--degrees", "0,1",
                                   "--weights", "0.5,x"],
    "select-degrees-empty-entry": ["select", *_DATA, *_MODEL, "--degrees", "0,,2"],
    "select-degrees-range-not-integer": ["select", *_DATA, *_MODEL, "--degrees", "a..3"],
    "select-degrees-range-descending": ["select", *_DATA, *_MODEL, "--degrees", "5..1"],
    "select-degrees-range-open": ["select", *_DATA, *_MODEL, "--degrees", "1.."],
    "select-degrees-not-integer": ["select", *_DATA, *_MODEL, "--degrees", "x"],
    "risk-lambda-zero": ["risk", "--sigma", "1", "--lambda", "0", "--degrees", "0,1",
                         "--n", "10"],
    "risk-n-zero": ["risk", *_MODEL, "--degrees", "0,1", "--n", "0"],
    "risk-reps-zero": ["risk", *_MODEL, "--degrees", "0,1", "--n", "10", "--reps", "0"],
    "risk-rule-unknown": ["risk", *_MODEL, "--degrees", "0,1", "--n", "10",
                          "--rules", "max-evidence,max-likelihood"],
    "poly-demo-true-degree": ["poly-demo", *_MODEL, "--degrees", "0..3",
                              "--true-degree", "4", "--n", "10"],
    "poly-demo-n-zero": ["poly-demo", *_MODEL, "--degrees", "0..3", "--true-degree", "1",
                         "--n", "0"],
    "poly-demo-reps-negative": ["poly-demo", *_MODEL, "--degrees", "0..3",
                                "--true-degree", "1", "--n", "10", "--reps", "-1"],
    "mackay-demo-sigma-zero": ["mackay-demo", "--sigma", "0", "--lambda-simple", "1",
                               "--lambda-complex", "0.1"],
    "mackay-demo-lambda-simple-zero": ["mackay-demo", "--lambda-simple", "0",
                                       "--lambda-complex", "0.1"],
    "mackay-demo-lambda-complex-negative": ["mackay-demo", "--lambda-simple", "1",
                                            "--lambda-complex", "-0.1"],
    "mackay-demo-y-range-empty": ["mackay-demo", "--lambda-simple", "1",
                                  "--lambda-complex", "0.1", "--y-min", "1", "--y-max", "1"],
    "mackay-demo-grid-1": ["mackay-demo", "--lambda-simple", "1", "--lambda-complex", "0.1",
                           "--grid", "1"],
    "bic-sweep-d-zero": ["bic-sweep", "--d", "0", "--ns", "10,100"],
    "bic-sweep-ns-decreasing": ["bic-sweep", "--d", "2", "--ns", "100,10"],
    "bic-sweep-ns-repeated": ["bic-sweep", "--d", "2", "--ns", "10,10"],
    "bic-sweep-ns-zero": ["bic-sweep", "--d", "2", "--ns", "0,5"],
    "bic-sweep-sigma-zero": ["bic-sweep", "--d", "2", "--ns", "10,100", "--sigma", "0"],
    "bic-sweep-lambda-nan": ["bic-sweep", "--d", "2", "--ns", "10,100", "--lambda", "nan"],
    "bic-sweep-theta-length": ["bic-sweep", "--d", "2", "--ns", "10,100", "--theta", "1"],
    "mackay-demo-y-max-inf": ["mackay-demo", "--lambda-simple", "10", "--lambda-complex", "0.1",
                              "--y-max", "inf"],
    "mackay-demo-y-min-nan": ["mackay-demo", "--lambda-simple", "10", "--lambda-complex", "0.1",
                              "--y-min", "nan"],
    "mackay-demo-grid-0": ["mackay-demo", "--lambda-simple", "1", "--lambda-complex", "0.1",
                           "--grid", "0"],
    "mackay-demo-y-span-overflows": ["mackay-demo", "--lambda-simple", "10",
                                     "--lambda-complex", "0.1", "--y-min=-1e308",
                                     "--y-max", "1e308"],
    "fit-seed-negative": ["fit", *_DATA, *_MODEL, "--seed", "-1"],
    "evidence-importance-seed-negative": ["evidence", *_DATA, *_MODEL, "--estimator",
                                          "importance-sampling", "--seed", "-1"],
    "decompose-seed-negative": ["decompose", "--log-evidence", "-2", "--log-fit", "-1",
                                "--seed", "-5"],
    "select-seed-negative": ["select", *_DATA, *_MODEL, "--degrees", "0,1", "--seed", "-1"],
    "risk-seed-negative": ["risk", *_MODEL, "--degrees", "0,1", "--n", "10", "--seed", "-1"],
    "poly-demo-seed-negative": ["poly-demo", *_MODEL, "--degrees", "0..3", "--true-degree", "1",
                                "--n", "10", "--seed", "-1"],
    "mackay-demo-seed-negative": ["mackay-demo", "--lambda-simple", "10", "--lambda-complex",
                                  "0.1", "--seed", "-1"],
    "bic-sweep-seed-negative": ["bic-sweep", "--d", "2", "--ns", "10,100", "--seed", "-1"],
}


# parse_args results for every command, with and without its optional
# arguments: (argv, (data_path, output_path, format), params).  Params are
# compared by repr, so key order and value types (int against float, tuple
# against list) count as well as values.
PARSED = {
    "fit-defaults": ("fit --data d.csv --sigma 0.3 --lambda 1 --out o",
                     ("d.csv", "o", "json"),
                     {"sigma": 0.3, "lam": 1.0, "degree": None, "seed": 0}),
    "fit-all": ("fit --data d.csv --sigma 0.3 --lambda 1 --degree 2 --seed 4 --out o "
                "--format csv",
                ("d.csv", "o", "csv"),
                {"sigma": 0.3, "lam": 1.0, "degree": 2, "seed": 4}),
    "evidence-defaults": ("evidence --data d.csv --sigma 0.3 --lambda 1 --out o",
                          ("d.csv", "o", "json"),
                          {"sigma": 0.3, "lam": 1.0, "degree": None, "estimator": "glm-exact",
                           "grid": None, "samples": 20000, "inflation": 1.5, "seed": 0}),
    "evidence-all": ("evidence --data d.csv --sigma 0.3 --lambda 1 --degree 1 "
                     "--estimator quadrature --grid 51 --samples 300 --inflation 2 --seed 9 "
                     "--out o",
                     ("d.csv", "o", "json"),
                     {"sigma": 0.3, "lam": 1.0, "degree": 1, "estimator": "quadrature",
                      "grid": 51, "samples": 300, "inflation": 2.0, "seed": 9}),
    "decompose-defaults": ("decompose --log-evidence -2.5 --log-fit -1 --out o",
                           (None, "o", "json"),
                           {"log_evidence": -2.5, "log_fit": -1.0, "seed": 0}),
    "decompose-all": ("decompose --log-evidence -2.5 --log-fit -1 --seed 3 --out o --format csv",
                      (None, "o", "csv"),
                      {"log_evidence": -2.5, "log_fit": -1.0, "seed": 3}),
    "select-defaults": ("select --data d.csv --degrees 0..3 --sigma 0.3 --lambda 1 --out o",
                        ("d.csv", "o", "json"),
                        {"sigma": 0.3, "lam": 1.0, "degrees": (0, 1, 2, 3), "weights": None,
                         "rule": "max-evidence", "seed": 0}),
    "select-all": ("select --data d.csv --degrees 0,2 --sigma 0.3 --lambda 1 "
                   "--weights 0.25,0.75 --rule max-posterior --seed 1 --out o",
                   ("d.csv", "o", "json"),
                   {"sigma": 0.3, "lam": 1.0, "degrees": (0, 2), "weights": (0.25, 0.75),
                    "rule": "max-posterior", "seed": 1}),
    "risk-defaults": ("risk --degrees 1,5 --n 40 --sigma 0.3 --lambda 1 --out o",
                      (None, "o", "json"),
                      {"sigma": 0.3, "lam": 1.0, "degrees": (1, 5), "weights": None, "n": 40,
                       "reps": 100, "rules": ("max-evidence", "max-posterior"), "seed": 0}),
    "risk-all": ("risk --degrees 0..2 --n 40 --sigma 0.3 --lambda 1 --reps 7 "
                 "--rules max-posterior --weights 0.5,0.25,0.25 --seed 2 --out o",
                 (None, "o", "json"),
                 {"sigma": 0.3, "lam": 1.0, "degrees": (0, 1, 2), "weights": (0.5, 0.25, 0.25),
                  "n": 40, "reps": 7, "rules": ("max-posterior",), "seed": 2}),
    "poly-demo-defaults": ("poly-demo --true-degree 1 --degrees 0..3 --n 30 --sigma 0.3 "
                           "--lambda 1 --out o",
                           (None, "o", "json"),
                           {"sigma": 0.3, "lam": 1.0, "degrees": (0, 1, 2, 3), "true_degree": 1,
                            "n": 30, "reps": 100, "seed": 0}),
    "poly-demo-all": ("poly-demo --true-degree 1 --degrees 0..3 --n 30 --sigma 0.3 --lambda 1 "
                      "--reps 5 --seed 8 --out o",
                      (None, "o", "json"),
                      {"sigma": 0.3, "lam": 1.0, "degrees": (0, 1, 2, 3), "true_degree": 1,
                       "n": 30, "reps": 5, "seed": 8}),
    "mackay-demo-defaults": ("mackay-demo --lambda-simple 10 --lambda-complex 0.1 --out o",
                             (None, "o", "json"),
                             {"sigma": 1.0, "lambda_simple": 10.0, "lambda_complex": 0.1,
                              "y_min": -25.0, "y_max": 25.0, "grid": 1001, "seed": 0}),
    "mackay-demo-all": ("mackay-demo --sigma 2 --lambda-simple 10 --lambda-complex 0.1 "
                        "--y-min -30 --y-max 30 --grid 101 --seed 5 --out o",
                        (None, "o", "json"),
                        {"sigma": 2.0, "lambda_simple": 10.0, "lambda_complex": 0.1,
                         "y_min": -30.0, "y_max": 30.0, "grid": 101, "seed": 5}),
    "bic-sweep-defaults": ("bic-sweep --d 2 --ns 100,1000 --out o",
                           (None, "o", "json"),
                           {"d": 2, "ns": (100, 1000), "sigma": 1.0, "lam": 1.0,
                            "theta": (1.0, -0.5), "seed": 0}),
    "bic-sweep-all": ("bic-sweep --d 2 --ns 100,1000 --sigma 0.5 --lambda 2 --theta 1,-1 "
                      "--seed 13 --out o",
                      (None, "o", "json"),
                      {"d": 2, "ns": (100, 1000), "sigma": 0.5, "lam": 2.0, "theta": (1.0, -1.0),
                       "seed": 13}),
}


class TestParsedTable:
    @pytest.mark.parametrize("line, routing, params", list(PARSED.values()), ids=list(PARSED))
    def test_parse_args_result(self, line, routing, params):
        argv = line.split()
        config = parse_args(argv)
        assert (config.command, config.argv) == (argv[0], tuple(argv))
        assert (config.data_path, config.output_path, config.format) == routing
        assert repr(config.params) == repr(params)

    def test_readme_command_lines_parse(self):
        """Every ``evidkit`` line of README's command-line block, optional parts dropped."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("evidkit ")]
        assert sorted(line.split()[1] for line in lines) == sorted(
            ["fit", "evidence", "decompose", "select", "risk", "poly-demo", "mackay-demo",
             "bic-sweep"])
        for line in lines:
            parse_args(re.sub(r"\[[^]]*\]", "", line).split()[1:])


class TestRejectedArguments:
    @pytest.mark.parametrize("argv", list(REJECTED.values()), ids=list(REJECTED))
    def test_usage_error_at_parse_time(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = argv + ["--out", str(out)]
        with pytest.raises(UsageError):
            parse_args(argv)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("evidkit: usage error: ")
        assert not out.exists()


# Failures at run time, run beside a y-only ``y.csv`` and a directory
# ``taken``: (argv, the start of stderr).
RUN_TIME_ERRORS = {
    "evidence-degree-needs-x": (
        ["evidence", "--data", "y.csv", *_MODEL, "--degree", "2", "--out", "r.json"],
        "evidkit: error: degree 2 requires an x column in the data file"),
    "missing-data-file": (
        ["fit", "--data", "missing.csv", *_MODEL, "--out", "r.json"],
        "evidkit: error: cannot read missing.csv"),
    "out-is-a-directory": (
        ["fit", "--data", "y.csv", *_MODEL, "--out", "taken"], "evidkit: i/o error: "),
}


class TestRunTimeLibraryErrors:
    @pytest.mark.parametrize("argv, message", list(RUN_TIME_ERRORS.values()),
                             ids=list(RUN_TIME_ERRORS))
    def test_run_time_error_names_its_cause(self, argv, message, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "y.csv").write_text("y\n2.0\n", encoding="utf-8")
        (tmp_path / "taken").mkdir()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(message)
        # No output, and no temporary file left beside it.
        assert sorted(os.listdir(tmp_path)) == ["taken", "y.csv"]
        assert os.listdir(tmp_path / "taken") == []

    @pytest.mark.parametrize("argv", [
        ["mackay-demo", "--lambda-simple", "1", "--lambda-complex", "0.1",
         "--y-min", "0", "--y-max", "0.1", "--grid", "5"],
        ["bic-sweep", "--d", "2", "--ns", "1"],
    ], ids=["mackay-demo-one-preference-region", "bic-sweep-single-observation"])
    def test_value_error_exits_1(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("evidkit: error: ")
        assert not out.exists()

    def test_quadrature_refuses_dimension_above_3_before_searching(
            self, xy_csv, tmp_path, monkeypatch):
        searches = []
        search = evidkit.cli.map_optimize_multistart

        def counting(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(evidkit.cli, "map_optimize_multistart", counting)
        out = tmp_path / "q.json"
        assert main(["evidence", "--data", xy_csv, *_MODEL, "--degree", "3",
                     "--estimator", "quadrature", "--out", str(out)]) == 1
        assert searches == []
        assert not out.exists()

    def test_quadrature_refuses_an_oversized_grid_before_searching(
            self, xy_csv, tmp_path, monkeypatch, capsys):
        searches = []
        search = evidkit.cli.map_optimize_multistart

        def counting(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(evidkit.cli, "map_optimize_multistart", counting)
        out = tmp_path / "q.json"
        assert main(["evidence", "--data", xy_csv, *_MODEL, "--degree", "2",
                     "--estimator", "quadrature", "--grid", "301", "--out", str(out)]) == 1
        assert searches == []
        assert capsys.readouterr().err == (
            "evidkit: error: grid of 301^3 nodes exceeds the 20000000 node limit\n")
        assert not out.exists()

    def test_laplace_refuses_an_oversized_grid_before_searching(
            self, xy_csv, tmp_path, monkeypatch, capsys):
        searches = []
        monkeypatch.setattr(evidkit.cli, "map_optimize_multistart",
                            lambda *args, **kwargs: searches.append(args))
        out = tmp_path / "l.json"
        assert main(["evidence", "--data", xy_csv, *_MODEL, "--degree", "2",
                     "--estimator", "laplace", "--grid", "301", "--out", str(out)]) == 1
        assert searches == []
        assert capsys.readouterr().err == (
            "evidkit: error: grid of 301^3 nodes exceeds the 20000000 node limit\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", [None, "5", "43"])
    def test_laplace_reference_takes_the_given_grid(self, grid, xy_csv, tmp_path):
        out = tmp_path / "l.json"
        argv = ["evidence", "--data", xy_csv, *_MODEL, "--degree", "1",
                "--estimator", "laplace", "--out", str(out)]
        assert main(argv + ([] if grid is None else ["--grid", grid])) == 0
        info = json.loads(out.read_text(encoding="utf-8"))["result"]["info"]
        assert info["grid_points_per_dim"] == (41 if grid is None else int(grid))
