import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import permz
from permz.cli import _parse_orders, main, read_series, write_series
from permz.errors import DataError, ValidationError


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, buf.getvalue()


def read_csv_text(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- series files -------------------------------------------------------------

def test_series_file_round_trip(tmp_path):
    path = tmp_path / "series.txt"
    x = np.array([1.0, -2.5, 3.3e-7, 0.1 + 0.2])
    write_series(str(path), x)
    assert np.array_equal(read_series(str(path)), x)


def test_read_series_comments_and_errors(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n1.0\n\n2.0 # trailing comment\n")
    assert np.array_equal(read_series(str(path)), [1.0, 2.0])
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(DataError):
        read_series(str(bad))
    with pytest.raises(DataError):
        read_series(str(tmp_path / "missing.txt"))


def reference_read_series(path: str) -> np.ndarray:
    """The line-by-line reader that ``read_series`` replaced, kept as its
    oracle; the only change is the explicit UTF-8 encoding."""
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: not a number: {text!r}"
                    ) from None
    except OSError as exc:
        raise DataError(f"cannot read series file {path}: {exc}") from exc
    if not values:
        raise DataError(f"series file {path} contains no samples")
    return np.array(values, dtype=np.float64)


def reference_write_values(fh, series: np.ndarray) -> None:
    """The per-value writer that ``write_series`` replaced, kept as its oracle."""
    for v in series:
        fh.write(f"{v:.17g}\n")


def _outcome(read, path):
    try:
        return read(path).tobytes()
    except DataError as exc:
        return type(exc), str(exc)


_LINES = st.one_of(
    st.floats().map("{:.17g}".format),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([
        "", " ", "\t \x0b\x0c", "\u3000", "\x85", "\x1c", "1.5\x1c", "\x1f-2",
        "# comment", "3.25 # trailing", "#", "1.0 2.0", "1,5", "abc", "0x10",
        "1_000.5", "_1", "1__0", "nan", "-NaN", "inf", "-Infinity", "+iNF",
        "infinit", "1e", "٣.٥", " 7 ", "\x00",
    ]),
    st.text(alphabet="0123456789.eE+-_# \t\x1cnaif", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans())
def test_read_series_matches_the_line_reader(lines, newline, final):
    text = newline.join(lines) + (newline if final and lines else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.txt")
        Path(path).write_bytes(text.encode("utf-8"))
        assert _outcome(read_series, path) == _outcome(reference_read_series, path)


_DOUBLES = st.lists(st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan, 0.1 + 0.2]),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(values=_DOUBLES)
def test_series_bytes_match_the_per_value_writer(values):
    x = np.array(values, dtype=np.float64)
    expected = io.StringIO()
    reference_write_values(expected, x)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.txt")
        write_series(path, x)
        assert Path(path).read_bytes() == expected.getvalue().encode("ascii")
        back = read_series(path)
    nan = np.isnan(x)
    assert np.isnan(back[nan]).all()
    assert back[~nan].tobytes() == x[~nan].tobytes()  # -0.0 and subnormals too

    with patch("permz.cli.generate", lambda spec: x):  # stdout, same formatter
        code, out = run_cli("generate", "--process", "white-noise",
                            "--length", str(x.size))
    assert code == 0 and out == expected.getvalue()


def test_non_utf8_series_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1.0\n\xff\xfe2.0\n")
    with pytest.raises(DataError, match="cannot read series file"):
        read_series(str(path))
    code, out = run_cli("census", "--input", str(path), "--order", "2")
    assert code == 3 and out == ""
    assert f"cannot read series file {path}" in capsys.readouterr().err


def test_read_series_reports_the_bad_line(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n1.0\n\n1.0 2.0  # two values\n")
    with pytest.raises(DataError) as exc:
        read_series(str(path))
    assert str(exc.value) == f"{path}:4: not a number: '1.0 2.0'"
    path.write_text("1.0\x1c\n# only\n2\n")  # str.strip drops \x1c, float does not
    assert read_series(str(path)).tolist() == [1.0, 2.0]


def test_importing_the_cli_starts_no_pool_machinery():
    # concurrent.futures loads logging, a start-up cost only a pool may pay
    src = os.path.dirname(os.path.dirname(permz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permz.cli; "
         "print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "False\n"


# -- generate -----------------------------------------------------------------

def test_generate_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        code, _ = run_cli("generate", "--process", "white-noise",
                          "--length", "1000", "--seed", "7",
                          "--output", str(out))
        assert code == 0
    assert out1.read_text() == out2.read_text()
    assert len(out1.read_text().splitlines()) == 1000
    sidecar = json.loads((tmp_path / "a.txt.json").read_text())
    assert sidecar["command"] == "generate"
    assert sidecar["options"]["seed"] == 7
    assert sidecar["options"]["process"] == "white-noise"
    assert "version" in sidecar


def test_generate_fbm_matches_cumsum_of_fgn(tmp_path):
    f_bm, f_gn = tmp_path / "bm.txt", tmp_path / "gn.txt"
    run_cli("generate", "--process", "fbm", "--hurst", "0.6",
            "--length", "4096", "--seed", "1", "--output", str(f_bm))
    run_cli("generate", "--process", "fgn", "--hurst", "0.6",
            "--length", "4096", "--seed", "1", "--output", str(f_gn))
    bm = read_series(str(f_bm))
    gn = read_series(str(f_gn))
    assert np.allclose(bm, np.cumsum(gn), rtol=0, atol=1e-12)


def test_generate_invalid_hurst_exits_2(capsys):
    code, _ = run_cli("generate", "--process", "fbm", "--hurst", "1.5",
                      "--length", "10")
    assert code == 2
    assert "hurst" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--process", "noisy-logistic", "--amplitude", "nan"),
    ("--process", "xp", "--period", "2", "--delta", "inf"),
    ("--process", "piecewise-linear", "--sigma", "inf"),
])
def test_generate_nonfinite_parameter_exits_2(argv, capsys):
    code, out = run_cli("generate", *argv, "--length", "3")
    assert code == 2 and out == ""
    assert "must be finite" in capsys.readouterr().err


def test_generate_xp_period_beyond_the_series():
    # ended in an OverflowError traceback, exit 1
    far = run_cli("generate", "--process", "xp", "--length", "5",
                  "--period", "1000000000000000000000")
    near = run_cli("generate", "--process", "xp", "--length", "5", "--period", "6")
    assert far == near and far[0] == 0


def test_generate_stdout():
    code, out = run_cli("generate", "--process", "white-noise",
                        "--length", "5", "--seed", "3")
    assert code == 0
    assert len(out.splitlines()) == 5


# -- census -------------------------------------------------------------------

def test_census_distribution_output():
    code, out = run_cli("census", "--process", "logistic", "--length", "5000",
                        "--seed", "1", "--order", "3")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["code", "ranks", "count", "probability"]
    codes = {int(r[0]) for r in rows}
    assert 5 not in codes and len(codes) == 5
    assert abs(sum(float(r[3]) for r in rows) - 1.0) < 1e-6


def test_census_trace_output():
    code, out = run_cli("census", "--process", "white-noise", "--length", "200",
                        "--seed", "2", "--order", "3", "--trace")
    header, rows = read_csv_text(out)
    assert header == ["T", "visible", "missing", "g"]
    assert int(rows[0][1]) + int(rows[0][2]) == 6
    assert rows[0][:2] == ["3", "1"]


def test_census_from_file(tmp_path):
    path = tmp_path / "x.txt"
    write_series(str(path), np.array([1.0, 2.0, 1.0, 2.0, 1.0]))
    code, out = run_cli("census", "--input", str(path), "--order", "2",
                        "--format", "json")
    assert code == 0
    rows = json.loads(out)
    probs = {row["code"]: float(row["probability"]) for row in rows}
    assert probs == {0: 0.5, 1: 0.5}


@pytest.mark.parametrize("argv, message", [
    (("census", "--order", "3"), "a --process kind is required here"),
    (("census", "--process", "white-noise", "--order", "3"),
     "--length is required with --process"),
], ids=["no-process", "no-length"])
def test_census_without_a_process_or_its_length_exits_2(argv, message, capsys):
    assert run_cli(*argv) == (2, "")
    assert message in capsys.readouterr().err


def test_census_too_short_exits_3(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    write_series(str(path), np.array([1.0, 2.0]))
    code, _ = run_cli("census", "--input", str(path), "--order", "4")
    assert code == 3


@pytest.mark.parametrize("argv", [("census", "--order", "7"), ("decay", "--order", "7"),
                                  ("entropy", "--orders", "3,7,9")])
def test_series_shorter_than_an_order_exits_3(argv, tmp_path, capsys):
    path = tmp_path / "five.txt"
    write_series(str(path), np.arange(5.0))
    code, out = run_cli(*argv, "--input", str(path))
    assert code == 3 and out == ""
    assert "error: series of length 5 is shorter than L=7" in capsys.readouterr().err


# -- entropy ------------------------------------------------------------------

def test_entropy_single_series_rows():
    code, out = run_cli("entropy", "--process", "white-noise", "--length",
                        "20000", "--seed", "5", "--orders", "3:5",
                        "--alpha", "0.5,1", "--class", "fac")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["source", "class", "L", "alpha", "renyi", "z", "z_over_L"]
    assert len(rows) == 3 * 2
    for row in rows:
        assert float(row[6]) == pytest.approx(float(row[5]) / int(row[2]),
                                              abs=1e-5)


def test_entropy_alpha_ordering_on_fixed_input(tmp_path):
    path = tmp_path / "x.txt"
    run_cli("generate", "--process", "fgn", "--hurst", "0.2", "--length",
            "30000", "--seed", "3", "--output", str(path))
    code, out = run_cli("entropy", "--input", str(path), "--orders", "4",
                        "--alpha", "0.5,1,1.5", "--class", "fac")
    _, rows = read_csv_text(out)
    zs = [float(r[5]) for r in rows]
    assert zs[0] >= zs[1] >= zs[2]


def test_entropy_constant_series_is_zero(tmp_path):
    path = tmp_path / "const.txt"
    write_series(str(path), np.full(500, 3.25))
    code, out = run_cli("entropy", "--input", str(path), "--orders", "3,4",
                        "--alpha", "1", "--class", "fac")
    assert code == 0
    _, rows = read_csv_text(out)
    for row in rows:
        assert float(row[5]) == 0.0


def test_entropy_ensemble_mode():
    code, out = run_cli("entropy", "--process", "white-noise", "--length",
                        "5000", "--seed", "1", "--realizations", "4",
                        "--orders", "3", "--alpha", "1", "--class", "fac")
    header, rows = read_csv_text(out)
    assert "z_over_L_mean" in header
    assert rows[0][header.index("n")] == "4"
    mean = float(rows[0][header.index("z_over_L_mean")])
    assert 0.3 < mean < 0.45  # uniform-law value is about 0.41


def test_entropy_exponential_class_scaling():
    code, out = run_cli("entropy", "--process", "logistic", "--length",
                        "30000", "--orders", "4", "--alpha", "1",
                        "--class", "exp:0.6931471805599453")
    _, rows = read_csv_text(out)
    # for the exponential class with c = ln 2, z = renyi / ln 2
    renyi, z = float(rows[0][4]), float(rows[0][5])
    assert z == pytest.approx(renyi / math.log(2), abs=1e-4)


# -- decay --------------------------------------------------------------------

def test_decay_white_noise_small_ensemble(tmp_path):
    code, out = run_cli("decay", "--process", "white-noise", "--length",
                        "3000", "--order", "4", "--realizations", "5",
                        "--seed", "9")
    assert code == 0
    header, rows = read_csv_text(out)
    fitted = dict(zip(header, rows[0]))
    assert fitted["model"] == "exponential"
    assert 0.02 < float(fitted["R"]) < 0.08  # near the 1/24-per-window scale
    assert fitted["L"] == "4"


def test_decay_json_format():
    code, out = run_cli("decay", "--process", "white-noise", "--length",
                        "2000", "--order", "4", "--realizations", "2",
                        "--seed", "1", "--format", "json")
    payload = json.loads(out)
    assert payload[0]["model"] == "exponential"
    assert float(payload[0]["beta"]) == 1.0


# -- xp -----------------------------------------------------------------------

def test_xp_rows():
    code, out = run_cli("xp", "--period", "2", "--orders", "2:6",
                        "--alpha", "1")
    header, rows = read_csv_text(out)
    allowed = {int(r[1]): int(r[8]) for r in rows}
    assert allowed == {2: 2, 3: 3, 4: 4, 5: 8, 6: 12}
    first = dict(zip(header, rows[0]))
    assert first["c"].startswith("0.5")


def test_xp_unsupported_range_exits_2():
    code, _ = run_cli("xp", "--period", "4", "--orders", "2:3")
    assert code == 2


@pytest.mark.parametrize("orders", [pytest.param("1" * 401, id="order"),
                                    pytest.param("3:" + "1" * 401, id="range")])
def test_xp_order_beyond_factorial_exits_2(orders, capsys):
    code, out = run_cli("xp", "--period", "2", "--orders", orders)
    assert code == 2 and out == ""
    assert "at most 9223372036854775807" in capsys.readouterr().err


@pytest.fixture
def digit_limit():
    """Python's default limit on printed integer digits, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python prints integers of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("orders", ["20000", "1000000000", "3117", "3000,20000"])
def test_xp_order_python_cannot_print_exits_2(orders, digit_limit, tmp_path, capsys):
    # the table was computed and then failed in Fraction.__str__ with a
    # traceback (exit 1); 1000000000 must be refused before factorial(5 * 10**8)
    output = tmp_path / "xp.csv"
    code, out = run_cli("xp", "--period", "2", "--orders", orders,
                        "--output", str(output))
    assert code == 2 and out == "" and not output.exists()
    assert "more than 4300 digits" in capsys.readouterr().err


def test_xp_range_is_refused_by_its_largest_order_before_it_is_built(digit_limit,
                                                                     capsys):
    # the whole range used to be listed first: 10^6 orders took seconds and 40 MB
    tracemalloc.start()
    try:
        code, out = run_cli("xp", "--period", "2", "--orders", "2:1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and peak < 1_000_000
    assert ("order 1000000 holds integers of more than 4300 digits"
            in capsys.readouterr().err)


def test_xp_prints_up_to_the_digit_limit(digit_limit):
    for orders in ("3000", "3116"):  # P1's denominator at 3116 has 4300 digits
        code, out = run_cli("xp", "--period", "2", "--orders", orders)
        assert code == 0 and out.count("\n") == 2
    sys.set_int_max_str_digits(0)  # no limit
    code, out = run_cli("xp", "--period", "2", "--orders", "20000", "--alpha", "1")
    assert code == 0


# -- experiment ---------------------------------------------------------------

def test_experiment_table2_writes_files(tmp_path):
    outdir = tmp_path / "t2"
    code, out = run_cli("experiment", "table2", "--output-dir", str(outdir))
    assert code == 0
    files = sorted(f.name for f in outdir.iterdir())
    assert files == ["table2_allowed.csv", "table2_metadata.json"]
    header, rows = read_csv_text((outdir / "table2_allowed.csv").read_text())
    assert header[0] == "period" and len(rows) == 5
    meta = json.loads((outdir / "table2_metadata.json").read_text())
    assert meta["experiment"] == "table2"
    assert "runtime_seconds" in meta and "config" in meta


def test_experiment_fig3_small(tmp_path):
    outdir = tmp_path / "f3"
    code, out = run_cli("experiment", "fig3", "--realizations", "3",
                        "--seed", "7", "--output-dir", str(outdir))
    assert code == 0
    header, rows = read_csv_text((outdir / "fig3_support.csv").read_text())
    support = {int(r[0]): (int(r[1]), int(r[2])) for r in rows}
    assert support[6] == (6, 6)
    assert support[5] == (9, 9)
    header, rows = read_csv_text((outdir / "fig3_g6.csv").read_text())
    assert header[0] == "T" and rows[0][0] == "6" and rows[-1][0] == "50"


def test_table2_mismatch_exits_3_after_its_summary(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(permz.experiments.TABLE2_REFERENCE[2], 2, 3)  # the count is 2
    code, out = run_cli("experiment", "table2", "--output-dir", str(tmp_path))
    assert code == 3
    assert "  all_match: False\n" in out and "  mismatches: [(2, 2, 2, 3)]\n" in out
    assert ("table2 mismatches against the embedded reference: [(2, 2, 2, 3)]"
            in capsys.readouterr().err)


def test_experiment_expands_summary_dicts_of_at_most_12_entries(monkeypatch, tmp_path):
    summary = {"a_twelve": {f"k{i}": i for i in range(12)},
               "b_thirteen": {f"k{i}": i for i in range(13)}, "c_value": 7}

    def fake(name, config, outdir):
        return permz.experiments.ExperimentResult(name, {}, summary, {}, ["f.csv"])

    monkeypatch.setattr("permz.cli.run_experiment", fake)
    code, out = run_cli("experiment", "fig1", "--output-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [f"experiment fig1: wrote 1 files to {tmp_path}",
                                "  a_twelve:", *(f"    k{i}: {i}" for i in range(12)),
                                "  c_value: 7"]


def test_experiment_unknown_name_exits_2():
    code, _ = run_cli("experiment", "fig9")  # argparse rejects the choice
    assert code == 2


def test_experiment_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        run_cli("experiment", "fig3", "--realizations", "2", "--seed", "3",
                "--output-dir", str(outdir))
    assert (a / "fig3_g6.csv").read_text() == (b / "fig3_g6.csv").read_text()


def test_entropy_multiple_input_files_form_ensemble(tmp_path):
    paths = []
    for i in (1, 2):
        path = tmp_path / f"m{i}.txt"
        run_cli("generate", "--process", "white-noise", "--length", "3000",
                "--seed", str(i), "--output", str(path))
        paths.append(str(path))
    code, out = run_cli("entropy", "--input", *paths, "--orders", "3",
                        "--alpha", "1", "--class", "fac")
    assert code == 0
    header, rows = read_csv_text(out)
    assert rows[0][header.index("n")] == "2"


def test_jobs_do_not_change_output():
    args = ("entropy", "--process", "white-noise", "--length", "4000",
            "--seed", "5", "--realizations", "4", "--orders", "3,4",
            "--alpha", "1", "--class", "fac")
    _, serial = run_cli(*args, "--jobs", "1")
    _, parallel = run_cli(*args, "--jobs", "2")
    assert serial == parallel


def test_order_beyond_int64_codes_exits_2(tmp_path):
    code, _ = run_cli("experiment", "fig1", "--orders", "21", "--t-max", "100",
                      "--output-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("command", [("entropy", "--orders", "3"),
                                     ("decay", "--order", "3")])
@pytest.mark.parametrize("bad", [("--jobs", "0"), ("--jobs", "-5"),
                                 ("--realizations", "0")])
def test_ensemble_options_below_one_exit_2(command, bad, capsys):
    code, _ = run_cli(*command, "--process", "white-noise", "--length", "500",
                      *bad)
    assert code == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("census", "--order", "3"),
    ("entropy", "--orders", "3", "--realizations", "2"),
    ("decay", "--order", "3", "--realizations", "2"),
])
def test_table_outputs_write_sidecars(command, tmp_path):
    out = tmp_path / "out.csv"
    code, _ = run_cli(*command, "--process", "white-noise", "--length", "2000",
                      "--seed", "4", "--output", str(out))
    assert code == 0 and out.exists()
    sidecar = json.loads((tmp_path / "out.csv.json").read_text())
    assert sidecar["command"] == command[0]
    assert sidecar["options"]["seed"] == 4
    assert sidecar["options"]["length"] == 2000
    assert sidecar["options"]["process"] == "white-noise"


@pytest.mark.parametrize("name, option", [
    ("fig3", ("--orders", "21")),
    ("fig4", ("--orders", "3:5")),
    ("fig2", ("--alpha", "3")),
    ("table2", ("--alpha", "7")),
])
def test_experiment_option_it_does_not_read_exits_2(name, option, tmp_path, capsys):
    code, _ = run_cli("experiment", name, *option, "--output-dir", str(tmp_path))
    assert code == 2
    assert f"does not take {option[0]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_experiment_fig1_takes_orders(tmp_path):
    code, _ = run_cli("experiment", "fig1", "--orders", "3:4", "--t-max", "300",
                      "--realizations", "1", "--output-dir", str(tmp_path))
    assert code == 0
    meta = json.loads((tmp_path / "fig1_metadata.json").read_text())
    assert meta["config"]["orders"] == [3, 4]


@pytest.mark.parametrize("argv, named", [
    (("entropy", "--orders", "21"), "--orders"),
    (("entropy", "--alpha", "nan"), "alpha"),
    (("experiment", "fig1", "--orders", "3:21"), "--orders"),
    (("experiment", "fig1", "--alpha", "inf"), "alpha"),
    (("experiment", "fig3", "--t-max", "0"), "t_max"),
    (("experiment", "fig1", "--alpha", ""), "alpha"),
    (("decay", "--order", "1"), "--order"),
    (("census", "--order", "21"), "--order"),
    (("entropy", "--class", "subn:5"), "from 0 to 4"),
    (("generate", "--no-dither"), "'dither' does not apply to kind 'white-noise'"),
    (("entropy", "--orders", "7:3"), "the range is empty"),
    (("experiment", "fig2", "--t-max", str(10**400)), "t_max must be an integer"),
])
def test_bad_parameter_exits_2_before_any_series_is_generated(
        argv, named, monkeypatch, tmp_path, capsys):
    def generate(spec):  # a generated member would surface as exit 3
        raise AssertionError("a series was generated")

    monkeypatch.setattr("permz.experiments.generate", generate)
    monkeypatch.setattr("permz.cli.generate", generate)
    where = (("--output-dir", str(tmp_path)) if argv[0] == "experiment"
             else ("--process", "white-noise", "--length", "500",
                   "--output", str(tmp_path / "out.csv")))
    code, out = run_cli(*argv, *where)
    assert code == 2 and out == ""
    assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_entropy_at_large_alpha_exits_0():
    # every p**alpha underflows: was "lambert_n argument must be finite", exit 2
    code, out = run_cli("entropy", "--process", "white-noise", "--length", "3000",
                        "--orders", "5", "--alpha", "300,1000")
    assert code == 0
    header, rows = read_csv_text(out)
    renyi = [float(row[header.index("renyi")]) for row in rows]
    assert len(renyi) == 2 and all(4.3 < r < math.log(120) for r in renyi)


@pytest.mark.parametrize("token, shown", [
    ("exp:1e-310", "exp:1e-310"),  # printed inf for z and z_over_L, exit 0
    ("sub:1e-320", "sub:9.99989e-321"),  # "lambert_n argument must be finite", exit 2
])
def test_class_constant_too_small_for_a_double_exits_4(token, shown, capsys):
    code, out = run_cli("entropy", "--process", "white-noise", "--length", "300",
                        "--orders", "4", "--class", token)
    assert code == 4 and out == ""
    assert f"class {shown}: s / c overflows" in capsys.readouterr().err


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 2.00 EiB for an array")


@pytest.mark.parametrize("argv, allocation", [
    (("generate", "--process", "white-noise", "--length", "1000"), "permz.rng.raw_words"),
    *[(("entropy", "--process", "white-noise", "--length", "300", "--orders", "3",
        "--realizations", "2", "--jobs", jobs), "permz.experiments.generate")
      for jobs in ("1", "2")],
])
def test_out_of_memory_exits_4_without_a_traceback(argv, allocation, monkeypatch, capsys):
    # an allocation that fails, never real exhaustion
    monkeypatch.setattr(allocation, _out_of_memory)
    code, out = run_cli(*argv)
    assert code == 4 and out == ""
    assert capsys.readouterr().err == (
        f"permz {argv[0]}: error: out of memory: Unable to allocate 2.00 EiB for an array\n")


@pytest.mark.parametrize("argv", [
    ("xp", "--period", "2", "--orders", "4"),
    ("experiment", "fig1", "--realizations", "1", "--t-max", "100"),
])
def test_alphas_sharing_a_label_exit_2(argv, tmp_path, capsys):
    # xp printed the header R_a1,R_a1
    out_dir = ("--output-dir", str(tmp_path)) if argv[0] == "experiment" else ()
    code, out = run_cli(*argv, *out_dir, "--alpha", "1.00000001,1.0000001")
    assert code == 2 and out == ""
    assert "share a :g label" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    code, out = run_cli("xp", "--period", "2", "--orders", "4", "--alpha", "1,1.0")
    assert code == 0 and read_csv_text(out)[0][-2:] == ["R_a1", "R_a1"]


def test_order_range_ends_are_checked_before_the_range_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="at most 20"):
            _parse_orders("3:2000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert _parse_orders("2:5") == (2, 3, 4, 5)
    assert _parse_orders("3:5", hi=math.inf) == (3, 4, 5)


@pytest.mark.parametrize("source", ["process", "input"])
def test_free_intercept_with_the_stretched_model_exits_2_before_any_series(
        source, monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("permz.experiments.generate", "permz.cli.generate",
                 "permz.cli.read_series"):
        monkeypatch.setattr(name, calls.append)
    where = (("--process", "white-noise", "--length", "500") if source == "process"
             else ("--input", str(tmp_path / "series.txt")))
    code, out = run_cli("decay", "--order", "4", "--model", "stretched",
                        "--free-intercept", *where)
    assert code == 2 and out == "" and calls == []
    assert "exponential model only" in capsys.readouterr().err


def test_xp_orders_are_not_bounded_by_the_code_width():
    code, out = run_cli("xp", "--period", "3", "--orders", "20:22", "--alpha", "1")
    assert code == 0
    _, rows = read_csv_text(out)
    assert [int(row[1]) for row in rows] == [20, 21, 22]


@pytest.mark.parametrize("period, L", [(2, 341), (3, 400)])
def test_xp_entropies_stay_finite_where_the_probabilities_underflow(period, L):
    # N1 is beyond the largest double here and P1 below the smallest normal one
    code, out = run_cli("xp", "--period", str(period), "--orders", str(L))
    assert code == 0
    header, (row,) = read_csv_text(out)
    renyi = [float(row[header.index(f"R_a{a}")]) for a in ("0.5", "1", "1.5")]
    assert all(math.isfinite(r) for r in renyi)
    assert renyi[0] >= renyi[1] >= renyi[2] > 0


def _unwritable(tmp_path, kind):
    """A target whose write fails, and the path its error message names."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    if kind == "under-a-file":
        return blocker / "x", blocker / "x"
    if kind == "a-file":
        return blocker, blocker
    (tmp_path / "out.csv.json").mkdir()  # the table writes, its sidecar cannot
    return tmp_path / "out.csv", tmp_path / "out.csv.json"


_CENSUS = ("census", "--process", "white-noise", "--length", "50", "--order", "3",
           "--output")


@pytest.mark.parametrize("argv, kind, message", [
    (("generate", "--process", "white-noise", "--length", "50", "--output"),
     "under-a-file", "cannot write series file"),
    (_CENSUS, "under-a-file", "cannot write output"),
    (_CENSUS, "sidecar", "cannot write sidecar"),
    (("experiment", "fig1", "--realizations", "2", "--t-max", "300",
      "--output-dir"), "under-a-file", "cannot create output directory"),
    (("experiment", "table2", "--output-dir"), "a-file",
     "cannot create output directory"),
], ids=["generate", "table", "sidecar", "experiment-fig1", "experiment-table2"])
def test_unwritable_output_exits_3(argv, kind, message, monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    target, named = _unwritable(tmp_path, kind)
    code, out = run_cli(*argv, str(target))
    assert code == 3 and out == ""
    assert f"{message} {named}" in capsys.readouterr().err
    assert calls == []  # the experiment failed before its first series


@pytest.mark.parametrize("command", [("census", "--order", "3"),
                                     ("entropy", "--orders", "3"),
                                     ("decay", "--order", "3")])
@pytest.mark.parametrize("option", [("--process", "fbm"), ("--length", "500"),
                                    ("--hurst", "0.3"), ("--sigma", "2"),
                                    ("--no-dither",), ("--seed", "7"),
                                    ("--realizations", "2")])
def test_input_with_a_process_option_exits_2_before_reading(command, option,
                                                            tmp_path, capsys):
    missing = tmp_path / "absent.txt"  # reading it would exit 3
    code, out = run_cli(*command, "--input", str(missing), *option)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    if command[0] == "census" and option[0] == "--realizations":
        assert "unrecognized arguments: --realizations" in err  # census takes none
    else:
        assert f"--input excludes {option[0]}" in err


@pytest.mark.parametrize("command", [("census", "--order", "3"),
                                     ("entropy", "--orders", "3")])
def test_input_sidecar_records_no_seed_or_realizations(command, tmp_path):
    series, out = tmp_path / "s.txt", tmp_path / "out.csv"
    write_series(str(series), np.arange(50.0) % 7)
    code, _ = run_cli(*command, "--input", str(series), "--output", str(out))
    assert code == 0
    options = json.loads((tmp_path / "out.csv.json").read_text())["options"]
    assert "seed" not in options and "realizations" not in options


@pytest.mark.parametrize("command", [("entropy", "--orders", "3", "--alpha", "1"),
                                     ("decay", "--order", "4")])
def test_repeated_input_options_add_up(command, monkeypatch, tmp_path):
    paths = []
    for i in (1, 2):
        paths.append(str(tmp_path / f"m{i}.txt"))
        run_cli("generate", "--process", "white-noise", "--length", "3000",
                "--seed", str(i), "--output", paths[-1])
    written = []
    for name, argv in (("joined", ["--input", *paths]),
                       ("repeated", ["--input", paths[0], "--input", paths[1]])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the sidecar records the --output path
        code, out = run_cli(*command, *argv)
        assert code == 0
        assert run_cli(*command, *argv, "--output", "out") == (0, "")
        written.append((out, Path("out").read_bytes(), Path("out.json").read_bytes()))
    assert written[0] == written[1]
    options = json.loads(written[1][2])["options"]
    assert options["input"] == paths


def test_census_with_repeated_input_options_exits_2(tmp_path, capsys):
    path = str(tmp_path / "s.txt")
    write_series(path, np.arange(50.0) % 7)
    code, _ = run_cli("census", "--order", "3", "--input", path, "--input", path)
    assert code == 2
    assert "census takes exactly one --input file" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("census", "--order", "3"),
                                     ("entropy", "--orders", "3"),
                                     ("decay", "--order", "4")])
def test_input_without_a_path_exits_2_from_argparse(command, capsys):
    assert run_cli(*command, "--input") == (2, "")
    assert "--input: expected at least one argument" in capsys.readouterr().err


def test_decay_over_inputs_of_different_lengths_exits_3(tmp_path, capsys):
    paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
    for path, length in zip(paths, ("3000", "2000")):
        run_cli("generate", "--process", "white-noise", "--length", length,
                "--output", path)
    assert run_cli("decay", "--order", "4", "--input", *paths) == (3, "")
    assert "ensemble members must share one series length" in capsys.readouterr().err


@pytest.mark.parametrize("length", [2**63, 10**400], ids=["2**63", "10**400"])
def test_generate_length_beyond_the_array_bound_exits_2(length, tmp_path, capsys):
    # 2**63 exited 0 with an empty series file
    out = tmp_path / "s.txt"
    assert run_cli("generate", "--process", "white-noise", "--length", str(length),
                   "--output", str(out)) == (2, "")
    assert "length must be an integer at least 1, at most" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# -- one parser per process ----------------------------------------------------

def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    run_cli("xp", "--period", "2", "--orders", "3")  # the first call may build it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli("xp", "--period", "3", "--orders", "4")[0] == 0
    assert run_cli("census", "--order", "3", "--process", "white-noise",
                   "--length", "50")[0] == 0
    assert run_cli("decay")[0] == 2  # an argparse rejection
    assert built == []
    permz.cli.build_parser()  # the public builder still builds on each call
    assert "permz" in built


def test_census_inputs_do_not_carry_over_to_the_next_call(tmp_path, monkeypatch):
    # a leaked --input list would hold both files: exit 2, one --input only
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_series(a, np.arange(50.0) % 7)
    write_series(b, np.arange(50.0))
    read = []
    monkeypatch.setattr("permz.cli.read_series",
                        lambda path: read.append(path) or read_series(path))
    assert run_cli("census", "--order", "3", "--input", a)[0] == 0
    del read[:]
    code, out = run_cli("census", "--order", "3", "--input", b)
    assert code == 0 and read == [b]
    _, rows = read_csv_text(out)
    assert [row[:3] for row in rows] == [["0", "012", "48"]]


def test_decay_defaults_set_on_one_call_do_not_reach_the_next(tmp_path):
    # the first call sets realizations and seed on its namespace; had they
    # reached the second, --input would refuse them with exit 2
    path = str(tmp_path / "s.txt")
    write_series(path, permz.generate(permz.ProcessSpec("white-noise", length=2_000)))
    assert run_cli("decay", "--order", "3", "--process", "white-noise",
                   "--length", "2000", "--realizations", "2")[0] == 0
    assert run_cli("decay", "--order", "3", "--input", path)[0] == 0


def test_a_command_sequence_repeated_in_one_process_writes_the_same_files(
        tmp_path, monkeypatch):
    written = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the sidecars record relative paths
        assert run_cli("generate", "--process", "fbm", "--hurst", "0.6",
                       "--length", "2000", "--seed", "5", "--output", "s.txt") == (0, "")
        assert run_cli("decay", "--order", "4", "--input", "s.txt",
                       "--output", "d.csv") == (0, "")
        written.append([Path(f).read_bytes()
                        for f in ("s.txt", "s.txt.json", "d.csv", "d.csv.json")])
    assert written[0] == written[1]
