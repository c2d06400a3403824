"""CLI contracts: formats, exit codes, determinism, config handling."""

import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbound import (
    agce_fit_1d,
    cca_ace,
    cli,
    expgamma_sample,
    gm1d_sample,
    mvg_scramble_sample,
    offshelf_lower_1d,
    quadrature_discretize,
    reverse_anneal,
    smoother,
)
from gaussbound import reproduce as repro
from gaussbound.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    METHODS,
    CliError,
    _parse_body,
    _parse_lines,
    main,
    read_samples_csv,
    write_samples_csv,
)
from gaussbound.models import Gm1dModel
from gaussbound.stats_core import NATS_PER_BIT, PairedSamples


def run_cli(args):
    return main(list(args))


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "pair.csv"
    assert run_cli(["gen", "--model", "gm1d", "--n", "600", "--seed", "5", "--out", str(path)]) == 0
    return path


def assert_deterministic(tmp_path, argv):
    """Two runs of ``bound`` give the same report, apart from its timing."""
    reports = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        assert run_cli([*argv, "--out", str(path)]) == 0
        reports.append(read_json(path))
        reports[-1].pop("timing")
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


class TestGen:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["gen", "--model", "exp_gamma", "--d", "3", "--n", "50", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,y0,y1,y2"
        assert len(lines) == 51

    def test_gm1d_header(self, sample_csv):
        assert sample_csv.read_text().splitlines()[0] == "x0,y0"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run_cli(["gen", "--model", "gm1d", "--n", "100", "--seed", "9", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_metadata(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["gen", "--model", "mv_gaussian_scramble", "--d", "2", "--n", "80", "--seed", "2", "--out", str(out)])
        meta = read_json(str(out) + ".meta.json")
        assert meta["schema"] == 1
        assert abs(meta["true_mi_bits"] - 1.0) <= 1e-9
        assert meta["scramble"]["mirror"] == [-1.0, 1.0]

    def test_write_matches_per_value_repr(self, tmp_path):
        # the writer formats whole rows of Python floats; the text must be what
        # repr(float(v)) gave value by value
        x = np.array([[-0.0, 5e-324], [1.7976931348623157e308, 3.0], [-2.0, 0.1], [1e16, -1e-300]])
        y = np.array([7.0, -0.0, 2.0**53, -1.7976931348623157e308])
        path = tmp_path / "w.csv"
        write_samples_csv(path, PairedSamples(x, y))
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.hstack([x, y[:, None]]))
        assert path.read_bytes() == ("x0,x1,y0\n" + rows).encode()

    def test_unwritable_path(self, sample_csv):
        # a path below an existing *file* cannot be created
        assert run_cli(["gen", "--model", "gm1d", "--n", "10", "--out", str(sample_csv / "x.csv")]) == EXIT_IO


class TestBound:
    def test_report_fields_and_units(self, sample_csv, tmp_path):
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["bound", "--input", str(sample_csv), "--method", "naive", "--seed", "3", "--out", str(report_path)]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["schema"] == 1
        assert report["method"] == "naive"
        lb_nats, lb_bits = report["lower_bound_nats"], report["lower_bound_bits"]
        assert abs(lb_nats / np.log(2.0) - lb_bits) <= 1e-9
        assert report["ace_upper_bound_nats"] >= lb_nats
        assert "w2_diagnostics" in report

    def test_determinism_modulo_timing(self, sample_csv, tmp_path):
        for method in METHODS:
            assert_deterministic(
                tmp_path, ["bound", "--input", str(sample_csv), "--method", method, "--seed", "11"]
            )

    @pytest.mark.parametrize("method", ["biterminal"])
    def test_determinism_multivariate(self, tmp_path, method):
        csv = tmp_path / "exp.csv"
        assert run_cli(["gen", "--model", "exp_gamma", "--d", "2", "--n", "400", "--seed", "3", "--out", str(csv)]) == 0
        assert_deterministic(tmp_path, ["bound", "--input", str(csv), "--method", method, "--seed", "4"])

    def test_biterminal_reports_layers_and_convergence(self, tmp_path):
        p = tmp_path / "r.json"
        argv = ["bound", "--model", "exp_gamma", "--d", "2", "--n", "400", "--method", "biterminal",
                "--seed", "3", "--out", str(p)]
        assert run_cli(argv) == 0
        extras = read_json(p)["extras"]
        assert set(extras) == {"accepted_moves", "outer_iters", "converged", "saturated"}
        assert 1 <= extras["outer_iters"] <= 30
        assert isinstance(extras["converged"], bool)
        assert extras["saturated"] is False
        assert extras["converged"] or extras["outer_iters"] == 30
        assert 0 <= extras["accepted_moves"] <= 2 * 40 * extras["outer_iters"]

    def test_model_source_sets_lemma_flag(self, tmp_path):
        p = tmp_path / "r.json"
        code = run_cli(
            ["bound", "--model", "gm1d", "--n", "2000", "--method", "naive", "--seed", "7", "--out", str(p)]
        )
        assert code == 0
        report = read_json(p)
        assert report["no_lossless_gaussian_embedding"] is True
        assert report["true_mi_nats"] > 1.0

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("bound", ["--method", "kcca"], "argument --method: invalid choice: 'kcca'"),
            ("bound", ["--smoother", "knn"], "unrecognized arguments: --smoother knn"),
            ("bound", ["--bandwidth", "0.3"], "unrecognized arguments: --bandwidth 0.3"),
            ("bound", ["--kcca-ridge", "1e-3"], "unrecognized arguments: --kcca-ridge 1e-3"),
            ("bound", ["--kcca-width", "1"], "unrecognized arguments: --kcca-width 1"),
            ("bound", ["--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
            ("bound", ["--method", "agce", "--tol", "-1"], "unrecognized arguments: --tol -1"),
            ("curve", ["--beta-points", "50"], "unrecognized arguments: --beta-points 50"),
            ("curve", ["--method", "naive", "--beta-points", "0"], "unrecognized arguments: --beta-points 0"),
            ("curve", ["--no-reference"], "unrecognized arguments: --no-reference"),
            ("gen", ["--units", "nats"], "unrecognized arguments: --units nats"),
        ],
        ids=["method-kcca", "smoother", "bandwidth", "kcca-ridge", "kcca-width", "tol", "tol-negative",
             "beta-points", "curve-beta-points-zero", "no-reference", "gen-units"],
    )
    def test_retired_flag_is_a_parser_error(self, tmp_path, capsys, command, flags, message):
        # flags of kernel CCA, of the kernel smoother and of settings that
        # always took their default: a script that still passes one must
        # fail at the parser, not run without it
        argv = [command, "--model", "gm1d", "--n", "500", "--seed", "1", *flags]
        if command == "gen":
            argv += ["--out", str(tmp_path / "g.csv")]
        else:
            argv += ["--restarts", "1", "--out" if command == "bound" else "--out-dir", str(tmp_path / "r")]
        assert run_cli(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_multivariate_agce_rejected(self, tmp_path):
        code = run_cli(
            ["bound", "--model", "mv_gaussian_scramble", "--d", "2", "--n", "500", "--method", "agce"]
        )
        assert code == EXIT_CONFIG

    def test_both_sources_rejected(self, sample_csv):
        assert (
            run_cli(["bound", "--input", str(sample_csv), "--model", "gm1d", "--method", "naive"])
            == EXIT_CONFIG
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--k", "0", "--n", "500"],
            ["bound", "--k", "501", "--n", "500"],
            ["bound", "--method", "kcca", "--n", "10001"],  # a retired method, as below
            ["bound", "--method", "agce", "--restarts", "0", "--n", "500"],
            ["bound", "--method", "agce", "--restarts", "-3", "--n", "500"],
            # too few samples for the method
            ["bound", "--method", "naive", "--n", "10"],
            ["bound", "--method", "agce", "--n", "60"],
            ["bound", "--method", "offshelf", "--n", "60"],
            ["bound", "--method", "biterminal", "--n", "60"],
            ["reproduce", "sec4.4", "--n", "40"],
            # numpy's generators take non-negative seeds only
            ["bound", "--method", "naive", "--seed", "-1", "--n", "500"],
            ["gen", "--seed", "-1", "--n", "100"],
            ["reproduce", "sec4.4", "--seed", "-1"],
            # gm parameters, checked before drawing
            ["bound", "--method", "naive", "--eps", "0", "--n", "500"],
            ["bound", "--method", "naive", "--eps", "nan", "--n", "500"],
            ["bound", "--method", "naive", "--mu-z", "nan", "--n", "500"],
            # gm1d is one-dimensional; gm_mv is its d-dimensional family
            ["bound", "--method", "naive", "--d", "2", "--n", "500"],
            ["gen", "--d", "2", "--n", "100"],
            # retired kernel-CCA and kernel-smoother settings, whatever their value
            ["bound", "--method", "kcca", "--kcca-width", "0", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-width", "-1", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-width", "nan", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-ridge", "nan", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-ridge", "inf", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-width", "inf", "--n", "500"],
            ["bound", "--method", "ace", "--smoother", "kernel", "--bandwidth", "1e200",
             "--n", "500"],
            ["bound", "--method", "ace", "--smoother", "kernel", "--bandwidth", "1e-300",
             "--n", "500"],
            # every sampler needs n >= 1
            ["gen", "--model", "exp_gamma", "--n", "0"],
            ["gen", "--model", "mv_gaussian_scramble", "--n", "-3"],
        ],
        ids=["k-zero", "k-above-n", "kcca-n-cap", "restarts-zero", "restarts-negative",
             "naive-n-10", "agce-n-60",
             "offshelf-n-60", "biterminal-n-60", "reproduce-n-40", "seed-negative",
             "gen-seed-negative", "reproduce-seed-negative", "eps-zero", "eps-nan", "mu-z-nan",
             "gm1d-d-2", "gen-gm1d-d-2", "kcca-width-zero", "kcca-width-negative", "kcca-width-nan",
             "kcca-ridge-nan", "kcca-ridge-inf", "kcca-width-inf", "bandwidth-huge", "bandwidth-tiny",
             "gen-exp-gamma-n-0", "gen-scramble-n-negative"],
    )
    def test_out_of_range_parameter_is_input_error(self, argv, tmp_path, capsys):
        argv = list(argv)
        for flag, value in (("--model", "gm1d"), ("--seed", "1")):
            if argv[0] != "reproduce" and flag not in argv:
                argv += [flag, value]
        if argv[0] == "curve":
            argv = [*argv, "--out-dir", str(tmp_path / "curves")]
        if argv[0] == "gen":
            argv = [*argv, "--out", str(tmp_path / "g.csv")]
        assert run_cli(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error:" in err and "numerical failure" not in err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("model, d", [("gm1d", 1), ("exp_gamma", 2)])
    def test_lower_within_ace_upper(self, tmp_path, model, d, method):
        # the lower bound and the ACE upper bound come from one fit, so the
        # sandwich holds up to the smoothers' finite-sample slack
        csv, report = tmp_path / "s.csv", tmp_path / "r.json"
        gen = ["gen", "--model", model, "--d", str(d), "--n", "600", "--seed", "5", "--out", str(csv)]
        assert run_cli(gen) == 0
        code = run_cli(["bound", "--input", str(csv), "--method", method, "--seed", "6", "--out", str(report)])
        if method == "agce" and d > 1:
            assert code == EXIT_CONFIG
            return
        assert code == 0
        r = read_json(report)
        if method == "ace":
            assert r["lower_bound_nats"] is None
        else:
            assert r["lower_bound_nats"] <= r["ace_upper_bound_nats"] + 0.02

    @pytest.mark.parametrize("seed", [3, 4])
    def test_library_ace_fit_picks_the_cli_k(self, tmp_path, seed):
        # a fit without a neighbour count takes the k the CLI takes, here
        # experiment_knn_k(2000, 2) = 20 for both d = 2 blocks
        samples = mvg_scramble_sample(2000, 2, seed=seed).samples
        csv, report = tmp_path / "s.csv", tmp_path / "r.json"
        write_samples_csv(csv, samples)
        argv = ["bound", "--input", str(csv), "--method", "ace", "--seed", str(seed), "--out", str(report)]
        assert run_cli(argv) == 0
        library = cca_ace.ace_upper_bound(cca_ace.ace_fit(samples, seed=seed))
        assert library == read_json(report)["ace_upper_bound_nats"]

    @pytest.mark.parametrize(
        "data, method",
        [("gaussian-1d", "offshelf"), ("gaussian-1d", "agce"), ("gaussian-1d", "biterminal"),
         ("expgamma-d2", "offshelf"), ("expgamma-d2", "biterminal")],
    )
    def test_lower_within_ace_upper_on_rounded_data(self, tmp_path, data, method):
        # rounding leaves thousands of copies of each value; every copy has
        # the same neighbors, so no copy's own response leaks into its
        # smoothed value
        if data == "gaussian-1d":
            rng = np.random.default_rng(1)
            x = rng.standard_normal(2000)
            samples = PairedSamples(np.round(x), np.round(x + rng.standard_normal(2000)))
        else:
            s = expgamma_sample(2000, 2, seed=1).samples
            samples = PairedSamples(np.round(2.0 * s.x) / 2.0, np.round(2.0 * s.y) / 2.0)
        csv, report = tmp_path / "rounded.csv", tmp_path / "r.json"
        write_samples_csv(csv, samples)
        assert run_cli(["bound", "--input", str(csv), "--method", method, "--seed", "1", "--out", str(report)]) == 0
        r = read_json(report)
        assert r["lower_bound_nats"] <= r["ace_upper_bound_nats"] + 0.02
        if data == "gaussian-1d":
            # the unrounded pair's MI, which rounding can only lower
            assert r["lower_bound_nats"] <= 0.5 * np.log(2.0)


_GOOD_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0", "+.5", "5.", "1_000", " 2.5", "3 ", "\t-1e-3", "\uff11\uff12", "5e-324", "1e308"]),
)
_BAD_FIELDS = st.sampled_from(["", "oops", "nan", "-inf", "1e400", "0x10", "1__0"])


@st.composite
def csv_bodies(draw):
    """Data lines of d columns, sometimes with one blank line, wrong column
    count or bad field."""
    d = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(_GOOD_FIELDS, min_size=d, max_size=d), max_size=12))
    lines = [",".join(row) for row in rows]
    defect = draw(st.sampled_from([None, None, "blank", "columns", "field"]))
    if defect is not None:
        at = draw(st.integers(0, len(lines)))
        fields = draw(st.lists(_GOOD_FIELDS, min_size=d, max_size=d))
        if defect == "blank":
            line = draw(st.sampled_from(["", "  "]))
        elif defect == "columns":
            line = ",".join((fields * 2)[: draw(st.sampled_from([1, d - 1, d + 1]))])
        else:
            fields[draw(st.integers(0, d - 1))] = draw(_BAD_FIELDS)
            line = ",".join(fields)
        lines.insert(at, line)
    return lines, d


class TestCsvValidation:
    @given(csv_bodies())
    @settings(max_examples=200, deadline=None)
    def test_one_parse_equals_the_per_line_parse(self, case):
        lines, d = case
        try:
            slow = _parse_lines("s.csv", lines, d)
        except CliError:
            slow = None
        fast = _parse_body(lines, d)
        if fast is None:
            # the per-line parse then raises its message, or skips blank lines
            assert slow is None or not lines or any(not line.strip() for line in lines)
        else:
            assert slow is not None and slow.shape == fast.shape == (len(lines), d)
            assert np.array_equal(fast.view(np.int64), slow.view(np.int64))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x0,y0\r\n1.5,2\r\n-0,3e-2\r\n", [[1.5, 2.0], [-0.0, 0.03]]),
            ("x0,y0\n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("x0,y0\n1,2\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("x0,y0\n1,2\n3\n5,6\n", "line 3: expected 2 columns, got 1"),
            ("x0,y0\n1,2\n3,4,5\n", "line 3: expected 2 columns, got 3"),
            ("x0,y0\n1,2,\n3,4\n", "line 2: expected 2 columns, got 3"),
            ("x0,y0\n1,2\n3,\u00e9\n", "line 3: could not convert string to float: '\u00e9'"),
            ("x0,y0\n\uff11,2\n3,\u0664\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("x0,y0\n1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
            ("x0,y0\n1,2\nnan,4\n", "line 3: non-finite value"),
        ],
        ids=["crlf", "blank-inside", "trailing-blank", "short-line", "long-line", "trailing-comma",
             "non-ascii", "non-ascii-digits", "underscore", "nan"],
    )
    def test_reader_arrays_and_messages(self, tmp_path, text, expected):
        # the comma count reads the encoded body; multi-byte characters and
        # every line end splitlines knows must not move a line or its number
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(CliError) as info:
                read_samples_csv(str(path))
            assert str(info.value) == f"{path}: {expected}"
            assert info.value.code == EXIT_CONFIG
        else:
            samples = read_samples_csv(str(path))
            assert np.hstack([samples.x, samples.y]).tobytes() == np.array(expected).tobytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x0,y0\n1.0,2.0\n\n  \n-0,3\n")
        samples = read_samples_csv(str(path))
        data = np.hstack([samples.x, samples.y])
        assert np.array_equal(data.view(np.int64), np.array([[1.0, 2.0], [-0.0, 3.0]]).view(np.int64))

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli(["bound", "--input", str(bad), "--method", "naive"]) == EXIT_CONFIG

    def test_bad_float_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y0\n1.0,2.0\n1.0,oops\n")
        assert run_cli(["bound", "--input", str(bad), "--method", "naive"]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    def test_dimension_mismatch_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y0\n1.0,2.0\n1.0\n")
        assert run_cli(["bound", "--input", str(bad), "--method", "naive"]) == EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, sample_csv, tmp_path, capsys, bad):
        # rejected while reading, so no method ever sees the value
        lines = sample_csv.read_text().splitlines()
        lines[4] = f"{bad},{lines[4].split(',')[1]}"
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        assert run_cli(["bound", "--input", str(bad_csv), "--method", "agce"]) == EXIT_CONFIG
        assert "line 5: non-finite" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli(["bound", "--input", str(tmp_path / "nope.csv"), "--method", "naive"]) == EXIT_IO

    def test_numerical_failure_exit_code(self, tmp_path):
        # duplicated predictor column makes the raw covariance singular, so
        # the curve pipeline cannot build a spectrum from the raw blocks
        rng = np.random.default_rng(31)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        path = tmp_path / "dup.csv"
        rows = ["x0,x1,y0"] + [
            f"{float(a)!r},{float(a)!r},{float(b)!r}" for a, b in zip(x, y)
        ]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "curves"
        code = run_cli(["curve", "--input", str(path), "--method", "naive", "--seed", "1", "--out-dir", str(out)])
        assert code == EXIT_NUMERIC


def whole_text_read(path):
    """One parse of the file's whole text, as the reader gave before it read
    in blocks: the (n, d) array, or the CliError's message."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    d = len(lines[0].split(","))
    try:
        arr = _parse_body(lines[1:], d)
        return _parse_lines(str(path), lines[1:], d) if arr is None else arr
    except CliError as exc:
        return str(exc)


def block_read(path):
    """read_samples_csv's (n, d) array, or its CliError's message."""
    try:
        samples = read_samples_csv(str(path))
    except CliError as exc:
        assert exc.code == EXIT_CONFIG
        return str(exc)
    return np.hstack([samples.x, samples.y])


def assert_same_read(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def one_join_text(x, y):
    """The sample CSV as one join of every row's text."""
    header = ",".join([f"x{i}" for i in range(x.shape[1])] + [f"y{i}" for i in range(y.shape[1])])
    return "\n".join([header] + [",".join(map(repr, row)) for row in np.hstack([x, y]).tolist()]) + "\n"


def traced_peak(call):
    """(call(), the peak of the memory it allocated, by tracemalloc)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


B = cli._WRITE_ROWS
# every character str.splitlines ends a line at, besides "\n"
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# (name, the line, whether it is inserted before the third line from the end
# or replaces it)
DEFECTS = [
    ("bad-field", "1.0,oops", False),
    ("ragged-short", "1.0", False),
    ("ragged-long", "1.0,2.0,3.0", False),
    ("nan", "nan,1.0", False),
    ("inf", "1.0,-inf", False),
    ("blank", "", True),
    ("whitespace", " \t ", True),
    *((f"break-{ord(c):x}-inside", f"3.0{c},4.0", False) for c in LINE_BREAKS),
    *((f"break-{ord(c):x}-between", f"3.0,4.0{c}5.0,6.0", False) for c in LINE_BREAKS),
]
DEFECT_IDS = [name for name, _, _ in DEFECTS]


def with_defect(lines, line, insert):
    if insert:
        lines.insert(-3, line)
    else:
        lines[-3] = line


class TestCsvBlocks:
    """The reader and writer work a block at a time; files, arrays and
    messages are those of one pass over the whole text."""

    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("d_x, d_y", [(1, 1), (2, 3)])
    def test_written_bytes_and_read_back(self, tmp_path, n, d_x, d_y):
        rng = np.random.default_rng(n * 10 + d_x)
        data = rng.standard_normal((n, d_x + d_y)) * 10.0 ** rng.integers(-300, 300, (n, d_x + d_y))
        data[rng.integers(0, n, 3), rng.integers(0, d_x + d_y, 3)] = [-0.0, 5e-324, 1.7976931348623157e308]
        samples = PairedSamples(data[:, :d_x], data[:, d_x:])
        path = tmp_path / "s.csv"
        write_samples_csv(path, samples)
        assert path.read_bytes() == one_join_text(samples.x, samples.y).encode()
        assert_same_read(block_read(path), data)

    @pytest.mark.parametrize("name, line, insert", DEFECTS, ids=DEFECT_IDS)
    @pytest.mark.parametrize("ends", ["\n", "\r\n"])
    def test_defect_in_the_last_block(self, tmp_path, name, line, insert, ends):
        # a file of several read chunks, its defect three lines from the end
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3 * cli._READ_CHARS // 30, 2))
        lines = one_join_text(data[:, :1], data[:, 1:]).splitlines()
        with_defect(lines, line, insert)
        path = tmp_path / "d.csv"
        path.write_bytes((ends.join(lines) + ends).encode())
        assert len(path.read_text(encoding="utf-8")) > 3 * cli._READ_CHARS
        want = whole_text_read(path)
        assert_same_read(block_read(path), want)
        if name.startswith(("bad", "ragged", "nan", "inf")) or name.endswith("inside"):
            assert isinstance(want, str) and f"line {len(lines) - 2}: " in want

    @pytest.mark.parametrize("name, line, insert", DEFECTS, ids=DEFECT_IDS)
    def test_every_chunk_boundary(self, tmp_path, monkeypatch, name, line, insert):
        # small chunks cut the file at every offset, the defect's included
        lines = ["x0,y0", "1.0,2.0", "-0,3e-2", "4.5,6.0", "7.0,8.25", "9.0,1e3"]
        with_defect(lines, line, insert)
        text = "\r\n".join(lines[:3]) + "\r\n" + "\n".join(lines[3:])  # the last line unterminated
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        want = whole_text_read(path)
        for size in range(1, len(text) + 2):
            monkeypatch.setattr(cli, "_READ_CHARS", size)
            with open(path, encoding="utf-8") as fh:
                assert [got for chunk in cli._chunk_lines(fh) for got in chunk] == text.splitlines()
            assert_same_read(block_read(path), want)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("", "empty file (line 1)"),
            ("\n", "line 1: header must be x0..x{dx-1},y0..y{dy-1}, got ''"),
            ("x0,y0\n", "need at least 2 data rows"),
            ("x0,y0\n\n \n", "need at least 2 data rows"),
            ("x0,y0\n1,2\n", "need at least 2 data rows"),
            ("x0,y0", "need at least 2 data rows"),
        ],
        ids=["empty", "blank-header", "header-only", "blank-body", "one-row", "unterminated-header"],
    )
    @pytest.mark.parametrize("size", [1, 3, 2**15])
    def test_short_files(self, tmp_path, monkeypatch, text, want, size):
        monkeypatch.setattr(cli, "_READ_CHARS", size)
        path = tmp_path / "short.csv"
        path.write_bytes(text.encode())
        assert block_read(path) == f"{path}: {want}"

    def test_a_line_longer_than_many_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_READ_CHARS", 7)
        path = tmp_path / "long.csv"
        path.write_text("x0,y0\n" + "1." + "0" * 500 + "1,2\n3,4\n")
        assert_same_read(block_read(path), whole_text_read(path))

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        """10^5 rows, at which a pass over the whole text held about 30 MB of
        Python objects."""
        rng = np.random.default_rng(8)
        samples = PairedSamples(rng.standard_normal(10**5), rng.standard_normal(10**5))
        path = tmp_path_factory.mktemp("big") / "big.csv"
        write_samples_csv(path, samples)
        return samples, path

    def test_write_holds_one_block(self, tmp_path, big):
        samples, path = big
        out = tmp_path / "again.csv"
        _, peak = traced_peak(lambda: write_samples_csv(out, samples))
        assert peak < 2**20
        assert out.read_bytes() == path.read_bytes()

    def test_read_holds_the_rows_and_one_block(self, big):
        samples, path = big
        read, peak = traced_peak(lambda: read_samples_csv(str(path)))
        # the parsed rows and the copies the samples keep, plus one block
        assert peak < 2 * (samples.x.nbytes + samples.y.nbytes) + 2**20
        assert read.x.tobytes() == samples.x.tobytes() and read.y.tobytes() == samples.y.tobytes()


def test_naive_bound_at_2e5_rows_holds_30_sample_arrays(tmp_path):
    # the ACE fit's window-sum tree holds a few arrays of the sample's length at a time
    n = 200_000
    path = tmp_path / "big.csv"
    assert run_cli(["gen", "--model", "gm1d", "--n", str(n), "--seed", "1", "--out", str(path)]) == 0
    argv = ["bound", "--input", str(path), "--method", "naive", "--seed", "1", "--out", str(tmp_path / "r.json")]
    code, peak = traced_peak(lambda: run_cli(argv))
    assert code == 0
    assert peak < 30 * 8 * n


class TestNotUtf8:
    """A file that is not UTF-8 is an input error, named in one line."""

    @pytest.mark.parametrize("late", [False, True], ids=["first-chunk", "later-chunk"])
    def test_csv(self, tmp_path, capsys, late):
        rows = "".join(f"{i}.0,{i}.5\n" for i in range(cli._READ_CHARS if late else 1))
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x0,y0\n" + rows.encode() + b"\xff\xfe,3\n")
        assert run_cli(["bound", "--input", str(path), "--method", "naive"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "data, line",
        [(b"units = \xff\n", 1), (b"n = 500\r\nseed = 2\r\n# caf\xe9\n", 3), (b"n = 500\n\x0cunits = bits\xc3\n", 3)],
        ids=["first-line", "comment-crlf", "truncated-after-form-feed"],
    )
    def test_config(self, tmp_path, capsys, data, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(data)
        argv = ["bound", "--model", "gm1d", "--n", "300", "--method", "naive", "--config", str(cfg)]
        assert run_cli(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: line {line}: not UTF-8 text (") and err.count("\n") == 1


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 500\nseed = 21\nmethod = naive\n")
        p1 = tmp_path / "r1.json"
        assert run_cli(["bound", "--model", "gm1d", "--config", str(cfg), "--out", str(p1)]) == 0
        r1 = read_json(p1)
        assert r1["seed"] == 21 and r1["method"] == "naive"
        p2 = tmp_path / "r2.json"
        assert (
            run_cli(["bound", "--model", "gm1d", "--config", str(cfg), "--seed", "99", "--out", str(p2)]) == 0
        )
        assert read_json(p2)["seed"] == 99

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GB_SEED", "123")
        p = tmp_path / "r.json"
        assert run_cli(["bound", "--model", "gm1d", "--n", "300", "--method", "naive", "--out", str(p)]) == 0
        assert read_json(p)["seed"] == 123

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense line\n")
        assert run_cli(["bound", "--model", "gm1d", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 500\nrestart = 3\n")  # typo for restarts
        assert run_cli(["bound", "--model", "gm1d", "--method", "naive", "--config", str(cfg)]) == EXIT_CONFIG
        assert "line 2: unknown key 'restart'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [("bound", "quad_m = 999"), ("gen", "method = naive"), ("gen", "units = bits")],
    )
    def test_config_key_the_command_does_not_take(self, tmp_path, capsys, command, line):
        # a key for another command's flag exits 2 like that flag would here
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 300\n{line}\n")
        out = tmp_path / ("r.json" if command == "bound" else "s.csv")
        argv = [command, "--model", "gm1d", "--seed", "1", "--config", str(cfg), "--out", str(out)]
        assert run_cli(argv) == EXIT_CONFIG
        assert f"line 2: unknown key {line.split(' = ')[0]!r}" in capsys.readouterr().err

    def test_config_value_error_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("units = furlongs\n")
        argv = ["bound", "--model", "gm1d", "--n", "500", "--method", "naive", "--config", str(cfg)]
        assert run_cli(argv) == EXIT_CONFIG
        assert str(cfg) in capsys.readouterr().err

    def test_bad_value_fails_under_a_flag_that_overrides_it(self, tmp_path, monkeypatch):
        # every config line and GB_SEED is parsed, even where a later flag wins
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("units = furlongs\n")
        argv = ["bound", "--model", "gm1d", "--n", "300", "--method", "naive", "--out", str(tmp_path / "r.json")]
        assert run_cli([*argv, "--config", str(cfg), "--units", "nats"]) == EXIT_CONFIG
        monkeypatch.setenv("GB_SEED", "abc")
        assert run_cli([*argv, "--seed", "3"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [("smoother", "knn"), ("bandwidth", "0.3"), ("kcca_ridge", "1e-3"), ("kcca_width", "1"),
         ("tol", "1e-3"), ("beta_points", "50"), ("reference", "no")],
    )
    def test_retired_config_key(self, tmp_path, capsys, key, value):
        # settings of kernel CCA, of the kernel smoother and that always took
        # their default: a config file that still names one must fail, not
        # run without it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 500\n{key} = {value}\n")
        argv = ["bound", "--model", "gm1d", "--method", "naive", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
        assert run_cli(argv) == EXIT_CONFIG
        assert f"line 2: unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line",
        [
            ("bound", "units = furlongs"),
            ("curve", "units = furlongs"),
            ("bound", "k = many"),
            ("bound", "seed = -1"),
        ],
    )
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv = [command, "--model", "gm1d", "--n", "500", "--method", "naive", "--config", str(cfg)]
        if command == "curve":
            argv += ["--out-dir", str(tmp_path / "curves")]
        assert run_cli(argv) == EXIT_CONFIG
        assert repr(line.split(" = ")[1]) in capsys.readouterr().err

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        # a non-negative one: GB_SEED goes through the --seed parser
        argv = ["bound", "--model", "gm1d", "--n", "300", "--method", "naive"]
        for bad in ("abc", "-1"):
            monkeypatch.setenv("GB_SEED", bad)
            assert run_cli([*argv, "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
            assert "GB_SEED" in capsys.readouterr().err


class TestCurve:
    def test_emits_curves_and_manifest(self, tmp_path):
        out = tmp_path / "curves"
        code = run_cli(
            [
                "curve",
                "--model",
                "gm1d",
                "--n",
                "2000",
                "--method",
                "offshelf",
                "--seed",
                "5",
                "--quad-m",
                "16",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["schema"] == 1
        assert set(manifest["files"]) == {"method_curve", "raw_gib_curve", "reference_curve"}
        header = (out / "method_curve.csv").read_text().splitlines()[0]
        assert header == "beta,i_tx_bits,i_ty_bits"
        ref = np.loadtxt(out / "reference_curve.csv", delimiter=",", skiprows=1)
        method = np.loadtxt(out / "method_curve.csv", delimiter=",", skiprows=1)
        assert ref[:, 2].max() > method[:, 2].max()  # reference sits above

    def test_manifest_reports_reference_solver(self, tmp_path):
        out = tmp_path / "curves"
        argv = ["curve", "--model", "gm1d", "--mu-z", "9.0", "--eps", "0.1", "--n", "1000",
                "--method", "naive", "--seed", "3", "--quad-m", "12", "--out-dir", str(out)]
        assert run_cli(argv) == 0
        manifest = read_json(out / "manifest.json")
        # the full key set, so an added or dropped key shows
        assert set(manifest) == {
            "schema", "command", "method", "provenance", "seed", "units", "rho",
            "embedding_bound_nats", "reference_pmf_mi_nats", "reference_solver", "files", "timing",
        }
        pmf, _ = quadrature_discretize(Gm1dModel(9.0, 0.1), m=12)
        _, diag = reverse_anneal(pmf)
        assert manifest["reference_solver"] == {
            "sweeps": sum(sol.n_iter for sol in diag["solutions"]),
            "stationary_betas": sum(sol.stationary for sol in diag["solutions"]),
            "unconverged_betas": sum(not (sol.converged or sol.stationary) for sol in diag["solutions"]),
            "max_residual": max(sol.residual for sol in diag["solutions"]),
            "lifted_points": diag["lifted_points"].tolist(),
        }
        assert manifest["reference_solver"]["sweeps"] >= 60
        assert manifest["reference_solver"]["unconverged_betas"] == 0
        assert 0.0 <= manifest["reference_solver"]["max_residual"] < 1.0
        assert manifest["reference_pmf_mi_nats"] == pmf.mutual_information()

    @pytest.mark.parametrize(
        "model",
        [["--model", "gm1d", "--quad-m", "50"], ["--model", "gm_mv", "--d", "1", "--quad-m", "64"]],
        ids=["gm1d-m50", "gm_mv-m64"],
    )
    def test_quad_m_the_model_cannot_take_fails_before_the_fit(self, tmp_path, monkeypatch, capsys, model):
        # a gm model's y axis has two components, so m > 45 breaks the bin
        # cap; the quadrature draws nothing, so it runs before the fit
        fit = mock.Mock(wraps=cli.run_method)
        monkeypatch.setattr(cli, "run_method", fit)
        argv = ["curve", *model, "--n", "500", "--method", "naive", "--seed", "1", "--out-dir", str(tmp_path / "c")]
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert fit.call_count == 0

    def test_no_reference_on_csv_input(self, sample_csv, tmp_path):
        out = tmp_path / "curves"
        code = run_cli(
            ["curve", "--input", str(sample_csv), "--method", "naive", "--seed", "2", "--out-dir", str(out)]
        )
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert "reference_curve" not in manifest["files"]
        assert manifest["reference_solver"] is None

    def test_independent_input_stays_at_origin(self, tmp_path):
        rng = np.random.default_rng(30)
        path = tmp_path / "indep.csv"
        rows = ["x0,y0"] + [
            f"{float(a)!r},{float(b)!r}"
            for a, b in zip(rng.standard_normal(3000), rng.standard_normal(3000))
        ]
        path.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "r.json"
        assert (
            run_cli(["bound", "--input", str(path), "--method", "naive", "--seed", "1", "--out", str(report_path)])
            == 0
        )
        report = read_json(report_path)
        assert report["lower_bound_bits"] <= 0.02
        assert report["no_lossless_gaussian_embedding"] is None  # true MI unknown for CSVs
        out = tmp_path / "curves"
        assert (
            run_cli(["curve", "--input", str(path), "--method", "naive", "--seed", "1", "--out-dir", str(out)]) == 0
        )
        curve = np.loadtxt(out / "method_curve.csv", delimiter=",", skiprows=1)
        assert np.all(curve[:, 2] <= 0.02)


def _pair_shown(r):
    return f"rho={r['rho'][0]:.3f}, {r['lower_bound_bits']:.4f} bits"


def _gm_shown(r):
    flag = r["no_lossless_gaussian_embedding"]
    return f"true={r['true_mi_nats'] / NATS_PER_BIT:.3f} bits, ace={r['ace_upper_bound_bits']:.3f} bits, flag={flag}"


# check id -> (method of the report a reproduce row shows, the value it shows)
SHOWN = {
    "sec4.4": {
        "naive": ("naive", _pair_shown),
        "ace": ("agce", lambda r: (
            f"rho={r['ace_rho'][0]:.3f}, {r['ace_upper_bound_bits']:.4f} bits, "
            f"flag={r['no_lossless_gaussian_embedding']}"
        )),
        "agce": ("agce", _pair_shown),
        "offshelf": ("offshelf", _pair_shown),
    },
    "sec5.4-gm": {"gm-d1": ("ace", _gm_shown), "gm-d2": ("ace", _gm_shown)},
}


def _printed_table(out: str):
    """({check: (value, command numbers)}, {number: command}) of a reproduce table."""
    lines = out.splitlines()
    starts = [lines[0].index(h) for h in ("check", "value", "target", "status", "commands")]
    rows = {}
    for line in lines[2:]:
        if not line:
            break
        cells = [line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
        rows[cells[0]] = (cells[1], cells[4])
    return rows, dict(re.findall(r"^\[(\d+)\] (gaussbound .+)$", out, re.M))


class TestReproduce:
    def test_unknown_id_lists_valid(self, capsys):
        assert run_cli(["reproduce", "bogus"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sec4.4" in err and "sec6.1-gm" in err

    def test_binding_failure_exit_code(self, monkeypatch, capsys):
        rows = [
            repro.CheckRow("ok", "passes", "1", "1", True),
            repro.CheckRow("info", "informational", "0", "1", False, binding=False),
        ]
        monkeypatch.setattr(repro, "run_experiment", lambda *_args, **_kwargs: rows)
        assert run_cli(["reproduce", "sec5.4-gm"]) == EXIT_OK
        rows.append(repro.CheckRow("bad", "binding and failed", "0", "1", False))
        assert run_cli(["reproduce", "sec5.4-gm"]) == EXIT_CHECK_FAILED
        assert "1 binding check(s) failed" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["sec4.4", "sec5.4-gm"])
    def test_printed_commands_replay(self, experiment, tmp_path, capsys):
        # each row's value is formatted from the reports of the commands the
        # table prints, rerun here through main with --out
        assert run_cli(["reproduce", experiment, "--n", "2000"]) in (EXIT_OK, EXIT_CHECK_FAILED)
        rows, commands = _printed_table(capsys.readouterr().out)
        reports = {}
        for number, command in commands.items():
            argv = shlex.split(command)
            assert argv[:2] == ["gaussbound", "bound"] and argv[argv.index("--n") + 1] == "2000"
            path = tmp_path / f"{number}.json"
            assert run_cli([*argv[1:], "--out", str(path)]) == EXIT_OK
            reports[number] = read_json(path)
        assert set(rows) >= set(SHOWN[experiment])
        for check, (value, numbers) in rows.items():
            if check in ("corr-xy", "true-mi"):  # model checks: no command
                assert numbers == "-"
                continue
            # a row that reads several reports shows the last one's fields
            report = reports[numbers.split(",")[-1]]
            method, shown = SHOWN[experiment][check]
            assert report["method"] == method and value == shown(report)

    def test_table_rendering(self, capsys):
        # small-n smoke of the table path; values are not asserted here
        assert run_cli(["reproduce", "sec5.4-gm", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "check" in out and "gm-d1" in out
        assert "PASS" in out or "FAIL" in out


class TestNeighborTables:
    """One kNN smoother per sample block and smoother per run; predict builds none."""

    @pytest.fixture()
    def tables(self, monkeypatch):
        built = []
        original = smoother.KnnSmoother.__init__

        def counting(sm, x_block, k):
            original(sm, x_block, k)
            built.append(sm.x.shape)

        monkeypatch.setattr(smoother.KnnSmoother, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "method, model, d",
        [("agce", "gm1d", 1), ("offshelf", "gm1d", 1), ("ace", "gm1d", 1), ("biterminal", "exp_gamma", 2)],
    )
    def test_bound_builds_two_tables(self, tmp_path, tables, method, model, d):
        argv = ["bound", "--model", model, "--d", str(d), "--n", "400", "--method", method,
                "--restarts", "2", "--seed", "3", "--out", str(tmp_path / "r.json")]
        assert run_cli(argv) == 0
        assert tables == [(400, d), (400, d)]

    @pytest.mark.parametrize(
        "fit",
        [lambda s: agce_fit_1d(s, n_restarts=2, seed=5), lambda s: offshelf_lower_1d(s, seed=5)],
        ids=["agce", "offshelf"],
    )
    def test_fitted_transform_builds_none(self, tables, fit):
        pair = fit(gm1d_sample(400, 10.0, 0.1, seed=4).samples)
        before = len(tables)
        grid = np.linspace(-12.0, 12.0, 50)
        assert np.isfinite(pair.phi(grid)).all() and np.isfinite(pair.psi(grid)).all()
        assert len(tables) == before


class TestAceFits:
    """Each bound fits ACE once: a method's own ACE model gives the upper bound."""

    @pytest.fixture()
    def fits(self, monkeypatch):
        calls = []
        original = cca_ace.ace_fit

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("gaussbound") and getattr(module, "ace_fit", None) is original:
                monkeypatch.setattr(module, "ace_fit", counting)
        return calls

    @pytest.mark.parametrize(
        "method, model, d",
        [(m, "gm1d", 1) for m in METHODS] + [("offshelf", "exp_gamma", 2), ("biterminal", "exp_gamma", 2)],
    )
    def test_bound_fits_ace_once(self, tmp_path, fits, method, model, d):
        argv = ["bound", "--model", model, "--d", str(d), "--n", "400", "--method", method,
                "--restarts", "2", "--seed", "3", "--out", str(tmp_path / "r.json")]
        assert run_cli(argv) == 0
        assert len(fits) == 1

    def test_sec44_fits_ace_once_per_row_command(self, fits):
        # one fit per bound command: naive (for its upper bound), agce and
        # offshelf; the ace row reads AGCE's fit
        rows = repro.run_experiment("sec4.4", n=2000)
        assert [r.id for r in rows] == ["corr-xy", "true-mi", "naive", "ace", "agce", "offshelf"]
        assert len(fits) == 3


# Run in a fresh interpreter: the scipy modules loaded so far, after the
# package's import and after each 1-D bound, then a d = 2 bound and a curve,
# which do load scipy.
_SCIPY_PROBE = """
import sys
from gaussbound import cli

csv, out = sys.argv[1], sys.argv[2]
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print("import", loaded())
for method in ("naive", "offshelf", "ace", "agce"):
    code = cli.main(["bound", "--input", csv, "--method", method, "--restarts", "2",
                     "--seed", "1", "--out", f"{out}/{method}.json"])
    print(method, code, loaded())
for model in ("exp_gamma", "mv_gaussian_scramble"):
    code = cli.main(["bound", "--model", model, "--n", "400", "--method", "naive",
                     "--seed", "1", "--out", f"{out}/{model}.json"])
    print(model, code, loaded())
code = cli.main(["bound", "--model", "exp_gamma", "--d", "2", "--n", "400", "--method",
                 "biterminal", "--seed", "1", "--out", f"{out}/biterminal.json"])
print("biterminal", code)
code = cli.main(["curve", "--model", "gm1d", "--n", "500", "--method", "naive", "--quad-m", "12",
                 "--seed", "1", "--out-dir", f"{out}/curves"])
print("curve", code)
"""


def test_one_d_bounds_load_no_scipy(tmp_path, sample_csv):
    # scipy's first import costs 0.2-0.4 s, most of a 1-D bound's process
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(sample_csv), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    lines = [line for line in out.stdout.splitlines() if not line.startswith("wrote ")]
    assert lines == [
        "import []",
        "naive 0 []",
        "offshelf 0 []",
        "ace 0 []",
        "agce 0 []",
        "exp_gamma 0 []",
        "mv_gaussian_scramble 0 []",
        "biterminal 0",
        "curve 0",
    ]


# Run in a fresh interpreter with numpy's private LAPACK module blocked, as a
# numpy release that moves it would leave it: the public wrappers stand in.
# numpy.testing, and so scipy, import that module too, so only a 1-D bound,
# which loads no scipy, can run this way.
_NO_PRIVATE_LAPACK = """
import sys
import numpy  # numpy.linalg itself needs the module
sys.modules["numpy.linalg._umath_linalg"] = None
from gaussbound import cli, stats_core
assert stats_core.slogdet is numpy.linalg.slogdet
sys.exit(cli.main(sys.argv[1:]))
"""


def test_bound_without_private_lapack_module(tmp_path, sample_csv):
    argv = ["bound", "--input", str(sample_csv), "--method", "offshelf", "--seed", "1"]
    assert run_cli([*argv, "--out", str(tmp_path / "normal.json")]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", _NO_PRIVATE_LAPACK, *argv, "--out", str(tmp_path / "blocked.json")],
                   env=env, capture_output=True, text=True, check=True)
    reports = [read_json(tmp_path / f"{name}.json") for name in ("normal", "blocked")]
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]


def _imported_by_cli(module: str) -> bool:
    code = f"import sys, gaussbound.cli; print({module!r} in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of import; no CLI path needs it
    assert not _imported_by_cli("scipy.stats")


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about 0.2 s of import; only the numeric gm1d MI uses it
    assert not _imported_by_cli("scipy.integrate")


def test_cli_import_leaves_out_scipy_spatial():
    # scipy.spatial costs about 0.1 s of import; only d > 1 kNN smoothers use it
    assert not _imported_by_cli("scipy.spatial")
