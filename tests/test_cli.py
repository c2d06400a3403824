"""CLI contracts: formats, exit codes, determinism, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussbound import (
    agce_fit_1d,
    cca_ace,
    gm1d_sample,
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
    main,
)
from gaussbound.models import Gm1dModel


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

    @pytest.mark.parametrize("method", ["biterminal", "kcca"])
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
            ["bound", "--method", "kcca", "--n", "10001"],
            ["bound", "--method", "agce", "--restarts", "0", "--n", "500"],
            ["bound", "--method", "agce", "--restarts", "-3", "--n", "500"],
            ["bound", "--method", "agce", "--tol", "-1", "--n", "500"],
            ["curve", "--method", "naive", "--beta-points", "0", "--n", "500"],
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
            # a kernel width given must be positive
            ["bound", "--method", "kcca", "--kcca-width", "0", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-width", "-1", "--n", "500"],
            ["bound", "--method", "kcca", "--kcca-width", "nan", "--n", "500"],
            # every sampler needs n >= 1
            ["gen", "--model", "exp_gamma", "--n", "0"],
            ["gen", "--model", "mv_gaussian_scramble", "--n", "-3"],
        ],
        ids=["k-zero", "k-above-n", "kcca-n-cap", "restarts-zero", "restarts-negative",
             "tol-negative", "curve-beta-points-zero", "naive-n-10", "agce-n-60",
             "offshelf-n-60", "biterminal-n-60", "reproduce-n-40", "seed-negative",
             "gen-seed-negative", "reproduce-seed-negative", "eps-zero", "eps-nan", "mu-z-nan",
             "gm1d-d-2", "gen-gm1d-d-2", "kcca-width-zero", "kcca-width-negative", "kcca-width-nan",
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


class TestCsvValidation:
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
        [
            ("bound", "units = furlongs"),
            ("curve", "units = furlongs"),
            ("bound", "smoother = kernal"),
            ("curve", "reference = maybe"),
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
            "lifted_points": diag["lifted_points"].tolist(),
        }
        assert manifest["reference_solver"]["sweeps"] >= 60
        assert manifest["reference_pmf_mi_nats"] == pmf.mutual_information()

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

        def counting(sm, x_block, k=None):
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

    def test_sec44_fits_ace_twice(self, fits):
        # the off-shelf pair and AGCE fit once each; the ace row reads AGCE's fit
        rows = repro.sec44(n=2000)
        assert [r.id for r in rows] == ["corr-xy", "true-mi", "naive", "ace", "agce", "offshelf"]
        assert len(fits) == 2


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
