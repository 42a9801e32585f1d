"""CLI subcommands: schemas, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from finsler.cli import main


@pytest.fixture()
def euclidean_file(tmp_path):
    path = tmp_path / "euclidean.metric"
    path.write_text("dim = 2\nbuiltin = euclidean\n")
    return str(path)


@pytest.fixture()
def sphere_file(tmp_path):
    path = tmp_path / "sphere.metric"
    path.write_text("dim = 2\nbuiltin = sphere_round\n")
    return str(path)


def test_curvature_record_euclidean(euclidean_file, tmp_path, capsys):
    out = tmp_path / "record.json"
    code = main(
        [
            "curvature",
            "--metric",
            euclidean_file,
            "--x",
            "0,0",
            "--v",
            "1,0",
            "--u",
            "0,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["flag_curvature"] == pytest.approx(0.0, abs=1e-14)
    assert doc["L"] == 1.0
    for key in ("metric", "x", "v", "u", "g", "C", "Gamma", "N", "jacobi"):
        assert key in doc
    np.testing.assert_allclose(doc["g"], np.eye(2))


def test_curvature_with_predecessor(sphere_file, capsys):
    code = main(
        [
            "curvature",
            "--metric",
            sphere_file,
            "--x",
            "0.2,0.1",
            "--v",
            "1,0.2",
            "--u",
            "0.1,1",
            "--w",
            "0.5,-0.4",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flag_curvature"] == pytest.approx(1.0, abs=1e-6)
    assert doc["flag_curvature_predecessor"] == pytest.approx(1.0, abs=1e-6)


def test_curvature_accepts_bare_builtin_names(capsys):
    code = main(
        ["curvature", "--metric", "euclidean", "--x", "0,0", "--v", "1,0", "--u", "0,1"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flag_curvature"] == 0.0


def test_geodesic_csv_schema(sphere_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "geodesic",
            "--metric",
            sphere_file,
            "--x0",
            "1,0",
            "--v0",
            "0,1",
            "--T",
            "6.5",
            "--tol",
            "1e-9",
            "--points",
            "40",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["t", "x1", "x2", "v1", "v2", "L"]
    assert len(rows) == 41
    energies = np.array([float(r[-1]) for r in rows[1:]])
    assert np.abs(energies - energies[0]).max() <= 1e-8 * energies[0]


def test_verify_default_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--plan", "default", "--seed", "7", "--samples", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert "identities" in doc


def test_verify_reports_are_byte_identical_across_runs(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["verify", "--plan", "default", "--seed", "3", "--samples", "2", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_plan_file(tmp_path, capsys):
    plan = {
        "metrics": ["euclidean", {"builtin": "funk", "dim": 2}],
        "samples": 2,
        "curve_samples": 1,
        "heavy_samples": 1,
        "seed": 5,
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["verify", "--plan", str(path)]) == 0


def test_verify_samples_flag_overrides_the_plan_file(tmp_path, capsys):
    plan = {"metrics": ["euclidean"], "samples": 2, "curve_samples": 1, "heavy_samples": 0}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    for argv, count in (([], 2), (["--samples", "3"], 3)):
        out = tmp_path / "report.json"
        assert main(["verify", "--plan", str(path), "--out", str(out)] + argv) == 0
        report = json.loads(out.read_text())
        assert report["identities"]["euler_gvv"]["count"] == count
        assert "euler_gvv" in capsys.readouterr().out
    assert report["seed"] == 7


def test_verify_plan_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"metrics": ["euclidean"], "retries": 3}))
    assert main(["verify", "--plan", str(path)]) == 1
    assert "unknown plan keys" in capsys.readouterr().err


def test_verify_failure_exit_code(tmp_path):
    plan = {
        "metrics": ["funk"],
        "samples": 2,
        "curve_samples": 1,
        "heavy_samples": 0,
        "seed": 5,
        "tolerances": {"koszul": 1e-30},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["verify", "--plan", str(path)]) == 1


@pytest.mark.parametrize("T", ["1.0", "-1.0"])
def test_geodesic_with_one_point_writes_the_start(T, tmp_path):
    out = tmp_path / "trace.csv"
    argv = ["geodesic", "--metric", "funk", "--x0=0.1,-0.2", "--v0=0.3,0.5", "--T", T, "--points", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["t", "x1", "x2", "v1", "v2", "L"]
    assert len(rows) == 2
    assert [float(c) for c in rows[1][:5]] == [0.0, 0.1, -0.2, 0.3, 0.5]


def test_plan_metric_above_dimension_eight_is_one_error_line(tmp_path, capsys):
    from finsler.jets import jet_space

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"dim": 9, "metrics": ["euclidean"]}))
    builds = jet_space.cache_info().misses
    assert main(["verify", "--plan", str(path)]) == 1
    assert jet_space.cache_info().misses == builds
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: metric 'euclidean' has dimension 9; verification needs dimension 2 to 8"
    ]


def test_table_sphere_grid(sphere_file, tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["table", "--metric", sphere_file, "--grid", "5", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x1", "x2", "L", "flag_curvature"]
    assert len(rows) == 26  # header + 5x5 grid
    ks = np.array([float(r[-1]) for r in rows[1:]])
    np.testing.assert_allclose(ks, 1.0, atol=1e-6)


@pytest.mark.parametrize("flag", ["--T", "--tol"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_geodesic_refuses_non_finite_time_and_tolerance(flag, bad, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("integration started; with a non-finite T it never ends")

    monkeypatch.setattr("finsler.curves.dop853", integrate)
    argv = ["geodesic", "--metric", "sphere_round", "--x0", "0.1,0.2", "--v0", "1,0", "--T", "1"]
    code = main(argv + [f"{flag}={bad}"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and flag[2:] in err[0]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["geodesic", "--metric", "sphere_round", "--x0", "0.1,0.2", "--v0", "1,0", "--T", "1"], "--points"),
        (["table", "--metric", "sphere_round"], "--grid"),
    ],
)
@pytest.mark.parametrize("count", ["0", "-1"])
def test_counts_below_one_are_refused_before_any_work(argv, flag, count, tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started before the count was checked")

    monkeypatch.setattr("finsler.curves.dop853", work)
    monkeypatch.setattr("finsler.cli.flag_curvature", work)
    out = tmp_path / "out.csv"
    code = main(argv + [flag, count, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {flag} must be at least 1, got {count}"]
    assert not out.exists()


def test_geodesic_with_a_large_integer_power_finishes_and_matches_the_closed_form(tmp_path):
    # L = f(x1) |v|^2 with f = (1 + 0.01 x1^2)^200000: from v0 = (1, 0) the
    # geodesic keeps x2 and v2 = 0, and L = f(x1) v1^2 is conserved
    path = tmp_path / "big.metric"
    path.write_text("dim = 2\nL = (v1^2 + v2^2)*(1 + 0.01*x1^2)^200000\n")
    out = tmp_path / "trace.csv"
    start = time.perf_counter()
    argv = ["geodesic", "--metric", str(path), "--x0=0.1,0.1", "--v0=1,0", "--T", "0.01", "--out", str(out)]
    assert main(argv) == 0
    assert time.perf_counter() - start < 20.0
    t, x1, x2, v1, v2, L = np.array([[float(c) for c in r] for r in csv.reader(out.read_text().splitlines()[1:])]).T

    def f(x):
        return (1 + 0.01 * x**2) ** 200000

    L0 = f(0.1)
    np.testing.assert_array_equal(x2, 0.1)
    np.testing.assert_array_equal(v2, 0.0)
    np.testing.assert_allclose(v1, np.sqrt(L0 / f(x1)), rtol=1e-8)
    np.testing.assert_allclose(L, L0, rtol=1e-8)
    assert x1[-1] > 0.1 and v1[-1] < 0.5


@pytest.mark.parametrize("base", ["2", "1.0035"])
def test_overflowing_power_ends_in_one_error_line(base, tmp_path, capsys):
    # 2^200000 overflows in L itself, 1.0035^200000 only in its derivatives
    path = tmp_path / "overflow.metric"
    path.write_text(f"dim = 2\nL = (v1^2 + v2^2)*({base} + x1^2)^200000\n")
    code = main(["geodesic", "--metric", str(path), "--x0=0,0.1", "--v0=1,0", "--T", "0.01"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "argv, plan, field",
    [
        (["--samples", "-1"], None, "samples"),
        (["--tol", "nan"], None, "tolerance"),
        ([], {"samples": "ten"}, "samples"),
        ([], {"degree": -1}, "degree"),
        ([], {"box": 0.5}, "box"),
        ([], {"tolerances": {"kozsul": 1e-30}}, "kozsul"),
    ],
)
def test_verify_refuses_bad_plans_with_one_error_line(argv, plan, field, tmp_path, capsys):
    if plan is not None:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"metrics": ["euclidean"], **plan}))
        argv = argv + ["--plan", str(path)]
    assert main(["verify", *argv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize(
    "doc, field",
    [
        (["euclidean"], "JSON object"),
        ({"metrics": 5}, "metrics"),
        ({"metrics": ["euclidean"], "seed": None}, "seed"),
        ({"metrics": ["euclidean"], "seed": 1.5}, "seed"),
        ({"metrics": ["euclidean"], "seed": -1}, "seed"),
        ({"metrics": ["euclidean"], "dim": None}, "dim"),
        ({"metrics": ["euclidean"], "dim": 2.7}, "dim"),
        ({"metrics": ["euclidean"], "dim": "3"}, "dim"),
        ({"metrics": [{"builtin": "euclidean", "dim": True}]}, "dim"),
        ({"metrics": [{"builtin": "funk", "radius": None}]}, "radius"),
        ({"metrics": [{"builtin": "funk", "radius": float("inf")}]}, "radius"),
        ({"metrics": [{"builtin": "riemannian", "matrix": 5}]}, "matrix"),
        ({"metrics": [{"builtin": "riemannian", "matrix": [[None]]}]}, "matrix"),
        ({"metrics": [{"file": 0}]}, "file"),
        ({"metrics": [{"file": 5}]}, "file"),
    ],
)
def test_verify_refuses_mistyped_plan_files(doc, field, tmp_path, capsys, monkeypatch):
    def never(plan):
        raise AssertionError("a mistyped plan reached the sweep")

    monkeypatch.setattr("finsler.cli.run_verification", never)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--plan", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize("entry", ["riemannian_perturbation", {"builtin": "riemannian_perturbation"}])
def test_verify_plan_names_riemannian_perturbation_as_a_builtin(entry, tmp_path):
    plan = {"metrics": [entry], "samples": 2, "curve_samples": 1, "heavy_samples": 1, "seed": 5}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "report.json"
    assert main(["verify", "--plan", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metrics"] == ["riemannian_perturbation"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["curvature", "--x", "0,0", "--v", "1,0", "--u", "0,1,4"], "--u"),
        (["curvature", "--x", "0,0", "--v", "1,0", "--u", "0,1", "--w", "1,2,3"], "--w"),
        (["table", "--v", "1,0", "--u", "1,0,0"], "--u"),
        (["table", "--box", "1,2,3"], "--box"),
        (["table", "--box", "0.5"], "--box"),
        (["geodesic", "--x0", "0,0", "--v0", "1,0,0", "--T", "1"], "--v0"),
    ],
)
def test_vector_lengths_must_match_the_metric(argv, flag, capsys):
    assert main([argv[0], "--metric", "euclidean", *argv[1:]]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and flag in err[0]


def test_vector_length_is_checked_against_a_metric_file(euclidean_file, capsys):
    argv = ["curvature", "--metric", euclidean_file, "--x", "0,0,0", "--v", "1,0,0", "--u", "0,1,0"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--x has 3 entries" in err[0]


@pytest.mark.parametrize(
    "text, field",
    [
        ("dim = 2\nbuiltin = euclidean\na11 = 7\n", "matrix keys"),
        ("dim = 2\nL = v1^2 + v2^2\nradius = 3\n", "radius"),
        ("dim = 2\nbuiltin = funk\nradius = -1\n", "radius"),
        ("dim = 2\nbuiltin = funk\nradius = inf\n", "radius"),
        ("dim = 2\nbuiltin = funk\nradius = abc\n", "radius"),
    ],
)
def test_metric_file_parameters_are_refused_with_one_error_line(text, field, tmp_path, capsys):
    path = tmp_path / "bad.metric"
    path.write_text(text)
    assert main(["curvature", "--metric", str(path), "--x", "0,0", "--v", "1,0", "--u", "0,1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize(
    "entry, field",
    [
        ({"builtin": "euclidean", "matrix": [[7, 0], [0, 7]]}, "matrix"),
        ({"builtin": "riemannian", "matrix": [[1, 0], [0, 1]], "radius": 5.0}, "radius"),
    ],
)
def test_plan_entry_parameters_the_metric_does_not_take(entry, field, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"metrics": [entry]}))
    assert main(["verify", "--plan", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and field in err[0]


def test_domain_error_gives_single_diagnostic_and_exit_1(tmp_path, capsys):
    path = tmp_path / "funk.metric"
    path.write_text("dim = 2\nbuiltin = funk\n")
    code = main(
        ["curvature", "--metric", str(path), "--x", "2,0", "--v", "1,0", "--u", "0,1"]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")


def test_complex_constant_in_metric_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "complex.metric"
    path.write_text("dim = 2\nL = v1^2 + v2^2 * (0 - 8)^0.5\n")
    code = main(["curvature", "--metric", str(path), "--x", "0.1,0.2", "--v", "1,0", "--u", "0,1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: constant power is not a real number (at position 14)"]


def test_division_by_zero_in_metric_gives_single_diagnostic_and_exit_2(tmp_path, capsys):
    path = tmp_path / "zero.metric"
    path.write_text("dim = 2\nL = (v1^2 + v2^2) / (x1 - x1)\n")
    code = main(["curvature", "--metric", str(path), "--x", "0.1,0.2", "--v", "1,0", "--u", "0,1"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: arithmetic failure")


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "finsler", "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: finsler")


def test_unknown_metric_name_errors(capsys):
    code = main(
        ["curvature", "--metric", "nope", "--x", "0,0", "--v", "1,0", "--u", "0,1"]
    )
    assert code == 1
    assert "neither a file nor" in capsys.readouterr().err


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "--metric", "euclidean", "--x", "0,0", "--nope", "1"])
    assert exc.value.code == 2


def test_bad_vector_flag_exit_2(capsys):
    for bad in ("a,b", "nan,0.3", "inf,0"):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", "--metric", "euclidean", "--x", bad, "--v", "1,0", "--u", "0,1"])
        assert exc.value.code == 2
        assert bad in capsys.readouterr().err


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["--box", "-0.5,0.5"], ["--box=-0.5,0.5"]),
        (["--x", "-0.2,0.1", "--v", "-1,0.5"], ["--x=-0.2,0.1", "--v=-1,0.5"]),
        (["--x0", "-.2,0.1", "--v0", "1,-0.5"], ["--x0=-.2,0.1", "--v0=1,-0.5"]),
    ],
)
def test_vector_flags_accept_a_separate_negative_value(spaced, joined, capsys):
    command = {
        "--box": ["table", "--metric", "sphere_round", "--grid", "3"],
        "--x": ["curvature", "--metric", "funk", "--u", "0,1"],
        "--x0": ["geodesic", "--metric", "funk", "--T", "0.5", "--points", "5"],
    }[spaced[0]]
    assert main(command + joined) == 0
    expected = capsys.readouterr().out
    assert main(command + spaced) == 0
    assert capsys.readouterr().out == expected


def test_separate_non_finite_vector_is_still_refused(capsys):
    for bad in ("-inf,0", "-nan,0.3"):
        for argv in (["--x", bad], ["--x=" + bad]):
            with pytest.raises(SystemExit) as exc:
                main(["curvature", "--metric", "euclidean", *argv, "--v", "1,0", "--u", "0,1"])
            assert exc.value.code == 2
            capsys.readouterr()


def test_verify_global_tolerance_override(tmp_path):
    # one knob: a loose global tolerance passes, an absurdly tight one fails
    assert main(["verify", "--plan", "default", "--seed", "2", "--samples", "2", "--tol", "1e-3"]) == 0
    assert main(["verify", "--plan", "default", "--seed", "2", "--samples", "2", "--tol", "1e-30"]) == 1


def test_verify_plan_file_seed_is_respected(tmp_path):
    plan = {"metrics": ["euclidean"], "samples": 2, "curve_samples": 1,
            "heavy_samples": 0, "seed": 123}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "rep.json"
    assert main(["verify", "--plan", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 123
    # explicit flag wins over the file
    assert main(["verify", "--plan", str(path), "--seed", "9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


def test_verify_refuses_a_negative_seed_with_one_error_line(tmp_path, capsys):
    assert main(["verify", "--plan", "default", "--seed", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: plan seed must be a non-negative integer, got -3"
    ]
    # the flag is checked, not the file it overrides
    path = tmp_path / "plan.json"
    plan = {"metrics": ["euclidean"], "samples": 1, "curve_samples": 0, "seed": -1}
    path.write_text(json.dumps(plan))
    out = tmp_path / "rep.json"
    assert main(["verify", "--plan", str(path), "--seed", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 4


def _main_warning_free(argv):
    """main(argv), asserting that it issues no warning: outside pytest,
    Python prints each one to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def test_non_finite_fundamental_tensor_is_one_error_line(capsys):
    # g of the round sphere at x = 1e200 overflows; cond(g) would end in
    # LAPACK's "SVD did not converge"
    argv = ["curvature", "--metric", "sphere_round", "--x", "1e200,0", "--v", "1,0", "--u", "0,1"]
    code = _main_warning_free(argv)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: fundamental tensor is not finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--metric", "euclidean", "--x", "0,0", "--v", "1e300,0", "--u", "0,1"],
        ["table", "--metric", "euclidean", "--v", "1e200,0", "--u", "0,1", "--grid", "2"],
    ],
)
def test_non_finite_L_is_one_error_line_and_no_output(argv, capsys):
    code = _main_warning_free(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: arithmetic failure while evaluating: L of metric 'euclidean' is inf")


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--metric", "sphere_round", "--x", "0,0", "--v", "1e-170,0", "--u", "0,1"],
        ["table", "--metric", "sphere_round", "--v", "1e-170,0", "--u", "0,1", "--grid", "2"],
    ],
)
def test_underflowing_L_is_named_in_one_error_line(argv, capsys):
    # L is about |v|^2 and underflows to 0 at |v| = 1e-170; the flag
    # span(v, u) is not degenerate, so the error names the underflow
    code = _main_warning_free(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: L underflows at |v| = 1e-170")


def test_small_reference_vector_above_the_underflow_keeps_its_output(capsys):
    # at |v| = 1e-150, L = 4e-300 on the round sphere at the origin is a
    # normal float: the records are unchanged
    argv = ["curvature", "--metric", "sphere_round", "--x", "0,0", "--v", "1e-150,0", "--u", "0,1"]
    assert _main_warning_free(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["L"], doc["flag_curvature"], doc["jacobi"]) == (4e-300, 1.0, [0.0, 4e-300])
    argv = ["table", "--metric", "sphere_round", "--v", "1e-150,0", "--u", "0,1", "--grid", "2"]
    assert _main_warning_free(argv) == 0
    row = "1.7777777777777778e-300,0.99999999999999978"
    assert capsys.readouterr().out == (
        f"x1,x2,L,flag_curvature\n-0.5,-0.5,{row}\n-0.5,0.5,{row}\n0.5,-0.5,{row}\n0.5,0.5,{row}\n"
    )
