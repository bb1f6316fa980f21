"""Command-line interface: run, compare, oracle, and exit codes."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aplab.solver
from aplab.cli import main
from aplab.core import load_field


def small_config(**problem_overrides):
    problem = {
        "p": 2.0,
        "gamma": 1.0,
        "lambda_plus": 0.5,
        "lambda_minus": 0.5,
        "delta": 1.0,
        "extents": [[-1.0, 1.0]],
        "resolution": [65],
        "boundary": "0.25 * pow(max(x, 0), 2)",
    }
    problem.update(problem_overrides)
    return {
        "problem": problem,
        "diagnostics": {"growth": {"center": [0.0], "radii": [0.25, 0.5]}},
    }


@pytest.fixture(scope="module")
def bundle_a(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_a")
    cfg = base / "run.json"
    cfg.write_text(json.dumps(small_config()))
    out = base / "bundle"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# run


def test_run_writes_bundle(bundle_a, capsys):
    for name in ("field.apf", "report.json", "diagnostics.csv", "manifest.json"):
        assert (bundle_a / name).is_file()


def test_run_success_message(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "energy=" in out and "bundle=" in out


def test_run_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_invalid_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    bad = small_config()
    bad["problem"]["p"] = 0.5
    cfg.write_text(json.dumps(bad))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "boundary",
    ["+".join(["x"] * 3000), "-" * 2000 + "x", "-" * 100_000 + "x"],
    ids=["long_sum", "unary_chain", "parser_stack"],
)
def test_run_deeply_nested_boundary_is_exit_2(tmp_path, capsys, boundary):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(small_config(boundary=boundary)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("problem", "lambda_plus", float("nan")),
        ("solver", "tol_residual", float("inf")),
        ("diagnostics", "zero_tol", float("nan")),
    ],
)
def test_run_nonfinite_config_number_is_exit_2(tmp_path, capsys, section, key, value):
    # json writes and reads NaN and Infinity, and no schema bound catches a NaN
    cfg_dict = small_config()
    cfg_dict.setdefault(section, {})[key] = value
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(json.dumps(cfg_dict))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_inequality_sweep_past_the_float_range_is_exit_2(tmp_path, capsys):
    cfg_dict = small_config()
    cfg_dict["seed"] = 0
    cfg_dict["diagnostics"]["inequalities"] = {
        "names": ["monotonicity"], "p_values": [1100], "n_pairs": 100
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(cfg_dict))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "monotonicity margins at p = 1100" in capsys.readouterr().err


_LADDER = {"center": [0.9], "radii": [0.0625, 0.5]}  # twice the spacing fits
_BALL = {"center": [0.9], "radius": 0.5}  # reaches x = 1.4 on [-1, 1]
_OFF_GRID_BALLS = {
    "growth": _LADDER,
    "density": _LADDER,
    "perimeter": _LADDER,
    "porosity": _LADDER,
    "strip": {**_BALL, "eps_ladder": [0.1, 0.05]},
    "scaling": {**_BALL, "r_values": [0.5]},
    "replacement": _BALL,
}


@pytest.mark.parametrize("section", list(_OFF_GRID_BALLS))
def test_run_ball_leaving_the_grid_is_exit_2(tmp_path, capsys, section):
    # a ball diagnostic measures inside the box or not at all: clipped to
    # the box, it would read the whole grid without a word
    cfg_dict = small_config()
    cfg_dict["diagnostics"] = {section: _OFF_GRID_BALLS[section]}
    cfg = tmp_path / "ball.json"
    cfg.write_text(json.dumps(cfg_dict))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "ball of radius 0.5 at (0.9,) leaves the grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_stall_is_exit_3_with_partial_bundle(tmp_path, capsys, monkeypatch):
    # an Armijo fraction near 1 with no backtracking room accepts no step,
    # on n = 17 at the first width and on n = 33 and 65 at the last
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", 0.999)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 0.5)
    cfg = tmp_path / "stall.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.search(
        r"residual tolerance not reached: line search stalled at smoothing "
        r"width 1e-05 \(residual rms \S+, last accepted step none\); "
        "partial bundle in ",
        err,
    )
    assert (out / "report.json").is_file()
    assert json.loads((out / "report.json").read_text())["stalled"] is True


def test_run_unconverged_without_stall_is_exit_3(tmp_path, capsys, monkeypatch):
    # one Newton step per stage cannot reach the residual tolerance
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 1)
    cfg = tmp_path / "capped.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert (
        "residual tolerance not reached: step_cap exit at smoothing width 1e-05 "
        f"(residual rms {report['solve']['residual_rms']:.3e}); partial bundle in "
    ) in capsys.readouterr().err
    assert report["stalled"] is False
    assert report["solve"]["converged"] is False
    assert report["solve"]["stage_exits"][-1] == "step_cap"


def test_run_nonfinite_linear_solve_is_exit_3_with_partial_bundle(
    tmp_path, capsys, monkeypatch
):
    # every linear solve comes back NaN, which nothing retries: a stall on
    # n = 17 at the first width and on n = 33 and 65 at the last
    monkeypatch.setattr(
        aplab.solver, "spsolve", lambda M, rhs, *a, **kw: np.full_like(rhs, np.nan)
    )
    cfg = tmp_path / "nan_solve.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert (
        "residual tolerance not reached: linear solve non-finite at smoothing "
        "width 1e-05 (residual rms "
    ) in err
    report = json.loads((out / "report.json").read_text())
    assert report["stalled"] is True
    assert report["solve"]["converged"] is False


@pytest.mark.parametrize("width, code", [(1e-100, 0), (1e-110, 2), (1e-300, 2)])
def test_run_refuses_widths_the_kernel_cannot_evaluate(tmp_path, capsys, width, code):
    # at 1e-110 the potential curvature at u = 0 overflows, at 1e-300 the
    # width's square underflows; any warning fails the test
    cfg_dict = small_config()
    cfg_dict["solver"] = {"eps_ladder": [width]}
    cfg = tmp_path / "width.json"
    cfg.write_text(json.dumps(cfg_dict))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert f"smoothing width {width:g} is out of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_run_unwritable_output_is_exit_4(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(small_config()))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["run", str(cfg), "--out", str(blocker)]) == 4
    assert "cannot write bundle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_bundles(bundle_a, capsys):
    assert main(["compare", str(bundle_a), str(bundle_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["field_sup_diff"] == 0.0
    assert summary["max_delta"] == 0.0
    assert summary["unmatched_paths"] == []
    assert summary["over_tolerance"] == {}


def test_compare_detects_differences(bundle_a, tmp_path, capsys):
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(small_config(lambda_plus=0.4)))
    other = tmp_path / "other"
    assert main(["run", str(cfg), "--out", str(other)]) == 0
    capsys.readouterr()

    assert main(["compare", str(bundle_a), str(other)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["field_sup_diff"] > 0.0
    assert "params/lambda_plus" in summary["over_tolerance"]

    # a generous tolerance downgrades the differences to exit 0
    assert main(["compare", str(bundle_a), str(other), "--tol", "100.0"]) == 0


def _bundle_with_report(bundle, dest, report):
    dest.mkdir()
    shutil.copy(bundle / "field.apf", dest / "field.apf")
    (dest / "report.json").write_text(json.dumps(report))
    return dest


def test_compare_nan_against_number_is_over_tolerance(bundle_a, tmp_path, capsys):
    a = _bundle_with_report(bundle_a, tmp_path / "a", {"x": 1.0})
    b = _bundle_with_report(bundle_a, tmp_path / "b", {"x": float("nan")})
    assert main(["compare", str(a), str(b), "--tol", "100.0"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert list(summary["over_tolerance"]) == ["x"]
    assert summary["max_delta"] == float("inf")


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_compare_refuses_a_tolerance_no_delta_can_exceed(bundle_a, tmp_path, capsys, tol):
    # every d > nan is false, so a NaN tolerance would pass any two bundles
    a = _bundle_with_report(bundle_a, tmp_path / "a", {"x": 1.0})
    b = _bundle_with_report(bundle_a, tmp_path / "b", {"x": 2.0})
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(a), str(b), "--tol", tol])
    assert exc.value.code == 2
    assert "tolerance must be >= 0" in capsys.readouterr().err
    assert main(["compare", str(a), str(b), "--tol", "inf"]) == 0


def test_compare_nan_against_nan_is_equal(bundle_a, tmp_path, capsys):
    report = {"x": float("nan"), "y": 2.0}
    a = _bundle_with_report(bundle_a, tmp_path / "a", report)
    b = _bundle_with_report(bundle_a, tmp_path / "b", report)
    assert main(["compare", str(a), str(b)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["over_tolerance"] == {}
    assert summary["max_delta"] == 0.0
    assert summary["n_compared"] == 2


def test_compare_reports_work_counters_apart(bundle_a, tmp_path, capsys):
    report = json.loads((bundle_a / "report.json").read_text())
    report["solve"]["cg_iterations"] += 5
    counted = _bundle_with_report(bundle_a, tmp_path / "counted", report)
    assert main(["compare", str(bundle_a), str(counted)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["counter_deltas"] == {
        "solve/backtracks": 0.0,
        "solve/cg_floor_stops": 0.0,
        "solve/cg_forcing_stops": 0.0,
        "solve/cg_iterations": 5.0,
        "solve/clipped_models": 0.0,
        "solve/linear_solves": 0.0,
        "solve/polish_steps": 0.0,
    }
    assert summary["over_tolerance"] == {}
    assert summary["max_delta"] == 0.0

    # every other leaf, the Newton iteration count included, still counts
    report["solve"]["n_iterations"] += 1
    moved = _bundle_with_report(bundle_a, tmp_path / "moved", report)
    assert main(["compare", str(bundle_a), str(moved)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["over_tolerance"] == {"solve/n_iterations": 1.0}
    assert summary["counter_deltas"]["solve/cg_iterations"] == 5.0


def test_compare_lists_counters_an_older_bundle_still_carries(
    bundle_a, tmp_path, capsys
):
    # a bundle written when the solver still counted SuperLU solves and
    # diagonal-lift retries against a new one: the two counters are unmatched
    # paths, neither compared nor failing the comparison
    report = json.loads((bundle_a / "report.json").read_text())
    assert "superlu_solves" not in report["solve"]
    assert "lift_retries" not in report["solve"]
    report["solve"].update(superlu_solves=0, lift_retries=0)
    older = _bundle_with_report(bundle_a, tmp_path / "older", report)
    for dirs in ((older, bundle_a), (bundle_a, older)):
        assert main(["compare", *map(str, dirs), "--tol", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unmatched_paths"] == ["solve/lift_retries",
                                              "solve/superlu_solves"]
        assert summary["field_sup_diff"] == 0.0 and summary["over_tolerance"] == {}
        assert "solve/superlu_solves" not in summary["counter_deltas"]


def test_compare_passes_over_the_stage_exits(bundle_a, tmp_path, capsys):
    # the exits are string leaves: listed in the report, never diffed
    report = json.loads((bundle_a / "report.json").read_text())
    exits = report["solve"]["stage_exits"]
    assert exits and all(isinstance(x, str) for x in exits)
    report["solve"]["stage_exits"] = ["stall"] * len(exits)
    moved = _bundle_with_report(bundle_a, tmp_path / "moved", report)
    assert main(["compare", str(bundle_a), str(moved), "--tol", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["over_tolerance"] == {} and summary["unmatched_paths"] == []


def test_compare_reads_the_numeric_rows_of_diagnostics_csv(bundle_a, capsys):
    # one walk names the CSV rows and the compared leaves; booleans, strings
    # and nulls are rows but not compared
    with open(bundle_a / "diagnostics.csv", newline="") as fh:
        values = [json.loads(row["value"]) for row in csv.DictReader(fh)]
    numeric = [
        v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    assert 0 < len(numeric) < len(values)
    assert main(["compare", str(bundle_a), str(bundle_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_compared"] + len(summary["counter_deltas"]) == len(numeric)


def test_compare_invalid_bundle_is_exit_2(bundle_a, tmp_path, capsys):
    assert main(["compare", str(bundle_a), str(tmp_path / "empty")]) == 2
    assert "invalid bundle" in capsys.readouterr().err


def _one_node_axis(text):
    return "APFIELD v1 dim=1 n=1 a=-1.0 b=1.0\n0.0\nMASK\n1\nBVALS\n0.0\n"


def _nonfinite_free_value(text):
    lines = text.splitlines()
    lines[2] = "nan"  # node 1; node 0 is pinned and would be overwritten
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [_one_node_axis, _nonfinite_free_value])
def test_compare_bad_field_is_exit_2(bundle_a, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad"
    shutil.copytree(bundle_a, bad)
    path = bad / "field.apf"
    path.write_text(corrupt(path.read_text()))
    assert main(["compare", str(bundle_a), str(bad)]) == 2
    assert "invalid bundle" in capsys.readouterr().err


def test_compare_grid_mismatch_is_exit_2(bundle_a, tmp_path, capsys):
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(small_config(resolution=[33])))
    other = tmp_path / "coarse"
    assert main(["run", str(cfg), "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["compare", str(bundle_a), str(other)]) == 2
    assert "different grids" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_one_phase_json(capsys):
    code = main(["oracle", "--p", "2", "--gamma", "1", "--lambda-plus", "0.5"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "one_phase"
    assert info["beta"] == 2.0
    assert info["coefficient"] == 0.25


def test_oracle_one_phase_away_from_p_2(capsys):
    # the profile needs no alpha_p, so p != 2 runs on the defaults
    assert main(["oracle", "--p", "3", "--gamma", "1"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["beta"] == 1.5
    # A^(p-gamma) beta^(p-1) (beta-1) (p-1) = gamma delta lambda_plus: A^2 = 4/9
    assert info["coefficient"] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_oracle_radial_json(capsys):
    assert main(["oracle", "--p", "3", "--radial-dim", "2"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "radial_p_harmonic"
    assert info["beta"] == 0.5


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_oracle_radial_rejects_nonfinite_p(capsys, p):
    assert main(["oracle", "--p", p, "--radial-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p must lie in (1, inf)" in captured.err


def test_oracle_requires_gamma(capsys):
    assert main(["oracle", "--p", "2"]) == 2
    assert "--gamma is required" in capsys.readouterr().err


def test_oracle_rejects_inactive_phase(capsys):
    assert main(["oracle", "--p", "2", "--gamma", "1", "--delta", "0"]) == 2
    assert "delta" in capsys.readouterr().err


def test_oracle_export_round_trip(tmp_path, capsys):
    target = tmp_path / "profile.apf"
    code = main(
        ["oracle", "--p", "2", "--gamma", "1", "--lambda-plus", "0.5",
         "--export", str(target),
         "--interval", "-1", "1", "--resolution", "129"]
    )
    assert code == 0
    fld = load_field(target)
    x = fld.grid.axes[0]
    np.testing.assert_allclose(fld.values, 0.25 * np.clip(x, 0, None) ** 2)


def test_oracle_radial_export_is_rejected(tmp_path, capsys):
    # radial profiles have no 1D sampling; the export must fail cleanly
    code = main(
        ["oracle", "--p", "3", "--radial-dim", "2",
         "--export", str(tmp_path / "x.apf")]
    )
    assert code == 2
    assert "one_phase" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point


POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def console_script_target(name):
    """The ``module:function`` that ``[project.scripts]`` declares for ``name``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(
        rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"', section, re.MULTILINE
    )
    assert match, f"no {name!r} entry in [project.scripts]"
    return match.groups()


def test_console_script_runs_under_thread_cap():
    # Run the declared entry point as pip's generated wrapper does, so the
    # test needs no installed script; then report the pools it left set.
    module, func = console_script_target("apl")
    child = (
        "import json, os, sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'apl'\n"
        "try:\n"
        f"    sys.exit({func}())\n"
        "finally:\n"
        f"    pools = {{v: os.environ.get(v) for v in {POOL_VARS!r}}}\n"
        "    print(json.dumps(pools), file=sys.stderr)\n"
    )
    env = dict(os.environ, APL_THREADS="1")
    for var in POOL_VARS:
        # a preset pool variable wins over APL_THREADS and would hide the cap
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", child,
         "oracle", "--p", "2", "--gamma", "1", "--lambda-plus", "0.5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["beta"] == 2.0
    pools = json.loads(proc.stderr.splitlines()[-1])
    assert pools == dict.fromkeys(POOL_VARS, "1")


def test_module_invocation_matches_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "aplab.cli", "oracle", "--p", "3",
         "--radial-dim", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["beta"] == 0.0


@pytest.mark.parametrize(
    "name, resolution",
    # 105x105 has more than 10 000 free nodes, the size above which
    # OpenBLAS splits a dot product over its threads; a smaller grid would
    # pass even with BLAS inner products in the solver.  The 1D config runs
    # at its bundled resolution through LAPACK's banded Cholesky (dpbsv).
    [("crossing_2d", [105, 105]), ("degenerate_1d", None)],
    ids=["crossing_2d", "degenerate_1d"],
)
def test_bundle_does_not_depend_on_thread_count(tmp_path, name, resolution):
    cfg = json.loads(
        (Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text()
    )
    if resolution is not None:
        cfg["problem"]["resolution"] = resolution
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    bundles = []
    for threads in ("1", "2"):
        env = dict(os.environ, APL_THREADS=threads)
        for var in POOL_VARS:
            env.pop(var, None)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "aplab.cli", "run", str(path), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        bundles.append(out)
    for name in ("field.apf", "report.json"):
        assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes(), name
