"""Config validation, boundary expressions, runs, and bundle writing."""

import copy
import csv
import dataclasses
import gc
import json
import re
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import aplab.solver
from aplab import geometry
from aplab.core import Params, ScalarField, build_grid, report_leaves
from aplab.energy import DiscreteEnergy
from aplab.experiment import (
    CONFIG_SCHEMA,
    ConfigError,
    _DIAGNOSTICS,
    _growth_diag,
    _Solved,
    build_problem,
    config_digest,
    eval_boundary_expression,
    load_config,
    run_experiment,
    validate_config,
    write_bundle,
)
from aplab.geometry import (
    BallSpec,
    level_strip_energy,
    porosity_constant,
    relative_perimeter,
)
from aplab.phases import classify


def tiny_config():
    return {
        "seed": 0,
        "problem": {
            "p": 2.0,
            "gamma": 1.0,
            "lambda_plus": 0.5,
            "lambda_minus": 0.5,
            "delta": 1.0,
            "extents": [[-1.0, 1.0]],
            "resolution": [129],
            "boundary": "0.25 * pow(max(x, 0), 2)",
        },
        "diagnostics": {
            "growth": {"center": [0.0], "radii": [0.125, 0.25, 0.5]},
            "density": {"center": [0.0], "radii": [0.125, 0.25]},
            "replacement": {"center": [0.0], "radius": 0.25},
            "scaling": {"center": [0.0], "r_values": [0.5], "radius": 0.25},
            "inequalities": {
                "names": ["sum"],
                "p_values": [2.0],
                "n_pairs": 500,
                "eps": 1.0,
            },
        },
    }


# ---------------------------------------------------------------------------
# validation


def test_valid_config_passes():
    validate_config(tiny_config())


def test_config_schema_is_a_valid_schema():
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_schema_diagnostics_are_the_table_keys_and_thresholds():
    keys = CONFIG_SCHEMA["properties"]["diagnostics"]["properties"]
    assert set(keys) == set(_DIAGNOSTICS) | {"zero_tol"}


def test_readme_config_example_is_valid():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    validate_config(json.loads(example))


def test_readme_counter_list_names_exactly_the_work_counters():
    # README's one list of work counters names each of WORK_COUNTERS once,
    # in order, and nothing else, so a counter added or removed cannot leave
    # it stale; no other passage names a counter's report path
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    passage = readme.split("\nWork counters: ", 1)[1].split("\n\n")[1]
    names = re.findall(r"^- `(\w+)` — ", passage, re.M)
    assert tuple(names) == aplab.solver.WORK_COUNTERS
    assert len(names) == passage.count("\n- ") + 1
    assert re.findall(r"`solve/[^`]*`", readme) == ["`solve/<counter>`"]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda c: c.update(extra=1), "extra"),
        (lambda c: c.pop("problem"), "problem"),
        (lambda c: c["problem"].update(p=1.0), "p"),
        (lambda c: c["problem"].update(resolution=[129, 129]), "equal length"),
        (lambda c: c["problem"].update(extents=[[1.0, -1.0]]), "not increasing"),
        (lambda c: c.pop("seed"), "seed is required"),
        (
            lambda c: c["diagnostics"]["growth"].update(center=[0.0, 0.0]),
            "center",
        ),
        (
            lambda c: c["diagnostics"].update(minkowski={"eps_ladder": []}),
            "minkowski",
        ),
        (
            lambda c: c["diagnostics"]["inequalities"].update(names=["triangle"]),
            "names",
        ),
    ],
)
def test_invalid_configs_rejected(mutate, fragment):
    cfg = tiny_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=fragment):
        validate_config(cfg)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(arr)


@pytest.mark.parametrize(
    "token",
    ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "float_overflow", "int_overflow"],
)
def test_load_config_rejects_nonfinite_numbers(tmp_path, token):
    path = tmp_path / "cfg.json"
    text = json.dumps(tiny_config()).replace('"delta": 1.0', f'"delta": {token}')
    assert token in text
    path.write_text(text)
    with pytest.raises(ConfigError, match="at problem/delta: non-finite number$"):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert load_config(path) == cfg


def test_config_digest_is_key_order_independent():
    cfg = tiny_config()
    reordered = json.loads(json.dumps(cfg, sort_keys=True))
    assert config_digest(cfg) == config_digest(reordered)
    changed = copy.deepcopy(cfg)
    changed["problem"]["p"] = 3.0
    assert config_digest(changed) != config_digest(cfg)


# ---------------------------------------------------------------------------
# boundary expressions


def test_expression_evaluates_on_nodes():
    grid = build_grid(((-1.0, 1.0),), (9,))
    out = eval_boundary_expression("0.25 * pow(max(x, 0), 2)", grid)
    np.testing.assert_allclose(out, 0.25 * np.clip(grid.axes[0], 0, None) ** 2)


def test_expression_2d_and_broadcasting():
    grid = build_grid(((0.0, 1.0), (0.0, 2.0)), (5, 5))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    np.testing.assert_allclose(
        eval_boundary_expression("x * y + 1", grid), X * Y + 1.0
    )
    constant = eval_boundary_expression("2.5", grid)
    assert constant.shape == grid.shape
    np.testing.assert_array_equal(constant, 2.5)


@pytest.mark.parametrize(
    "expr",
    [
        "z",  # name beyond the grid dimension
        "sin(x)",  # disallowed function
        "x < 1",  # comparisons are not arithmetic
        "__import__('os')",
        "max(x)",  # needs two arguments
        "pow(x, 2, 3)",  # modular pow not supported
        "max(x, other=1)",  # keywords rejected
        "'abs'",  # non-numeric constant
        "1 / x",  # hits the node at x = 0
        "pow(x, 0.5)",  # nan on the negative half
        "x +",  # syntax error
    ],
)
def test_expression_rejections(expr):
    grid = build_grid(((-1.0, 1.0),), (9,))
    with pytest.raises(ConfigError):
        eval_boundary_expression(expr, grid)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_boundary_expression(
            "max(x, 0.5) ** 2", build_grid(((-1.0, 1.0),), (9,))
        ),
        lambda: report_leaves({"a": [1, {"b": 2.0}], "c": "d"}),
    ],
    ids=["eval_boundary_expression", "report_leaves"],
)
def test_recursive_walks_leave_no_reference_cycle(call):
    # a recursive closure that refers to itself is a cycle only the
    # collector frees; with it off, a call must leave nothing for it
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_integer_literal_past_float_range_is_config_error(tmp_path, capsys):
    from aplab.cli import main

    huge = "1" + "0" * 400
    grid = build_grid(((-1.0, 1.0),), (9,))
    with pytest.raises(ConfigError, match="out of float range"):
        eval_boundary_expression(huge, grid)
    cfg = tiny_config()
    cfg["problem"]["boundary"] = huge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "out of float range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# problem building


def test_build_problem_pins_faces_and_keeps_expression_values():
    fld, params, ladder = build_problem(tiny_config())
    grid = fld.grid
    expected = 0.25 * np.clip(grid.axes[0], 0, None) ** 2
    np.testing.assert_allclose(fld.values, expected)
    np.testing.assert_array_equal(fld.boundary_mask, grid.boundary_face_mask)
    assert params.p == 2.0
    assert ladder == aplab.solver.DEFAULT_LADDER


def test_build_problem_error_paths():
    cfg = tiny_config()
    cfg["problem"]["p"] = 3.0  # alpha_p then has no default
    with pytest.raises(ConfigError, match="alpha_p"):
        build_problem(cfg)
    cfg2 = tiny_config()
    cfg2["solver"] = {"eps_ladder": [0.01, 0.1]}  # refused by the solve
    with pytest.raises(ConfigError, match="nonincreasing"):
        run_experiment(cfg2)


@pytest.mark.parametrize(
    "section, key",
    [
        ("problem", "eps_fit"),
        ("solver", "tol_energy"),
        ("solver", "armijo_c1"),
        ("solver", "backtrack"),
        ("solver", "step_floor"),
        ("solver", "max_iters"),
        ("solver", "tol_residual"),
        ("diagnostics.growth", "fit_window"),
    ],
)
def test_removed_config_keys_are_unknown(section, key):
    cfg = tiny_config()
    node = cfg
    for name in section.split("."):
        node = node.setdefault(name, {})
    node[key] = 0.5
    with pytest.raises(ConfigError, match=f"'{key}' was unexpected"):
        validate_config(cfg)


# ---------------------------------------------------------------------------
# running


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(tiny_config())


def test_run_report_structure(tiny_result):
    rep = tiny_result.report
    assert rep["solve"]["converged"] is True
    assert tiny_result.solve.shortfall is None and rep["stalled"] is False
    assert rep["params"]["tau"] == 1.0
    assert rep["grid"]["resolution"] == [129]
    # n = 129 nests down to n = 17, which runs the nine widths; n = 33, 65
    # and 129 run the last one
    assert rep["solve"]["n_stages"] == 12
    assert len(rep["solve"]["stage_energies"]) == 12
    assert len(rep["solve"]["stage_exits"]) == 12
    assert rep["solve"]["stage_resolutions"] == [
        [n] for n in [17] * 9 + [33, 65, 129]
    ]
    assert rep["solve"]["stage_exits"][-1] == "tolerance"
    stages = tiny_result.solve.stages
    assert rep["solve"]["stage_residuals"] == [s.residual_rms for s in stages]
    assert rep["solve"]["residual_max"] == stages[-1].residual_max
    for key in ("growth", "density", "replacement", "scaling", "inequalities"):
        assert key in rep["diagnostics"]


def test_report_stage_records_follow_the_polish_steps():
    # configs/degenerate_1d.json on its coarsest level, n = 17, with the
    # ladder cut after the width 10^-4.5, whose stage there ends by a polish
    # step after the last Armijo step: the reported stage energy is still
    # the returned field's, and the per-stage step counts add up to the
    # total (the growth and porosity radii grow to fit the coarse grid)
    cfg = load_config(Path(__file__).parents[1] / "configs" / "degenerate_1d.json")
    cfg["problem"]["resolution"] = [17]
    cfg["solver"] = {"eps_ladder": list(aplab.solver.DEFAULT_LADDER[:8])}
    for key in ("growth", "porosity"):
        cfg["diagnostics"][key]["radii"] = [0.25, 0.5]
    result = run_experiment(cfg)
    solve = result.report["solve"]
    stages = result.solve.stages
    assert solve["polish_steps"] > 0
    assert stages[-1].n_iters + 1 > len(stages[-1].energies)  # a polish step
    _, params, ladder = build_problem(cfg)
    fld = result.solve.field
    kern = DiscreteEnergy(fld.grid, params)
    assert solve["stage_energies"][-1] == kern.at(fld.values, ladder[-1]).energy
    assert solve["stage_iterations"] == [s.n_iters for s in stages]
    assert sum(solve["stage_iterations"]) == solve["n_iterations"]


def test_run_growth_section(tiny_result):
    growth = tiny_result.report["diagnostics"]["growth"]
    assert growth["radii"] == [0.125, 0.25, 0.5]
    assert growth["target_exponent"] == 2.0
    fit = growth["fits"]["sup_pos"]
    assert fit is not None
    assert fit["exponent"] == pytest.approx(2.0, abs=0.1)
    assert growth["nondegeneracy"]["positive"] > 0.0


def test_growth_fits_no_phase_of_rounding_residue():
    # one phase, plus a negative side at 1e-18 that only rounding leaves
    grid = build_grid(((-1.0, 1.0),), (129,))
    x = grid.axes[0]
    vals = 0.25 * np.maximum(x, 0.0) ** 2 - 1e-18 * (1.0 + np.abs(x))
    fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
    params = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
    spec = {"center": [0.0], "radii": [0.125, 0.25, 0.5]}
    growth = _growth_diag(_Solved(fld, params, None, None), spec)
    assert min(growth["sup_neg"]) > 0.0  # the readings are still reported
    assert growth["fits"]["sup_neg"] is None
    assert growth["fits"]["sup_pos"]["exponent"] == pytest.approx(2.0, abs=0.1)


def test_run_scaling_section(tiny_result):
    scaling = tiny_result.report["diagnostics"]["scaling"]
    assert scaling["rel_error"][0] <= 1e-12


def test_run_refuses_an_off_lattice_scaling_window(tmp_path, capsys):
    from aplab.cli import main

    cfg = tiny_config()
    cfg["diagnostics"] = {
        "scaling": {"center": [1.0 / 384], "r_values": [0.5], "radius": 0.25}
    }
    path = tmp_path / "off.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "off the source lattice" in capsys.readouterr().err


def test_run_replacement_section(tiny_result):
    rep = tiny_result.report["diagnostics"]["replacement"]
    assert rep["distance"] >= 0.0
    assert rep["energy_gap"] >= -1e-12
    assert abs(rep["nonlinearity_gap"]) <= rep["nonlinearity_bound"]


def test_run_inequality_section(tiny_result):
    sweeps = tiny_result.report["diagnostics"]["inequalities"]
    assert len(sweeps) == 1
    assert sweeps[0]["name"] == "sum"
    assert sweeps[0]["min_margin"] >= -1e-12


def test_run_rows_are_csv_ready(tiny_result):
    # diagnostics.csv has one row per report leaf: each must be a JSON scalar
    leaves = report_leaves(tiny_result.report)
    for leaf in leaves.values():
        assert leaf is None or isinstance(leaf, (bool, int, float, str))
    sections = {re.match(r"(diagnostics/)?([a-z]+)", path)[2] for path in leaves}
    assert {"solve", "growth", "density", "replacement", "scaling"} <= sections


def test_run_is_deterministic(tiny_result):
    again = run_experiment(tiny_config())
    assert json.dumps(again.report, sort_keys=True) == json.dumps(
        tiny_result.report, sort_keys=True
    )
    assert again.manifest == tiny_result.manifest


def test_run_marks_stall_and_still_reports(monkeypatch):
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", 0.999)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 0.5)
    cfg = tiny_config()
    del cfg["diagnostics"]["scaling"]  # keep the partial-field pass fast
    # the patched line search would stall the replacement's solve as well
    del cfg["diagnostics"]["replacement"]
    out = run_experiment(cfg)
    assert out.solve.shortfall.startswith("line search stalled at smoothing width")
    assert out.report["stalled"] is True
    assert out.report["solve"]["converged"] is False
    assert "growth" in out.report["diagnostics"]


def test_run_rejects_nonfinite_config_built_in_python():
    # a NaN zero tolerance would count every node as zero
    cfg = tiny_config()
    cfg["diagnostics"]["zero_tol"] = float("nan")
    with pytest.raises(ConfigError, match="at diagnostics/zero_tol: non-finite"):
        run_experiment(cfg)


def test_run_rejects_unsatisfiable_diagnostics():
    cfg = tiny_config()
    cfg["diagnostics"]["growth"]["radii"] = [0.001]  # below grid resolution
    with pytest.raises(ConfigError, match="not satisfiable"):
        run_experiment(cfg)


def test_run_fits_nothing_on_one_repeated_rung():
    # a ladder of one distinct rung has no log-log slope: growth and strip
    # fits are null, and a Minkowski slope cannot be reported at all
    cfg = tiny_config()
    cfg["diagnostics"] = {
        "growth": {"center": [0.0], "radii": [0.25, 0.25]},
        "strip": {"center": [0.0], "radius": 0.5, "eps_ladder": [0.1, 0.1]},
    }
    report = run_experiment(cfg).report["diagnostics"]
    fits = report["growth"]["fits"]
    assert {"sup_pos", "dirichlet"} <= fits.keys() and set(fits.values()) == {None}
    assert min(report["strip"]["energies"]) > 0.0
    assert report["strip"]["fit"] is None
    cfg["diagnostics"] = {"minkowski": {"eps_ladder": [0.25, 0.25]}}
    with pytest.raises(ConfigError, match="not satisfiable: fewer than two distinct"):
        run_experiment(cfg)


def test_run_rejects_v_constant_past_the_float_range():
    cfg = tiny_config()
    cfg["diagnostics"] = {
        "inequalities": {"names": ["v_equivalence"], "p_values": [2500.0],
                         "n_pairs": 10}
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="not satisfiable: .* p = 2500.0"):
            run_experiment(cfg)


def _near_critical_config():
    # gamma = 1.99 against p = 2 puts the growth rate 1 + tau at 200
    path = Path(__file__).parents[1] / "configs" / "one_phase_1d.json"
    cfg = json.loads(path.read_text())
    cfg["problem"]["gamma"] = 1.99
    return cfg


def test_growth_nondegeneracy_is_null_where_the_rate_underflows():
    # the default ladder at the origin reaches r = 1/64, and r**200 is 0
    cfg = _near_critical_config()
    cfg["diagnostics"] = {"growth": {"center": [0.0]}}
    growth = run_experiment(cfg).report["diagnostics"]["growth"]
    assert growth["radii"][-1] == 0.015625
    assert growth["nondegeneracy"] == {"positive": None, "negative": None, "max": None}


def test_growth_nondegeneracy_is_null_where_the_rate_overflows():
    cfg = _near_critical_config()
    cfg["problem"]["extents"] = [[-100.0, 100.0]]
    cfg["diagnostics"] = {"growth": {"center": [0.0], "radii": [10, 20, 40]}}
    growth = run_experiment(cfg).report["diagnostics"]["growth"]
    assert growth["nondegeneracy"] == {"positive": None, "negative": None, "max": None}


def test_run_rejects_scaling_past_the_float_range():
    cfg = _near_critical_config()
    cfg["problem"]["extents"] = [[-100.0, 100.0]]
    cfg["diagnostics"] = {"scaling": {"center": [0.0], "r_values": [50], "radius": 1}}
    with pytest.raises(
        ConfigError,
        match=r"not satisfiable: scaling identity: r\*\*200 at r = 50 leaves the float range",
    ):
        run_experiment(cfg)


def test_run_rejects_unconverged_replacement(monkeypatch):
    real = aplab.solver.minimize

    def unconverged(*args, **kwargs):
        # a last stage above the tolerance is what makes a result
        # unconverged, and such a result always carries a shortfall
        res = real(*args, **kwargs)
        last = dataclasses.replace(res.stages[-1], residual_rms=1.0)
        return dataclasses.replace(
            res,
            stages=res.stages[:-1] + (last,),
            shortfall="step_cap exit at smoothing width 1e-09 (residual rms 1.000e+00)",
        )

    # the replacement's solve goes through aplab.solver.minimize; the main
    # solve uses the name experiment imported, which stays the real one
    monkeypatch.setattr(aplab.solver, "minimize", unconverged)
    cfg = tiny_config()
    cfg["problem"].update(extents=[[-1.0, 1.0]] * 2, resolution=[17, 17])
    cfg["diagnostics"] = {"replacement": {"center": [0.0, 0.0], "radius": 0.5}}
    with pytest.raises(ConfigError, match="did not converge: step_cap exit"):
        run_experiment(cfg)


def test_run_auto_center_lands_on_interface():
    cfg = tiny_config()
    del cfg["diagnostics"]["growth"]["center"]
    out = run_experiment(cfg)
    center = out.report["diagnostics"]["growth"]["center"]
    # the detected anchor sits near the takeoff point x = 0
    assert len(center) == 1
    assert abs(center[0]) <= 0.1


def test_run_reads_each_per_field_quantity_once(monkeypatch):
    # three perimeter balls, three porosity balls and three strip widths
    # find the contour, the distance to the set and the exact-density state
    # once, and read what the public readers read ball by ball
    cfg = {
        "seed": 0,
        "problem": {
            "p": 2.0, "gamma": 0.5, "lambda_plus": 0.4, "lambda_minus": 0.4,
            "delta": 1.0, "extents": [[-1.0, 1.0], [-1.0, 1.0]],
            "resolution": [33, 33],
            "boundary": "pow(0.45, 2/3) * x * pow(abs(x), 1/3)",
        },
        "diagnostics": {
            "zero_tol": 0.001,
            "perimeter": {"center": [0.0, 0.0], "radii": [0.25, 0.5, 0.75]},
            "porosity": {"center": [0.0, 0.0], "radii": [0.25, 0.5, 0.75]},
            "strip": {"center": [0.0, 0.0], "radius": 0.5,
                      "eps_ladder": [0.02, 0.05, 0.1]},
        },
    }
    section, calls = [None], []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((section[0], name, args))
            return fn(*args)
        return wrapper

    def in_section(key, measure):
        def wrapper(solved, spec):
            section[0] = key
            try:
                return measure(solved, spec)
            finally:
                section[0] = None
        return wrapper

    monkeypatch.setattr(geometry, "_held", {})
    monkeypatch.setattr(geometry, "_contour_2d",
                        counted("contour", geometry._contour_2d))
    monkeypatch.setattr(geometry, "distance_to_set",
                        counted("distance", geometry.distance_to_set))
    monkeypatch.setattr(DiscreteEnergy, "at", counted("at", DiscreteEnergy.at))
    for key in cfg["diagnostics"].keys() & _DIAGNOSTICS.keys():
        monkeypatch.setitem(_DIAGNOSTICS, key, in_section(key, _DIAGNOSTICS[key]))
    out = run_experiment(cfg)

    assert [(s, n) for s, n, _ in calls if n == "contour"] == [("perimeter", "contour")]
    masks = [args[1] for s, n, args in calls if n == "distance"]
    assert len(masks) == 1 and [s for s, n, _ in calls if n == "distance"] == ["porosity"]
    exact = [s for s, n, args in calls if n == "at" and args[2] == 0.0 and s is not None]
    assert exact == ["strip"]

    fld = out.solve.field
    _, params, _ = build_problem(cfg)
    cls = classify(fld, params, 0.001)
    assert np.array_equal(cls.gamma_zero, masks[0]) and cls.gamma_zero.any()
    diag = out.report["diagnostics"]
    for r, per, kappa in zip((0.25, 0.5, 0.75), diag["perimeter"]["perimeter"],
                             diag["porosity"]["values"]):
        ball = BallSpec((0.0, 0.0), r)
        geometry._held.clear()
        assert relative_perimeter(fld, ball) == per
        geometry._held.clear()
        assert porosity_constant(cls.gamma_zero, ball, fld.grid) == kappa
    ball = BallSpec((0.0, 0.0), 0.5)
    for eps, energy in zip((0.02, 0.05, 0.1), diag["strip"]["energies"]):
        geometry._held.clear()
        assert level_strip_energy(fld, params, eps, ball) == energy > 0.0


# ---------------------------------------------------------------------------
# bundles


def test_write_bundle_files_and_determinism(tmp_path, tiny_result):
    one = tmp_path / "one"
    two = tmp_path / "two"
    write_bundle(tiny_result, one)
    write_bundle(run_experiment(tiny_config()), two)
    names = ["field.apf", "report.json", "diagnostics.csv", "manifest.json"]
    for name in names:
        assert (one / name).is_file()
        assert (one / name).read_bytes() == (two / name).read_bytes()
    report = json.loads((one / "report.json").read_text())
    assert report == tiny_result.report
    header = (one / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "path,value"
    manifest = json.loads((one / "manifest.json").read_text())
    assert manifest["config_sha256"] == config_digest(tiny_config())
    assert manifest["seed"] == 0
    assert manifest["outputs"] == ["field.apf", "report.json", "diagnostics.csv"]


def test_diagnostics_csv_is_report_json_flattened(tmp_path, tiny_result):
    write_bundle(tiny_result, tmp_path)
    leaves = report_leaves(json.loads((tmp_path / "report.json").read_text()))
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(leaves)
    assert {row["path"]: json.loads(row["value"]) for row in rows} == leaves
    assert [row["path"] for row in rows] == list(leaves)
