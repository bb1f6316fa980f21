"""What a fresh interpreter loads: heavy modules wait for their first use.

scipy.optimize, scipy.linalg and jsonschema are imported by the first call
that needs them, so the closed-form oracles, the inequality sweeps,
``apl oracle`` and ``apl compare`` run on numpy alone.  A 2D or 3D run
loads no scipy subpackage at all: numpy's real FFT gives the CG
preconditioner's DST-I, and the phase masks and distance transforms are
numpy code.  A 1D run loads scipy.linalg, whose banded Cholesky solves its
systems.  Only scipy.optimize, which the two-phase oracle uses, pulls in
scipy.sparse.  Each check runs in a child interpreter, because this
process has long since loaded all of them.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from aplab.core import ScalarField, build_grid, save_field

LAZY = ("scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.fft", "scipy.ndimage",
        "jsonschema")
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The head of every child's code: ``loaded(name)`` lists the loaded modules
# of package ``name``, itself included, sorted.
_LOADED = """
import json, sys

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
"""


def _child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_none_of_the_lazy_modules():
    out = _child(
        f"""
        import aplab.cli, aplab.experiment, aplab.oracle, aplab.solver
        import aplab.inequalities
        print(json.dumps([m for m in {LAZY!r} if loaded(m)]))
        """
    )
    assert out == []


def test_apl_oracle_loads_no_scipy_module():
    out = _child(
        """
        import contextlib, io
        import aplab.cli
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = aplab.cli.main(["oracle", "--p", "2", "--gamma", "1",
                                 "--lambda-plus", "0.5"])
        print(json.dumps({"rc": rc, "beta": json.loads(text.getvalue())["beta"],
                          "scipy": loaded("scipy")}))
        """
    )
    assert out == {"rc": 0, "beta": 2.0, "scipy": []}


def test_apl_compare_loads_no_scipy_module(tmp_path):
    grid = build_grid(((-1.0, 1.0),), (17,))
    values = grid.axes[0] ** 2
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        save_field(ScalarField(grid, values, grid.boundary_face_mask, values),
                   tmp_path / name / "field.apf")
        (tmp_path / name / "report.json").write_text('{"solve": {"energy": 1.0}}')
    out = _child(
        f"""
        import contextlib, io
        import aplab.cli
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = aplab.cli.main(["compare", {str(tmp_path / "a")!r},
                                 {str(tmp_path / "b")!r}])
        print(json.dumps({{"rc": rc, "n": json.loads(text.getvalue())["n_compared"],
                          "scipy": loaded("scipy")}}))
        """
    )
    assert out == {"rc": 0, "n": 1, "scipy": []}


# Solves in every dimension and on every kind of node set: CG finishes the
# 2D and 3D ones, also on free sets that touch a face of the box, LAPACK's
# dpbsv the 1D ones, on a node set with gaps at the pinned nodes 40, 41 and
# 200, and CG the minimize of a 2D p-harmonic replacement on a ball.  Each
# sets ``res``, a SolveResult
_BUMP = """
        grid = Grid(extents=((-1.0, 1.0),) * len(shape), resolution=shape)
        x, y, *z = grid.coordinate_arrays()
        u = np.sin(2.1 * x) * np.cos(1.3 * y) + 0.3 * x * y
        u = u + sum(0.2 * np.sin(1.7 * w) for w in z)
        """
_FACE = """
        fixed = grid.boundary_face_mask.copy()
        fixed[(slice(1, -1),) * (len(shape) - 1) + (-1,)] = False
        par = Params(p=1.5, gamma=0.5, lambda_plus=0.5, lambda_minus=0.5,
                     alpha_p=1.0)
        res = minimize(ScalarField(grid, np.where(fixed, u, 0.0), fixed, u), par)
        """
_SOLVES = {
    "2d-cg": """
        grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5)), resolution=(17, 13))
        x, y = grid.coordinate_arrays()
        u = np.sin(2.1 * x) * np.cos(1.3 * y) + 0.3 * x * y
        fixed = grid.boundary_face_mask
        par = Params(p=1.5, gamma=0.5, lambda_plus=0.5, lambda_minus=0.5,
                     alpha_p=1.0)
        res = minimize(ScalarField(grid, np.where(fixed, u, 0.0), fixed, u), par)
        """,
    "1d-dpbsv": """
        grid = Grid(extents=((-1.0, 1.0),), resolution=(257,))
        par = Params(p=3.0, gamma=0.8, lambda_plus=1.6905, lambda_minus=1.6905,
                     alpha_p=1.0)
        prof = one_phase_profile(par)
        u = prof.coefficient * np.clip(grid.axes[0], 0.0, None) ** prof.beta
        fixed = grid.boundary_face_mask.copy()
        fixed[[40, 41, 200]] = True
        res = minimize(ScalarField(grid, np.where(fixed, u, 0.0), fixed, u), par)
        """,
    "2d-face": "\n        shape = (17, 13)" + _BUMP + _FACE,
    "3d-face": "\n        shape = (9, 9, 7)" + _BUMP + _FACE,
    "2d-replacement": "\n        shape = (33, 33)" + _BUMP + """
        import aplab.solver
        solves, real = [], aplab.solver.minimize
        aplab.solver.minimize = lambda *args: solves.append(real(*args)) or solves[-1]
        fld = ScalarField(grid, u, grid.boundary_face_mask, u)
        p_harmonic_replacement(fld, 1.5, x**2 + y**2 < 0.45**2)
        (res,) = solves
        """,
}


@pytest.mark.parametrize("case", _SOLVES)
def test_no_solve_loads_scipy_sparse(case):
    # the Newton blocks are stencils in every dimension, and no solver takes
    # a sparse matrix
    out = _child(
        """
        import numpy as np
        from aplab.core import Grid, Params, ScalarField
        from aplab.oracle import one_phase_profile
        from aplab.solver import minimize, p_harmonic_replacement
        """
        + _SOLVES[case]
        + """
        print(json.dumps({"converged": res.converged, "work": dict(res.work),
                          "sparse": bool(loaded("scipy.sparse"))}))
        """
    )
    assert out["converged"] and not out["sparse"]
    work = out["work"]
    if case == "1d-dpbsv":
        assert work["cg_iterations"] == 0 and work["linear_solves"] == 54
    else:
        assert work["cg_iterations"] >= work["linear_solves"] > 0
    steps = {"2d-face": 276, "3d-face": 298}
    if case in steps:
        assert work["linear_solves"] == steps[case]


def test_first_use_imports_each_lazy_module_and_works():
    # ordered so that no step loads a later step's module: scipy.optimize
    # pulls in scipy.linalg, scipy.fft and scipy.sparse.  Each step records
    # the scipy modules it loaded; the CG solve loads none
    out = _child(
        """
        from collections import Counter
        import numpy as np
        from aplab.core import Grid, Params
        from aplab.energy import DiscreteEnergy
        from aplab.experiment import ConfigError, validate_config
        from aplab.oracle import shoot_two_phase_1d
        from aplab.solver import _box_preconditioner, _FreeBlock, spsolve

        def newton_system(shape):
            grid = Grid(extents=((-1.0, 1.0),) * len(shape), resolution=shape)
            kern = DiscreteEnergy.dirichlet(grid, 2.0)
            nodes = np.flatnonzero(~grid.boundary_face_mask.ravel())
            kappas = kern.at(np.random.default_rng(0).standard_normal(shape),
                             0.1).conductances
            b = np.random.default_rng(1).standard_normal(nodes.size)
            block = _FreeBlock(kern, nodes)
            return kern, block, block(kappas), b

        def config_error():
            try:
                validate_config({"seed": 1})
            except ConfigError as exc:
                return str(exc)

        def cg():
            kern, block, M, b = newton_system((17, 17))
            tally = Counter()
            x = spsolve(M, b, _box_preconditioner(kern, block), tally)
            return [tally["cg_iterations"], float(np.max(np.abs(M @ x - b)))]

        def banded():
            _, _, M, b = newton_system((33,))
            x = spsolve(M, b)
            return float(np.max(np.abs(M @ x - b)))

        def root_search():
            # C = 1/32 > 0, so brentq runs; u = sign(x) (x^2/4 + |x|/4)
            par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
            sol = shoot_two_phase_1d(par, -0.5, 0.5, (-1.0, 1.0), 257).primary
            ax = np.abs(sol.x)
            return float(np.max(np.abs(sol.u - np.sign(sol.x) * (ax**2 + ax) / 4)))

        steps = [("jsonschema", config_error), ("cg", cg), ("scipy.linalg", banded),
                 ("scipy.optimize", root_search)]
        out = {}
        for module, call in steps:
            before, scipy = bool(loaded(module)), loaded("scipy")
            result = call()
            new = sorted(set(loaded("scipy")) - set(scipy))
            out[module] = [before, result, bool(loaded(module)), new]
        print(json.dumps(out))
        """
    )
    assert out["jsonschema"] == [
        False, "config invalid at <root>: 'problem' is a required property", True, []
    ]
    _, (iterations, residual), _, new = out["cg"]
    assert iterations > 0 and residual <= 1e-10 and new == []
    before, residual, after, new = out["scipy.linalg"]
    assert not before and after and residual <= 1e-10
    assert "scipy.fft" not in new and "scipy.sparse" not in new
    before, error, after, new = out["scipy.optimize"]
    assert not before and after and error <= 1e-13


@pytest.mark.parametrize("config", ["crossing_2d", "one_phase_1d"])
def test_apl_run_loads_scipy_linalg_in_1d_and_no_subpackage_in_2d(config, tmp_path):
    # the manifest reads scipy.__version__, so scipy's own init is loaded;
    # a 2D run loads nothing past it, a 1D run only scipy.linalg (dpbsv)
    base = _child("import scipy\nprint(json.dumps(loaded('scipy')))")
    out = _child(
        f"""
        import contextlib, io
        import aplab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            rc = aplab.cli.main(["run", {str(CONFIG_DIR / (config + ".json"))!r},
                                 "--out", {str(tmp_path / "bundle")!r}])
        print(json.dumps({{"rc": rc, "scipy": loaded("scipy")}}))
        """
    )
    assert out["rc"] == 0
    extra = sorted(set(out["scipy"]) - set(base))
    if config == "crossing_2d":
        assert extra == []
    else:
        assert "scipy.linalg" in extra
        assert not any(m.startswith(("scipy.ndimage", "scipy.fft")) for m in extra)
