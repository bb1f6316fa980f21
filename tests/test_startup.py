"""What a fresh interpreter loads: heavy modules wait for their first use.

scipy.optimize, scipy.linalg, scipy.sparse, scipy.sparse.linalg and
jsonschema are imported by the first call that needs them, so the
closed-form oracles, the inequality sweeps, ``apl oracle`` and ``apl
compare`` run on numpy alone, and neither a 2D or 3D solve that CG
finishes nor a 1D solve that LAPACK's banded Cholesky finishes needs
scipy.sparse.  Each check runs in a child interpreter, because this
process has long since loaded all of them.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from aplab.core import ScalarField, build_grid, save_field

LAZY = ("scipy.optimize", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
        "jsonschema")


def _child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_none_of_the_lazy_modules():
    out = _child(
        f"""
        import json, sys
        import aplab.cli, aplab.experiment, aplab.oracle, aplab.solver
        import aplab.inequalities
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
        """
    )
    assert out == []


def test_apl_oracle_loads_no_scipy_module():
    out = _child(
        """
        import contextlib, io, json, sys
        import aplab.cli
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = aplab.cli.main(["oracle", "--p", "2", "--gamma", "1",
                                 "--lambda-plus", "0.5"])
        scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps({"rc": rc, "beta": json.loads(text.getvalue())["beta"],
                          "scipy": scipy}))
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
        import contextlib, io, json, sys
        import aplab.cli
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc = aplab.cli.main(["compare", {str(tmp_path / "a")!r},
                                 {str(tmp_path / "b")!r}])
        scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print(json.dumps({{"rc": rc, "n": json.loads(text.getvalue())["n_compared"],
                          "scipy": scipy}}))
        """
    )
    assert out == {"rc": 0, "n": 1, "scipy": []}


# Solves whose Newton systems never reach SuperLU: CG finishes the 2D
# ones, LAPACK's dpbsv the 1D ones, on a node set with gaps at the pinned
# nodes 40, 41 and 200
_NO_SUPERLU = {
    "2d-cg": """
        grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5)), resolution=(17, 13))
        x, y = grid.coordinate_arrays()
        u = np.sin(2.1 * x) * np.cos(1.3 * y) + 0.3 * x * y
        fixed = grid.boundary_face_mask
        par = Params(p=1.5, gamma=0.5, lambda_plus=0.5, lambda_minus=0.5,
                     alpha_p=1.0)
        """,
    "1d-dpbsv": """
        grid = Grid(extents=((-1.0, 1.0),), resolution=(257,))
        par = Params(p=3.0, gamma=0.8, lambda_plus=1.6905, lambda_minus=1.6905,
                     alpha_p=1.0)
        prof = one_phase_profile(par)
        u = prof.coefficient * np.clip(grid.axes[0], 0.0, None) ** prof.beta
        fixed = grid.boundary_face_mask.copy()
        fixed[[40, 41, 200]] = True
        """,
}


@pytest.mark.parametrize("case", _NO_SUPERLU)
def test_a_solve_that_needs_no_superlu_loads_no_scipy_sparse(case):
    # the Newton blocks are stencils in every dimension; CSR is assembled
    # only for SuperLU
    out = _child(
        """
        import json, sys
        import numpy as np
        from aplab.core import Grid, Params, ScalarField
        from aplab.oracle import one_phase_profile
        from aplab.solver import minimize
        """
        + _NO_SUPERLU[case]
        + """
        res = minimize(ScalarField(grid, np.where(fixed, u, 0.0), fixed, u), par)
        print(json.dumps({"converged": res.converged, "work": dict(res.work),
                          "sparse": "scipy.sparse" in sys.modules}))
        """
    )
    assert out["converged"] and not out["sparse"]
    work = out["work"]
    assert work["superlu_solves"] == 0
    if case == "2d-cg":
        assert work["cg_iterations"] >= work["linear_solves"] > 0
    else:
        assert work["cg_iterations"] == 0 and work["linear_solves"] == 54


def test_first_use_imports_each_lazy_module_and_works():
    # ordered so that no step loads a later step's module: scipy.sparse.linalg
    # pulls in scipy.linalg, and scipy.optimize pulls in both
    out = _child(
        """
        import json, sys
        from collections import Counter
        import numpy as np
        from aplab.core import Grid, Params
        from aplab.energy import DiscreteEnergy
        from aplab.experiment import ConfigError, validate_config
        from aplab.oracle import shoot_two_phase_1d
        from aplab.solver import _box_preconditioner, _FreeBlock, spsolve

        def newton_system(shape, indefinite=False):
            grid = Grid(extents=((-1.0, 1.0),) * len(shape), resolution=shape)
            kern = DiscreteEnergy.dirichlet(grid, 2.0)
            nodes = np.flatnonzero(~grid.boundary_face_mask.ravel())
            kappas = kern.at(np.random.default_rng(0).standard_normal(shape),
                             0.1).conductances
            b = np.random.default_rng(1).standard_normal(nodes.size)
            block = _FreeBlock(kern, nodes)
            M = block(kappas)
            if indefinite:
                # the entries of M - c I, c half the smallest diagonal entry:
                # a positive diagonal, but eigenvalues of both signs
                M = block(kappas, -0.5 * M.diagonal().min())
            return kern, block, M, b

        def config_error():
            try:
                validate_config({"seed": 1})
            except ConfigError as exc:
                return str(exc)

        def banded():
            _, _, M, b = newton_system((33,))
            x = spsolve(M, b)
            return float(np.max(np.abs(M @ x - b)))

        def superlu():
            # an indefinite system: CG breaks down
            kern, block, M, b = newton_system((17, 17), indefinite=True)
            tally = Counter()
            x = spsolve(M, b, _box_preconditioner(kern, block), tally)
            return [tally["superlu_solves"], float(np.max(np.abs(M @ x - b)))]

        def root_search():
            # C = 1/32 > 0, so brentq runs; u = sign(x) (x^2/4 + |x|/4)
            par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
            sol = shoot_two_phase_1d(par, -0.5, 0.5, (-1.0, 1.0), 257).primary
            ax = np.abs(sol.x)
            return float(np.max(np.abs(sol.u - np.sign(sol.x) * (ax**2 + ax) / 4)))

        steps = [("jsonschema", config_error), ("scipy.linalg", banded),
                 ("scipy.sparse.linalg", superlu), ("scipy.optimize", root_search)]
        out = {}
        for module, call in steps:
            before = module in sys.modules
            out[module] = [before, call(), module in sys.modules]
        print(json.dumps(out))
        """
    )
    assert out["jsonschema"] == [
        False, "config invalid at <root>: 'problem' is a required property", True
    ]
    before, residual, after = out["scipy.linalg"]
    assert not before and after and residual <= 1e-10
    before, (superlu_solves, residual), after = out["scipy.sparse.linalg"]
    assert not before and after and superlu_solves == 1 and residual <= 1e-10
    before, error, after = out["scipy.optimize"]
    assert not before and after and error <= 1e-13
