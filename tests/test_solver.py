"""Continuation solver, Dirichlet-term replacement, and comparison gaps."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import aplab.solver
from aplab.core import Grid, Params, ScalarField
from aplab.energy import DiscreteEnergy
from aplab.oracle import one_phase_profile, radial_p_harmonic
from aplab.solver import (
    DEFAULT_LADDER,
    _affine_fill_1d,
    _box_preconditioner,
    _csr,
    _FreeBlock,
    SolveResult,
    SolverStall,
    STAGE_EXITS,
    StageRecord,
    comparison_gap,
    minimize,
    nonlinearity_gap,
    p_harmonic_replacement,
    spsolve,
)


def _one_phase_start(n=257):
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    grid = Grid(extents=((-1.0, 1.0),), resolution=(n,))
    bvals = one_phase_profile(par).evaluate(grid.axes[0])
    vals = np.where(grid.boundary_face_mask, bvals, 0.0)
    fld = ScalarField(grid=grid, values=vals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=bvals)
    return fld, par


# ---------------------------------------------------------------------------
# continuation ladder validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_ladder": ()},
        {"eps_ladder": (0.1, -0.01)},
        {"eps_ladder": (0.01, 0.1)},
        {"eps_ladder": (np.nan,)},
        {"eps_ladder": (np.inf,)},
        {"eps_ladder": (0.1, np.nan)},
        # the potential curvature at u = 0 overflows, or the width's square
        # underflows to 0, so the kernel cannot evaluate the stage
        {"eps_ladder": (0.1, 1e-110)},
        {"eps_ladder": (1e-300,)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    fld, par = _one_phase_start(n=65)
    with pytest.raises(ValueError):
        minimize(fld, par, **kwargs)


# ---------------------------------------------------------------------------
# linearized operator


_OPERATOR_GRIDS = pytest.mark.parametrize(
    "extents, shape",
    [
        (((0.0, 1.0),), (17,)),
        (((-1.0, 1.0), (0.0, 0.5)), (9, 7)),
        (((0.0, 1.0), (-0.5, 1.0), (0.0, 2.0)), (5, 6, 4)),
    ],
    ids=["1d", "2d", "3d"],
)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@_OPERATOR_GRIDS
def test_diffusion_operator_reproduces_dirichlet_gradient(extents, shape, p):
    # the Newton model rests on A(u) @ u being the exact Dirichlet gradient
    grid = Grid(extents=extents, resolution=shape)
    u = np.random.default_rng(len(shape)).standard_normal(shape)
    kern = DiscreteEnergy.dirichlet(grid, p)
    it = kern.at(u, 0.1)
    a_u = _csr(_FreeBlock(kern, np.arange(u.size))(it.conductances)) @ u.ravel()
    g = it.gradient().ravel()
    assert np.max(np.abs(a_u - g)) <= 1e-12 * np.max(np.abs(g))


def _coo_operator(kern, kappas):
    # reference assembly: four COO entries per edge, duplicates summed by tocsr
    idx = np.arange(kern.weights.size).reshape(kern.weights.shape)
    rows, cols, data = [], [], []
    for (lo, hi, *_), k in zip(kern.axes, kappas):
        i, j, k = idx[lo].ravel(), idx[hi].ravel(), k.ravel()
        rows.extend((i, j, i, j))
        cols.extend((i, j, j, i))
        data.extend((k, k, -k, -k))
    n = kern.weights.size
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@_OPERATOR_GRIDS
def test_free_block_equals_sliced_full_operator(extents, shape, p):
    # built on the node set directly, the block must be the sliced full-grid
    # operator plus the diagonal shift, bit for bit, in the arrays spsolve gets
    grid = Grid(extents=extents, resolution=shape)
    rng = np.random.default_rng(len(shape))
    u = rng.standard_normal(shape)
    idx = np.flatnonzero(rng.random(u.size) < 0.6)
    scale = 1.0 + rng.random()
    shift = rng.random(idx.size)
    kern = DiscreteEnergy.dirichlet(grid, p)
    kappas = kern.at(u, 0.1).conductances
    full = _FreeBlock(kern, np.arange(u.size))(kappas)
    # 1D blocks come as LAPACK upper band arrays, the others as CSR
    if len(shape) == 1:
        assert isinstance(full, np.ndarray) and full.shape == (2, u.size)
    else:
        assert full.format == "csr"
    full = _csr(full)
    _assert_same_csr(full, _coo_operator(kern, kappas))
    want = (scale * full[idx][:, idx] + sp.diags(shift)).tocsr()
    _assert_same_csr(_csr(_FreeBlock(kern, idx)(kappas, scale, shift)), want)


@pytest.mark.parametrize("shape", [(33,), (17, 13)], ids=["1d", "2d"])
def test_fixed_pattern_refills_match_a_fresh_build(shape):
    # one pattern, refilled twice with new values, against a fresh COO->CSR
    # build each time: the CSR arrays bit for bit, the 1D bands entry by entry
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5))[: len(shape)], resolution=shape)
    X = grid.coordinate_arrays()
    hole = sum(x * x for x in X) < 0.3**2  # a masked hole in the node set
    nodes = np.flatnonzero((~grid.boundary_face_mask & ~hole).ravel())
    kern = DiscreteEnergy.dirichlet(grid, 1.5)
    block = _FreeBlock(kern, nodes)
    rng = np.random.default_rng(7)
    for eps in (0.1, 0.01):
        kappas = kern.at(rng.standard_normal(shape), eps).conductances
        scale, shift = 1.0 + rng.random(), rng.random(nodes.size)
        got = block(kappas, scale, shift)
        full = _coo_operator(kern, kappas)
        want = (scale * full[nodes][:, nodes] + sp.diags(shift)).tocsr()
        if len(shape) == 1:
            # LAPACK upper band storage: superdiagonal, then diagonal
            assert isinstance(got, np.ndarray)
            bands = np.zeros((2, nodes.size))
            bands[0, 1:] = want.diagonal(1)
            bands[1] = want.diagonal()
            assert np.array_equal(got, bands)
        else:
            assert got.format == "csr"
            _assert_same_csr(got, want)


def _interior(grid):
    return np.flatnonzero(~grid.boundary_face_mask.ravel())


def _newton_system(grid, p, nodes, shift, seed=0):
    # a Newton matrix of minimize's form: stiffened lagged operator at a
    # random field plus a nonnegative diagonal shift of size up to ``shift``
    rng = np.random.default_rng(seed)
    kern = DiscreteEnergy.dirichlet(grid, p)
    kappas = kern.at(rng.standard_normal(grid.shape), 0.1).conductances
    M = _FreeBlock(kern, nodes)(kappas, max(p - 1.0, 1.0), shift * rng.random(nodes.size))
    return kern, M, rng.standard_normal(nodes.size)


def _ball(grid):
    X = grid.coordinate_arrays()
    mid = [0.5 * (a + b) for a, b in grid.extents]
    return np.flatnonzero((sum((x - c) ** 2 for x, c in zip(X, mid)) < 0.6**2).ravel())


@pytest.mark.parametrize("shift", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "shape, subset",
    [((17, 13), _interior), ((9, 7, 6), _interior), ((17, 13), _ball)],
    ids=["box2d", "box3d", "ball2d"],
)
def test_preconditioned_solve_matches_superlu(shape, subset, p, shift):
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    nodes = subset(grid)
    kern, M, b = _newton_system(grid, p, nodes, shift)
    precond = _box_preconditioner(kern, nodes)
    assert precond is not None
    tally = Counter()
    x = spsolve(M, b, precond, tally)
    want = spla.spsolve(M, b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    # solved by CG, not by the SuperLU fallback
    assert tally["cg_iterations"] > 0 and tally["superlu_solves"] == 0


def _gapped(grid):
    # interior nodes with two gaps: the band entries across a gap are zero
    nodes = _interior(grid)
    return np.setdiff1d(nodes, nodes[[3, 4, 10]])


@pytest.mark.parametrize("shift", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("subset", [_interior, _gapped], ids=["interior", "gapped"])
def test_banded_solve_matches_superlu(subset, p, shift):
    grid = Grid(extents=((-1.0, 1.0),), resolution=(33,))
    nodes = subset(grid)
    kern, M, b = _newton_system(grid, p, nodes, shift)
    assert isinstance(M, np.ndarray) and _box_preconditioner(kern, nodes) is None
    tally = Counter()
    x = spsolve(M, b, None, tally)
    want = spla.spsolve(_csr(M), b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert tally["superlu_solves"] == 0


def test_indefinite_banded_system_falls_back_to_superlu():
    grid = Grid(extents=((-1.0, 1.0),), resolution=(33,))
    nodes = _interior(grid)
    _, M, b = _newton_system(grid, 2.0, nodes, 0.0)
    # a positive diagonal, but eigenvalues of both signs
    M[1] -= 0.5 * M[1].min()
    tally = Counter()
    x = spsolve(M, b, None, tally)
    assert tally["superlu_solves"] == 1
    assert np.array_equal(x, spla.spsolve(_csr(M), b))


def test_assemble_diffusion_returns_csr():
    grid = Grid(extents=((0.0, 1.0),), resolution=(17,))
    A = aplab.solver.assemble_diffusion(np.linspace(0.0, 1.0, 17) ** 2, grid, 2.0, 0.1)
    assert A.format == "csr" and A.shape == (17, 17)


def test_box_preconditioner_needs_strictly_interior_nodes_in_2d_or_3d():
    line = Grid(extents=((0.0, 1.0),), resolution=(17,))
    assert _box_preconditioner(DiscreteEnergy.dirichlet(line, 2.0), _interior(line)) is None
    grid = Grid(extents=((0.0, 1.0), (0.0, 1.0)), resolution=(9, 9))
    kern = DiscreteEnergy.dirichlet(grid, 2.0)
    assert _box_preconditioner(kern, _interior(grid)) is not None
    assert _box_preconditioner(kern, np.arange(grid.shape[0] * grid.shape[1])) is None
    # one node on the last face of axis 1 is enough to rule the DST-I out
    touching = np.union1d(_interior(grid), [np.ravel_multi_index((4, 8), grid.shape)])
    assert _box_preconditioner(kern, touching) is None


def test_indefinite_system_falls_back_to_superlu():
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(17, 17))
    nodes = _interior(grid)
    kern, M, b = _newton_system(grid, 2.0, nodes, 0.0)
    # a positive diagonal, but eigenvalues of both signs
    M = (M - 0.5 * M.diagonal().min() * sp.identity(nodes.size)).tocsr()
    tally = Counter()
    x = spsolve(M, b, _box_preconditioner(kern, nodes), tally)
    assert tally["superlu_solves"] == 1
    assert np.array_equal(x, spla.spsolve(M, b))


# ---------------------------------------------------------------------------
# minimize


def test_minimize_with_no_free_nodes_is_identity():
    grid = Grid(extents=((0.0, 1.0),), resolution=(9,))
    vals = np.linspace(0.0, 1.0, 9)
    fld = ScalarField(grid=grid, values=vals, boundary_mask=np.ones(9, dtype=bool),
                      boundary_values=vals)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    out = minimize(fld, par)
    assert out.converged
    assert out.n_iterations == 0
    np.testing.assert_array_equal(out.field.values, vals)


def test_minimize_linear_problem_reaches_affine_state():
    # p = 2, no potential: the minimizer under affine data is affine
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(33, 33))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    affine = 0.7 * X - 0.4 * Y + 0.2
    vals = np.where(grid.boundary_face_mask, affine, 0.0)
    fld = ScalarField(grid=grid, values=vals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=affine)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.0, lambda_minus=0.0, delta=0.0)
    out = minimize(fld, par)
    assert out.converged
    assert np.max(np.abs(out.field.values - affine)) <= 1e-8


def test_minimize_recovers_one_phase_profile(convex_1d):
    assert convex_1d.result.converged
    assert np.max(np.abs(convex_1d.field.values - convex_1d.exact)) <= 1e-4


def test_minimize_degenerate_exponent(degenerate_1d):
    assert degenerate_1d.result.converged
    assert np.max(np.abs(degenerate_1d.field.values - degenerate_1d.exact)) <= 1e-4


def test_minimize_stage_accounting(convex_1d):
    res = convex_1d.result
    assert len(res.stages) == len(DEFAULT_LADDER)
    assert [s.eps for s in res.stages] == list(DEFAULT_LADDER)
    assert res.n_iterations == sum(s.n_iters for s in res.stages)
    assert res.residual_rms == res.stages[-1].residual_rms
    assert res.residual_rms <= aplab.solver._TOL_RESIDUAL
    assert all(s.exit in STAGE_EXITS for s in res.stages)
    assert res.stages[-1].exit == "tolerance"


def test_capped_stage_reports_the_residual_of_its_last_step(monkeypatch):
    # the stage stops at the step cap; its residual is that of the field
    # it returns, not of the iterate before the last step
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 3)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1,))
    assert res.n_iterations == 3
    assert [s.exit for s in res.stages] == ["step_cap"]
    kern = DiscreteEnergy(fld.grid, par)
    r = (kern.at(res.field.values, 0.1).gradient() / kern.weights)[fld.free_mask]
    assert res.residual_rms == np.sqrt(np.mean(r * r))


def test_solve_result_derives_its_totals_from_its_stages():
    fld, _ = _one_phase_start(n=9)
    tol = aplab.solver._TOL_RESIDUAL
    stages = (StageRecord(0.1, 3, (2.0, 1.0), 0.5 * tol, "tolerance"),
              StageRecord(0.01, 4, (1.0, 0.5), 2.0 * tol, "step_cap"))
    res = SolveResult(fld, 0.5, stages)
    assert res.n_iterations == 7
    assert res.residual_rms == 2.0 * tol
    assert not res.converged
    assert SolveResult(fld, 0.5, stages[:1]).converged
    empty = SolveResult(fld, 0.5)
    assert empty.converged and empty.residual_rms == 0.0 and empty.n_iterations == 0


def test_minimize_energy_traces_decrease(convex_1d):
    for stage in convex_1d.result.stages:
        trace = np.asarray(stage.energies)
        assert np.all(np.diff(trace) <= 0.0)


def test_minimize_1d_solves_by_banded_cholesky(convex_1d):
    res = convex_1d.result
    assert res.linear_solves >= res.n_iterations > 0
    assert res.superlu_solves == 0
    assert res.cg_iterations == 0
    assert res.lift_retries == res.gradient_fallbacks == 0


def test_minimize_counts_diagonal_lift_retries(monkeypatch):
    # every banded solve comes back non-finite, so each Newton system is
    # retried once with a lifted diagonal, which SuperLU solves
    monkeypatch.setattr(aplab.solver, "solveh_banded",
                        lambda ab, b, **kw: np.full_like(b, np.nan))
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 4)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1,))
    assert res.n_iterations == res.linear_solves == 4
    assert res.lift_retries == res.superlu_solves == 4
    assert res.gradient_fallbacks == 0


def test_nonfinite_lifted_solve_is_a_stall(monkeypatch):
    # the banded solve and its lifted SuperLU retry both come back non-finite
    nan_solve = lambda M, b, **kw: np.full_like(b, np.nan)  # noqa: E731
    monkeypatch.setattr(aplab.solver, "solveh_banded", nan_solve)
    monkeypatch.setattr(aplab.solver, "_superlu", nan_solve)
    fld, par = _one_phase_start(n=65)
    with pytest.raises(SolverStall) as info:
        minimize(fld, par, (0.1, 0.01))
    res = info.value.result
    assert str(info.value) == (
        "linear solve non-finite at smoothing width 0.1 "
        f"(residual rms {res.residual_rms:.3e})"
    )
    assert not res.converged and np.isfinite(res.residual_rms)
    assert res.n_iterations == 0 and res.lift_retries == res.linear_solves == 1
    assert [(s.eps, s.exit) for s in res.stages] == [(0.1, "stall")]
    np.testing.assert_array_equal(res.field.values, fld.values)


def test_minimize_counts_gradient_fallbacks(monkeypatch):
    # a solve that returns the ascent direction forces the gradient step
    real = aplab.solver.spsolve
    monkeypatch.setattr(aplab.solver, "spsolve", lambda *a, **kw: -real(*a, **kw))
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 4)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1,))
    assert res.n_iterations == res.linear_solves == 4
    assert res.gradient_fallbacks == 4
    assert res.lift_retries == res.superlu_solves == 0


@pytest.mark.parametrize("fixture", ["crossing_2d", "branching_2d"])
def test_minimize_2d_solves_by_cg_without_misses(fixture, request):
    res = request.getfixturevalue(fixture).result
    assert res.linear_solves >= res.n_iterations > 0
    assert res.cg_iterations >= res.linear_solves
    assert res.superlu_solves == 0


def test_newton_model_step_count_on_the_restricted_run(restricted_cases):
    # the convex-part curvature model max(F'', 0) takes 517 steps on this
    # run; the stiffer |F''| model took 975
    res = restricted_cases[(2.0, 0.5)].result
    assert res.n_iterations <= 600
    assert res.linear_solves == res.n_iterations


def test_restricted_run_records_polish_and_capped_stages(
    restricted_cases, restricted_cases_fine
):
    # (1.5, 0.3) leaves a middle stage by the polish exit; at n = 2049 its
    # last stage runs out of Newton steps, which is why it stops short of
    # the residual tolerance
    coarse = restricted_cases[(1.5, 0.3)].result
    assert "polish" in [s.exit for s in coarse.stages]
    fine = restricted_cases_fine[(1.5, 0.3)].result
    assert fine.stages[-1].exit == "step_cap" and not fine.converged
    capped = [s for s in coarse.stages + fine.stages if s.exit == "step_cap"]
    assert all(s.n_iters == aplab.solver._MAX_ITERS for s in capped)


def test_minimize_is_deterministic():
    fld, par = _one_phase_start(n=129)
    a = minimize(fld, par)
    b = minimize(fld, par)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.energy == b.energy
    assert a.n_iterations == b.n_iterations


def test_minimize_reports_stall_with_partial_state(monkeypatch):
    # an Armijo fraction near 1 with no backtracking room cannot accept any
    # damped Newton step, and far from criticality that must surface
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", 0.999)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 0.5)
    fld, par = _one_phase_start(n=257)
    with pytest.raises(
        SolverStall,
        match=r"^line search stalled at smoothing width 0\.1 "
        r"\(residual rms \d\.\d{3}e[+-]\d+, last accepted step none\)$",
    ) as info:
        minimize(fld, par)
    partial = info.value.result
    assert not partial.converged
    assert partial.field.values.shape == fld.values.shape
    assert np.isfinite(partial.energy)
    assert len(partial.stages) >= 1
    assert partial.stages[-1].exit == "stall"
    assert partial.residual_rms > 1e3 * aplab.solver._TOL_RESIDUAL
    assert partial.backtracks == 2  # t = 1 and t = 1/2 were tried


def test_minimize_counts_rejected_armijo_trials(monkeypatch):
    # no trial meets an infinite decrease fraction, so the first search
    # rejects t = 1, 1/2, ..., 2^-46 (the last step length above the 1e-14
    # floor) and stalls far from criticality
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", math.inf)
    fld, par = _one_phase_start(n=65)
    with pytest.raises(SolverStall) as info:
        minimize(fld, par, (0.1,))
    res = info.value.result
    assert res.backtracks == 47
    assert res.n_iterations == 0 and res.linear_solves == 1


def test_polish_after_a_failed_search_steps_along_the_solved_direction(monkeypatch):
    # a converged field nudged by 1e-7: with a step floor above 1 every
    # Armijo search fails at once, close enough to criticality to polish
    fld, par = _one_phase_start(n=65)
    start = minimize(fld, par, (0.1,)).field
    free = fld.free_mask
    u = start.values.copy()
    u[free] += 1e-7 * np.sin(np.arange(u.size))[free]
    # the polish step is one full Newton step, solved once
    kern = DiscreteEnergy(fld.grid, par)
    state = kern.at(u, 0.1)
    nodes = np.flatnonzero(free)
    curv = np.maximum(state.curvature(), 0.0).ravel()[nodes]
    shift = kern.weights.ravel()[nodes] * curv
    M = _FreeBlock(kern, nodes)(state.conductances, 1.0, shift)
    want = u.copy()
    want[free] -= spsolve(M, state.gradient().ravel()[nodes])

    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 2.0)
    res = minimize(start.with_values(u), par, (0.1,))
    assert res.n_iterations == 1 and res.linear_solves == 1
    assert res.backtracks == 0  # no trial fits above the floor
    assert np.array_equal(res.field.values, want)
    assert res.converged


def test_stall_message_names_the_last_accepted_step(monkeypatch):
    # after one true Newton step every direction is 1e12 times too long, so
    # the search falls through the step floor on the next step
    real = aplab.solver.spsolve
    calls = []

    def overshooting(*args, **kwargs):
        calls.append(None)
        x = real(*args, **kwargs)
        return x if len(calls) == 1 else 1e12 * x

    monkeypatch.setattr(aplab.solver, "spsolve", overshooting)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 1e-3)
    fld, par = _one_phase_start(n=65)
    with pytest.raises(SolverStall) as info:
        minimize(fld, par)
    res = info.value.result
    assert str(info.value) == (
        "line search stalled at smoothing width 0.1 "
        f"(residual rms {res.residual_rms:.3e}, last accepted step t = 1)"
    )
    assert res.n_iterations == 1 and len(calls) == 2


# ---------------------------------------------------------------------------
# Dirichlet-term replacement


def test_replacement_1d_fills_affine_runs():
    grid = Grid(extents=((0.0, 1.0),), resolution=(11,))
    vals = np.array([0.0, 1.0, 5.0, -2.0, 7.0, 3.0, 1.0, 4.0, 2.0, 6.0, 1.0])
    fld = ScalarField(grid=grid, values=vals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=vals)
    region = np.zeros(11, dtype=bool)
    region[3:6] = True
    region[8] = True
    for p in (1.5, 2.0, 3.5):
        rep = p_harmonic_replacement(fld, p, region)
        out = rep.values
        # run 3..5 interpolates between nodes 2 and 6
        np.testing.assert_allclose(out[3:6], [4.0, 3.0, 2.0])
        # single node 8 averages nodes 7 and 9
        assert out[8] == pytest.approx(5.0)
        # untouched elsewhere
        np.testing.assert_array_equal(out[region == False], vals[region == False])  # noqa: E712


def _affine_fill_loop(values, relax):
    # run-by-run reference for the vectorized fill, with the same arithmetic
    out = values.copy()
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and relax[j]:
            j += 1
        left, right, m = values[i - 1], values[j], j - i + 1
        for k in range(i, j):
            out[k] = left + (right - left) * (k - i + 1) / m
        i = j + 1
    return out


def test_affine_fill_matches_run_by_run_loop():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.standard_normal(60)
        relax = rng.random(60) < 0.6
        relax[[0, -1]] = False
        assert np.array_equal(_affine_fill_1d(vals, relax), _affine_fill_loop(vals, relax))


def test_replacement_1d_region_must_be_interior():
    grid = Grid(extents=((0.0, 1.0),), resolution=(9,))
    vals = np.linspace(0.0, 1.0, 9) ** 2
    mask = np.zeros(9, dtype=bool)
    mask[0] = True  # only the left face is pinned
    fld = ScalarField(grid=grid, values=vals, boundary_mask=mask,
                      boundary_values=vals)
    with pytest.raises(ValueError, match="bounded by pinned nodes"):
        p_harmonic_replacement(fld, 2.0)


def test_replacement_preserves_affine_fields():
    # the 3D grid is the one replacement case whose operator has an axis 2
    for shape, slopes in (((33, 33), (1.2, -0.5)), ((13, 11, 9), (1.2, -0.5, 0.3))):
        grid = Grid(extents=((-1.0, 1.0),) * len(shape), resolution=shape)
        X = grid.coordinate_arrays()
        affine = sum(c * x for c, x in zip(slopes, X))
        fld = ScalarField(grid=grid, values=affine,
                          boundary_mask=grid.boundary_face_mask, boundary_values=affine)
        region = sum(x**2 for x in X) < 0.5**2
        for p in (1.5, 2.0, 3.0):
            rep = p_harmonic_replacement(fld, p, region)
            assert np.max(np.abs(rep.values - affine)) <= 1e-9, (shape, p)
        # from a bumped start, the one p = 2 solve must land on the affine field
        bumped = fld.with_values(np.where(region, affine + 0.05 * np.cos(3 * X[0]), affine))
        rep = p_harmonic_replacement(bumped, 2.0, region)
        assert np.max(np.abs(rep.values - affine)) <= 1e-12, shape


def test_replacement_p2_satisfies_mean_value_property():
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(65, 65))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    u = np.sin(2.1 * X) * np.cos(1.3 * Y) + 0.3 * X * Y
    fld = ScalarField(grid=grid, values=u, boundary_mask=grid.boundary_face_mask,
                      boundary_values=u)
    region = (X**2 + Y**2) < 0.45**2
    sol = p_harmonic_replacement(fld, 2.0, region).values
    # uniform square grid: every relaxed node equals its 4-neighbor average
    mean4 = (sol[:-2, 1:-1] + sol[2:, 1:-1] + sol[1:-1, :-2] + sol[1:-1, 2:]) / 4.0
    inner = region[1:-1, 1:-1]
    np.testing.assert_allclose(sol[1:-1, 1:-1][inner], mean4[inner], atol=1e-10)


def test_replacement_matches_radial_reference():
    # relax an annulus of the exact radial profile; it must be reproduced
    n = 129
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(n, n))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    R = np.hypot(X, Y)
    exact = radial_p_harmonic(2, 3.0).evaluate(np.maximum(R, 1e-300))
    fld = ScalarField(grid=grid, values=exact, boundary_mask=grid.boundary_face_mask,
                      boundary_values=exact)
    annulus = (R > 0.25) & (R < 0.75)
    rep = p_harmonic_replacement(fld, 3.0, annulus)
    assert np.max(np.abs(rep.values - exact)[annulus]) <= 2e-4


def test_replacement_without_relaxed_nodes_is_identity():
    grid = Grid(extents=((0.0, 1.0),), resolution=(9,))
    vals = np.linspace(0.0, 1.0, 9) ** 2
    fld = ScalarField(grid=grid, values=vals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=vals)
    rep = p_harmonic_replacement(fld, 2.0, np.zeros(9, dtype=bool))
    assert rep is fld


# ---------------------------------------------------------------------------
# comparison gaps


def _bump_field(shape=(65, 65)):
    # a smooth field pinned on the box faces, relaxed in the ball of radius 0.45
    grid = Grid(extents=((-1.0, 1.0),) * len(shape), resolution=shape)
    X = grid.coordinate_arrays()
    u = np.sin(2.1 * X[0]) * np.cos(1.3 * X[1]) + 0.3 * X[0] * X[1]
    if len(shape) == 3:
        u = u + 0.2 * np.sin(1.7 * X[2])
    fld = ScalarField(grid=grid, values=u, boundary_mask=grid.boundary_face_mask,
                      boundary_values=u)
    return fld, sum(x**2 for x in X) < 0.45**2


def _bump_field_and_replacement(p):
    fld, region = _bump_field()
    return fld, p_harmonic_replacement(fld, p, region)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("shape", [(65, 65), (17, 17, 17)], ids=["2d", "3d"])
def test_replacement_meets_the_residual_tolerance(shape, p):
    # the replaced field is a converged Dirichlet minimizer on the relaxed
    # nodes, at the solver's residual tolerance, and untouched elsewhere
    fld, region = _bump_field(shape)
    v = p_harmonic_replacement(fld, p, region).values
    kern = DiscreteEnergy.dirichlet(fld.grid, p)
    g = kern.at(v, 1e-9).gradient()
    r = (g / kern.weights)[region]
    assert np.sqrt(np.mean(r * r)) <= aplab.solver._TOL_RESIDUAL
    assert np.array_equal(v[~region], fld.values[~region])


def test_unconverged_replacement_raises_stall(monkeypatch):
    real = aplab.solver.minimize

    def unconverged(*args, **kwargs):
        # a last stage above the tolerance is what makes a result unconverged
        res = real(*args, **kwargs)
        last = dataclasses.replace(res.stages[-1], residual_rms=1.0)
        return dataclasses.replace(res, stages=res.stages[:-1] + (last,))

    monkeypatch.setattr(aplab.solver, "minimize", unconverged)
    fld, region = _bump_field((17, 17))
    with pytest.raises(SolverStall, match="did not converge") as info:
        p_harmonic_replacement(fld, 3.0, region)
    assert not info.value.result.converged


def test_comparison_gap_identity_at_p_two():
    # int |grad u|^2 - |grad v|^2 = int |grad(u - v)|^2 by orthogonality
    fld, rep = _bump_field_and_replacement(2.0)
    distance, energy_gap = comparison_gap(fld, rep, 2.0)
    assert distance > 0.0
    assert abs(energy_gap - 0.5 * distance) <= 1e-12 * distance


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_comparison_gap_nonnegative(p):
    fld, rep = _bump_field_and_replacement(p)
    distance, energy_gap = comparison_gap(fld, rep, p)
    assert distance >= 0.0
    assert energy_gap >= -1e-12


def test_comparison_gap_zero_for_identical_fields():
    fld, _ = _bump_field_and_replacement(2.0)
    distance, energy_gap = comparison_gap(fld, fld, 3.0)
    assert distance == 0.0
    assert energy_gap == 0.0


def test_comparison_gap_rejects_grid_mismatch():
    fld, _ = _bump_field_and_replacement(2.0)
    other = Grid(extents=((0.0, 1.0),), resolution=(9,))
    vals = np.zeros(9)
    small = ScalarField(grid=other, values=vals, boundary_mask=other.boundary_face_mask,
                        boundary_values=vals)
    with pytest.raises(ValueError):
        comparison_gap(fld, small, 2.0)


@pytest.mark.parametrize(
    "params",
    [
        Params(p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0,
               alpha_p=1.0),
        Params(p=3.0, gamma=1.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0,
               alpha_p=0.5),
    ],
)
def test_nonlinearity_gap_within_bound(params):
    fld, rep = _bump_field_and_replacement(2.0)
    gap, bound = nonlinearity_gap(fld, rep, params)
    assert bound >= 0.0
    assert abs(gap) <= bound
