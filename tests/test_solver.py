"""Continuation solver, Dirichlet-term replacement, and comparison gaps."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import aplab.solver
from aplab.core import Grid, Params, ScalarField, prolong
from aplab.energy import DiscreteEnergy
from aplab.oracle import one_phase_profile, radial_p_harmonic
from aplab.solver import (
    DEFAULT_LADDER,
    _box_preconditioner,
    _FreeBlock,
    _pcg,
    _Stencil,
    SolveResult,
    SolverStall,
    STAGE_EXITS,
    StageRecord,
    WORK_COUNTERS,
    comparison_gap,
    minimize,
    nonlinearity_gap,
    p_harmonic_replacement,
    spsolve,
)


def _profile_start(params, n):
    # the exact one-phase profile on the walls, zero inside (tests/conftest.py)
    prof = one_phase_profile(params)
    grid = Grid(extents=((-1.0, 1.0),), resolution=(n,))
    wall = prof.coefficient * np.clip(grid.axes[0], 0.0, None) ** prof.beta
    return ScalarField(grid, np.zeros_like(wall), grid.boundary_face_mask, wall)


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


def _refused_on_the_whole_grid(kern, eps):
    # the reference check: curvature, conductances and Hessian weights of
    # the zero field at every node and edge of the kernel's own grid
    with np.errstate(all="ignore"):
        at_rest = kern.at(np.zeros(kern.grid.shape), eps)
        arrays = [at_rest.curvature(), *at_rest.conductances]
        if at_rest.hessian is not None:
            arrays.append(at_rest.hessian[0])
    return not all(np.isfinite(a).all() for a in arrays)


_LADDER_GRIDS = {
    "1d": (((0.0, 1.0),), (17,)),
    "2d": (((-1.0, 1.0), (0.0, 1.5)), (9, 7)),
    "2d-two-nodes": (((0.0, 1e-3), (-2.0, 3.0)), (2, 6)),
    "3d": (((0.0, 1.0), (-0.5, 1.0), (0.0, 2.0)), (5, 6, 4)),
}
# Grids with coarse levels, at one exponent pair: the whole-grid reference
# costs 1-2 s per pair on 129^2 and 2-5 s on 33^3.
_NESTED_LADDER_GRIDS = {
    "1d-nested": (((0.0, 1.0),), (2049,)),
    "2d-nested": (((-1.0, 1.0), (0.0, 1.5)), (129, 129)),
    "3d-nested": (((0.0, 1.0), (-0.5, 1.0), (0.0, 2.0)), (33, 33, 33)),
}


@pytest.mark.parametrize(
    "extents, shape, p, gamma",
    [
        pytest.param(*grid, p, gamma, id=f"{name}-{p}-{gamma}")
        for name, grid in _LADDER_GRIDS.items()
        for p, gamma in [(1.2, 0.3), (1.5, 0.3), (2.0, 0.5), (3.0, 1.0), (8.0, 0.5)]
    ]
    + [
        pytest.param(*grid, 2.0, 0.5, id=f"{name}-2.0-0.5")
        for name, grid in _NESTED_LADDER_GRIDS.items()
    ],
)
def test_ladder_check_refuses_the_widths_the_whole_grid_refuses(
    extents, shape, p, gamma, monkeypatch
):
    # widths 1e-1 .. 1e-320 in half decades, one ladder each: minimize, whose
    # check runs on a few nodes of the caller's grid, accepts and refuses
    # exactly what the whole grid would, also on grids with coarse levels
    # (an accepted ladder reaches the levels, stubbed out here)
    grid = Grid(extents=extents, resolution=shape)
    par = Params(p=p, gamma=gamma, lambda_plus=0.5, lambda_minus=0.3, alpha_p=1.0)
    kern = DiscreteEnergy(grid, par)
    start = ScalarField(grid, np.zeros(shape), grid.boundary_face_mask, np.zeros(shape))
    monkeypatch.setattr(aplab.solver, "_nested", lambda *args: "solved")
    refused = []
    for eps in (10.0 ** (-0.5 * j) for j in range(2, 641)):
        if _refused_on_the_whole_grid(kern, eps):
            message = f"smoothing width {eps:g} is out of the kernel's range"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                minimize(start, par, (eps,))
            refused.append(eps)
        else:
            assert minimize(start, par, (eps,)) == "solved"
    assert 0 < len(refused) < 639


def test_ladder_check_refuses_a_width_whose_hessian_weight_overflows(monkeypatch):
    # p = 1.1 with gamma just below it, on a grid of node weight 1e14: at
    # this width the potential curvature and the conductances at rest are
    # finite, but w phi''(eps^2) ~ 1e14 * 1e300 overflows, and its product
    # with the zero edge factors would make a NaN block
    grid = Grid(extents=((0.0, 1.6e15),), resolution=(17,))
    par = Params(p=1.1, gamma=1.0999, lambda_plus=0.5, lambda_minus=0.3, alpha_p=1.0)
    eps = 10.0**-103.45
    with np.errstate(all="ignore"):
        at_rest = DiscreteEnergy(grid, par).at(np.zeros(17), eps)
        assert np.isfinite(at_rest.curvature()).all()
        assert all(np.isfinite(k).all() for k in at_rest.conductances)
        psi, _ = at_rest.hessian
        assert np.isinf(psi[1:-1]).all()
        M = _FreeBlock(at_rest.kern, np.arange(1, 16))(
            at_rest.conductances, 0.0, at_rest.hessian
        )
        assert np.isnan(M.banded()).any()
    start = ScalarField(grid, np.zeros(17), grid.boundary_face_mask, np.zeros(17))
    monkeypatch.setattr(aplab.solver, "_nested", lambda *args: "solved")
    message = f"smoothing width {eps:g} is out of the kernel's range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        minimize(start, par, (1e-3, eps))
    assert minimize(start, par, (1e-3, 1e-100)) == "solved"


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
    # the Newton model rests on A(u) @ u being the exact Dirichlet gradient,
    # on the whole grid's stencil and on the one assemble_diffusion returns
    grid = Grid(extents=extents, resolution=shape)
    u = np.random.default_rng(len(shape)).standard_normal(shape)
    kern = DiscreteEnergy.dirichlet(grid, p)
    it = kern.at(u, 0.1)
    g = it.gradient().ravel()
    for A in (_FreeBlock(kern, np.arange(u.size))(it.conductances),
              aplab.solver.assemble_diffusion(u, grid, p, 0.1)):
        assert isinstance(A, _Stencil) and A.grid == shape
        a_u = A @ u.ravel()
        assert np.max(np.abs(a_u - g)) <= 1e-12 * np.max(np.abs(g))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@_OPERATOR_GRIDS
def test_newton_block_is_the_hessian_of_the_dirichlet_energy(extents, shape, p):
    # the lagged operator plus the rank-one part, on every node, against
    # central differences of the kernel's gradient; the stencil's product
    # and diagonal against the dense block's
    grid = Grid(extents=extents, resolution=shape)
    rng = np.random.default_rng(len(shape))
    u = rng.standard_normal(shape)
    kern = DiscreteEnergy.dirichlet(grid, p)
    it = kern.at(u, 0.1)
    M = _FreeBlock(kern, np.arange(u.size))(it.conductances, 0.0, it.hessian)
    hess = _stencil_csr(M).toarray()
    step = 1e-6
    fd = np.empty_like(hess)
    for k in range(u.size):
        up, dn = u.copy().reshape(-1), u.copy().reshape(-1)
        up[k] += step
        dn[k] -= step
        g_up = kern.at(up.reshape(shape), 0.1).gradient()
        g_dn = kern.at(dn.reshape(shape), 0.1).gradient()
        fd[:, k] = (g_up - g_dn).reshape(-1) / (2.0 * step)
    scale = np.max(np.abs(hess))
    assert np.max(np.abs(hess - fd)) <= 1e-8 * scale
    assert np.max(np.abs(hess - hess.T)) <= 1e-14 * scale
    x = rng.standard_normal(u.size)
    assert np.max(np.abs(M @ x - hess @ x)) <= 1e-12 * np.max(np.abs(hess @ x))
    assert np.max(np.abs(M.diagonal() - np.diag(hess))) <= 1e-12 * scale


@_OPERATOR_GRIDS
def test_newton_block_at_p_below_2_is_positive_definite(extents, shape):
    # at p < 2 the rank-one part is negative semidefinite, yet each node's
    # term of the Hessian stays PSD, so the block on the free nodes is SPD
    grid = Grid(extents=extents, resolution=shape)
    u = np.random.default_rng(len(shape)).standard_normal(shape)
    kern = DiscreteEnergy.dirichlet(grid, 1.5)
    it = kern.at(u, 0.01)
    M = _FreeBlock(kern, _interior(grid))(it.conductances, 0.0, it.hessian)
    assert it.hessian[0].max() < 0.0
    lam = np.linalg.eigvalsh(_stencil_csr(M).toarray())
    assert lam[0] > 1e-12 * lam[-1]


def _coo_operator(kern, kappas):
    # reference assembly: four COO entries per edge, duplicates summed by
    # scipy's COO->CSR conversion
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


def _rank_one_operator(kern, hessian):
    # reference rank-one part G^T diag(psi) G, G's row k being grad q_k: the
    # edge's factor at k times -1 at its lower and +1 at its upper node
    psi, factors = hessian
    n = psi.size
    idx = np.arange(n).reshape(psi.shape)
    rows, cols, data = [], [], []
    for (lo, hi, *_), (alpha, beta) in zip(kern.axes, factors):
        i, j, a, b = idx[lo].ravel(), idx[hi].ravel(), alpha.ravel(), beta.ravel()
        rows.extend((i, i, j, j))
        cols.extend((i, j, i, j))
        data.extend((-a, a, -b, b))
    G = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    return (G.T @ sp.diags(psi.ravel()) @ G).tocsr()


def _stencil_csr(M):
    # the stencil's entries between nodes of its set as CSR, assembled in
    # the test from the coefficients alone: the block-index grid, each
    # offset's end slices and the argsort are built anew on every call
    m = M.main.size
    at = np.arange(m)
    pos = np.full(M.grid, -1)
    pos.reshape(-1)[at if M.where is None else M.where] = at
    rows, cols, ks = [], [], []
    for d, c in M.coef.items():
        lo = tuple(slice(max(0, -a), n - max(0, a)) for n, a in zip(M.grid, d))
        hi = tuple(slice(max(0, a), n - max(0, -a)) for n, a in zip(M.grid, d))
        i, j = pos[lo], pos[hi]
        both = (i >= 0) & (j >= 0)
        rows.append(i[both])
        cols.append(j[both])
        ks.append(c[both])
    i, j, k = np.concatenate(rows), np.concatenate(cols), np.concatenate(ks)
    row = np.concatenate((at, i, j))
    col = np.concatenate((at, j, i))
    order = np.argsort(row * m + col, kind="stable")
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=m), out=indptr[1:])
    data = np.concatenate((M.main, k, k))[order]
    return sp.csr_matrix((data, col[order].astype(np.int32), indptr), shape=(m, m))


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
    shift = rng.random(idx.size)
    kern = DiscreteEnergy.dirichlet(grid, p)
    kappas = kern.at(u, 0.1).conductances
    full = _FreeBlock(kern, np.arange(u.size))(kappas)
    # blocks come as stencils in every dimension; their entries, read off as
    # CSR, are the COO build's
    assert isinstance(full, _Stencil)
    full = _stencil_csr(full)
    _assert_same_csr(full, _coo_operator(kern, kappas))
    want = (full[idx][:, idx] + sp.diags(shift)).tocsr()
    _assert_same_csr(_stencil_csr(_FreeBlock(kern, idx)(kappas, shift)), want)


@pytest.mark.parametrize("shape", [(33,), (17, 13)], ids=["1d", "2d"])
def test_fixed_pattern_refills_match_a_fresh_build(shape):
    # one pattern, refilled twice with new values, against a fresh COO->CSR
    # build each time: the stencil's entries as CSR bit for bit, and the 1D
    # stencil's bands entry by entry
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5))[: len(shape)], resolution=shape)
    X = grid.coordinate_arrays()
    hole = sum(x * x for x in X) < 0.3**2  # a masked hole in the node set
    nodes = np.flatnonzero((~grid.boundary_face_mask & ~hole).ravel())
    kern = DiscreteEnergy.dirichlet(grid, 1.5)
    block = _FreeBlock(kern, nodes)
    rng = np.random.default_rng(7)
    for eps in (0.1, 0.01):
        kappas = kern.at(rng.standard_normal(shape), eps).conductances
        shift = rng.random(nodes.size)
        got = block(kappas, shift)
        full = _coo_operator(kern, kappas)
        want = (full[nodes][:, nodes] + sp.diags(shift)).tocsr()
        if len(shape) == 1:
            # the diagonal and the coupling of each node to the next: no
            # band to the one after without the Hessian's rank-one part
            ab = got.banded()
            assert ab.shape == (2, nodes.size)
            assert np.array_equal(ab[0], want.diagonal())
            assert np.array_equal(ab[1, :-1], want.diagonal(1))
        _assert_same_csr(_stencil_csr(got), want)


@pytest.mark.parametrize("shape", [(33,), (17, 13)], ids=["1d", "2d"])
def test_a_refill_leaves_the_blocks_made_before_it(shape):
    # a refill with new conductances makes new couplings and a new diagonal;
    # the block returned before must keep its own, or the next Newton step
    # would overwrite it
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5))[: len(shape)], resolution=shape)
    nodes = np.flatnonzero(~grid.boundary_face_mask.ravel())
    kern = DiscreteEnergy.dirichlet(grid, 1.5)
    block = _FreeBlock(kern, nodes)
    rng = np.random.default_rng(3)
    states = [kern.at(rng.standard_normal(shape), 0.1) for _ in range(2)]
    first = block(states[0].conductances, 1.0, states[0].hessian)
    kept = _stencil_csr(first).toarray()
    block(states[1].conductances, 1.0, states[1].hessian)
    assert np.array_equal(_stencil_csr(first).toarray(), kept)


def _interior(grid):
    return np.flatnonzero(~grid.boundary_face_mask.ravel())


def _newton_system(grid, p, nodes, shift, seed=0, indefinite=False):
    # a Newton matrix of minimize's form: the Dirichlet Hessian at a random
    # field (the lagged operator, plus its rank-one part at p != 2) plus a
    # nonnegative diagonal shift of size up to ``shift``; ``indefinite``
    # replaces that shift by -c, c half the smallest diagonal entry: with
    # ``shift`` 0 at p = 2, the entries of M - c I, a positive diagonal but
    # eigenvalues of both signs
    rng = np.random.default_rng(seed)
    kern = DiscreteEnergy.dirichlet(grid, p)
    state = kern.at(rng.standard_normal(grid.shape), 0.1)
    kappas, hessian = state.conductances, state.hessian
    block = _FreeBlock(kern, nodes)
    M = block(kappas, shift * rng.random(nodes.size), hessian)
    if indefinite:
        M = block(kappas, -0.5 * M.diagonal().min(), hessian)
    return kern, M, rng.standard_normal(nodes.size)


def _ball(grid):
    X = grid.coordinate_arrays()
    mid = [0.5 * (a + b) for a, b in grid.extents]
    return np.flatnonzero((sum((x - c) ** 2 for x, c in zip(X, mid)) < 0.6**2).ravel())


def _box_minus_ball(grid):
    return np.setdiff1d(_interior(grid), _ball(grid))


def _random_subset(grid):
    return np.flatnonzero(np.random.default_rng(9).random(grid.shape).ravel() < 0.6)


def _face_touching(grid):
    # the interior box and the inner nodes of the last face of the last axis
    free = ~grid.boundary_face_mask
    free[(slice(1, -1),) * (grid.ndim - 1) + (-1,)] = True
    return np.flatnonzero(free.ravel())


@pytest.mark.parametrize(
    "subset",
    [lambda grid: np.arange(np.prod(grid.shape)), _interior, _box_minus_ball,
     _random_subset, _face_touching],
    ids=["grid", "box", "box-minus-ball", "random", "face"],
)
@pytest.mark.parametrize("shape", [(17, 13), (9, 7, 6)], ids=["2d", "3d"])
def test_stencil_products_equal_the_csr_products_bit_for_bit(shape, subset):
    # at every p, CG's M @ d and the floor's |M| @ |u| on the stencil are the
    # products on the stencil's entries as CSR, to the last bit and the sign
    # of every zero; some conductances are 0 and x holds both zeros.  Without
    # the rank-one part (p = 2) those entries are the sliced COO build of the
    # full-grid operator, the signs of its zero entries included; with it,
    # they add G^T diag(psi) G up to rounding
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    rng = np.random.default_rng(len(shape))
    nodes = subset(grid)
    for p in (2.0, 1.5, 3.0):
        kern = DiscreteEnergy.dirichlet(grid, p)
        state = kern.at(rng.standard_normal(shape), 0.1)
        kappas = [k.copy() for k in state.conductances]
        for k in kappas:
            k[rng.random(k.shape) < 0.1] = 0.0
        shift = rng.random(nodes.size)
        M = _FreeBlock(kern, nodes)(kappas, shift, state.hessian)
        assert isinstance(M, _Stencil) and (M.where is None) == (subset is _interior)
        csr = _stencil_csr(M)
        # the sliced full-grid operator; a sparse sum would drop its zero entries
        want = _coo_operator(kern, kappas)[nodes][:, nodes].tocsr()
        want.setdiag(want.diagonal() + shift)
        if p == 2.0:
            _assert_same_csr(csr, want)
            assert np.array_equal(np.signbit(csr.data), np.signbit(want.data))
        else:
            want = (want + _rank_one_operator(kern, state.hessian)[nodes][:, nodes]).toarray()
            scale = np.max(np.abs(want))
            assert np.max(np.abs(csr.toarray() - want)) <= 1e-15 * scale
        assert np.array_equal(M.diagonal(), csr.diagonal())
        for _ in range(2):
            x = rng.standard_normal(nodes.size)
            x[rng.random(nodes.size) < 0.3] = 0.0
            x[rng.random(nodes.size) < 0.3] = -0.0
            for got, want in ((M @ x, csr @ x), (abs(M) @ x, abs(csr) @ x)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "subset", [_interior, _box_minus_ball, _random_subset],
    ids=["box", "box-minus-ball", "random"],
)
@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("shape", [(17, 13), (9, 7, 6)], ids=["2d", "3d"])
def test_hessian_products_match_the_csr_block(shape, p, subset):
    # at p != 2 the rank-one part lives in the offset coefficients 2 e_a and
    # e_a +- e_b as well; the stencil's entries, product and diagonal are
    # those of the sliced COO build A + G^T diag(psi) G + shift
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    rng = np.random.default_rng(len(shape))
    nodes = subset(grid)
    kern = DiscreteEnergy.dirichlet(grid, p)
    it = kern.at(rng.standard_normal(shape), 0.1)
    shift = rng.random(nodes.size)
    M = _FreeBlock(kern, nodes)(it.conductances, shift, it.hessian)
    coo = _coo_operator(kern, it.conductances) + _rank_one_operator(kern, it.hessian)
    coo = coo[nodes][:, nodes].toarray() + np.diag(shift)
    scale = np.max(np.abs(coo))
    assert np.max(np.abs(_stencil_csr(M).toarray() - coo)) <= 1e-12 * scale
    for _ in range(3):
        x = rng.standard_normal(nodes.size)
        want = coo @ x
        assert np.max(np.abs(M @ x - want)) <= 1e-12 * np.max(np.abs(want))
    diag = np.diag(coo)
    assert np.max(np.abs(M.diagonal() - diag)) <= 1e-12 * np.max(np.abs(diag))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "shape, subset",
    [((33,), _interior), ((17, 13), _interior), ((17, 13), _box_minus_ball),
     ((9, 7, 6), _interior), ((9, 7, 6), _face_touching)],
    ids=["1d", "2d-box", "2d-non-box", "3d-box", "3d-non-box"],
)
def test_a_kept_dirichlet_part_gives_a_fresh_block_bit_for_bit(shape, subset):
    # consecutive calls with the same conductances (the kernel's, at p = 2)
    # or the same iterate's conductances and Hessian terms reuse the block's
    # Dirichlet part and only add the new shift; each block must be the one
    # a fresh _FreeBlock makes, to the last bit, and new conductances or
    # Hessian terms must replace the kept part.  The fresh blocks share the
    # first one's plan, made once per grid shape and kind of node set
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    nodes = subset(grid)
    kern = DiscreteEnergy.dirichlet(grid, 2.0)
    other = DiscreteEnergy.dirichlet(grid, 1.5)
    rng = np.random.default_rng(len(shape))
    block = _FreeBlock(kern, nodes)
    kappas = kern.at(rng.standard_normal(shape), 0.1).conductances
    state = other.at(rng.standard_normal(shape), 0.1)
    calls = [(kappas, rng.random(nodes.size)), (kappas, 0.0),
             (kappas, rng.random(nodes.size)),
             (state.conductances, 1.0),
             (state.conductances, -rng.random(nodes.size), state.hessian),
             (state.conductances, 1.0, state.hessian),
             (kappas, rng.random(nodes.size))]
    kept = []
    for args in calls:
        got = block(*args)
        fresh = _FreeBlock(kern, nodes)
        want = fresh(*args)
        assert fresh.pairs is block.pairs and fresh.ends is block.ends
        kept.append(block._kept[3])
        assert _same_bits(got.main, want.main) and got.where is want.where
        assert list(got.coef) == list(want.coef)
        for c, w in zip(got.coef.values(), want.coef.values()):
            assert _same_bits(c, w) and not c.flags.writeable
    # the second and third calls reused the first call's coefficients, and
    # the sixth the fifth's
    assert kept[0] is kept[1] is kept[2] and kept[4] is kept[5]
    assert len({id(k) for k in (kept[2], kept[3], kept[4], kept[6])}) == 4


@pytest.mark.parametrize(
    "shape, subset",
    [((17, 13), _face_touching), ((9, 7, 6), _face_touching),
     ((9, 7, 6), _interior), ((17, 13), _random_subset)],
    ids=["2d-face", "3d-face", "3d-box", "2d-random"],
)
def test_the_held_csr_pattern_gives_the_per_call_assembly(shape, subset):
    # the block plans its offsets and their end slices once; over calls with
    # different conductances, with and without Hessian terms, the products
    # on that plan must be those on the CSR pattern that a per-call assembly
    # builds, bit for bit, the signs of zero couplings and zero products
    # included
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    nodes = subset(grid)
    kern = DiscreteEnergy.dirichlet(grid, 1.5)
    block = _FreeBlock(kern, nodes)
    rng = np.random.default_rng(5)
    for eps, exact in ((0.1, False), (0.01, True), (0.1, True)):
        state = kern.at(rng.standard_normal(shape), eps)
        kappas = [k.copy() for k in state.conductances]
        for k in kappas:
            k[rng.random(k.shape) < 0.1] = 0.0
        M = block(kappas, rng.random(nodes.size), state.hessian if exact else None)
        assert (len(M.coef) > len(shape)) == exact
        csr = _stencil_csr(M)
        x = rng.standard_normal(nodes.size)
        x[rng.random(nodes.size) < 0.3] = 0.0
        x[rng.random(nodes.size) < 0.3] = -0.0
        for got, want in ((M @ x, csr @ x), (abs(M) @ x, abs(csr) @ x)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shift", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "shape, subset",
    [((17, 13), _interior), ((9, 7, 6), _interior), ((17, 13), _ball),
     ((17, 13), _face_touching), ((9, 7, 6), _face_touching)],
    ids=["box2d", "box3d", "ball2d", "face2d", "face3d"],
)
def test_preconditioned_solve_matches_superlu(shape, subset, p, shift):
    # CG against scipy's SuperLU on the stencil's entries as CSR, also for
    # node sets on a face of the box, which CG preconditions on the whole grid
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5), (0.0, 1.0))[: len(shape)],
                resolution=shape)
    nodes = subset(grid)
    kern, M, b = _newton_system(grid, p, nodes, shift)
    precond = _box_preconditioner(kern, _FreeBlock(kern, nodes))
    assert precond is not None
    tally = Counter()
    x = spsolve(M, b, precond, tally)
    want = spla.spsolve(_stencil_csr(M), b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    assert tally["cg_iterations"] > 0


def _cg_system(seed=0):
    grid = Grid(extents=((-1.0, 1.0), (0.0, 1.5)), resolution=(17, 13))
    nodes = _interior(grid)
    kern, M, b = _newton_system(grid, 3.0, nodes, 1.0, seed)
    return M, b, _box_preconditioner(kern, _FreeBlock(kern, nodes))


def test_pcg_stops_once_the_residual_meets_the_floor(monkeypatch):
    M, b, precond = _cg_system()
    floor = 1e-6 * np.linalg.norm(b)
    tally = Counter()
    x = _pcg(M, b, precond, tally, floor)
    assert np.linalg.norm(M @ x - b) <= floor
    assert tally["cg_floor_stops"] == 1
    # one iteration fewer misses the floor: CG stopped at the first chance
    k = tally["cg_iterations"]
    monkeypatch.setattr(aplab.solver, "_CG_MAX_ITERS", k - 1)
    assert _pcg(M, b, precond, Counter(), floor) is None
    monkeypatch.undo()
    # the floor stops CG before the relative tolerance would
    full = Counter()
    _pcg(M, b, precond, full, 0.0)
    assert full["cg_iterations"] > k and full["cg_floor_stops"] == 0


def test_spsolve_without_a_floor_meets_the_relative_tolerance():
    M, b, precond = _cg_system(seed=1)
    tally = Counter()
    x = spsolve(M, b, precond, tally)
    assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert tally["cg_floor_stops"] == 0
    # a floor under the relative bound changes nothing and is not counted
    below = Counter()
    floor = 1e-3 * aplab.solver._CG_RTOL * np.linalg.norm(b)
    assert np.array_equal(spsolve(M, b, precond, below, floor), x)
    assert below == tally


def _gapped(grid):
    # interior nodes with two gaps: two pinned nodes, then one
    nodes = _interior(grid)
    return np.setdiff1d(nodes, nodes[[3, 4, 10]])


@pytest.mark.parametrize("shift", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("subset", [_interior, _gapped], ids=["interior", "gapped"])
def test_banded_solve_matches_superlu(subset, p, shift):
    grid = Grid(extents=((-1.0, 1.0),), resolution=(33,))
    nodes = subset(grid)
    kern, M, b = _newton_system(grid, p, nodes, shift)
    assert isinstance(M, _Stencil)
    assert _box_preconditioner(kern, _FreeBlock(kern, nodes)) is None
    # dpbsv's bands are those of the stencil's entries as CSR, bit for bit:
    # two without the Hessian's rank-one part (p = 2), three with it
    csr = _stencil_csr(M)
    ab = M.banded()
    assert ab.shape == (2 if p == 2.0 else 3, nodes.size)
    bands = tuple(ab[k, : nodes.size - k] for k in range(ab.shape[0]))
    want = tuple(csr.diagonal(k) for k in range(3))
    assert not want[2].any() if p == 2.0 else not csr.diagonal(3).any()
    assert all(_same_bits(got, w) for got, w in zip(bands, want))
    # across one pinned node only the rank-one part couples; across two,
    # nothing does
    gaps = np.diff(nodes)
    assert (gaps > 1).any() == (subset is _gapped)
    assert _same_bits(bands[1][gaps > 2], np.zeros(np.count_nonzero(gaps > 2)))
    across = bands[1][gaps == 2]
    assert across.size == (subset is _gapped)
    assert (across != 0.0).all() if p != 2.0 else not across.any()
    if p != 2.0:
        assert not bands[2][nodes[2:] - nodes[:-2] > 2].any()
    tally = Counter()
    x = spsolve(M, b, None, tally)
    want = spla.spsolve(csr, b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert not tally


def test_indefinite_banded_system_is_refused_without_superlu():
    # dpbsv's refusal reaches the caller, which cuts the model's curvature
    # further; spsolve counts nothing
    grid = Grid(extents=((-1.0, 1.0),), resolution=(33,))
    nodes = _interior(grid)
    _, M, b = _newton_system(grid, 2.0, nodes, 0.0, indefinite=True)
    tally = Counter()
    with pytest.raises(np.linalg.LinAlgError):
        spsolve(M, b, None, tally)
    assert not tally


def _precond(kern, nodes):
    return _box_preconditioner(kern, _FreeBlock(kern, nodes))


def test_box_preconditioner_needs_strictly_interior_nodes_in_2d_or_3d():
    # the interior box when it holds every node, else the whole grid; none
    # in 1D, where dpbsv factors the system
    line = Grid(extents=((0.0, 1.0),), resolution=(17,))
    assert _precond(DiscreteEnergy.dirichlet(line, 2.0), _interior(line)) is None
    grid = Grid(extents=((0.0, 1.0), (0.0, 1.0)), resolution=(9, 9))
    kern = DiscreteEnergy.dirichlet(grid, 2.0)
    box = _precond(kern, _interior(grid))
    assert box.lam.shape == (7, 7) and box.where is None
    inner = np.zeros(grid.shape, dtype=bool)
    inner[2:-2, 2:-2] = True
    inner = np.flatnonzero(inner.ravel())
    assert np.array_equal(_precond(kern, inner).where, _FreeBlock(kern, inner).in_box)
    # one node on the last face of axis 1 is enough to rule the interior
    # box out
    touching = np.union1d(_interior(grid), [np.ravel_multi_index((4, 8), grid.shape)])
    for nodes in (np.arange(grid.shape[0] * grid.shape[1]), touching):
        whole = _precond(kern, nodes)
        assert whole.lam.shape == (9, 9) and np.array_equal(whole.where, nodes)
        assert whole.diag == box.diag


# box shapes of the DST-I checks: interior boxes of power-of-two grids,
# odd and mixed lengths, and 3D
_DST_BOXES = [(15, 15), (127, 127), (129, 129), (17, 13), (9, 9, 7), (33, 33, 33),
              (20, 37)]


@pytest.mark.parametrize("box", _DST_BOXES, ids=str)
def test_odd_lines_are_scipy_dst_type_1_bit_for_bit(box):
    from scipy.fft import dst

    rng = np.random.default_rng(len(box) + box[0])
    for axis in range(len(box)):
        line = aplab.solver._OddLines(box, axis)
        for _ in range(2):
            x = rng.standard_normal(box)
            line.head[...] = x
            assert _same_bits(-line(), dst(x, type=1, axis=axis))


@pytest.mark.parametrize("whole", [False, True], ids=["interior", "whole"])
@pytest.mark.parametrize("box", _DST_BOXES, ids=str)
def test_box_preconditioner_is_scipy_dstn_and_idstn_bit_for_bit(box, whole):
    # on the interior box of a grid two nodes wider, and on the whole grid
    # for a node set with a node on a face; non-dyadic spacings
    from scipy.fft import dstn, idstn

    shape = box if whole else tuple(m + 2 for m in box)
    grid = Grid(extents=tuple((0.0, 1.0 + 0.37 * a) for a in range(len(shape))),
                resolution=shape)
    kern = DiscreteEnergy.dirichlet(grid, 2.0)
    nodes = _face_touching(grid) if whole else _interior(grid)
    precond = _precond(kern, nodes)
    assert precond.lam.shape == box and (precond.where is None) != whole
    rng = np.random.default_rng(sum(box))
    for _ in range(2):
        s = rng.uniform(0.5, 2.0, nodes.size)
        r = rng.standard_normal(nodes.size)
        y = np.zeros(precond.lam.size)
        y[nodes if whole else slice(None)] = s * r
        y = dstn(y.reshape(box), type=1)
        y /= precond.lam
        y = idstn(y, type=1, overwrite_x=True).reshape(-1)
        want = s * (y[nodes] if whole else y)
        assert _same_bits(precond(s, r), want)


def test_cg_breakdown_on_an_indefinite_system_returns_none():
    # CG meets d . M d <= 0 and gives up: spsolve returns None, the signal
    # that the Newton step stalls, and solves nothing else
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(17, 17))
    nodes = _interior(grid)
    kern, M, b = _newton_system(grid, 2.0, nodes, 0.0, indefinite=True)
    tally = Counter()
    assert spsolve(M, b, _precond(kern, nodes), tally) is None
    assert 0 < tally["cg_iterations"] < aplab.solver._CG_MAX_ITERS
    assert set(tally) == {"cg_iterations"}


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
    # n = 1025 nests down to n = 17, which runs the whole ladder; each of
    # the six finer levels runs its last width
    res = convex_1d.result
    levels = [17, 33, 65, 129, 257, 513, 1025]
    assert len(res.stages) == len(DEFAULT_LADDER) + 6
    assert [s.eps for s in res.stages] == list(DEFAULT_LADDER) + [1e-5] * 6
    assert [s.resolution for s in res.stages] == [(n,) for n in [17] * 8 + levels]
    assert res.n_iterations == sum(s.n_iters for s in res.stages)
    assert res.residual_rms == res.stages[-1].residual_rms
    assert res.residual_rms <= aplab.solver._TOL_RESIDUAL
    assert all(s.exit in STAGE_EXITS for s in res.stages)
    assert res.stages[-1].exit == "tolerance"


def test_capped_stage_reports_the_residual_of_its_last_step(monkeypatch):
    # the stage stops at the step cap; its residual is that of the field
    # it returns, not of the iterate before the last step
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 1)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1,))
    assert res.n_iterations == 3  # one step on each of n = 17, 33 and 65
    assert [s.exit for s in res.stages] == ["step_cap"] * 3
    kern = DiscreteEnergy(fld.grid, par)
    r = (kern.at(res.field.values, 0.1).gradient() / kern.weights)[fld.free_mask]
    assert res.residual_rms == np.sqrt(np.mean(r * r))
    assert res.residual_max == np.max(np.abs(r))
    assert not res.converged
    assert res.shortfall == (
        f"step_cap exit at smoothing width 0.1 (residual rms {res.residual_rms:.3e})"
    )


_SESSION_SOLVES = [
    "convex_1d",
    "degenerate_1d",
    "crossing_1d",
    "crossing_2d",
    "branching_2d",
    "restricted_cases",
    "restricted_cases_fine",
]


def _session_solves(name, request) -> list:
    cases = request.getfixturevalue(name)
    return list(cases.values()) if isinstance(cases, dict) else [cases]


@pytest.mark.parametrize("fixture", _SESSION_SOLVES)
def test_shortfall_is_set_exactly_when_the_solve_is_unconverged(fixture, request):
    for case in _session_solves(fixture, request):
        res = case.result
        assert (res.shortfall is None) == res.converged
        assert (res.stages[-1].exit == "tolerance") == res.converged


@pytest.mark.parametrize("fixture", _SESSION_SOLVES)
def test_residual_max_is_the_scaled_gradient_max_over_free_nodes(fixture, request):
    for case in _session_solves(fixture, request):
        res = case.result
        kern = DiscreteEnergy(case.grid, case.params)
        g = kern.at(res.field.values, DEFAULT_LADDER[-1]).gradient()
        free = res.field.free_mask
        assert res.residual_max == np.max(np.abs(g / kern.weights)[free])


@pytest.mark.parametrize("fixture", _SESSION_SOLVES)
def test_stage_energy_is_the_energy_of_the_field_it_leaves(fixture, request):
    # polish steps move the field after the last Armijo step, so the trace's
    # last entry can be stale; the record's energy is the returned field's
    for case in _session_solves(fixture, request):
        res = case.result
        last = res.stages[-1]
        kern = DiscreteEnergy(case.grid, case.params)
        assert last.energy == kern.at(res.field.values, last.eps).energy


def test_solve_result_derives_its_totals_from_its_stages():
    fld, _ = _one_phase_start(n=9)
    tol = aplab.solver._TOL_RESIDUAL
    stages = (
        StageRecord(0.1, 3, (2.0, 1.0), 1.0, 0.5 * tol, tol, "tolerance", (9,)),
        StageRecord(0.01, 4, (1.0, 0.5), 0.5, 2.0 * tol, 5.0 * tol, "step_cap", (9,)),
    )
    res = SolveResult(fld, 0.5, stages)
    assert res.n_iterations == 7
    assert res.residual_rms == 2.0 * tol
    assert res.residual_max == 5.0 * tol
    assert not res.converged
    assert SolveResult(fld, 0.5, stages[:1]).converged
    empty = SolveResult(fld, 0.5)
    assert empty.converged and empty.residual_rms == 0.0 and empty.n_iterations == 0
    assert empty.residual_max == 0.0 and empty.shortfall is None
    # the work counters are one read-only mapping keyed by WORK_COUNTERS
    assert tuple(empty.work) == WORK_COUNTERS and not any(empty.work.values())
    with pytest.raises(TypeError):
        empty.work["backtracks"] = 1


def test_minimize_energy_traces_decrease(convex_1d):
    for stage in convex_1d.result.stages:
        trace = np.asarray(stage.energies)
        assert np.all(np.diff(trace) <= 0.0)


def test_minimize_1d_solves_by_banded_cholesky(convex_1d):
    res = convex_1d.result
    assert res.work["linear_solves"] >= res.n_iterations > 0
    assert res.work["cg_iterations"] == 0


def test_nonfinite_banded_solve_is_a_stall(monkeypatch):
    # every banded solve comes back non-finite, which nothing retries: the
    # stall ends the ladder of n = 17 at its first width, and n = 33 and 65
    # each stall at once from the prolonged start
    monkeypatch.setattr(aplab.solver, "solveh_banded",
                        lambda ab, b: np.full_like(b, np.nan))
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1, 0.01))
    assert res.shortfall == (
        "linear solve non-finite at smoothing width 0.01 "
        f"(residual rms {res.residual_rms:.3e})"
    )
    assert not res.converged and np.isfinite(res.residual_rms)
    assert res.n_iterations == 0
    assert dict(res.work) == {**dict.fromkeys(WORK_COUNTERS, 0), "linear_solves": 3}
    assert [(s.eps, s.exit, s.resolution) for s in res.stages] == [
        (0.1, "stall", (17,)), (0.01, "stall", (33,)), (0.01, "stall", (65,))
    ]
    np.testing.assert_array_equal(
        res.field.values, fld.with_values(prolong(prolong(fld.values[::4]))).values
    )


def test_a_cg_solve_at_its_iteration_cap_is_a_stall(monkeypatch):
    # every system of this p = 3 solve takes CG two iterations; from the
    # fourth Newton step on CG may take one: that step stalls, and the solve
    # returns the iterate of the third step, the one a step cap of 3 returns
    zero = _zero_bump((17, 17))
    par = Params(p=3.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, alpha_p=1.0)
    with monkeypatch.context() as patch:
        patch.setattr(aplab.solver, "_MAX_ITERS", 3)
        capped = minimize(zero, par, (0.1,))
    assert [(s.n_iters, s.exit) for s in capped.stages] == [(3, "step_cap")]
    real, calls = aplab.solver.spsolve, []

    def spy(*args):
        calls.append(args)
        if len(calls) == 4:
            monkeypatch.setattr(aplab.solver, "_CG_MAX_ITERS", 1)
        return real(*args)

    monkeypatch.setattr(aplab.solver, "spsolve", spy)
    res = minimize(zero, par, (0.1,))
    assert res.shortfall == (
        "CG breakdown or iteration cap at smoothing width 0.1 "
        f"(residual rms {res.residual_rms:.3e})"
    )
    assert [(s.n_iters, s.exit) for s in res.stages] == [(3, "stall")]
    assert res.work["linear_solves"] == len(calls) == 4
    assert res.work["cg_iterations"] == capped.work["cg_iterations"] + 1
    assert np.array_equal(res.field.values, capped.field.values)
    assert res.stages[-1].energy == capped.stages[-1].energy
    assert res.residual_rms == capped.residual_rms and not res.converged


@pytest.mark.parametrize("factor", [-1.0, 0.0], ids=["ascent", "zero"])
def test_a_direction_without_descent_is_a_stall(factor, monkeypatch):
    # a solve that returns the ascent direction, or none, takes no step:
    # the stall ends the ladder of n = 17 at its first width, and n = 33
    # and 65 each stall at once from the prolonged start
    real = aplab.solver.spsolve
    monkeypatch.setattr(aplab.solver, "spsolve",
                        lambda *a, **kw: factor * real(*a, **kw))
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1, 0.01))
    head = "no descent direction at smoothing width 0.01 (g.d = "
    tail = f", residual rms {res.residual_rms:.3e})"
    assert res.shortfall.startswith(head) and res.shortfall.endswith(tail)
    slope = float(res.shortfall[len(head):-len(tail)])
    assert slope < 0.0 if factor < 0.0 else slope == 0.0
    assert not res.converged and res.n_iterations == 0
    assert res.work["linear_solves"] == 3 and res.work["backtracks"] == 0
    assert [(s.eps, s.exit, s.resolution) for s in res.stages] == [
        (0.1, "stall", (17,)), (0.01, "stall", (33,)), (0.01, "stall", (65,))
    ]
    np.testing.assert_array_equal(
        res.field.values, fld.with_values(prolong(prolong(fld.values[::4]))).values
    )


# Newton steps of each fixture, and its CG iterations when every CG solve
# ran to the relative tolerance or the representation floor
@pytest.mark.parametrize(
    "fixture, steps, cg_exact_only",
    [("crossing_2d", 30, 78), ("branching_2d", 101, 360)],
    ids=["crossing_2d", "branching_2d"],
)
def test_minimize_2d_solves_by_cg_without_misses(
    fixture, steps, cg_exact_only, request
):
    res = request.getfixturevalue(fixture).result
    assert res.work["linear_solves"] >= res.n_iterations > 0
    assert res.work["cg_iterations"] >= res.work["linear_solves"]
    assert res.n_iterations == steps
    # the zero start's model is the Hessian, solved exactly; every later one
    # clips the concave potential (gamma = 1/2) and stops at the forcing term
    assert res.work["cg_forcing_stops"] == res.work["linear_solves"] - 1
    assert res.work["cg_floor_stops"] == 0
    assert res.work["cg_iterations"] < cg_exact_only


@pytest.mark.parametrize(
    "shape, steps, reference_steps", [((17, 13), 276, 265), ((9, 9, 7), 298, 296)],
    ids=["2d", "3d"],
)
def test_a_free_set_on_a_box_face_goes_to_cg_and_converges(
    shape, steps, reference_steps, monkeypatch
):
    # free nodes on a face of the box rule out the interior-box
    # preconditioner, so CG preconditions every Newton system on the whole
    # grid; the field is the one a descent that solves each system by
    # scipy's SuperLU on the stencil's entries reaches, to 1e-7
    fld, _ = _bump_field(shape)
    free = ~fld.grid.boundary_face_mask
    free[(slice(1, -1),) * (len(shape) - 1) + (-1,)] = True
    start = ScalarField(fld.grid, np.where(free, 0.0, fld.values), ~free, fld.values)
    par = Params(p=1.5, gamma=0.5, lambda_plus=0.5, lambda_minus=0.5, alpha_p=1.0)
    res = minimize(start, par)
    assert res.converged
    assert res.work["cg_iterations"] > 0
    assert res.work["linear_solves"] == res.n_iterations == steps
    monkeypatch.setattr(aplab.solver, "spsolve",
                        lambda M, b, *args: spla.spsolve(_stencil_csr(M), b))
    ref = minimize(start, par)
    assert ref.converged and ref.n_iterations == reference_steps
    assert ref.work["cg_iterations"] == 0
    assert np.max(np.abs(res.field.values - ref.field.values)) <= 1e-7


def _spy_on_solves(monkeypatch) -> list:
    # (arguments, solution) of every spsolve call
    solves = []
    real = aplab.solver.spsolve

    def spy(*args):
        x = real(*args)
        solves.append((args, x))
        return x

    monkeypatch.setattr(aplab.solver, "spsolve", spy)
    return solves


def _zero_bump(shape):
    fld, _ = _bump_field(shape)
    return fld.with_values(np.where(fld.free_mask, 0.0, fld.values))


def test_cg_floor_is_zero_at_a_zero_iterate(monkeypatch):
    # an exact-model system (p = 2, convex potential) at the zero start gets
    # no floor, so CG solves it to the relative tolerance; later ones, at a
    # nonzero iterate, get one, and no solve stops at the forcing term
    solves = _spy_on_solves(monkeypatch)
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 3)
    zero = _zero_bump((17, 17))
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
    res = minimize(zero, par, (0.1,))
    floors = [args[4] for args, _ in solves]
    assert res.work["linear_solves"] == len(floors) == 3
    assert floors[0] == 0.0 and all(f > 0.0 for f in floors[1:])
    assert res.work["cg_forcing_stops"] == 0
    # at p = 3 the model is not the Hessian: no floor, and every CG solve
    # stops at the forcing term
    solves.clear()
    res = minimize(zero, DiscreteEnergy.dirichlet(zero.grid, 3.0).params, (0.1,))
    assert res.work["linear_solves"] == len(solves) == 3
    assert all(args[4] == 0.0 for args, _ in solves)
    assert res.work["cg_forcing_stops"] == 3 and res.work["cg_floor_stops"] == 0


@pytest.mark.parametrize(
    "par",
    [Params(p=3.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, alpha_p=1.0),
     Params(p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4)],
    ids=["p3", "concave"],
)
def test_forcing_stops_meet_the_forcing_term(par, monkeypatch):
    # every solve that the forcing term stopped leaves a linear residual of
    # at most eta |g|, and at least one of them stops well short of 1e-12
    solves = _spy_on_solves(monkeypatch)
    res = minimize(_zero_bump((33, 33)), par, (0.1, 0.01))
    forced = [(args, d) for args, d in solves
              if args[5] == aplab.solver._CG_FORCING]
    assert res.converged
    assert len(forced) == res.work["cg_forcing_stops"] > 0
    ratios = [np.linalg.norm(M @ d - g) / np.linalg.norm(g)
              for (M, g, *_), d in forced]
    assert max(ratios) <= aplab.solver._CG_FORCING
    assert max(ratios) > 1e-6


def test_exact_models_take_no_forcing_stops(monkeypatch):
    # a p = 2, gamma = 1 run clips no curvature, and the p = 2 replacement
    # has no potential: both models are the Hessian, solved exactly
    fld, region = _bump_field((33, 33))
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
    res = minimize(_zero_bump((33, 33)), par, (0.1, 0.01))
    assert res.converged and res.work["cg_iterations"] > 0
    assert res.work["cg_forcing_stops"] == 0
    solves = _spy_on_solves(monkeypatch)
    p_harmonic_replacement(fld, 2.0, region)
    assert solves and all(args[5] == aplab.solver._CG_RTOL for args, _ in solves)
    assert solves[-1][0][3]["cg_forcing_stops"] == 0


def test_exact_newton_model_converges_fast_on_every_finer_level(
    degenerate_1d, restricted_cases_fine
):
    # the exact Hessian at p != 2: each finer level of the gamma >= 1
    # one-phase runs at n = 1025 starts from the prolonged coarse result
    # and takes at most 5 steps (the stiff-scaled model took 14-37)
    assert degenerate_1d.result.n_iterations <= 80
    runs = [degenerate_1d.result]
    for p, gamma, lam in [(1.5, 1.0, 0.5), (1.5, 1.2, 0.5), (4.0, 1.0, 1.0)]:
        par = Params(p=p, gamma=gamma, lambda_plus=lam, lambda_minus=lam, alpha_p=1.0)
        runs.append(minimize(_profile_start(par, 1025), par))
    for res in runs:
        assert res.converged
        finer = [s for s in res.stages if s.resolution != res.stages[0].resolution]
        assert len(finer) == 6 and all(s.n_iters <= 5 for s in finer)
    assert restricted_cases_fine[(3.0, 0.8)].result.n_iterations <= 160


def test_newton_model_step_count_on_the_restricted_run(restricted_cases):
    # the signed model, wherever the banded Cholesky accepts it, truncated
    # where it refuses, takes 93 steps on this run (126 with the clipped
    # model on refusal); the convex-part model max(F'', 0) alone took 517,
    # and the stiffer |F''| model 975
    res = restricted_cases[(2.0, 0.5)].result
    assert res.n_iterations <= 105
    assert res.work["linear_solves"] == res.n_iterations


def test_signed_newton_model_gain_on_the_fine_restricted_runs(restricted_cases_fine):
    # with the signed curvature wherever the banded Cholesky accepts it,
    # truncated where it refuses, (2, 0.5) at n = 2049 takes 100 steps over
    # all levels (137 with the clipped model on refusal, 627 with it alone),
    # and (1.5, 0.3) converges in 171 (233 and, at the polish exit, 1166)
    gain = restricted_cases_fine[(2.0, 0.5)].result
    assert gain.converged and gain.n_iterations <= 110
    slow = restricted_cases_fine[(1.5, 0.3)].result
    assert slow.converged and slow.stages[-1].exit == "tolerance"
    assert slow.n_iterations <= 185
    for res in (gain, slow):
        assert 0 < res.work["clipped_models"] < res.n_iterations
        assert res.work["linear_solves"] == res.n_iterations


def _refuse_signed_blocks(
    monkeypatch, first_only=False, every=False
) -> tuple[list, list]:
    # dpbsv refuses every block whose shift has a negative entry, as it
    # would an indefinite one, or with ``first_only`` only the first of a
    # step's run of such blocks, the untruncated one, or with ``every``
    # every block; returns the smallest shift entry of every block made
    # and the sizes of the refused systems
    made, refused = [], []
    real_block, real_solve = _FreeBlock.__call__, aplab.solver.solveh_banded
    refusing = False  # the last solve was refused

    def block(self, kappas, shift=0.0, hessian=None):
        made.append(float(np.min(shift)))
        return real_block(self, kappas, shift, hessian)

    def solve(ab, b):
        nonlocal refusing
        refusing = every or made[-1] < 0.0 and not (first_only and refusing)
        if refusing:
            refused.append(b.size)
            raise np.linalg.LinAlgError("refused")
        return real_solve(ab, b)

    monkeypatch.setattr(_FreeBlock, "__call__", block)
    monkeypatch.setattr(aplab.solver, "solveh_banded", solve)
    return made, refused


def test_every_banded_solve_goes_through_spsolve(monkeypatch):
    # the signed, truncated and clipped models of a gamma < 1 solve are all
    # factored inside spsolve, one dpbsv call per spsolve call; a call that
    # dpbsv refuses counts no linear solve
    depths, calls, inside = [], [0], [0]
    real_spsolve, real_banded = aplab.solver.spsolve, aplab.solver.solveh_banded

    def spy_spsolve(*args):
        calls[0] += 1
        inside[0] += 1
        try:
            return real_spsolve(*args)
        finally:
            inside[0] -= 1

    def spy_banded(ab, b):
        depths.append(inside[0])
        return real_banded(ab, b)

    monkeypatch.setattr(aplab.solver, "spsolve", spy_spsolve)
    monkeypatch.setattr(aplab.solver, "solveh_banded", spy_banded)
    par = Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
    res = minimize(_profile_start(par, 129), par)
    assert res.converged and res.work["clipped_models"] > 0
    assert depths == [1] * calls[0]
    assert calls[0] > res.work["linear_solves"] == res.n_iterations


def test_a_step_with_every_model_refused_is_a_stall(monkeypatch):
    # dpbsv refuses every block, the clipped one included: the first step
    # of n = 17 runs out of rungs and stalls, which ends that level's
    # ladder, and n = 33 and 65 each stall at once from the prolonged start
    made, refused = _refuse_signed_blocks(monkeypatch, every=True)
    par = Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
    fld = _profile_start(par, 65)
    res = minimize(fld, par, (0.1, 0.01))
    assert res.shortfall == (
        "no positive definite Newton model at smoothing width 0.01 "
        f"(residual rms {res.residual_rms:.3e})"
    )
    assert not res.converged and res.n_iterations == 0
    assert [(s.eps, s.exit, s.resolution) for s in res.stages] == [
        (0.1, "stall", (17,)), (0.01, "stall", (33,)), (0.01, "stall", (65,))
    ]
    assert res.work["linear_solves"] == 0
    assert res.work["clipped_models"] == 0
    # F'' > 0 at the zero start of n = 17, so its step has one rung; the
    # prolonged starts of n = 33 and 65 are concave somewhere, so each of
    # their steps tries the signed block, its 9 truncations and the clipped
    rungs = aplab.solver._TRUNCATIONS + 2
    assert len(refused) == len(made) == 1 + 2 * rungs
    assert made[0] > 0.0 and made.count(0.0) == 2
    np.testing.assert_array_equal(
        res.field.values, fld.with_values(prolong(prolong(fld.values[::4]))).values
    )


def _count_builds(monkeypatch) -> list:
    # one entry per Dirichlet part A + H that a _FreeBlock builds
    builds = []
    real = _FreeBlock._coefficients

    def spy(self, kappas, hessian):
        builds.append(hessian is not None)
        return real(self, kappas, hessian)

    monkeypatch.setattr(_FreeBlock, "_coefficients", spy)
    return builds


def test_a_refused_signed_block_falls_back_to_the_clipped_model(monkeypatch):
    # every signed and every truncated block refused: each such step tries
    # the signed block and its 9 truncations, then ends on the clipped
    # block, which dpbsv solves, and the solve takes the clipped model's
    # 306 steps on (2, 0.5) at n = 129.  Each rung only
    # changes the diagonal: at p = 2 each of the four levels builds A once,
    # and (3, 0.8) builds A + H once per Newton step
    rungs = aplab.solver._TRUNCATIONS + 1
    _, refused = _refuse_signed_blocks(monkeypatch)
    builds = _count_builds(monkeypatch)
    par = Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
    res = minimize(_profile_start(par, 129), par)
    assert res.converged and res.n_iterations == 306
    assert res.work["clipped_models"] > 0
    assert len(refused) == rungs * res.work["clipped_models"]
    assert res.work["linear_solves"] == res.n_iterations
    assert builds == [False] * 4
    refused.clear()
    builds.clear()
    par = Params(p=3.0, gamma=0.8, lambda_plus=1.6905, lambda_minus=1.6905, alpha_p=1.0)
    res = minimize(_profile_start(par, 129), par)
    assert res.converged and res.n_iterations == 89
    assert res.work["clipped_models"] == 88
    assert len(refused) == rungs * 88
    assert builds == [True] * res.work["linear_solves"]
    assert res.work["linear_solves"] == res.n_iterations


def test_a_refused_signed_block_is_truncated_not_clipped(monkeypatch):
    # only the untruncated block of each step refused: the first truncation,
    # the curvature term cut at half its most negative entry, is accepted,
    # so no concave step builds the clipped block.  On (3, 0.8) dpbsv
    # accepts every signed block, hence every truncation, which only adds
    # to its diagonal
    made, refused = _refuse_signed_blocks(monkeypatch, first_only=True)
    par = Params(p=3.0, gamma=0.8, lambda_plus=1.6905, lambda_minus=1.6905, alpha_p=1.0)
    res = minimize(_profile_start(par, 129), par)
    assert res.converged
    concave = res.work["clipped_models"]
    assert concave == len(refused) > 0
    assert res.work["linear_solves"] == res.n_iterations
    # every concave step makes two blocks, the signed one and its first
    # truncation; every other step one, with no negative entry
    assert len(made) == res.n_iterations + concave
    signed = [i for i, m in enumerate(made) if m < 0.0]
    assert len(signed) == 2 * concave
    pairs = [made[i : i + 2] for i in signed[::2]]
    assert all(cut == 0.5 * top for top, cut in pairs)


def test_a_convex_potential_solve_is_the_clipped_models(
    convex_1d, degenerate_1d, monkeypatch
):
    # gamma >= 1: F'' >= 0 everywhere, so no step forms a signed block and
    # the solve is the clipped-only model's, bit for bit
    _, refused = _refuse_signed_blocks(monkeypatch)
    for case in (convex_1d, degenerate_1d):
        res = minimize(_profile_start(case.params, 1025), case.params)
        assert np.array_equal(res.field.values, case.result.field.values)
        assert res.n_iterations == case.result.n_iterations
        assert res.work["clipped_models"] == case.result.work["clipped_models"] == 0
    assert refused == []


@pytest.mark.parametrize("n", [5, 33, 2047])
def test_two_band_storage_solves_as_three_bands_with_a_zero_band(n):
    # at p = 2 dpbsv factors the block at one band, not two: the same
    # solution, bit for bit, on random SPD tridiagonal systems
    rng = np.random.default_rng(n)
    off = -rng.random(n)
    ab = np.zeros((3, n), order="F")
    ab[0] = 2.0 + rng.random(n)
    ab[1, :-1] = off[:-1]
    b = rng.standard_normal(n)
    x = aplab.solver.solveh_banded(np.asfortranarray(ab[:2]), b)
    assert np.array_equal(x, aplab.solver.solveh_banded(ab, b))


def test_restricted_run_records_polish_and_capped_stages(degenerate_1d, monkeypatch):
    # no bundled run leaves a stage by the polish exit, but a tolerance of 0,
    # below float rounding, leaves every stage of degenerate_1d's problem
    # (n = 65) there: once the energy is flat to rounding the polish runs
    # until the residual stops contracting, and the solve stops short; with
    # the step cap cut to 2, the same problem at n = 1025 runs out of Newton
    # steps on most stages instead
    par = degenerate_1d.params
    with monkeypatch.context() as patch:
        patch.setattr(aplab.solver, "_TOL_RESIDUAL", 0.0)
        polished = minimize(_profile_start(par, 65), par)
        assert not polished.converged
    assert [s.exit for s in polished.stages] == ["polish"] * 11
    assert polished.work["polish_steps"] > 0
    assert polished.shortfall == (
        f"polish exit at smoothing width 1e-05 "
        f"(residual rms {polished.residual_rms:.3e})"
    )
    monkeypatch.setattr(aplab.solver, "_MAX_ITERS", 2)
    short = minimize(_profile_start(par, 1025), par)
    assert short.stages[-1].exit == "step_cap" and not short.converged
    assert short.shortfall == (
        f"step_cap exit at smoothing width 1e-05 (residual rms {short.residual_rms:.3e})"
    )
    capped = [s for s in short.stages if s.exit == "step_cap"]
    assert len(capped) > 1 and all(s.n_iters == 2 for s in capped)


def test_minimize_is_deterministic():
    fld, par = _one_phase_start(n=129)
    a = minimize(fld, par)
    b = minimize(fld, par)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.energy == b.energy
    assert a.n_iterations == b.n_iterations


def test_minimize_reports_stall_with_partial_state(monkeypatch):
    # an Armijo fraction near 1 with no backtracking room cannot accept any
    # damped Newton step, and far from criticality that must surface: on
    # n = 17 at the first width, then on each finer level at the last
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", 0.999)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 0.5)
    fld, par = _one_phase_start(n=257)
    partial = minimize(fld, par)
    assert re.fullmatch(
        r"line search stalled at smoothing width 1e-05 "
        r"\(residual rms \d\.\d{3}e[+-]\d+, last accepted step none\)",
        partial.shortfall,
    )
    assert not partial.converged
    assert partial.field.values.shape == fld.values.shape
    assert np.isfinite(partial.energy)
    assert [(s.eps, s.exit, s.resolution) for s in partial.stages] == [
        (0.1, "stall", (17,))
    ] + [(1e-5, "stall", (n,)) for n in (33, 65, 129, 257)]
    assert partial.residual_rms > 1e3 * aplab.solver._TOL_RESIDUAL
    assert partial.work["backtracks"] == 2 * 5  # t = 1 and t = 1/2 on each level


def test_minimize_counts_rejected_armijo_trials(monkeypatch):
    # no trial meets an infinite decrease fraction, so the first search of
    # each of n = 17, 33 and 65 rejects t = 1, 1/2, ..., 2^-46 (the last
    # step length above the 1e-14 floor) and stalls far from criticality
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", math.inf)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par, (0.1,))
    assert [s.exit for s in res.stages] == ["stall"] * 3
    assert res.work["backtracks"] == 47 * 3
    assert res.n_iterations == 0 and res.work["linear_solves"] == 3


def test_polish_after_a_failed_search_steps_along_the_solved_direction(monkeypatch):
    # a converged field nudged by 1e-7: with a step floor above 1 every
    # Armijo search fails at once, close enough to criticality to polish;
    # n = 64 has no coarse grid, so the solve starts from that field
    fld, par = _one_phase_start(n=64)
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
    M = _FreeBlock(kern, nodes)(state.conductances, shift)
    want = u.copy()
    want[free] -= spsolve(M, state.gradient().ravel()[nodes])

    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 2.0)
    res = minimize(start.with_values(u), par, (0.1,))
    assert res.n_iterations == 1 and res.work["linear_solves"] == 1
    assert res.work["backtracks"] == 0  # no trial fits above the floor
    assert res.work["polish_steps"] == 1
    assert np.array_equal(res.field.values, want)
    assert res.converged


def test_stall_message_names_the_last_accepted_step(monkeypatch):
    # after the first, true Newton step of each level every direction is
    # 1e12 times too long, so the search falls through the step floor on
    # the next step: on n = 17 at the first width, and on n = 33 and 65 at
    # the last; n = 65 accepted its first step at t = 1/8
    real = aplab.solver.spsolve
    calls = []

    def overshooting(M, rhs, *args, **kwargs):
        first = all(rhs.size != size for size in calls)
        calls.append(rhs.size)
        x = real(M, rhs, *args, **kwargs)
        return x if first else 1e12 * x

    monkeypatch.setattr(aplab.solver, "spsolve", overshooting)
    monkeypatch.setattr(aplab.solver, "_STEP_FLOOR", 1e-3)
    fld, par = _one_phase_start(n=65)
    res = minimize(fld, par)
    assert res.shortfall == (
        "line search stalled at smoothing width 1e-05 "
        f"(residual rms {res.residual_rms:.3e}, last accepted step t = 0.125)"
    )
    assert [(s.eps, s.n_iters, s.exit) for s in res.stages] == [
        (0.1, 1, "stall"), (1e-5, 1, "stall"), (1e-5, 1, "stall")
    ]
    assert res.n_iterations == 3 and len(calls) == 6


# ---------------------------------------------------------------------------
# Dirichlet-term replacement


def test_replacement_1d_fills_affine_runs():
    # at p = 2 the discrete Dirichlet minimizer is affine on each relaxed run
    grid = Grid(extents=((0.0, 1.0),), resolution=(11,))
    vals = np.array([0.0, 1.0, 5.0, -2.0, 7.0, 3.0, 1.0, 4.0, 2.0, 6.0, 1.0])
    fld = ScalarField(grid=grid, values=vals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=vals)
    region = np.zeros(11, dtype=bool)
    region[3:6] = True
    region[8] = True
    out = p_harmonic_replacement(fld, 2.0, region).values
    # run 3..5 interpolates between nodes 2 and 6
    np.testing.assert_allclose(out[3:6], [4.0, 3.0, 2.0], rtol=0.0, atol=1e-12)
    # single node 8 averages nodes 7 and 9
    assert abs(out[8] - 5.0) <= 1e-12
    # untouched elsewhere
    np.testing.assert_array_equal(out[~region], vals[~region])


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
    if len(shape) == 1:
        u = np.sin(3.0 * X[0]) + 0.3 * X[0] ** 2
    else:
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
@pytest.mark.parametrize(
    "shape", [(257,), (65, 65), (17, 17, 17)], ids=["1d", "2d", "3d"]
)
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
        # a last stage above the tolerance is what makes a result
        # unconverged, and such a result always carries a shortfall
        res = real(*args, **kwargs)
        last = dataclasses.replace(res.stages[-1], residual_rms=1.0)
        return dataclasses.replace(
            res,
            stages=res.stages[:-1] + (last,),
            shortfall="step_cap exit at smoothing width 1e-09 (residual rms 1.000e+00)",
        )

    monkeypatch.setattr(aplab.solver, "minimize", unconverged)
    fld, region = _bump_field((17, 17))
    with pytest.raises(SolverStall, match="did not converge: step_cap exit") as info:
        p_harmonic_replacement(fld, 3.0, region)
    assert not info.value.result.converged


def test_stalled_replacement_raises_stall(monkeypatch):
    # minimize returns the stalled descent, and the replacement's own
    # convergence check turns it into SolverStall
    monkeypatch.setattr(aplab.solver, "_ARMIJO_C1", math.inf)
    fld, region = _bump_field((17, 17))
    with pytest.raises(SolverStall, match="did not converge") as info:
        p_harmonic_replacement(fld, 3.0, region)
    res = info.value.result
    assert res.stages[-1].exit == "stall"
    # the message carries the descent's shortfall: exit, width, residual
    # and the last accepted step
    assert str(info.value) == f"p-harmonic replacement did not converge: {res.shortfall}"
    assert re.fullmatch(
        r"line search stalled at smoothing width 1e-09 "
        r"\(residual rms \d\.\d{3}e[+-]\d+, last accepted step none\)",
        res.shortfall,
    )


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
