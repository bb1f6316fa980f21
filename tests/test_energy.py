"""Potential, discrete energy, first variation, and the EL defect."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aplab.core import Params, ScalarField, build_grid
from aplab.energy import DiscreteEnergy
from aplab.oracle import one_phase_profile


def _two_phase(p=2.0, gamma=1.0, lp=1.0, lm=1.0, **kw):
    kw.setdefault("alpha_p", 1.0)
    return Params(p=p, gamma=gamma, lambda_plus=lp, lambda_minus=lm, **kw)


def _energy(fld, prm, eps=0.0, region=None):
    it = DiscreteEnergy(fld.grid, prm).at(fld.values, eps)
    return it.energy if region is None else it.energy_in(region)


def _gradient(fld, prm, eps):
    return DiscreteEnergy(fld.grid, prm).at(fld.values, eps).gradient()


# ---------------------------------------------------------------------------
# Potential: the kernel states of a 1D grid whose nodes carry the samples


def _at_nodes(v, prm, eps=0.0):
    """The state at width ``eps`` of a 1D grid whose nodes carry the values
    ``v``; a single value is carried by two nodes, the fewest a grid has."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    v = np.resize(v, max(v.size, 2))
    grid = build_grid(((0.0, 1.0),), v.shape)
    return DiscreteEnergy(grid, prm).at(v, eps)


def test_potential_one_sided_values():
    prm = _two_phase(gamma=1.0, lp=3.0, lm=5.0)
    f = _at_nodes([2.0, -2.0, 0.0], prm).potential
    assert f[0] == pytest.approx(6.0)
    assert f[1] == pytest.approx(10.0)
    assert f[2] == 0.0


def test_potential_symmetric_under_sign_flip_when_weights_match():
    prm = _two_phase(gamma=0.7, lp=1.3, lm=1.3)
    v = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(
        _at_nodes(v, prm).potential, _at_nodes(-v, prm).potential, rtol=1e-14
    )


def test_potential_nonnegative():
    prm = _two_phase(gamma=0.5, lp=0.3, lm=2.0)
    v = np.linspace(-5, 5, 101)
    assert (_at_nodes(v, prm, eps=0.0).potential >= 0).all()
    assert (_at_nodes(v, prm, eps=0.3).potential >= 0).all()


def test_smoothed_potential_error_bound():
    # smoothing changes the value by at most (lam+ + lam-) * eps^gamma
    prm = _two_phase(gamma=0.6, lp=1.1, lm=0.4)
    v = np.linspace(-3, 3, 601)
    exact = _at_nodes(v, prm).potential
    for eps in (1e-1, 1e-2, 1e-3):
        gap = np.abs(_at_nodes(v, prm, eps).potential - exact)
        assert gap.max() <= (1.1 + 0.4) * eps**0.6 + 1e-15


def test_potential_derivative_piecewise_constant_at_gamma_one():
    prm = _two_phase(gamma=1.0, lp=2.0, lm=3.0)
    d = _at_nodes([1.5, -1.5, 0.0], prm).slope()
    assert d[0] == pytest.approx(2.0)
    assert d[1] == pytest.approx(-3.0)
    assert d[2] == 0.0


def test_potential_derivative_matches_value_slope():
    prm = _two_phase(gamma=0.8, lp=1.0, lm=0.7)
    eps = 0.05
    v = np.linspace(-2, 2, 41)
    step = 1e-7
    fd = (
        _at_nodes(v + step, prm, eps).potential
        - _at_nodes(v - step, prm, eps).potential
    ) / (2 * step)
    np.testing.assert_allclose(_at_nodes(v, prm, eps).slope(), fd, atol=1e-6)


@pytest.mark.parametrize("lp, lm", [(1.0, 1.0), (1.0, 0.3)])
def test_potential_curvature_matches_derivative_slope(lp, lm):
    # at v = 0 the one-sided limits are lam+- * g * eps^(g-2); the central
    # difference of F' there gives their mean, and so must F''
    prm = _two_phase(gamma=0.5, lp=lp, lm=lm)
    eps = 1e-3
    v = np.linspace(-0.01, 0.01, 201)
    assert np.count_nonzero(v == 0.0) == 1
    step = 1e-9
    fd = (
        _at_nodes(v + step, prm, eps).slope() - _at_nodes(v - step, prm, eps).slope()
    ) / (2 * step)
    curv = _at_nodes(v, prm, eps).curvature()
    np.testing.assert_allclose(curv, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))
    mean = 0.5 * (lp + lm) * 0.5 * eps**-1.5
    assert _at_nodes(0.0, prm, eps).curvature()[0] == pytest.approx(mean, rel=1e-14)


def _two_phase_sum(v, prm, eps):
    """(F, F', F'') with both phases' powers taken at every node.

    F'' is None at eps = 0.
    """
    g, lp, lm = prm.gamma, prm.lambda_plus, prm.lambda_minus
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    if eps == 0.0:
        slope = np.zeros_like(v)
        pos, neg = v > 0.0, v < 0.0
        slope[pos] = lp * g * vp[pos] ** (g - 1.0)
        slope[neg] = -lm * g * vm[neg] ** (g - 1.0)
        return lp * vp**g + lm * vm**g, slope, None
    e2 = eps * eps
    eg = eps**g
    value = lp * ((vp * vp + e2) ** (0.5 * g) - eg) + (
        lm * ((vm * vm + e2) ** (0.5 * g) - eg)
    )
    slope = lp * g * vp * (vp * vp + e2) ** (0.5 * g - 1.0) - (
        lm * g * vm * (vm * vm + e2) ** (0.5 * g - 1.0)
    )
    cp = lp * g * (vp * vp + e2) ** (0.5 * g - 2.0) * (e2 + (g - 1.0) * vp * vp)
    cm = lm * g * (vm * vm + e2) ** (0.5 * g - 2.0) * (e2 + (g - 1.0) * vm * vm)
    curv = np.where(v > 0.0, cp, np.where(v < 0.0, cm, 0.5 * (cp + cm)))
    return value, slope, curv


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_NODE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e3, -1e3]),
    st.floats(-2.2e-308, 2.2e-308),  # subnormals
    st.floats(-1e3, 1e3),
)


@given(
    v=st.lists(_NODE_VALUES, min_size=1, max_size=40),
    gamma=st.floats(0.05, 3.0),
    lp=st.floats(0.0, 5.0),
    lm=st.floats(0.0, 5.0),
    eps=st.sampled_from([0.0, 1e-1, 1e-5, 1e-110, 1e-300]),
)
def test_one_power_potential_is_the_two_phase_sum_bit_for_bit(v, gamma, lp, lm, eps):
    # one power per node, the idle phase a constant: no bit may move, not
    # even a zero's sign or an inf/nan at widths out of the kernel's range
    assume(lp != lm)
    prm = _two_phase(p=4.0, gamma=gamma, lp=lp, lm=lm)
    with np.errstate(all="ignore"):
        it = _at_nodes(v, prm, eps)
        value, slope, curv = _two_phase_sum(it.u, prm, eps)
        assert _same_bits(it.potential, value)
        assert _same_bits(it.slope(), slope)
        if eps > 0.0:
            assert _same_bits(it.curvature(), curv)


@pytest.mark.parametrize("shape", [(65,), (17, 13)])
def test_iterate_state_is_the_two_phase_sum(shape):
    prm = _two_phase(p=2.5, gamma=0.6, lp=1.3, lm=0.4, delta=0.7)
    grid = build_grid(tuple((-1.0, 1.0) for _ in shape), shape)
    kern = DiscreteEnergy(grid, prm)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(shape)
    u[rng.random(shape) < 0.2] = 0.0
    eps = 1e-2
    it = kern.at(u, eps)
    q = kern.grad_sq(u)
    assert _same_bits(it.q, q)
    # the potential terms inside the state are the two-phase sum
    value, slope, curv = _two_phase_sum(u, prm, eps)
    phi = ((q + eps * eps) ** (0.5 * prm.p) - eps**prm.p) / prm.p
    assert _same_bits(it.curvature(), curv)
    assert _same_bits(it.dirichlet, phi)
    assert _same_bits(it.potential, value)
    assert _same_bits(it.slope(), slope)
    w = grid.quadrature_weights
    assert it.energy == float(np.sum(w * (phi + prm.delta * value)))
    assert _same_bits(it.energy_in(np.ones(shape, dtype=bool)), it.energy)
    dirichlet = DiscreteEnergy.dirichlet(grid, prm.p).at(u, eps).gradient()
    assert _same_bits(it.gradient(), dirichlet + w * (prm.delta * slope))


@pytest.mark.parametrize(
    "shape, p",
    [((65,), 1.5), ((17, 13), 1.5), ((65,), 2.0), ((17, 13), 2.0)],
    ids=["shape0", "shape1", "shape0-p2", "shape1-p2"],
)
def test_two_live_states_share_no_storage(shape, p):
    # the line search evaluates a trial state next to the current iterate
    # and drops it when Armijo rejects it: evaluating the trial must leave
    # every array and number of the iterate as it was, bit for bit, and an
    # array both hold (the p = 2 conductances) must be read-only
    prm = _two_phase(p=p, gamma=0.3, lp=0.4, lm=0.7, delta=0.7)
    grid = build_grid(tuple((-1.0, 1.0) for _ in shape), shape)
    kern = DiscreteEnergy(grid, prm)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(shape)
    u[rng.random(shape) < 0.2] = 0.0

    def evaluate(state):
        return [
            state.energy, state.dirichlet, state.potential, state.density(),
            state.gradient(), state.slope(), state.curvature(),
            *state.conductances, state.q, state.qe, state.u,
        ]

    current = kern.at(u, 0.01)
    before = [np.array(x, copy=True) for x in evaluate(current)]
    trial = kern.at(u - 0.5 * rng.standard_normal(shape), 0.01)
    held = [x for x in evaluate(trial) if isinstance(x, np.ndarray)]
    now = evaluate(current)
    for was, x in zip(before, now, strict=True):
        assert _same_bits(np.asarray(x), was)
    shared = 0
    for x in now:
        for y in held:
            if isinstance(x, np.ndarray) and np.shares_memory(x, y):
                assert not x.flags.writeable and not y.flags.writeable
                shared += 1
    assert shared == (len(shape) if p == 2.0 else 0)


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("shape", [(65,), (17, 13), (9, 7, 6)])
def test_quadratic_conductances_are_the_general_formula(shape, eps):
    # at p = 2 the kernel's conductances are those the general formula
    # gives with (q + eps^2)^0, bit for bit, at any u, and read-only
    grid = build_grid(tuple((-1.0, 0.5 + a) for a in range(len(shape))), shape)
    kern = DiscreteEnergy(grid, _two_phase(p=2.0, gamma=0.5, delta=0.7))
    rng = np.random.default_rng(len(shape))
    for _ in range(2):
        it = kern.at(rng.standard_normal(shape), eps)
        psi_w = it.qe ** 0.0
        psi_w *= 0.5
        psi_w *= grid.quadrature_weights
        kappas = it.conductances
        assert kappas is kern.quadratic_conductances
        for (lo, hi, cplus, cminus, h), kappa in zip(kern.axes, kappas, strict=True):
            want = psi_w[lo] * cplus
            want += psi_w[hi] * cminus
            want *= 2.0
            want /= h**2
            assert _same_bits(kappa, want)
            with pytest.raises(ValueError, match="read-only"):
                kappa[(0,) * kappa.ndim] = 1.0


# ---------------------------------------------------------------------------
# Energy


def test_linear_profile_energy_closed_form():
    # u(x) = x on [0, 1] with p = 2, gamma = 1: density 1/2 + x, integral 1
    prm = _two_phase(gamma=1.0, lp=1.0, lm=0.0)
    grid = build_grid(((0.0, 1.0),), (1001,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    assert _energy(fld, prm) == pytest.approx(1.0, abs=1e-6)


def test_zero_field_has_zero_energy():
    prm = _two_phase(gamma=0.5)
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (17, 17))
    z = np.zeros(grid.shape)
    fld = ScalarField(grid, z, grid.boundary_face_mask, z)
    assert _energy(fld, prm) == 0.0
    # anchored smoothing: the regularized density also vanishes at u = 0
    assert _energy(fld, prm, 0.1) == 0.0


def test_region_energy_restricts_quadrature():
    prm = _two_phase()
    grid = build_grid(((0.0, 1.0),), (101,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    full = _energy(fld, prm)
    everywhere = _energy(fld, prm, region=np.ones(grid.shape, dtype=bool))
    half = _energy(fld, prm, region=x <= 0.5)
    assert everywhere == pytest.approx(full)
    assert 0.0 < half < full
    with pytest.raises(ValueError):
        _energy(fld, prm, region=np.zeros(grid.shape, dtype=bool))


@pytest.mark.parametrize(
    "mask, match",
    [
        (np.ones(11, dtype=int), "bool node mask"),
        (np.ones(10, dtype=bool), "bool node mask"),
        (np.zeros(11, dtype=bool), "empty integration region"),
    ],
    ids=["non-bool", "wrong-shape", "empty"],
)
def test_kernel_rejects_malformed_region(mask, match):
    prm = _two_phase()
    grid = build_grid(((0.0, 1.0),), (11,))
    kern = DiscreteEnergy(grid, prm)
    u = grid.axes[0]
    with pytest.raises(ValueError, match=match):
        kern.at(u, 0.0).energy_in(mask)


def test_kernel_rejects_negative_width():
    prm = _two_phase()
    grid = build_grid(((0.0, 1.0),), (11,))
    kern = DiscreteEnergy(grid, prm)
    with pytest.raises(ValueError, match="smoothing width"):
        kern.at(grid.axes[0], -0.1)



def test_grad_sq_exact_for_affine_any_dimension():
    grid = build_grid(((-1.0, 1.0), (0.0, 2.0)), (13, 9))
    X, Y = grid.coordinate_arrays()
    q = DiscreteEnergy.dirichlet(grid, 2.0).grad_sq(1.5 * X - 2.0 * Y + 0.3)
    np.testing.assert_allclose(q, 1.5**2 + 2.0**2, rtol=1e-13)


def test_energy_order_independent_under_relabeling():
    # reversing every axis is a relabeling of nodes; the quadrature value
    # must not move (deterministic summation over a symmetric stencil)
    prm = _two_phase(gamma=0.5)
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(grid.shape)
    fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
    flipped = ScalarField(
        grid, vals[::-1, ::-1], grid.boundary_face_mask, vals[::-1, ::-1]
    )
    assert _energy(fld, prm) == pytest.approx(_energy(flipped, prm), rel=1e-14)


# ---------------------------------------------------------------------------
# First variation


def _fd_gradient(fld, prm, eps, step=1e-6):
    base = fld.values
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = base.copy()
        up[idx] += step
        dn = base.copy()
        dn[idx] -= step
        e_up = _energy(fld.with_values(up), prm, eps)
        e_dn = _energy(fld.with_values(dn), prm, eps)
        out[idx] = (e_up - e_dn) / (2 * step)
    return out


@pytest.mark.parametrize("p,gamma", [(2.0, 1.0), (3.0, 0.5), (1.5, 0.8)])
def test_energy_gradient_matches_finite_differences(p, gamma):
    prm = _two_phase(p=p, gamma=gamma, lp=1.0, lm=0.5)
    eps = 0.1
    grid = build_grid(((-1.0, 1.0),), (33,))
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(grid.shape)
    fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
    g = _gradient(fld, prm, eps)
    fd = _fd_gradient(fld, prm, eps)
    # free interior nodes only: with_values re-stamps pinned nodes, so the
    # probe cannot move them and their difference quotient is vacuous
    free = fld.free_mask
    scale = np.abs(g[free]).max()
    rel = np.abs(g[free] - fd[free]) / np.maximum(np.abs(g[free]), 1e-9 * scale)
    assert rel.max() <= 1e-5


def test_energy_gradient_is_descent_direction():
    prm = _two_phase(p=2.5, gamma=0.7)
    eps = 0.05
    grid = build_grid(((-1.0, 1.0),), (65,))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.shape)
    fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
    g = _gradient(fld, prm, eps)
    step = fld.values - 1e-6 * g
    assert _energy(fld.with_values(step), prm, eps) < _energy(fld, prm, eps)


# ---------------------------------------------------------------------------
# EL residual: the kernel's first variation per node weight,
# -Delta_p,h u + delta * F'(u), the array minimize drives to zero


def _el_residual(fld, prm, mask):
    """Max of |gradient / weight| at width 0 over the nodes of ``mask``."""
    defect = _gradient(fld, prm, 0.0) / fld.grid.quadrature_weights
    return float(np.max(np.abs(defect[mask])))


def test_el_residual_zero_for_affine_pure_dirichlet():
    prm = _two_phase(p=3.0, gamma=1.0, delta=0.0)
    grid = build_grid(((0.0, 1.0),), (101,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    assert _el_residual(fld, prm, fld.free_mask) <= 1e-11


def test_el_residual_closed_form_quadratic():
    # u = (x+)^2 / 4 with p = 2, gamma = 1, lam+ = 1/2: u'' = 1/2 = F'(u)
    # on the positivity set
    prm = _two_phase(gamma=1.0, lp=0.5, lm=0.5)
    grid = build_grid(((-1.0, 1.0),), (513,))
    x = grid.axes[0]
    vals = np.clip(x, 0.0, None) ** 2 / 4.0
    fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
    assert _el_residual(fld, prm, fld.free_mask & (vals > 0.0)) <= 1e-10


def test_el_residual_of_sampled_profile_refines_at_first_order():
    # the convergence statement lives on a fixed compact subset of the
    # positivity set, away from the degenerate tip, and two layers from the
    # faces: at the face-adjacent layer the variational stencil encodes the
    # natural boundary flux, not the operator, and differs from it by O(1)
    prm = _two_phase(p=3.0, gamma=1.0, lp=2.25, lm=2.25, alpha_p=1.0)
    prof = one_phase_profile(prm)
    res = {}
    for n in (257, 513, 1025):
        grid = build_grid(((-1.0, 1.0),), (n,))
        x = grid.axes[0]
        vals = prof.coefficient * np.clip(x, 0.0, None) ** prof.beta
        fld = ScalarField(grid, vals, grid.boundary_face_mask, vals)
        inner = np.zeros(n, dtype=bool)
        inner[2:-2] = True
        res[n] = _el_residual(fld, prm, inner & (vals > 0.05))
    assert res[513] <= 0.5 * res[257]
    assert res[1025] <= 0.5 * res[513]
    assert res[1025] <= 5e-5
