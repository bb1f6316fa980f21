"""Reference solutions: closed-form profiles and the 1D two-phase oracle.

The two-phase oracle inverts a quadrature of the first integral and
shares no discretization with the grid solver, so agreement between the
two is a genuine cross-check.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import aplab.oracle as oracle
from aplab.core import Grid, Params, ScalarField
from aplab.oracle import (
    one_phase_profile,
    potential_value_exact,
    radial_p_harmonic,
    shoot_two_phase_1d,
)
from aplab.solver import minimize

# ---------------------------------------------------------------------------
# closed-form profiles


def test_one_phase_coefficient_quadratic_case():
    prof = one_phase_profile(
        Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    )
    assert prof.beta == pytest.approx(2.0)
    assert prof.coefficient == pytest.approx(0.25)


def test_one_phase_coefficient_degenerate_case():
    # p = 3, gamma = 1, lambda+ = 9/4 makes (x+)^(3/2) an exact solution
    prof = one_phase_profile(
        Params(p=3.0, gamma=1.0, lambda_plus=2.25, lambda_minus=2.25, delta=1.0,
               alpha_p=0.5)
    )
    assert prof.beta == pytest.approx(1.5)
    assert prof.coefficient == pytest.approx(1.0)


def test_one_phase_coefficient_sublinear_case():
    prof = one_phase_profile(
        Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=1.0, delta=1.0,
               alpha_p=1.0)
    )
    assert prof.beta == pytest.approx(4.0 / 3.0)
    assert prof.coefficient == pytest.approx((9.0 / 8.0) ** (2.0 / 3.0))


def test_one_phase_coefficient_delta_scaling():
    base = Params(p=3.0, gamma=0.8, lambda_plus=1.3, lambda_minus=0.7, delta=1.0,
                  alpha_p=0.5)
    a1 = one_phase_profile(base).coefficient
    a2 = one_phase_profile(base.with_delta(2.0)).coefficient
    assert a2 / a1 == pytest.approx(2.0 ** (1.0 / (base.p - base.gamma)))


def test_one_phase_requires_active_positive_phase():
    with pytest.raises(ValueError):
        one_phase_profile(
            Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=0.0)
        )


def test_one_phase_evaluate_vanishes_on_negative_side():
    prof = one_phase_profile(
        Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    )
    x = np.linspace(-2.0, 2.0, 41)
    vals = prof.evaluate(x)
    assert np.all(vals[x <= 0] == 0.0)
    np.testing.assert_allclose(vals[x > 0], 0.25 * x[x > 0] ** 2)


def test_one_phase_satisfies_flux_balance_numerically():
    # (|u'|^(p-2) u')' = delta * gamma * lam+ * u^(gamma-1) at interior points
    par = Params(p=3.0, gamma=0.8, lambda_plus=1.7, lambda_minus=0.4, delta=1.2,
                 alpha_p=0.5)
    prof = one_phase_profile(par)
    h = 1e-6
    for x0 in (0.3, 0.7, 1.5):
        u = lambda t: prof.evaluate(t)
        du = lambda t: (u(t + h) - u(t - h)) / (2 * h)
        flux = lambda t: np.abs(du(t)) ** (par.p - 2.0) * du(t)
        lhs = (flux(x0 + h) - flux(x0 - h)) / (2 * h)
        rhs = par.delta * par.gamma * par.lambda_plus * u(x0) ** (par.gamma - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-4)


def test_one_phase_sample_stamps_boundary():
    prof = one_phase_profile(
        Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    )
    grid = Grid(extents=((-1.0, 1.0),), resolution=(65,))
    fld = prof.sample(grid)
    np.testing.assert_allclose(fld.values, prof.evaluate(grid.axes[0]))
    assert fld.boundary_mask[0] and fld.boundary_mask[-1]


def test_one_phase_sample_rejects_higher_dimensions():
    prof = one_phase_profile(
        Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    )
    grid = Grid(extents=((-1.0, 1.0), (-1.0, 1.0)), resolution=(9, 9))
    with pytest.raises(ValueError):
        prof.sample(grid)


def test_radial_profile_exponent():
    prof = radial_p_harmonic(2, 3.0)
    assert prof.beta == pytest.approx(0.5)
    assert prof.evaluate(4.0) == pytest.approx(2.0)


def test_radial_profile_log_at_critical_p():
    prof = radial_p_harmonic(2, 2.0)
    assert prof.beta == 0.0
    assert prof.evaluate(np.e) == pytest.approx(1.0)


def test_radial_profile_has_constant_radial_flux():
    # r^(N-1) |u'|^(p-2) u' must not depend on r
    for dim, p in [(2, 3.0), (3, 2.0), (2, 1.5)]:
        prof = radial_p_harmonic(dim, p)
        h = 1e-7
        r = np.array([0.5, 1.0, 2.0])
        du = (prof.evaluate(r + h) - prof.evaluate(r - h)) / (2 * h)
        q = r ** (dim - 1) * np.abs(du) ** (p - 2.0) * du
        np.testing.assert_allclose(q, q[0], rtol=1e-5)


def test_radial_profile_validity_range():
    with pytest.raises(ValueError):
        radial_p_harmonic(1, 2.0)
    with pytest.raises(ValueError):
        radial_p_harmonic(2, 1.0)


def test_radial_profile_cannot_be_sampled_on_a_line():
    prof = radial_p_harmonic(2, 3.0)
    grid = Grid(extents=((-1.0, 1.0),), resolution=(17,))
    with pytest.raises(ValueError):
        prof.sample(grid)


# ---------------------------------------------------------------------------
# 1D two-phase profiles


@pytest.fixture(scope="module")
def takeoff_shot():
    # boundary data picked so the exact minimizer is x^2/4 with takeoff at 0
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    return shoot_two_phase_1d(par, 0.0, 0.25, interval=(0.0, 1.0), n_out=257)


@pytest.fixture(scope="module")
def branching_shot():
    # odd two-phase profile A sign(x) |x|^(4/3) with A = 0.45^(2/3)
    par = Params(p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0,
                 alpha_p=1.0)
    amp = 0.45 ** (2.0 / 3.0)
    return shoot_two_phase_1d(par, -amp, amp, interval=(-1.0, 1.0), n_out=513)


def test_shooter_recovers_takeoff_profile(takeoff_shot):
    sol = takeoff_shot.primary
    assert np.max(np.abs(sol.u - sol.x**2 / 4.0)) <= 1e-13
    assert sol.boundary_mismatch <= 1e-12
    assert sol.quadrature_error <= 1e-12
    # the profile takes off with zero flux
    assert abs(sol.initial_flux) <= 1e-12


def test_shooter_takeoff_energy(takeoff_shot):
    # integral of (x/2)^2/2 + u/2 over (0, 1) is 1/12
    assert takeoff_shot.primary.energy == pytest.approx(1.0 / 12.0, abs=1e-13)


def test_shooter_output_grid(takeoff_shot):
    sol = takeoff_shot.primary
    assert len(sol.x) == 257
    assert sol.x[0] == pytest.approx(0.0)
    assert sol.x[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(np.diff(sol.x), sol.x[1] - sol.x[0], rtol=1e-12)


def test_shooter_field_round_trip(takeoff_shot):
    fld = takeoff_shot.primary.field()
    assert fld.grid.extents == ((0.0, 1.0),)
    np.testing.assert_allclose(fld.values, takeoff_shot.primary.u)
    assert fld.boundary_mask[0] and fld.boundary_mask[-1]


def test_shooter_branching_profile(branching_shot):
    sol = branching_shot.primary
    amp = 0.45 ** (2.0 / 3.0)
    exact = amp * np.sign(sol.x) * np.abs(sol.x) ** (4.0 / 3.0)
    assert np.max(np.abs(sol.u - exact)) <= 1e-13
    assert sol.boundary_mismatch <= 1e-10
    # odd data, odd solution
    assert np.max(np.abs(sol.u + sol.u[::-1])) <= 1e-13
    # flux at the left face of the exact profile is (4/3) * amp
    assert sol.initial_flux == pytest.approx(4.0 * amp / 3.0, abs=1e-12)


def test_shooter_returns_exactly_one_solution(branching_shot):
    # opposite-sign data has exactly one critical point
    assert len(branching_shot.solutions) == 1
    assert branching_shot.primary is branching_shot.solutions[0]


def test_shooter_agrees_with_grid_minimizer():
    # same transversal-crossing problem solved by two unrelated methods
    par = Params(p=2.0, gamma=0.5, lambda_plus=0.05, lambda_minus=0.05, delta=1.0,
                 alpha_p=1.0)
    n = 513
    shot = shoot_two_phase_1d(par, -0.5, 0.5, interval=(-1.0, 1.0), n_out=n).primary
    # C = q0^2 / 2 - delta F(g_left) > 0: no dead core; the reference value
    # solves T(C) = L with mpmath's quadrature at 40 digits
    c = shot.initial_flux**2 / 2.0 - 0.05 * 0.5**0.5
    assert c == pytest.approx(0.10186041769392035, rel=1e-13)
    assert shot.quadrature_error <= 1e-12

    grid = Grid(extents=((-1.0, 1.0),), resolution=(n,))
    bvals = 0.5 * grid.axes[0]
    fld = ScalarField(grid=grid, values=bvals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=bvals)
    out = minimize(fld, par)

    assert out.converged
    assert np.max(np.abs(out.field.values - shot.u)) <= 5e-5
    assert out.energy == pytest.approx(shot.energy, rel=1e-4)


def test_shooter_degenerate_takeoff_profile():
    # p = 3, gamma = 1, lambda+ = 9/4: the exact minimizer is x^(3/2) on (0, 1)
    par = Params(p=3.0, gamma=1.0, lambda_plus=2.25, lambda_minus=2.25, alpha_p=1.0)
    sol = shoot_two_phase_1d(par, 0.0, 1.0, interval=(0.0, 1.0), n_out=33).primary
    assert sol.boundary_mismatch <= 1e-12
    assert np.max(np.abs(sol.u - sol.x**1.5)) <= 1e-13
    # integral of |1.5 x^(1/2)|^3 / 3 + 2.25 x^(3/2) over (0, 1) is 1.35
    assert sol.energy == pytest.approx(1.35, abs=1e-13)


def test_shooter_dead_core_matches_closed_form():
    # T(0) <= L: C = 0, and each phase is the one-phase power profile
    # A d^beta, d the distance from its free boundary, with travel length
    # T = (k delta lambda)^(-1/p) |g|^(1 - gamma/p) / (1 - gamma/p)
    for p, gamma, g_left, g_right, zeros in [
        (3.0, 0.8, -0.5, 0.5, 145),
        (3.0, 0.8, -0.2, 0.3, 292),
        (1.5, 0.3, -0.5, 0.5, 335),
    ]:
        case = (p, gamma, g_left, g_right)
        par = Params(p=p, gamma=gamma, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
        sol = shoot_two_phase_1d(par, g_left, g_right, interval=(-1.0, 1.0),
                                 n_out=513).primary
        k = p / (p - 1.0)
        travel = [(k * 1.0) ** (-1.0 / p) * abs(g) ** (1.0 - gamma / p)
                  / (1.0 - gamma / p) for g in (g_left, g_right)]
        prof = one_phase_profile(par)
        # the free boundaries as the output shows them: A d^beta inverted at
        # the last negative and the first positive node
        neg, pos = np.flatnonzero(sol.u < 0.0)[-1], np.flatnonzero(sol.u > 0.0)[0]
        seen = [sol.x[neg] + (-sol.u[neg] / prof.coefficient) ** (1.0 / prof.beta),
                sol.x[pos] - (sol.u[pos] / prof.coefficient) ** (1.0 / prof.beta)]
        assert seen[1] - seen[0] == pytest.approx(2.0 - sum(travel), abs=1e-12), case
        x_minus, x_plus = -1.0 + travel[0], 1.0 - travel[1]
        exact = (prof.evaluate(sol.x - x_plus) - prof.evaluate(x_minus - sol.x))
        assert np.max(np.abs(sol.u - exact)) <= 1e-12, case
        # the core is exactly zero, and nothing outside it is
        in_core = (sol.x >= x_minus) & (sol.x <= x_plus)
        assert np.count_nonzero(sol.u == 0.0) == np.count_nonzero(in_core) == zeros, case
        assert sol.boundary_mismatch <= 1e-12, case
        # energy p/(p-1) delta lambda A^gamma T^(beta gamma + 1) / (beta gamma + 1)
        bg = prof.beta * gamma
        energy = sum(k * prof.coefficient**gamma * t ** (bg + 1.0) / (bg + 1.0)
                     for t in travel)
        assert sol.energy == pytest.approx(energy, rel=1e-12), case


def test_shooter_parabola_crossing_with_positive_constant():
    # p = 2, gamma = 1, lambda = 1/2, data -+1/2: C = 1/32 and
    # u = sign(x) (x^2/4 + |x|/4), so u' = |x|/2 + 1/4
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
    sol = shoot_two_phase_1d(par, -0.5, 0.5, interval=(-1.0, 1.0), n_out=257).primary
    ax = np.abs(sol.x)
    assert np.max(np.abs(sol.u - np.sign(sol.x) * (0.25 * ax**2 + 0.25 * ax))) <= 1e-13
    assert np.max(np.abs(sol.flux - (0.5 * ax + 0.25))) <= 1e-13
    assert sol.initial_flux == pytest.approx(0.75, abs=1e-13)
    # twice the integral of (x/2 + 1/4)^2 / 2 + (x^2/4 + x/4) / 2 over (0, 1)
    assert sol.energy == pytest.approx(23.0 / 48.0, abs=1e-13)
    assert sol.boundary_mismatch <= 1e-12 and sol.quadrature_error <= 1e-12


def test_shooter_parabola_dead_core():
    # p = 2, gamma = 1, lambda = 1, data -+0.1: u = sign(x) (|x| - r)_+^2 / 2
    # with core half-length r = 1 - sqrt(0.2)
    par = Params(p=2.0, gamma=1.0, lambda_plus=1.0, lambda_minus=1.0)
    sol = shoot_two_phase_1d(par, -0.1, 0.1, interval=(-1.0, 1.0), n_out=257).primary
    r = 1.0 - np.sqrt(0.2)
    exact = np.sign(sol.x) * 0.5 * np.maximum(np.abs(sol.x) - r, 0.0) ** 2
    assert np.max(np.abs(sol.u - exact)) <= 1e-13
    assert np.max(np.abs(sol.flux - np.maximum(np.abs(sol.x) - r, 0.0))) <= 1e-13
    assert sol.boundary_mismatch <= 1e-12


def test_shooter_mirrored_data():
    # u -> -u maps the data (g, -g) to (-g, g) and swaps the phase weights
    direct = shoot_two_phase_1d(
        Params(p=3.0, gamma=0.8, lambda_plus=1.0, lambda_minus=0.05, alpha_p=1.0),
        -0.5, 0.3, n_out=129).primary
    mirror = shoot_two_phase_1d(
        Params(p=3.0, gamma=0.8, lambda_plus=0.05, lambda_minus=1.0, alpha_p=1.0),
        0.5, -0.3, n_out=129).primary
    assert np.max(np.abs(mirror.u + direct.u)) <= 1e-15
    assert np.max(np.abs(mirror.flux + direct.flux)) <= 1e-15
    assert mirror.energy == pytest.approx(direct.energy, rel=1e-15)
    assert mirror.boundary_mismatch <= 1e-12
    assert mirror.initial_flux < 0.0 < direct.initial_flux


def test_shooter_rejects_bad_interval():
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    with pytest.raises(ValueError):
        shoot_two_phase_1d(par, 0.0, 1.0, interval=(1.0, -1.0))
    with pytest.raises(ValueError):
        shoot_two_phase_1d(par, 0.0, 1.0, n_out=1)


def test_shooter_rejects_same_sign_data():
    # same-sign data turns inside the interval: not this oracle's branch
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    for g_left, g_right in [(5.0, 5.0), (-0.1, -0.3)]:
        with pytest.raises(ValueError, match="same-sign"):
            shoot_two_phase_1d(par, g_left, g_right, interval=(0.0, 1.0), n_out=17)


def test_oracle_imports_only_core_from_the_package():
    # the oracle shares no code with the grid solver it checks
    tree = ast.parse(Path(oracle.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "aplab" in (node.module or "")):
            local.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            local.update(a.name for a in node.names if a.name.startswith("aplab"))
    assert local == {".core"}


def test_exact_potential_along_trajectory():
    par = Params(p=2.0, gamma=0.5, lambda_plus=2.0, lambda_minus=3.0, delta=1.0,
                 alpha_p=1.0)
    u = np.array([-4.0, 0.0, 9.0])
    np.testing.assert_allclose(potential_value_exact(u, par), [6.0, 0.0, 6.0])
