"""Reference solutions: closed-form profiles and the 1D shooter.

The shooter integrates the (value, flux) system with fixed-step RK4 and
shares no discretization with the grid solver, so agreement between the
two is a genuine cross-check.
"""

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
from aplab.solver import SolverConfig, minimize

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
# 1D shooting


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
    assert np.max(np.abs(sol.u - sol.x**2 / 4.0)) <= 1e-6
    assert sol.boundary_mismatch <= 1e-12
    assert sol.richardson_error <= 1e-9
    # the profile takes off with zero flux
    assert abs(sol.initial_flux) <= 1e-3


def test_shooter_takeoff_energy(takeoff_shot):
    # integral of (x/2)^2/2 + u/2 over (0, 1) is 1/12
    assert takeoff_shot.primary.energy == pytest.approx(1.0 / 12.0, abs=1e-8)


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
    assert np.max(np.abs(sol.u - exact)) <= 1e-5
    assert sol.boundary_mismatch <= 1e-10
    # odd data, odd solution
    assert np.max(np.abs(sol.u + sol.u[::-1])) <= 1e-5
    # flux at the left face of the exact profile is (4/3) * amp
    assert sol.initial_flux == pytest.approx(4.0 * amp / 3.0, abs=5e-3)


def test_shooter_solutions_sorted_by_energy():
    par = Params(p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0,
                 alpha_p=1.0)
    amp = 0.45 ** (2.0 / 3.0)
    res = shoot_two_phase_1d(par, -amp, amp, interval=(-1.0, 1.0), n_out=129,
                             h_ode=1e-4)
    energies = [s.energy for s in res.solutions]
    assert energies == sorted(energies)
    assert res.primary is res.solutions[0]


def test_shooter_agrees_with_grid_minimizer():
    # same transversal-crossing problem solved by two unrelated methods
    par = Params(p=2.0, gamma=0.5, lambda_plus=0.05, lambda_minus=0.05, delta=1.0,
                 alpha_p=1.0)
    n = 513
    shot = shoot_two_phase_1d(par, -0.5, 0.5, interval=(-1.0, 1.0), n_out=n).primary

    grid = Grid(extents=((-1.0, 1.0),), resolution=(n,))
    bvals = 0.5 * grid.axes[0]
    fld = ScalarField(grid=grid, values=bvals, boundary_mask=grid.boundary_face_mask,
                      boundary_values=bvals)
    out = minimize(fld, par, SolverConfig())

    assert out.converged
    assert np.max(np.abs(out.field.values - shot.u)) <= 5e-5
    assert out.energy == pytest.approx(shot.energy, rel=1e-4)


def test_shooter_degenerate_takeoff_profile():
    # p = 3, gamma = 1, lambda+ = 9/4: the exact minimizer is x^(3/2) on (0, 1)
    par = Params(p=3.0, gamma=1.0, lambda_plus=2.25, lambda_minus=2.25, alpha_p=1.0)
    sol = shoot_two_phase_1d(par, 0.0, 1.0, interval=(0.0, 1.0), n_out=33,
                             h_ode=1e-3).primary
    assert sol.boundary_mismatch <= 1e-12
    assert np.max(np.abs(sol.u - sol.x**1.5)) <= 1e-5
    # integral of |1.5 x^(1/2)|^3 / 3 + 2.25 x^(3/2) over (0, 1) is 1.35
    assert sol.energy == pytest.approx(1.35, abs=1e-5)


def test_shooter_rejects_a_jump_of_the_endpoint_map():
    # the root finder closes in on an O(1) jump here; no flux matches g_right
    par = Params(p=3.0, gamma=0.8, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
    with pytest.raises(ValueError, match="no bracket holds a match"):
        shoot_two_phase_1d(par, -0.5, 0.5, interval=(-1.0, 1.0), n_out=17,
                           h_ode=1e-3)


def test_shooter_integrates_each_match_once_outside_root_finding(monkeypatch):
    steps = []
    evals = [0]
    integrate, brentq = oracle._integrate, oracle.brentq

    def counted_integrate(*args):
        steps.append(args[3])
        return integrate(*args)

    def counted_brentq(f, *args, **kwargs):
        def g(q0):
            evals[0] += 1
            return f(q0)

        return brentq(g, *args, **kwargs)

    monkeypatch.setattr(oracle, "_integrate", counted_integrate)
    monkeypatch.setattr(oracle, "brentq", counted_brentq)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    res = shoot_two_phase_1d(par, 0.0, 0.25, interval=(0.0, 1.0), n_out=17,
                             h_ode=1e-3)
    n_fine = 16 * 63  # 16 segments of ceil(1000 / 16) steps
    n_sol = len(res.solutions)
    # a fine run under 2000 steps is also the scan's step count: one scan
    # run per scanned flux, the root finder's evaluations, and one recorded
    # run per solution, plus one half-step Richardson run per solution
    assert steps.count(n_fine) == 97 + evals[0] + n_sol
    assert steps.count(2 * n_fine) == n_sol
    assert len(steps) == 97 + evals[0] + 2 * n_sol


def test_shooter_rejects_bad_interval():
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    with pytest.raises(ValueError):
        shoot_two_phase_1d(par, 0.0, 1.0, interval=(1.0, -1.0))
    with pytest.raises(ValueError):
        shoot_two_phase_1d(par, 0.0, 1.0, n_out=1)


def test_shooter_reports_unbracketed_scan():
    # a scan window too narrow to reach the right boundary value
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    with pytest.raises(ValueError, match="no root bracketed"):
        shoot_two_phase_1d(par, 5.0, 5.0, interval=(0.0, 1.0), n_out=17,
                           h_ode=1e-3, n_scan=9, scan_span=0.1)


def test_shooter_scan_skips_fluxes_past_the_float_range():
    # at p = 1.5, u' = q^2 overflows a float for the outer scanned fluxes
    par = Params(p=1.5, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0,
                 alpha_p=1.0)
    with pytest.raises(ValueError, match="no root bracketed"):
        shoot_two_phase_1d(par, 0.0, 0.5, interval=(0.0, 1.0), n_out=17,
                           h_ode=1e-3, n_scan=3, scan_span=1e200)


def test_exact_potential_along_trajectory():
    par = Params(p=2.0, gamma=0.5, lambda_plus=2.0, lambda_minus=3.0, delta=1.0,
                 alpha_p=1.0)
    u = np.array([-4.0, 0.0, 9.0])
    np.testing.assert_allclose(potential_value_exact(u, par), [6.0, 0.0, 6.0])
