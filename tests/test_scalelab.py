"""Radius ladders, growth fits, and the dilation transport identity."""

import numpy as np
import pytest

from aplab.core import Params, ScalarField, build_grid
from aplab.scalelab import (
    default_radius_ladder,
    fit_exponent,
    growth_profile,
    nondegeneracy_ratio,
    rescale,
    scaling_identity_gap,
)

PAR2 = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)


def _line_field(n=1025):
    grid = build_grid(((-1.0, 1.0),), (n,))
    x = grid.axes[0]
    return ScalarField(grid, x, grid.boundary_face_mask, x), grid


def _square_field(n=1025):
    grid = build_grid(((-1.0, 1.0),), (n,))
    x = grid.axes[0]
    u = x * x
    return ScalarField(grid, u, grid.boundary_face_mask, u), grid


# ---------------------------------------------------------------------------
# growth ladders


def test_growth_profile_sups_of_exact_power():
    fld, _ = _square_field()
    prof = growth_profile(fld, PAR2, (0.0,), (0.125, 0.25, 0.5))
    # dyadic radii are grid nodes, so the sups are exact squares
    assert prof.sup_abs == (0.125**2, 0.25**2, 0.5**2)
    assert prof.sup_pos == prof.sup_abs
    assert prof.sup_neg == (0.0, 0.0, 0.0)


def test_growth_profile_ball_energies_closed_form():
    fld, grid = _line_field()
    h = grid.spacing[0]
    prof = growth_profile(fld, PAR2, (0.0,), (0.125,))
    # 127 open-ball nodes of weight h at Dirichlet density 1/2
    assert prof.dirichlet[0] == pytest.approx(63.5 * h, abs=1e-15)
    # potential density |x|/2 sums to (2 * sum_{k<64} k) * h^2 / 2
    assert prof.potential[0] == pytest.approx(2016.0 * h * h, abs=1e-15)


def test_growth_profile_validation():
    fld, _ = _square_field(n=65)
    with pytest.raises(ValueError, match="empty radius ladder"):
        growth_profile(fld, PAR2, (0.0,), ())
    with pytest.raises(ValueError, match="not resolvable"):
        growth_profile(fld, PAR2, (0.0,), (0.01,))
    with pytest.raises(ValueError, match="leaves the grid"):
        growth_profile(fld, PAR2, (0.9,), (0.5,))


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exponent_recovers_exact_power_law():
    radii = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_exponent(radii, 3.0 * radii**1.7)
    assert fit.exponent == pytest.approx(1.7, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_used == 4
    assert fit.n_dropped == 0


def test_fit_exponent_drops_nonpositive_readings():
    radii = np.array([1.0, 2.0, 4.0])
    fit = fit_exponent(radii, np.array([1.0, 0.0, 16.0]))
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.n_used == 2
    assert fit.n_dropped == 1


def test_fit_exponent_needs_two_points():
    with pytest.raises(ValueError, match="fewer than two"):
        fit_exponent([1.0, 2.0], [1.0, -1.0])
    # one radius twice has no log-log slope (numpy would make one up)
    with pytest.raises(ValueError, match="fewer than two distinct"):
        fit_exponent([0.125, 0.125], [1.0, 2.0])
    with pytest.raises(ValueError, match="fewer than two distinct"):
        fit_exponent([0.125, 0.125, 0.25], [1.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="equal length"):
        fit_exponent([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegeneracy_ratio_of_invariant_profile():
    # tau = 1 at these parameters, so u = x^2 has sup = r^(1+tau) exactly
    fld, _ = _square_field()
    prof = growth_profile(fld, PAR2, (0.0,), (0.125, 0.25, 0.5))
    assert nondegeneracy_ratio(prof, PAR2, "abs") == 1.0
    assert nondegeneracy_ratio(prof, PAR2, "positive") == 1.0
    assert nondegeneracy_ratio(prof, PAR2, "max") == 1.0
    # the negative phase is empty
    assert nondegeneracy_ratio(prof, PAR2, "negative") == 0.0


def test_nondegeneracy_ratio_scales_with_amplitude():
    grid = build_grid(((-1.0, 1.0),), (1025,))
    x = grid.axes[0]
    u = 0.3 * x * x
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    prof = growth_profile(fld, PAR2, (0.0,), (0.125, 0.25))
    assert nondegeneracy_ratio(prof, PAR2, "abs") == pytest.approx(0.3, rel=1e-12)


def test_nondegeneracy_ratio_rejects_unknown_phase():
    fld, _ = _square_field(n=65)
    prof = growth_profile(fld, PAR2, (0.0,), (0.25,))
    with pytest.raises(ValueError):
        nondegeneracy_ratio(prof, PAR2, "total")


def test_default_radius_ladder_halves_from_quarter_box():
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
    assert default_radius_ladder(grid, (0.0, 0.0)) == (0.5, 0.25, 0.125, 0.0625)
    # an off-center anchor halves the starting radius
    assert default_radius_ladder(grid, (0.5, 0.0)) == (0.25, 0.125, 0.0625)


def test_default_radius_ladder_validation():
    grid = build_grid(((-1.0, 1.0),), (65,))
    with pytest.raises(ValueError, match="strictly inside"):
        default_radius_ladder(grid, (1.0,))
    coarse = build_grid(((-1.0, 1.0),), (5,))
    with pytest.raises(ValueError, match="too coarse"):
        default_radius_ladder(coarse, (0.0,))


# ---------------------------------------------------------------------------
# rescaling and the transport identity


def test_rescale_samples_aligned_nodes_exactly():
    fld, _ = _square_field()
    scaled, spar = rescale(fld, PAR2, (0.25,), 0.5, 2.0, 0.25)
    y = scaled.grid.axes[0]
    np.testing.assert_array_equal(scaled.values, (0.25 + 0.5 * y) ** 2 / 2.0)
    # multiplier transforms as delta * r^p * s^(gamma - p)
    assert spar.delta == pytest.approx(0.125, abs=0.0)
    assert scaled.grid.shape == (129,)


def test_rescale_validation():
    fld, _ = _square_field(n=65)
    with pytest.raises(ValueError, match="positive"):
        rescale(fld, PAR2, (0.0,), -0.5, 1.0, 0.25)
    with pytest.raises(ValueError, match="positive"):
        rescale(fld, PAR2, (0.0,), 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="leaves the source grid"):
        rescale(fld, PAR2, (0.9,), 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="dimension"):
        rescale(fld, PAR2, (0.0, 0.0), 0.5, 1.0, 0.25)


def test_transport_identity_on_exact_branching_profile():
    grid = build_grid(((-1.0, 1.0),), (1025,))
    x = grid.axes[0]
    par = Params(p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0,
                 alpha_p=1.0)
    amp = 0.45 ** (2.0 / 3.0)
    u = amp * np.sign(x) * np.abs(x) ** (4.0 / 3.0)
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    lhs, rhs = scaling_identity_gap(fld, par, (0.0,), 0.5, 0.25)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transport_identity_on_generic_smooth_field():
    # dyadic r samples nodes exactly, so the identity holds for any field
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (129, 129))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    v = np.sin(1.7 * X) * np.cos(0.9 * Y) + 0.2 * X
    fld = ScalarField(grid, v, grid.boundary_face_mask, v)
    par = Params(p=3.0, gamma=0.8, lambda_plus=0.7, lambda_minus=0.3, delta=1.0,
                 alpha_p=0.5)
    lhs, rhs = scaling_identity_gap(fld, par, (0.0, 0.0), 0.5, 0.25)
    assert lhs == pytest.approx(rhs, rel=1e-12)
