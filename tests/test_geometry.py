"""Perimeter, density, porosity, strip energy, and tube content."""

import numpy as np
import pytest

from aplab.core import Params, ScalarField, build_grid
from aplab.geometry import (
    BallSpec,
    level_strip_energy,
    minkowski_content,
    phase_density,
    porosity_constant,
    relative_perimeter,
)


@pytest.fixture(scope="module")
def grid_2d():
    return build_grid(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))


@pytest.fixture(scope="module")
def halfplane(grid_2d):
    X = grid_2d.coordinate_arrays()[0]
    return ScalarField(grid_2d, X, grid_2d.boundary_face_mask, X)


def _disk_field(n=129, r0=0.5):
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    u = r0 - np.hypot(X, Y)
    return ScalarField(grid, u, grid.boundary_face_mask, u)


# ---------------------------------------------------------------------------
# ball specification


def test_ball_validation():
    with pytest.raises(ValueError):
        BallSpec((0.0,), 0.0)
    with pytest.raises(ValueError):
        BallSpec((np.nan,), 0.5)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -1.0])
def test_ball_refuses_a_radius_not_positive_and_finite(radius):
    # a nan radius would read perimeter 0 and an infinite one the whole contour
    with pytest.raises(ValueError, match="positive and finite"):
        BallSpec((0.0, 0.0), radius)


def test_ball_node_mask_closed_vs_open():
    # dyadic nodes, so the on-sphere distances are float-exact
    grid = build_grid(((0.0, 1.0),), (5,))
    ball = BallSpec((0.5,), 0.25)
    closed = ball.node_mask(grid, closed=True)
    open_ = ball.node_mask(grid, closed=False)
    # nodes at 0.25 and 0.75 sit exactly on the sphere
    assert closed.sum() == 3
    assert open_.sum() == 1


def test_ball_center_dimension_checked():
    grid = build_grid(((0.0, 1.0),), (11,))
    with pytest.raises(ValueError):
        BallSpec((0.5, 0.5), 0.2).node_mask(grid)


def test_ball_inside_grid():
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    ball = BallSpec((0.0, 0.0), 0.9)
    assert ball.within(grid) is ball
    with pytest.raises(ValueError, match="leaves the grid"):
        BallSpec((0.5, 0.0), 0.6).within(grid)
    # twice the spacing 0.25 is the smallest radius the grid resolves
    assert BallSpec((0.0, 0.0), 0.5).within(grid)
    with pytest.raises(ValueError, match="not resolvable"):
        BallSpec((0.0, 0.0), 0.49).within(grid)


# ---------------------------------------------------------------------------
# perimeter


def test_perimeter_1d_counts_crossings():
    grid = build_grid(((-1.0, 1.0),), (1025,))
    x = grid.axes[0]
    fld = ScalarField(grid, np.sin(4 * np.pi * x), grid.boundary_face_mask, x)
    # zeros at multiples of 1/4; the open ball |x| < 0.6 contains five
    assert relative_perimeter(fld, BallSpec((0.0,), 0.6)) == 5.0


def test_perimeter_1d_matches_a_crossing_by_crossing_count():
    grid = build_grid(((-1.0, 1.0),), (257,))
    xs = grid.axes[0]
    g = np.random.default_rng(3).standard_normal(xs.size)
    fld = ScalarField(grid, g, grid.boundary_face_mask, g)
    for c, r in ((0.0, 0.5), (0.3, 0.2), (-0.9, 1.5)):
        count = 0
        for i in range(xs.size - 1):
            if (g[i] > 0.0) != (g[i + 1] > 0.0):
                x = xs[i] + g[i] / (g[i] - g[i + 1]) * (xs[i + 1] - xs[i])
                count += abs(x - c) < r
        assert relative_perimeter(fld, BallSpec((c,), r)) == count


def test_perimeter_2d_circle():
    fld = _disk_field(n=129, r0=0.5)
    per = relative_perimeter(fld, BallSpec((0.0, 0.0), 0.9))
    assert per == pytest.approx(2.0 * np.pi * 0.5, rel=1e-3)


def test_perimeter_2d_straight_interface_is_exact(halfplane):
    # the contour x1 = 0 cut by the open ball is a diameter
    assert relative_perimeter(halfplane, BallSpec((0.0, 0.0), 0.5)) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize(
    "corners", [(1.5, -1.0, 1.5, -1.0), (1.0, -1.5, 1.0, -1.5)]
)
def test_perimeter_2d_saddle_pairs_by_the_corner_sum(corners):
    # corners a, b, c, d of one unit cell; a positive sum joins a and c
    # through the center, a negative one b and d.  Either way each segment
    # cuts a corner off at length sqrt(0.32); the other pairing gives
    # sqrt(0.72) in both cases
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (2, 2))
    a, b, c, d = corners
    u = np.array([[a, d], [b, c]])
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    per = relative_perimeter(fld, BallSpec((0.5, 0.5), 1.0))
    assert per == pytest.approx(2.0 * np.sqrt(0.32), rel=1e-12)


def test_perimeter_3d_staircase_is_approximate():
    grid = build_grid(((-1.0, 1.0),) * 3, (17, 17, 17))
    u = grid.coordinate_arrays()[0]
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    per = relative_perimeter(fld, BallSpec((0.0, 0.0, 0.0), 0.5))
    # face counting approaches the disk area pi/4 from below
    assert 0.6 <= per <= np.pi * 0.25
    assert per == pytest.approx(0.7031, abs=1e-4)





# ---------------------------------------------------------------------------
# density


def test_phase_density_extremes(grid_2d):
    ball = BallSpec((0.0, 0.0), 0.5)
    assert phase_density(np.ones(grid_2d.shape, dtype=bool), ball, grid_2d) == 1.0
    assert phase_density(np.zeros(grid_2d.shape, dtype=bool), ball, grid_2d) == 0.0


def test_phase_density_halfplane(grid_2d):
    X = grid_2d.coordinate_arrays()[0]
    ball = BallSpec((0.0, 0.0), 0.5)
    d = phase_density(X > 0, ball, grid_2d)
    # strictly positive half, minus the x1 = 0 column in the denominator
    assert 0.45 <= d < 0.5


def test_phase_density_complements_add_to_one(grid_2d):
    rng = np.random.default_rng(7)
    mask = rng.random(grid_2d.shape) > 0.6
    ball = BallSpec((0.1, -0.2), 0.4)
    total = phase_density(mask, ball, grid_2d) + phase_density(~mask, ball, grid_2d)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_phase_density_needs_resolvable_ball():
    grid = build_grid(((0.0, 1.0),), (11,))
    with pytest.raises(ValueError, match="no nodes"):
        phase_density(np.ones(11, dtype=bool), BallSpec((0.55,), 0.04), grid)


# ---------------------------------------------------------------------------
# porosity


def test_porosity_of_a_line_is_one_half(grid_2d):
    mask = np.zeros(grid_2d.shape, dtype=bool)
    mask[32, :] = True  # the x1 = 0 column
    kappa = porosity_constant(mask, BallSpec((0.0, 0.0), 0.5), grid_2d)
    # the largest line-free sub-ball is centered halfway to the rim
    assert kappa == pytest.approx(0.5, abs=1e-12)


def test_porosity_empty_set_is_full(grid_2d):
    mask = np.zeros(grid_2d.shape, dtype=bool)
    assert porosity_constant(mask, BallSpec((0.0, 0.0), 0.5), grid_2d) == 1.0


def test_porosity_saturated_set_is_zero(grid_2d):
    mask = np.ones(grid_2d.shape, dtype=bool)
    assert porosity_constant(mask, BallSpec((0.0, 0.0), 0.5), grid_2d) == 0.0


def test_porosity_needs_resolvable_ball():
    grid = build_grid(((0.0, 1.0),), (11,))
    with pytest.raises(ValueError, match="no nodes"):
        porosity_constant(np.ones(11, dtype=bool), BallSpec((0.55,), 0.04), grid)


# ---------------------------------------------------------------------------
# strip energy


def test_strip_energy_linear_profile_closed_form():
    grid = build_grid(((-1.0, 1.0),), (1025,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=0.0)
    got = level_strip_energy(fld, par, 0.125, BallSpec((0.0,), 0.5))
    # 126 interior nodes with 0 < |x| < 0.125, density 1/2, weight h
    assert got == pytest.approx(126 * (2.0 / 1024.0) * 0.5, abs=1e-15)


@pytest.mark.parametrize("tiny", [1e-30, -1e-30])
def test_strip_energy_ignores_rounding_at_zero(tiny):
    # a solver may leave 1e-30 instead of 0.0 on the zero set; the strip
    # must still hold the same 126 nodes as for the exact linear profile
    grid = build_grid(((-1.0, 1.0),), (1025,))
    x = grid.axes[0].copy()
    x[512] = tiny
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=0.0)
    got = level_strip_energy(fld, par, 0.125, BallSpec((0.0,), 0.5))
    assert got == pytest.approx(126 * (2.0 / 1024.0) * 0.5, abs=1e-15)


def test_strip_energy_empty_strip_is_zero():
    grid = build_grid(((-1.0, 1.0),), (257,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=0.0)
    assert level_strip_energy(fld, par, 1e-9, BallSpec((0.0,), 0.5)) == 0.0


def test_strip_energy_rejects_nonpositive_width():
    grid = build_grid(((-1.0, 1.0),), (9,))
    x = grid.axes[0]
    fld = ScalarField(grid, x, grid.boundary_face_mask, x)
    par = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=0.0)
    with pytest.raises(ValueError):
        level_strip_energy(fld, par, 0.0, BallSpec((0.0,), 0.5))


# ---------------------------------------------------------------------------
# tube content


def test_minkowski_column_measures_are_exact(grid_2d):
    mask = np.zeros(grid_2d.shape, dtype=bool)
    mask[32, :] = True
    res = minkowski_content(mask, grid_2d, [0.125, 0.25, 0.5])
    h = grid_2d.spacing[0]
    # widths sorted descending; a tube of width e holds 2e/h - 1 columns
    np.testing.assert_allclose(
        res.tube_measures,
        [31 * 65 * h * h, 15 * 65 * h * h, 7 * 65 * h * h],
        rtol=1e-14,
    )
    assert res.eps == (0.5, 0.25, 0.125)
    # codimension-one scaling, content near the line's length 2
    assert 1.0 <= res.slope <= 1.2
    assert res.contents[-1] == pytest.approx(1.7773, abs=1e-3)
    assert res.r_squared > 0.999


def test_minkowski_full_set_has_flat_ladder(grid_2d):
    res = minkowski_content(
        np.ones(grid_2d.shape, dtype=bool), grid_2d, [0.125, 0.25, 0.5]
    )
    assert res.slope == pytest.approx(0.0, abs=1e-12)


def test_minkowski_validation(grid_2d):
    mask = np.zeros(grid_2d.shape, dtype=bool)
    mask[32, :] = True
    with pytest.raises(ValueError, match="at least two"):
        minkowski_content(mask, grid_2d, [0.25])
    with pytest.raises(ValueError, match="fewer than two distinct"):
        minkowski_content(mask, grid_2d, [0.25, 0.25])
    with pytest.raises(ValueError, match="not resolvable"):
        minkowski_content(mask, grid_2d, [0.01, 0.25])
    with pytest.raises(ValueError, match="empty set"):
        minkowski_content(np.zeros(grid_2d.shape, dtype=bool), grid_2d, [0.125, 0.25])
