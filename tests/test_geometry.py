"""Perimeter, density, porosity, strip energy, and tube content."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _marching_cells_reference(g, grid):
    """The contour segments of g, one mixed cell at a time: the definition
    the 2D perimeter must match bit for bit.  Cells in row-major order; in
    a cell, the crossings on edges ab, bc, cd, da that change sign, paired
    in that order, or from da in a saddle whose corner a does not have the
    sign of the corner sum."""
    xs, ys = grid.axes
    pos = g > 0.0
    cp = pos[:-1, :-1].astype(np.int8) + pos[1:, :-1] + pos[1:, 1:] + pos[:-1, 1:]
    segments = []
    for i, j in np.argwhere((cp > 0) & (cp < 4)):
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        ends = [((xs[k], ys[m]), g[k, m]) for k, m in corners]
        cuts = []
        for (p0, v0), (p1, v1) in zip(ends, ends[1:] + ends[:1]):
            if (v0 > 0) != (v1 > 0):
                t = v0 / (v0 - v1)
                cuts.append((p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])))
        va, vb, vc, vd = (v for _, v in ends)
        if len(cuts) == 4 and (va > 0) != ((va + vb + vc + vd) > 0.0):
            cuts = cuts[3:] + cuts[:3]
        segments.extend(zip(cuts[::2], cuts[1::2]))
    return segments


def _reference_perimeter_2d(segments, ball):
    cx, cy = ball.center
    r2 = ball.radius**2
    total = 0.0
    for q1, q2 in segments:
        mx, my = 0.5 * (q1[0] + q2[0]), 0.5 * (q1[1] + q2[1])
        if (mx - cx) ** 2 + (my - cy) ** 2 < r2:
            total += math.hypot(q2[0] - q1[0], q2[1] - q1[1])
    return total


def _balls_cutting(segments, centers):
    """Per center, a ball through the midpoint of a contour segment, and
    balls just inside and just outside it."""
    balls = []
    for k, (cx, cy) in enumerate(centers):
        radius = 0.7
        if segments:
            q1, q2 = segments[k % len(segments)]
            mx, my = 0.5 * (q1[0] + q2[0]), 0.5 * (q1[1] + q2[1])
            radius = math.hypot(mx - cx, my - cy) or 0.7
        balls += [BallSpec((cx, cy), radius * f) for f in (1.0, 1 - 1e-15, 1 + 1e-15)]
    return balls


def _check_against_reference(u, extents, centers):
    grid = build_grid(extents, u.shape)
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    segments = _marching_cells_reference(fld.values, grid)
    for ball in _balls_cutting(segments, centers):
        assert relative_perimeter(fld, ball) == _reference_perimeter_2d(segments, ball)


_CORNER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -1.5, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@given(
    shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),
    data=st.data(),
    sign=st.sampled_from([None, 1.0, -1.0]),
    extents=st.sampled_from([((0.0, 1.0), (0.0, 1.0)), ((-1.0, 1.0), (-0.5, 2.5)),
                             ((-0.3, 0.7), (-1.0, 0.1))]),
    centers=st.lists(st.tuples(st.floats(-1.5, 2.5), st.floats(-1.5, 2.5)),
                     min_size=1, max_size=3),
)
def test_perimeter_2d_is_the_cell_by_cell_contour(shape, data, sign, extents, centers):
    # the drawn values repeat, so corners of exact zeros and saddles of both
    # pairings are common; a sign makes the field one-signed
    size = shape[0] * shape[1]
    u = np.array(data.draw(st.lists(_CORNER_VALUES, min_size=size, max_size=size)))
    u = u.reshape(shape)
    if sign is not None:
        u = sign * np.abs(u)
    _check_against_reference(u, extents, centers)


@pytest.mark.parametrize(
    "u",
    [
        np.array([[1.5, -1.0], [-1.0, 1.5]]),  # saddle, a joined to the center
        np.array([[1.0, -1.5], [-1.5, 1.0]]),  # saddle, b and d joined
        np.array([[0.0, 1.0, -0.0], [-2.0, 0.0, 3.0], [0.0, -1.0, 0.0]]),
        np.array([[1.0, 2.0], [0.5, 3.0]]),  # one sign: no contour
        np.array([[-1.0, -2.0, -0.0], [-0.5, -3.0, 0.0]]),
        np.add.outer(np.linspace(-1, 1, 5), np.linspace(0.7, -0.9, 9)) ** 3 - 0.01,
    ],
)
def test_perimeter_2d_hand_picked_fields_are_the_cell_by_cell_contour(u):
    _check_against_reference(u, ((-1.0, 1.0), (-0.5, 0.5)),
                             [(0.0, 0.0), (-0.6, 0.2), (0.9, -0.45)])


def test_perimeter_2d_squares_midpoint_distances_with_pow():
    # numpy squares an array as x * x, which differs from pow(x, 2) by an ulp
    # on about one value in a thousand: balls whose r^2 lies between the two
    # squared distances of a midpoint tell the rules apart.  The ball holding
    # the whole grid adds every length, each by math.hypot, left to right
    grid = build_grid(((-1.0, 1.0), (-0.7, 1.3)), (101, 97))
    u = np.random.default_rng(11).standard_normal(grid.shape)
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    segments = _marching_cells_reference(fld.values, grid)
    balls = [BallSpec((0.0, 0.3), 2.0)]
    for cx, cy in ((0.1234567, -0.0765432), (-0.31, 0.47), (0.5, 0.6)):
        for q1, q2 in segments:
            dx = float(0.5 * (q1[0] + q2[0])) - cx
            dy = float(0.5 * (q1[1] + q2[1])) - cy
            lo, hi = sorted((dx**2 + dy**2, dx * dx + dy * dy))
            radius = math.sqrt(hi)
            for _ in range(4):
                if lo < radius**2 <= hi:
                    balls.append(BallSpec((cx, cy), radius))
                    break
                radius = math.nextafter(radius, 0.0 if radius**2 > hi else 1.0)
    assert len(balls) > 5
    for ball in balls:
        assert relative_perimeter(fld, ball) == _reference_perimeter_2d(segments, ball)


def test_perimeter_3d_face_count_matches_a_per_radius_count():
    grid = build_grid(((-1.0, 1.0), (-0.5, 0.5), (0.0, 2.0)), (9, 6, 11))
    u = np.random.default_rng(5).standard_normal(grid.shape)
    fld = ScalarField(grid, u, grid.boundary_face_mask, u)
    coords = grid.coordinate_arrays()
    pos = u > 0.0
    for center, radius in (((0.0, 0.0, 1.0), 0.5), ((0.3, -0.2, 0.4), 0.9),
                           ((-1.0, 0.5, 2.0), 3.0)):
        # one ball's faces: the face centers of sign changes inside the ball
        total = 0.0
        for a in range(3):
            lo = tuple(slice(0, -1) if b == a else slice(None) for b in range(3))
            hi = tuple(slice(1, None) if b == a else slice(None) for b in range(3))
            mids = [0.5 * (coords[b][lo] + coords[b][hi]) for b in range(3)]
            d2 = sum((m - center[b]) ** 2 for b, m in enumerate(mids))
            area = np.prod([grid.spacing[b] for b in range(3) if b != a])
            total += area * np.count_nonzero((pos[lo] != pos[hi]) & (d2 < radius**2))
        assert relative_perimeter(fld, BallSpec(center, radius)) == float(total)


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
