"""Measure-theoretic diagnostics of the free boundary.

Each of the three regularity properties probed has a reading here:
finite perimeter (``relative_perimeter``), density bounds
(``phase_density``, with ``porosity_constant`` for the null set), and
codimension-one size, read off the slope of the tube measures in
``minkowski_content``.
``level_strip_energy`` measures the energy near the zero level.

Ball membership is by node center.  Sup-type and counting estimators use
the closed ball, quadrature-type estimators the open one; the O(h) bias
this introduces is common to numerator and denominator of every ratio
reported here, which is what makes the ratios stable under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField
from .energy import DiscreteEnergy
from .phases import distance_to_set, residue_floor

__all__ = [
    "BallSpec",
    "relative_perimeter",
    "phase_density",
    "porosity_constant",
    "level_strip_energy",
    "MinkowskiResult",
    "minkowski_content",
]


@dataclass(frozen=True)
class BallSpec:
    """A ball given by center coordinates and radius (physical units)."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("ball center must be finite")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def dist_sq(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.ndim:
            raise ValueError("ball center dimension does not match grid")
        d2 = np.zeros(grid.shape)
        for a in range(grid.ndim):
            axis = grid.axes[a] - self.center[a]
            shape = [1] * grid.ndim
            shape[a] = len(axis)
            d2 = d2 + (axis**2).reshape(shape)
        return d2

    def node_mask(self, grid: Grid, closed: bool = True) -> np.ndarray:
        d2 = self.dist_sq(grid)
        r2 = self.radius * self.radius
        return d2 <= r2 if closed else d2 < r2

    def within(self, grid: Grid) -> "BallSpec":
        """This ball, or ValueError unless the grid resolves it: its radius
        is at least twice the largest spacing, and the closed cube of the
        same radius fits in the box."""
        if self.radius < 2.0 * max(grid.spacing):
            raise ValueError(
                f"radius {self.radius} is below twice the grid spacing; "
                "not resolvable"
            )
        if not all(
            a <= c - self.radius and c + self.radius <= b
            for (a, b), c in zip(grid.extents, self.center)
        ):
            raise ValueError(
                f"ball of radius {self.radius} at {self.center} leaves the grid"
            )
        return self


# ---------------------------------------------------------------------------
# Perimeter.


def _crossing(p0, p1, v0, v1):
    t = v0 / (v0 - v1)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _perimeter_2d(g: np.ndarray, grid: Grid, ball: BallSpec) -> float:
    """Length of the zero contour of g inside the open ball (marching cells).

    A cell whose corners a, b, c, d are not all one sign has a crossing on
    each edge ab, bc, cd, da that changes sign: two, joined by one segment,
    or four in a saddle.  A saddle's segments cut off b and d when a has
    the sign of the corner sum (a is joined to the center), else a and c.
    """
    xs, ys = grid.axes
    pos = g > 0.0
    # cells whose four corners are not all one sign
    cp = pos[:-1, :-1].astype(np.int8) + pos[1:, :-1] + pos[1:, 1:] + pos[:-1, 1:]
    mixed = (cp > 0) & (cp < 4)
    cx, cy = ball.center
    r2 = ball.radius**2
    total = 0.0
    for i, j in np.argwhere(mixed):
        corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
        ends = [((xs[k], ys[m]), g[k, m]) for k, m in corners]
        cuts = [
            _crossing(p0, p1, v0, v1)
            for (p0, v0), (p1, v1) in zip(ends, ends[1:] + ends[:1])
            if (v0 > 0) != (v1 > 0)
        ]
        va, vb, vc, vd = (v for _, v in ends)
        if len(cuts) == 4 and (va > 0) != ((va + vb + vc + vd) > 0.0):
            cuts = cuts[3:] + cuts[:3]  # pair (da, ab) and (bc, cd)
        for q1, q2 in zip(cuts[::2], cuts[1::2]):
            mx, my = 0.5 * (q1[0] + q2[0]), 0.5 * (q1[1] + q2[1])
            if (mx - cx) ** 2 + (my - cy) ** 2 < r2:
                total += math.hypot(q2[0] - q1[0], q2[1] - q1[1])
    return total


def _perimeter_1d(g: np.ndarray, grid: Grid, ball: BallSpec) -> float:
    xs = grid.axes[0]
    i = np.flatnonzero((g[:-1] > 0.0) != (g[1:] > 0.0))
    t = g[i] / (g[i] - g[i + 1])
    x = xs[i] + t * (xs[i + 1] - xs[i])
    return float(np.count_nonzero(np.abs(x - ball.center[0]) < ball.radius))


def _perimeter_3d_facecount(g: np.ndarray, grid: Grid, ball: BallSpec) -> float:
    """Staircase face-count estimate (approximate; no sub-cell resolution)."""
    pos = g > 0.0
    total = 0.0
    cx = np.array(ball.center)
    r2 = ball.radius**2
    coords = grid.coordinate_arrays()
    for a in range(3):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        flips = pos[tuple(sl_lo)] != pos[tuple(sl_hi)]
        area = np.prod([grid.spacing[b] for b in range(3) if b != a])
        mids = [
            0.5 * (coords[b][tuple(sl_lo)] + coords[b][tuple(sl_hi)])
            for b in range(3)
        ]
        d2 = sum((m - cx[b]) ** 2 for b, m in enumerate(mids))
        total += area * np.count_nonzero(flips & (d2 < r2))
    return float(total)


def relative_perimeter(field: ScalarField, ball: BallSpec) -> float:
    """Perimeter of {u > 0} inside the open ball.

    1D counts interpolated crossings, 2D sums marching-cell contour
    segments of the linear interpolant (midpoint-in-ball rule), 3D falls
    back to a staircase face count and should be read as approximate.
    """
    g = field.values
    grid = field.grid
    if grid.ndim == 1:
        return _perimeter_1d(g, grid, ball)
    if grid.ndim == 2:
        return _perimeter_2d(g, grid, ball)
    return _perimeter_3d_facecount(g, grid, ball)


# ---------------------------------------------------------------------------
# Densities, porosity, strips.


def phase_density(phase_mask: np.ndarray, ball: BallSpec, grid: Grid) -> float:
    """Fraction of closed-ball nodes lying in the phase (clamped to [0,1]).

    A pure node-count ratio: the staircase bias of the discrete ball
    cancels between numerator and denominator, and the densities of a
    set and its complement add to 1 exactly.
    """
    phase_mask = np.asarray(phase_mask)
    inside = ball.node_mask(grid, closed=True)
    total = int(np.count_nonzero(inside))
    if total == 0:
        raise ValueError("ball contains no nodes; radius below grid resolution")
    hits = int(np.count_nonzero(phase_mask & inside))
    return min(1.0, max(0.0, hits / total))


def porosity_constant(set_mask: np.ndarray, ball: BallSpec, grid: Grid) -> float:
    """Largest kappa <= 1 with a set-free sub-ball of radius kappa*r in B_r.

    Maximizes min(dist-to-set, r - |y - center|) over closed-ball nodes
    y and divides by r.  An empty set gives 1.
    """
    set_mask = np.asarray(set_mask)
    inside = ball.node_mask(grid, closed=True)
    if not inside.any():
        raise ValueError("ball contains no nodes; radius below grid resolution")
    if not set_mask.any():
        return 1.0
    dist = distance_to_set(grid, set_mask)
    room = ball.radius - np.sqrt(ball.dist_sq(grid))
    score = np.minimum(dist, room)
    best = float(np.max(score[inside]))
    return min(1.0, max(0.0, best / ball.radius))


def level_strip_energy(
    field: ScalarField, params: Params, eps: float, ball: BallSpec
) -> float:
    """Exact-density energy over the strip {0 < |u| < eps} in the open ball.

    Rounding residue (``phases.residue_floor``) counts as zero.
    """
    if eps <= 0:
        raise ValueError("strip width must be positive")
    grid = field.grid
    v = field.values
    a = np.abs(v)
    strip = (a > residue_floor(v)) & (a < eps) & ball.node_mask(grid, closed=False)
    if not strip.any():
        return 0.0
    return DiscreteEnergy(grid, params).at(v, 0.0).energy_in(strip)



# ---------------------------------------------------------------------------
# Minkowski content.


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the OLS line through (log x, log y).

    A line through fewer than two distinct abscissae has no slope: that
    raises ValueError instead of reporting the rank-deficient solution.
    """
    if np.unique(x).size < 2:
        raise ValueError("fewer than two distinct abscissae; cannot fit a power law")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class MinkowskiResult:
    """Tube-measure ladder of a node set.

    ``slope`` near 1 certifies codimension-one scaling; ``contents`` are
    the tube measures divided by 2*eps (the content estimates), reported
    per rung.
    """

    eps: tuple[float, ...]
    tube_measures: tuple[float, ...]
    contents: tuple[float, ...]
    slope: float
    r_squared: float


def minkowski_content(set_mask: np.ndarray, grid: Grid, eps_ladder) -> MinkowskiResult:
    """Measure eps-tubes around a node set and fit their scaling in eps."""
    eps = sorted((float(e) for e in eps_ladder), reverse=True)
    if len(eps) < 2:
        raise ValueError("need at least two tube widths")
    if eps[-1] < 2.0 * max(grid.spacing):
        raise ValueError("tube widths below 2h are not resolvable")
    set_mask = np.asarray(set_mask)
    if not set_mask.any():
        raise ValueError("empty set")
    dist = distance_to_set(grid, set_mask)
    measures = [grid.cell_volume * int(np.count_nonzero(dist < e)) for e in eps]
    slope, _, r2 = _loglog_fit(np.array(eps), np.array(measures))
    contents = tuple(m / (2.0 * e) for m, e in zip(measures, eps))
    return MinkowskiResult(
        eps=tuple(eps),
        tube_measures=tuple(measures),
        contents=contents,
        slope=slope,
        r_squared=r2,
    )
