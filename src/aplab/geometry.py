"""Measure-theoretic diagnostics of the free boundary.

Each of the three regularity properties probed has a reading here:
finite perimeter (``relative_perimeter``), density bounds
(``phase_density``, with ``porosity_constant`` for the null set), and
codimension-one size, read off the slope of the tube measures in
``minkowski_content``.
``level_strip_energy`` measures the energy near the zero level.

A run reads one solved field ball after ball and width after width, so
each reader computes its field-wide part once and holds it for the next
call on the same field: the 1D crossings, the 2D contour segments, the 3D
sign-change faces, the distance transform of a read-only set, and the
exact-density state of the strip.  Only the per-ball selection and sum run
per call, so every reading is bit for bit that of a fresh computation.

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
# Per-field quantities, computed once.

# The last value of each kind of per-field quantity, with weak references
# to the objects it was computed from.  A run reads one solved field and its
# read-only masks ball after ball and width after width, so one entry per
# kind is all it reuses, and an entry goes when one of its objects does.
# Keys compare by identity, which is sound for objects that cannot change:
# a ScalarField, a Grid, Params, and arrays that are read-only and own their
# data (``_fixed``).
_held: dict[str, tuple[tuple, object]] = {}


def _once(kind: str, compute, *key):
    """``compute(*key)``, computed once while ``key`` is the held key of
    ``kind``."""
    import weakref

    held = _held.get(kind)
    if held is not None and all(ref() is k for ref, k in zip(held[0], key)):
        return held[1]
    value = compute(*key)
    _held[kind] = (tuple(weakref.ref(k, _forget) for k in key), value)
    return value


def _forget(dead) -> None:
    """Drop the entry whose key held the object of weak reference ``dead``."""
    for kind, (refs, _) in list(_held.items()):
        if any(ref is dead for ref in refs):
            del _held[kind]


def _fixed(arr: np.ndarray) -> bool:
    """True for a read-only array that owns its data, so that no writeable
    view of it exists."""
    return not arr.flags.writeable and arr.base is None


def _distance(grid: Grid, set_mask: np.ndarray) -> np.ndarray:
    """``distance_to_set(grid, set_mask)``, once per read-only set."""
    if not _fixed(set_mask):
        return distance_to_set(grid, set_mask)
    return _once("distance", distance_to_set, grid, set_mask)


# ---------------------------------------------------------------------------
# Perimeter.


def _contour_2d(field: ScalarField) -> list[tuple[float, float, float]]:
    """The zero contour of the field's linear interpolant (marching cells):
    (midpoint x, midpoint y, length) per segment, mixed cells in row-major
    order.

    A cell whose corners a, b, c, d are not all one sign has a crossing
    p0 + t (p1 - p0), t = v0 / (v0 - v1), on each edge ab, bc, cd, da that
    changes sign: two, joined by one segment, or four in a saddle.  A
    saddle's segments cut off b and d when a has the sign of the corner sum
    a + b + c + d (a is joined to the center), else a and c.
    """
    g = field.values
    xs, ys = field.grid.axes
    pos = g > 0.0
    # cells whose four corners are not all one sign
    cp = pos[:-1, :-1].astype(np.int8) + pos[1:, :-1] + pos[1:, 1:] + pos[:-1, 1:]
    i, j = np.nonzero((cp > 0) & (cp < 4))
    # corner k of each cell, k = a, b, c, d; edge k runs from corner k to k + 1
    px = np.stack((xs[i], xs[i + 1], xs[i + 1], xs[i]), axis=1)
    py = np.stack((ys[j], ys[j], ys[j + 1], ys[j + 1]), axis=1)
    v = np.stack((g[i, j], g[i + 1, j], g[i + 1, j + 1], g[i, j + 1]), axis=1)
    px1, py1, v1 = (np.roll(x, -1, axis=1) for x in (px, py, v))
    cut = (v > 0.0) != (v1 > 0.0)
    t = np.divide(v, v - v1, out=np.zeros_like(v), where=cut)
    qx = px + t * (px1 - px)
    qy = py + t * (py1 - py)
    # each cell's crossings in edge order, a saddle's from da when it turns
    four = cut.all(axis=1)
    turn = four & ((v[:, 0] > 0) != ((v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) > 0.0))
    order = np.argsort(~cut, axis=1, kind="stable")
    order[turn] = (3, 0, 1, 2)
    qx = np.take_along_axis(qx, order, axis=1)
    qy = np.take_along_axis(qy, order, axis=1)
    # segments join crossings 0-1 and, in a saddle, 2-3
    kept = np.stack((np.ones_like(four), four), axis=1)
    x1, x2 = qx[:, 0::2][kept], qx[:, 1::2][kept]
    y1, y2 = qy[:, 0::2][kept], qy[:, 1::2][kept]
    return list(zip(
        (0.5 * (x1 + x2)).tolist(),
        (0.5 * (y1 + y2)).tolist(),
        map(math.hypot, (x2 - x1).tolist(), (y2 - y1).tolist()),
    ))


def _perimeter_2d(field: ScalarField, ball: BallSpec) -> float:
    """Length of the contour segments whose midpoint is in the open ball,
    added left to right in contour order.  The test squares with a float's
    ``** 2``, libm's pow, which differs by an ulp from numpy's x * x square
    of an array on about one value in a thousand."""
    cx, cy = ball.center
    r2 = ball.radius**2
    total = 0.0
    for mx, my, length in _once("contour", _contour_2d, field):
        if (mx - cx) ** 2 + (my - cy) ** 2 < r2:
            total += length
    return total


def _crossings_1d(field: ScalarField) -> np.ndarray:
    """The interpolated sign changes of a 1D field."""
    g = field.values
    xs = field.grid.axes[0]
    i = np.flatnonzero((g[:-1] > 0.0) != (g[1:] > 0.0))
    t = g[i] / (g[i] - g[i + 1])
    return xs[i] + t * (xs[i + 1] - xs[i])


def _perimeter_1d(field: ScalarField, ball: BallSpec) -> float:
    x = _once("crossings", _crossings_1d, field)
    return float(np.count_nonzero(np.abs(x - ball.center[0]) < ball.radius))


def _faces_3d(field: ScalarField) -> list[tuple[float, list[np.ndarray]]]:
    """Per axis, the face area and the center coordinates of every face
    between nodes of opposite sign."""
    grid = field.grid
    pos = field.values > 0.0
    coords = grid.coordinate_arrays()
    faces = []
    for a in range(3):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        flips = pos[tuple(sl_lo)] != pos[tuple(sl_hi)]
        area = np.prod([grid.spacing[b] for b in range(3) if b != a])
        mids = [
            0.5 * (coords[b][tuple(sl_lo)][flips] + coords[b][tuple(sl_hi)][flips])
            for b in range(3)
        ]
        faces.append((area, mids))
    return faces


def _perimeter_3d_facecount(field: ScalarField, ball: BallSpec) -> float:
    """Staircase face-count estimate (approximate; no sub-cell resolution)."""
    total = 0.0
    cx = np.array(ball.center)
    r2 = ball.radius**2
    for area, mids in _once("faces", _faces_3d, field):
        d2 = sum((m - cx[b]) ** 2 for b, m in enumerate(mids))
        total += area * np.count_nonzero(d2 < r2)
    return float(total)


def relative_perimeter(field: ScalarField, ball: BallSpec) -> float:
    """Perimeter of {u > 0} inside the open ball.

    1D counts interpolated crossings, 2D sums marching-cell contour
    segments of the linear interpolant (midpoint-in-ball rule), 3D falls
    back to a staircase face count and should be read as approximate.
    The crossings, contour or faces are found once per field.
    """
    ndim = field.grid.ndim
    if ndim == 1:
        return _perimeter_1d(field, ball)
    if ndim == 2:
        return _perimeter_2d(field, ball)
    return _perimeter_3d_facecount(field, ball)


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
    dist = _distance(grid, set_mask)
    room = ball.radius - np.sqrt(ball.dist_sq(grid))
    score = np.minimum(dist, room)
    best = float(np.max(score[inside]))
    return min(1.0, max(0.0, best / ball.radius))


def level_strip_energy(
    field: ScalarField, params: Params, eps: float, ball: BallSpec
) -> float:
    """Exact-density energy over the strip {0 < |u| < eps} in the open ball.

    Rounding residue (``phases.residue_floor``) counts as zero.  The
    exact-density state of the field is built once per field and params.
    """
    if eps <= 0:
        raise ValueError("strip width must be positive")
    grid = field.grid
    v = field.values
    a = np.abs(v)
    strip = (a > residue_floor(v)) & (a < eps) & ball.node_mask(grid, closed=False)
    if not strip.any():
        return 0.0
    return _once("exact", _exact_state, field, params).energy_in(strip)


def _exact_state(field: ScalarField, params: Params):
    """The field's state at eps = 0 (exact density)."""
    return DiscreteEnergy(field.grid, params).at(field.values, 0.0)


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
    dist = _distance(grid, set_mask)
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
