"""Radius ladders, growth and nondegeneracy fits, and the dilation transport.

The central object is the rescaling ``u -> u(center + r y) / s`` together
with the induced change of the potential multiplier.  When the target
spacing divides the source spacing the transported node values are exact
(no interpolation), which is what lets the transport identity for
``s = r**(1 + tau)`` be checked to round-off rather than to grid accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField, build_grid
from .energy import DiscreteEnergy, potential_value
from .geometry import BallSpec, _loglog_fit

__all__ = [
    "GrowthProfile",
    "growth_profile",
    "FitResult",
    "fit_exponent",
    "nondegeneracy_ratio",
    "rescale",
    "scaling_identity_gap",
    "default_radius_ladder",
]


def _validate_ball(grid: Grid, center, radius: float) -> None:
    if radius < 2.0 * max(grid.spacing):
        raise ValueError(
            f"radius {radius} is below twice the grid spacing; not resolvable"
        )
    if not BallSpec(tuple(center), radius).inside_grid(grid):
        raise ValueError(f"ball of radius {radius} at {tuple(center)} leaves the grid")


@dataclass(frozen=True)
class GrowthProfile:
    """Sup and energy readings on a ladder of concentric balls."""

    center: tuple[float, ...]
    radii: tuple[float, ...]
    sup_pos: tuple[float, ...]
    sup_neg: tuple[float, ...]
    sup_abs: tuple[float, ...]
    dirichlet: tuple[float, ...]
    potential: tuple[float, ...]


def growth_profile(
    field: ScalarField, params: Params, center, radii
) -> GrowthProfile:
    """Measure sup_pos/sup_neg/sup_abs and ball energies over a radius ladder.

    Sups are taken over the closed ball, energies over the open one (the
    same convention as the transport identity).
    """
    grid = field.grid
    center = tuple(float(c) for c in center)
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("empty radius ladder")
    for r in radii:
        _validate_ball(grid, center, r)
    v = field.values
    dirichlet_state = DiscreteEnergy.dirichlet(grid, params.p).at(v, 0.0)
    pot = grid.quadrature_weights * (params.delta * potential_value(v, params))
    sup_pos, sup_neg, sup_abs, dirichlet, potential = [], [], [], [], []
    for r in radii:
        ball = BallSpec(center, r)
        closed = ball.node_mask(grid, closed=True)
        opened = ball.node_mask(grid, closed=False)
        vc = v[closed]
        sup_pos.append(float(np.max(np.maximum(vc, 0.0))))
        sup_neg.append(float(np.max(np.maximum(-vc, 0.0))))
        sup_abs.append(float(np.max(np.abs(vc))))
        dirichlet.append(dirichlet_state.energy_in(opened))
        potential.append(float(np.sum(pot[opened])))
    return GrowthProfile(
        center=center,
        radii=radii,
        sup_pos=tuple(sup_pos),
        sup_neg=tuple(sup_neg),
        sup_abs=tuple(sup_abs),
        dirichlet=tuple(dirichlet),
        potential=tuple(potential),
    )


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponent of values ~ C * r**exponent."""

    exponent: float
    prefactor: float
    r_squared: float
    n_used: int
    n_dropped: int


def fit_exponent(radii, values) -> FitResult:
    """Log-log OLS fit of a radius ladder, dropping nonpositive readings.

    At least two usable points are required.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape:
        raise ValueError("radii and values must have equal length")
    keep = values > 0.0
    n_used = int(np.count_nonzero(keep))
    if n_used < 2:
        raise ValueError("fewer than two positive readings; cannot fit exponent")
    slope, intercept, r2 = _loglog_fit(radii[keep], values[keep])
    return FitResult(
        exponent=slope,
        prefactor=math.exp(intercept),
        r_squared=r2,
        n_used=n_used,
        n_dropped=radii.size - n_used,
    )


def nondegeneracy_ratio(
    profile: GrowthProfile, params: Params, phase: str = "max"
) -> float:
    """min over the ladder of sup / r**(1 + tau) for the chosen phase.

    A ratio bounded away from zero under refinement is the quantitative
    signature that the solution does not degenerate near its null set.
    """
    if phase == "positive":
        sups = profile.sup_pos
    elif phase == "negative":
        sups = profile.sup_neg
    elif phase == "abs":
        sups = profile.sup_abs
    elif phase == "max":
        sups = tuple(max(a, b) for a, b in zip(profile.sup_pos, profile.sup_neg))
    else:
        raise ValueError("phase must be positive/negative/abs/max")
    rate = 1.0 + params.tau
    return min(s / r**rate for s, r in zip(sups, profile.radii))


def default_radius_ladder(grid: Grid, center) -> tuple[float, ...]:
    """Halving ladder R0 * 2**-j anchored at a quarter of the box size.

    R0 = min(half the distance from center to the boundary, a quarter of
    the shortest box side) and j = 0, ..., 5; rungs below twice the
    spacing are dropped.
    """
    center = tuple(float(c) for c in center)
    dist = min(
        min(c - a, b - c) for (a, b), c in zip(grid.extents, center)
    )
    if dist <= 0:
        raise ValueError("center must lie strictly inside the grid")
    size = min(b - a for a, b in grid.extents)
    r0 = min(0.5 * dist, 0.25 * size)
    floor = 2.0 * max(grid.spacing)
    radii = [r0 * 0.5**j for j in range(6)]
    radii = [r for r in radii if r >= floor]
    if len(radii) < 2:
        raise ValueError("grid too coarse for a radius ladder at this center")
    return tuple(radii)


# ---------------------------------------------------------------------------
# Dilation transport.


def rescale(
    field: ScalarField,
    params: Params,
    center,
    r: float,
    s: float,
    radius: float,
) -> tuple[ScalarField, Params]:
    """Transport ``u -> u(center + r y) / s`` onto the cube |y|_inf <= radius.

    The potential multiplier transforms as ``delta * r**p * s**(gamma - p)``,
    which is exactly the factor that makes the transported field a
    minimizer again.  The target spacing is h/r, matching the source
    spacing after dilation, so aligned dyadic choices of r sample nodes
    exactly; nearly integer sample indices are snapped to kill round-off
    before interpolation.
    """
    grid = field.grid
    if r <= 0 or s <= 0:
        raise ValueError("scale factors r and s must be positive")
    if radius <= 0:
        raise ValueError("target radius must be positive")
    center = tuple(float(c) for c in center)
    if len(center) != grid.ndim:
        raise ValueError("center dimension does not match grid")
    for (a, b), c in zip(grid.extents, center):
        pad = 1e-12 * (b - a)
        if c - r * radius < a - pad or c + r * radius > b + pad:
            raise ValueError(
                "rescale window leaves the source grid: "
                f"need [{c - r * radius}, {c + r * radius}] inside [{a}, {b}]"
            )
    resolution = tuple(int(round(2.0 * radius * r / h)) + 1 for h in grid.spacing)
    new_grid = build_grid([(-radius, radius)] * grid.ndim, resolution)
    index_axes = []
    for a in range(grid.ndim):
        x = center[a] + r * new_grid.axes[a]
        idx = (x - grid.extents[a][0]) / grid.spacing[a]
        idx = np.clip(idx, 0.0, grid.resolution[a] - 1.0)
        snap = np.round(idx)
        idx = np.where(np.abs(idx - snap) < 1e-9, snap, idx)
        index_axes.append(idx)
    from scipy.ndimage import map_coordinates

    mesh = np.meshgrid(*index_axes, indexing="ij")
    sampled = map_coordinates(
        field.values,
        np.stack([m.ravel() for m in mesh]),
        order=1,
        mode="nearest",
    ).reshape(new_grid.shape)
    vals = sampled / s
    scaled = ScalarField(
        grid=new_grid,
        values=vals,
        boundary_mask=new_grid.boundary_face_mask,
        boundary_values=vals,
    )
    factor = params.delta * r**params.p * s ** (params.gamma - params.p)
    return scaled, params.with_delta(factor)


def scaling_identity_gap(
    field: ScalarField, params: Params, center, r: float, radius: float
) -> tuple[float, float]:
    """Both sides of the transport identity at the invariant height.

    For s = r**(1 + tau) the rescaled field on the ball of radius
    ``radius / r`` carries, after multiplication by r**(N + p tau), the
    same energy as the original on the ball of radius ``radius``.
    Returns (transported, original).
    """
    grid = field.grid
    center = tuple(float(c) for c in center)
    _validate_ball(grid, center, radius)
    s = r ** (1.0 + params.tau)
    scaled, scaled_params = rescale(
        field, params, center, r, s, radius=radius / r
    )
    inner = BallSpec((0.0,) * grid.ndim, radius / r)
    lhs_region = inner.node_mask(scaled.grid, closed=False)
    rhs_region = BallSpec(center, radius).node_mask(grid, closed=False)
    power = grid.ndim + params.p * params.tau
    scaled_state = DiscreteEnergy(scaled.grid, scaled_params).at(scaled.values, 0.0)
    lhs = r**power * scaled_state.energy_in(lhs_region)
    rhs = DiscreteEnergy(grid, params).at(field.values, 0.0).energy_in(rhs_region)
    return float(lhs), float(rhs)
