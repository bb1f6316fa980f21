"""Radius ladders, growth and nondegeneracy fits, and the dilation transport.

The central object is the rescaling ``u -> u(center + r y) / s`` together
with the induced change of the potential multiplier.  The target spacing
is h/r, so the transported nodes are source nodes of a window on the
lattice, renamed: no interpolation enters, which is what lets the
transport identity for ``s = r**(1 + tau)`` be checked to round-off
rather than to grid accuracy, for any r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField, build_grid
from .energy import DiscreteEnergy
from .geometry import BallSpec, _exact_state, _loglog_fit, _once

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


def _scale(r: float, k: float, reading: str) -> float:
    """r**k, or ValueError naming ``reading`` if it is not a positive float."""
    try:
        out = r**k
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise ValueError(f"{reading}: r**{k:g} at r = {r:g} leaves the float range")
    return out


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
    same convention as the transport identity).  The energies read the
    field's exact-density state, which the strip energy and the scaling
    identity share.
    """
    grid = field.grid
    center = tuple(float(c) for c in center)
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("empty radius ladder")
    balls = [BallSpec(center, r).within(grid) for r in radii]
    v = field.values
    state = _once("exact", _exact_state, field, params)
    w = grid.quadrature_weights
    dir_w = w * state.dirichlet
    pot_w = w * (params.delta * state.potential)
    sup_pos, sup_neg, sup_abs, dirichlet, potential = [], [], [], [], []
    for ball in balls:
        closed = ball.node_mask(grid, closed=True)
        opened = ball.node_mask(grid, closed=False)
        vc = v[closed]
        sup_pos.append(float(np.max(np.maximum(vc, 0.0))))
        sup_neg.append(float(np.max(np.maximum(-vc, 0.0))))
        sup_abs.append(float(np.max(np.abs(vc))))
        dirichlet.append(float(np.sum(dir_w[opened])))
        potential.append(float(np.sum(pot_w[opened])))
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
    An r**(1 + tau) out of the float range (gamma near p) raises ValueError.
    """
    if phase == "positive":
        sups = profile.sup_pos
    elif phase == "negative":
        sups = profile.sup_neg
    elif phase == "max":
        sups = tuple(max(a, b) for a, b in zip(profile.sup_pos, profile.sup_neg))
    else:
        raise ValueError("phase must be positive/negative/max")
    rate = 1.0 + params.tau
    return min(
        s / _scale(r, rate, "nondegeneracy ratio") for s, r in zip(sups, profile.radii)
    )


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
    spacing after dilation, so the target nodes are the source nodes of the
    window ``center +- r * radius``, read off the lattice.  The window's low
    corner and width must therefore be whole numbers of spacings (to 1e-9
    of a spacing), or ``ValueError`` is raised.
    """
    grid = field.grid
    if r <= 0 or s <= 0:
        raise ValueError("scale factors r and s must be positive")
    if radius <= 0:
        raise ValueError("target radius must be positive")
    center = tuple(float(c) for c in center)
    if len(center) != grid.ndim:
        raise ValueError("center dimension does not match grid")
    window = []
    for (a, b), c, h in zip(grid.extents, center, grid.spacing):
        pad = 1e-12 * (b - a)
        if c - r * radius < a - pad or c + r * radius > b + pad:
            raise ValueError(
                "rescale window leaves the source grid: "
                f"need [{c - r * radius}, {c + r * radius}] inside [{a}, {b}]"
            )
        lo, width = (c - r * radius - a) / h, 2.0 * r * radius / h
        if max(abs(lo - round(lo)), abs(width - round(width))) > 1e-9:
            raise ValueError(
                f"rescale window [{c - r * radius}, {c + r * radius}] is off the "
                f"source lattice: its ends must be whole spacings {h} from {a}"
            )
        window.append(slice(round(lo), round(lo) + round(width) + 1))
    vals = field.values[tuple(window)] / s
    new_grid = build_grid([(-radius, radius)] * grid.ndim, vals.shape)
    scaled = ScalarField(new_grid, vals, new_grid.boundary_face_mask, vals)
    factor = params.delta * r**params.p * s ** (params.gamma - params.p)
    return scaled, params.with_delta(factor)


def scaling_identity_gap(
    field: ScalarField, params: Params, center, r: float, radius: float
) -> tuple[float, float]:
    """Both sides of the transport identity at the invariant height.

    For s = r**(1 + tau) the rescaled field on the ball of radius
    ``radius / r`` carries, after multiplication by r**(N + p tau), the
    same energy as the original on the ball of radius ``radius``.
    Returns (transported, original).  An r**(1 + tau) or r**(N + p tau)
    out of the float range (gamma near p) raises ValueError.  The
    original side reads the field's exact-density state, which depends on
    neither r nor the rescaled field and is built once per field and
    params, the one ``geometry.level_strip_energy`` reads.
    """
    grid = field.grid
    center = tuple(float(c) for c in center)
    ball = BallSpec(center, radius).within(grid)
    s = _scale(r, 1.0 + params.tau, "scaling identity")
    weight = _scale(r, grid.ndim + params.p * params.tau, "scaling identity")
    scaled, scaled_params = rescale(
        field, params, center, r, s, radius=radius / r
    )
    inner = BallSpec((0.0,) * grid.ndim, radius / r)
    lhs_region = inner.node_mask(scaled.grid, closed=False)
    rhs_region = ball.node_mask(grid, closed=False)
    scaled_state = DiscreteEnergy(scaled.grid, scaled_params).at(scaled.values, 0.0)
    lhs = weight * scaled_state.energy_in(lhs_region)
    rhs = _once("exact", _exact_state, field, params).energy_in(rhs_region)
    return float(lhs), float(rhs)
