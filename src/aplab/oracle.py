"""Independent reference solutions: closed forms and 1D two-phase profiles.

These are deliberately built on a different discretization than the grid
solver (exact formulas, or the inverse of a quadrature of the 1D first
integral), so grid minimizers can be checked against them without shared
code paths: the module imports nothing from aplab but ``core``.  It needs
only numpy at import; scipy's root finder loads on the first ``brentq``
call, which only a two-phase profile with C > 0 makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField

__all__ = [
    "ExactProfile",
    "one_phase_profile",
    "radial_p_harmonic",
    "ShootingSolution",
    "ShootingResult",
    "shoot_two_phase_1d",
]


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call.

    The profile looks this name up at call time, so a caller may wrap it
    (perfbench counts the root search's evaluations that way).
    """
    from scipy import optimize

    return optimize.brentq(f, a, b, **kwargs)


@dataclass(frozen=True)
class ExactProfile:
    """A closed-form reference profile.

    ``kind`` is "one_phase" (positive-phase power profile of the signed
    coordinate) or "radial_p_harmonic" (power or log of the radius).
    """

    kind: str
    beta: float
    coefficient: float
    p: float
    gamma: float | None = None
    dim: int = 1

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "one_phase":
            return self.coefficient * np.maximum(x, 0.0) ** self.beta
        if self.kind == "radial_p_harmonic":
            with np.errstate(divide="ignore"):
                if self.beta == 0.0:
                    return self.coefficient * np.log(x)
                return self.coefficient * x**self.beta
        raise ValueError(f"unknown profile kind {self.kind!r}")

    def sample(self, grid: Grid) -> ScalarField:
        """Sample on a 1D grid (one_phase profiles only)."""
        if self.kind != "one_phase" or grid.ndim != 1:
            raise ValueError("sampling is defined for one_phase profiles on 1D grids")
        vals = self.evaluate(grid.axes[0])
        mask = grid.boundary_face_mask
        return ScalarField(
            grid=grid, values=vals, boundary_mask=mask, boundary_values=vals
        )


def one_phase_profile(params: Params) -> ExactProfile:
    """Positive power profile u(x) = A (x+)^beta solving the 1D problem.

    beta = p / (p - gamma), and the coefficient solves

        A^(p-gamma) * beta^(p-1) * (beta-1) * (p-1) = gamma * delta * lam+ ,

    which is the flux balance (|u'|^(p-2) u')' = delta * F'(u) on x > 0.
    Requires delta * lambda_plus > 0.
    """
    if params.delta * params.lambda_plus <= 0.0:
        raise ValueError("one_phase_profile needs delta * lambda_plus > 0")
    p, g = params.p, params.gamma
    beta = p / (p - g)
    denom = beta ** (p - 1.0) * (beta - 1.0) * (p - 1.0)
    a = (g * params.delta * params.lambda_plus / denom) ** (1.0 / (p - g))
    return ExactProfile(
        kind="one_phase", beta=beta, coefficient=a, p=p, gamma=g, dim=1
    )


def radial_p_harmonic(dim: int, p: float) -> ExactProfile:
    """Radial p-harmonic profile: |x|^((p-N)/(p-1)), or log|x| at p = N."""
    if dim < 2:
        raise ValueError("radial profile needs dimension >= 2")
    if not (1.0 < p < math.inf):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    beta = (p - dim) / (p - 1.0)
    return ExactProfile(
        kind="radial_p_harmonic", beta=beta, coefficient=1.0, p=p, dim=dim
    )


# ---------------------------------------------------------------------------
# 1D two-phase profiles from the first integral.
#
# On an interval a minimizer of  int |u'|^p / p + delta F(u) dx  keeps
#   (p-1)/p |u'|^p - delta F(u) = C
# constant.  For data g_l <= 0 <= g_r it is nondecreasing and
# dx/du = (k (C + delta F(u)))^(-1/p), k = p/(p-1), so the profile is the
# inverse of a quadrature.  Each phase runs from its zero to its wall value
# b in t, with u = b t^m and m = p/(p - gamma): at C = 0 the integrand in t
# is constant, and for C > 0 it has a t^(m-1) cusp at t = 0, which a
# composite Gauss-Legendre rule on panels graded geometrically toward t = 0
# resolves.

_PANEL_RATIO = 0.25
_N_PANELS = 28  # the innermost panel, [0, 0.25^27], ends below 1e-16
_N_GAUSS = 16


@dataclass(frozen=True)
class ShootingSolution:
    """The two-phase profile on ``n_out`` equispaced nodes."""

    initial_flux: float
    x: np.ndarray
    u: np.ndarray
    flux: np.ndarray
    boundary_mismatch: float
    quadrature_error: float
    energy: float


@dataclass(frozen=True)
class ShootingResult:
    solutions: tuple[ShootingSolution, ...]

    @property
    def primary(self) -> ShootingSolution:
        return self.solutions[0]


def _rising_profile(x, walls, p, gamma, n_gauss):
    """(u, C, energy) of the nondecreasing profile on the nodes ``x``.

    ``walls`` holds (b, delta * lambda) of the left phase, u(x[0]) = -b,
    and of the right phase, u(x[-1]) = b."""
    m, k = p / (p - gamma), p / (p - 1.0)
    length = x[-1] - x[0]
    edges = np.append(0.0, _PANEL_RATIO ** np.arange(_N_PANELS - 1, -1, -1.0))
    z, wz = np.polynomial.legendre.leggauss(n_gauss)
    half = 0.5 * np.diff(edges)[:, None]
    t, w = edges[:-1, None] + half * (1.0 + z), half * wz

    def dxdt(c, t, b, dl):
        if c == 0.0:  # constant after the substitution
            return np.full_like(t, b * m * (k * dl * b**gamma) ** (-1.0 / p))
        pot = dl * (b * t**m) ** gamma
        return b * m * t ** (m - 1.0) * (k * (c + pot)) ** (-1.0 / p)

    def travel(c):
        return sum(np.sum(w * dxdt(c, t, b, dl)) for b, dl in walls if b > 0.0)

    c = 0.0
    if any(b > 0.0 and dl == 0.0 for b, dl in walls) or travel(c) > length:
        # T(C) <= B (kC)^(-1/p), B the sum of the b, with equality for a
        # phase without potential: so T(lo) > L > T(hi)
        hi = 2.0 * (sum(b for b, _ in walls) / length) ** p / k
        lo = max([0.5 * (b / length) ** p / k for b, dl in walls if dl == 0.0],
                 default=0.0)
        c = brentq(lambda c: travel(c) - length, lo, hi, xtol=1e-15 * hi)

    u, energy = np.zeros_like(x), 0.0
    for side, (b, dl) in zip((-1.0, 1.0), walls):
        if b == 0.0:
            continue
        dx = w * dxdt(c, t, b, dl)
        xe = np.append(0.0, np.cumsum(np.sum(dx, axis=1)))  # X at the panel edges
        pot = dl * (b * t**m) ** gamma  # delta F = (p-1)/p |u'|^p - C
        energy += float(np.sum(((c + pot) / (p - 1.0) + pot) * dx))
        # Newton on X(t) = y, y the distance from the phase's zero, started
        # at the right end of y's panel: X is convex, so the iterates fall
        y = side * (x - (x[0] + xe[-1] if side < 0 else x[-1] - xe[-1]))
        on = y > 0.0
        j = np.clip(np.searchsorted(xe, y[on]), 1, _N_PANELS)
        tt = edges[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(100):
                span = 0.5 * (edges[j] - tt)
                rest = dxdt(c, tt[:, None] + span[:, None] * (1.0 + z), b, dl) @ wz
                step = (xe[j] - span * rest - y[on]) / dxdt(c, tt, b, dl)
                new = np.fmax(np.fmin(tt - step, tt), edges[j - 1])
                if np.array_equal(new, tt):
                    break
                tt = new
        u[on] = side * b * tt**m
    return u, c, energy


def shoot_two_phase_1d(
    params: Params,
    g_left: float,
    g_right: float,
    interval: tuple[float, float] = (-1.0, 1.0),
    n_out: int = 257,
) -> ShootingResult:
    """Solve the 1D two-phase problem through its first integral.

    Opposite-sign data (g_left <= 0 <= g_right, or its mirror image under
    u -> -u with the phase weights swapped) has exactly one critical point:
    a turning point u* would force C = -delta F(u*) <= 0, a zero crossing
    C >= 0.  The travel length T(C), the integral of dx/du over both
    phases, falls strictly in C >= 0: if T(0) <= L the profile has C = 0
    and a dead core of length L - T(0), else ``brentq`` finds the C > 0
    with T(C) = L.  ``quadrature_error`` is the largest change of ``u``
    when the rule's Gauss points per panel are doubled.
    """
    xa, xb = float(interval[0]), float(interval[1])
    if not xb > xa:
        raise ValueError("interval must be increasing")
    if n_out < 2:
        raise ValueError("n_out must be >= 2")
    if g_left * g_right > 0.0:
        raise ValueError("same-sign data: the profile turns inside the interval, "
                         "and the turning-point branch is not constructed")
    p, delta = params.p, params.delta
    sign, lam = 1.0, (params.lambda_minus, params.lambda_plus)
    if g_left > g_right:  # u -> -u, which swaps the phase weights
        sign, lam = -1.0, lam[::-1]
    walls = [(abs(g_left), delta * lam[0]), (abs(g_right), delta * lam[1])]
    x = np.linspace(xa, xb, n_out)
    u, c, energy = _rising_profile(x, walls, p, params.gamma, _N_GAUSS)
    u_fine = _rising_profile(x, walls, p, params.gamma, 2 * _N_GAUSS)[0]
    u, u_fine = sign * u, sign * u_fine
    # |u'|^(p-1) = (k (C + delta F(u)))^((p-1)/p) by the first integral
    pot = delta * potential_value_exact(u, params)
    flux = sign * (p / (p - 1.0) * (c + pot)) ** ((p - 1.0) / p)
    sol = ShootingSolution(
        initial_flux=float(flux[0]), x=x, u=u, flux=flux,
        boundary_mismatch=float(abs(u[-1] - g_right)),
        quadrature_error=float(np.max(np.abs(u_fine - u))), energy=energy,
    )
    return ShootingResult(solutions=(sol,))


def potential_value_exact(u: np.ndarray, params: Params) -> np.ndarray:
    """Unsmoothed potential F(u) (the two-phase flux uses it)."""
    up = np.maximum(u, 0.0)
    um = np.maximum(-u, 0.0)
    return params.lambda_plus * up**params.gamma + params.lambda_minus * um**params.gamma
