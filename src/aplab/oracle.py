"""Independent reference solutions: closed-form profiles and a 1D shooter.

These are deliberately built on a different discretization than the grid
solver (exact formulas, or a fixed-step RK4 integration of the first-order
system in (u, flux)), so grid minimizers can be checked against them
without shared code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import Grid, Params, ScalarField

__all__ = [
    "ExactProfile",
    "one_phase_profile",
    "radial_p_harmonic",
    "ShootingSolution",
    "ShootingResult",
    "shoot_two_phase_1d",
]


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

    def sample(self, grid: Grid, center: float = 0.0) -> ScalarField:
        """Sample on a 1D grid (one_phase profiles only)."""
        if self.kind != "one_phase" or grid.ndim != 1:
            raise ValueError("sampling is defined for one_phase profiles on 1D grids")
        vals = self.evaluate(grid.axes[0] - center)
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
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    beta = (p - dim) / (p - 1.0)
    return ExactProfile(
        kind="radial_p_harmonic", beta=beta, coefficient=1.0, p=p, dim=dim
    )


# ---------------------------------------------------------------------------
# 1D two-phase shooting.
#
# First-order system in (u, q) with the flux q = |u'|^(p-2) u':
#   u' = sign(q) |q|^(1/(p-1)),   q' = delta * F_eps'(u),
# integrated with classical fixed-step RK4 (reproducible; no adaptivity),
# and the initial flux matched to the right boundary value by bracketed
# root finding.  Every bracketed match is returned.

# smoothing width of F_eps' on the right-hand side
_EPS_POT = 1e-8
# a root is a match when its endpoint misses the right boundary value by at
# most MATCH_TOL * (1 + |g_right - g_left|); anything larger is a jump of the
# endpoint map that the root finder closed in on
MATCH_TOL = 1e-8


def _integrate(u0, q0, h, n_steps, p, gamma, lamp, lamm, delta):
    """Fixed-step RK4 from (u0, q0); returns the trajectory (u_k), (q_k)."""
    inv = 1.0 / (p - 1.0)
    e2 = _EPS_POT * _EPS_POT
    ex = 0.5 * gamma - 1.0
    rec_u = np.empty(n_steps + 1)
    rec_q = np.empty(n_steps + 1)
    u = u0
    q = q0
    rec_u[0] = u
    rec_q[0] = q
    for k in range(n_steps):
        # RK4 on f(u, q) = (sign(q)|q|^inv, delta * F'(u)), stages unrolled
        du1 = abs(q) ** inv if q > 0 else (-(abs(q) ** inv) if q < 0 else 0.0)
        vp = u if u > 0 else 0.0
        vm = -u if u < 0 else 0.0
        dq1 = delta * gamma * (
            lamp * vp * (vp * vp + e2) ** ex - lamm * vm * (vm * vm + e2) ** ex
        )
        ua = u + 0.5 * h * du1
        qa = q + 0.5 * h * dq1
        du2 = abs(qa) ** inv if qa > 0 else (-(abs(qa) ** inv) if qa < 0 else 0.0)
        vp = ua if ua > 0 else 0.0
        vm = -ua if ua < 0 else 0.0
        dq2 = delta * gamma * (
            lamp * vp * (vp * vp + e2) ** ex - lamm * vm * (vm * vm + e2) ** ex
        )
        ub = u + 0.5 * h * du2
        qb = q + 0.5 * h * dq2
        du3 = abs(qb) ** inv if qb > 0 else (-(abs(qb) ** inv) if qb < 0 else 0.0)
        vp = ub if ub > 0 else 0.0
        vm = -ub if ub < 0 else 0.0
        dq3 = delta * gamma * (
            lamp * vp * (vp * vp + e2) ** ex - lamm * vm * (vm * vm + e2) ** ex
        )
        uc = u + h * du3
        qc = q + h * dq3
        du4 = abs(qc) ** inv if qc > 0 else (-(abs(qc) ** inv) if qc < 0 else 0.0)
        vp = uc if uc > 0 else 0.0
        vm = -uc if uc < 0 else 0.0
        dq4 = delta * gamma * (
            lamp * vp * (vp * vp + e2) ** ex - lamm * vm * (vm * vm + e2) ** ex
        )
        u = u + h * (du1 + 2.0 * du2 + 2.0 * du3 + du4) / 6.0
        q = q + h * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4) / 6.0
        rec_u[k + 1] = u
        rec_q[k + 1] = q
    return rec_u, rec_q


@dataclass(frozen=True)
class ShootingSolution:
    """One matched trajectory of the two-phase boundary value problem."""

    initial_flux: float
    x: np.ndarray
    u: np.ndarray
    flux: np.ndarray
    boundary_mismatch: float
    richardson_error: float
    energy: float

    def field(self) -> ScalarField:
        grid = Grid(
            extents=((float(self.x[0]), float(self.x[-1])),),
            resolution=(len(self.x),),
        )
        return ScalarField(
            grid=grid,
            values=self.u,
            boundary_mask=grid.boundary_face_mask,
            boundary_values=self.u,
        )


@dataclass(frozen=True)
class ShootingResult:
    solutions: tuple[ShootingSolution, ...]

    @property
    def primary(self) -> ShootingSolution:
        return self.solutions[0]


def shoot_two_phase_1d(
    params: Params,
    g_left: float,
    g_right: float,
    interval: tuple[float, float] = (-1.0, 1.0),
    n_out: int = 257,
    h_ode: float | None = None,
    n_scan: int = 97,
    scan_span: float | None = None,
) -> ShootingResult:
    """Solve the 1D two-phase problem by shooting on the initial flux.

    A coarse scan brackets the sign changes of the endpoint mismatch over a
    window of initial fluxes; each bracket is polished by bracketed root
    finding at the full step count (default step 1e-5 * interval length).
    Every root that matches the right boundary value to ``MATCH_TOL`` is
    returned, lowest energy first.  ``richardson_error`` is the endpoint
    shift under step halving.
    """
    xa, xb = float(interval[0]), float(interval[1])
    if not xb > xa:
        raise ValueError("interval must be increasing")
    if n_out < 2:
        raise ValueError("n_out must be >= 2")
    length = xb - xa
    if h_ode is None:
        h_ode = 1e-5 * length
    n_seg = n_out - 1
    steps_per_seg = max(1, math.ceil(length / h_ode / n_seg))
    n_steps = steps_per_seg * n_seg
    h = length / n_steps
    rhs = (params.p, params.gamma, params.lambda_plus, params.lambda_minus,
           params.delta)

    m0 = (g_right - g_left) / length
    q_center = float(np.sign(m0) * abs(m0) ** (params.p - 1.0))
    if scan_span is None:
        scan_span = 8.0 * (1.0 + abs(q_center))
    q0s = q_center + np.linspace(-scan_span, scan_span, n_scan)

    # a fine run shorter than the scan's 2000 steps is scanned at full step
    n_coarse = min(n_steps, max(2000, n_steps // 100))
    resid = np.empty(n_scan)
    for i, q0 in enumerate(q0s):
        try:
            u_end = _integrate(g_left, float(q0), length / n_coarse, n_coarse,
                               *rhs)[0][-1]
        except OverflowError:  # a float power past the float range
            u_end = math.nan
        resid[i] = u_end - g_right
    ok = np.isfinite(resid)

    def endpoint(q0: float) -> float:
        return _integrate(g_left, q0, h, n_steps, *rhs)[0][-1] - g_right

    brackets = []
    for i in range(n_scan - 1):
        if ok[i] and ok[i + 1] and resid[i] * resid[i + 1] <= 0.0:
            if resid[i] == 0.0 and resid[i + 1] == 0.0:
                continue
            brackets.append((float(q0s[i]), float(q0s[i + 1])))
    if not brackets:
        raise ValueError(
            "no root bracketed: scanned initial fluxes in "
            f"[{q0s[0]:.6g}, {q0s[-1]:.6g}] never match the right boundary value"
        )

    tol = MATCH_TOL * (1.0 + abs(g_right - g_left))
    solutions = []
    seen = []
    for qa, qb in brackets:
        try:
            q_root = brentq(endpoint, qa, qb, xtol=1e-14, rtol=8.9e-16)
        except ValueError:
            continue  # no sign change at full accuracy
        if any(abs(q_root - s) <= 1e-10 * (1.0 + abs(q_root)) for s in seen):
            continue
        seen.append(q_root)

        u, q = _integrate(g_left, q_root, h, n_steps, *rhs)
        mismatch = abs(u[-1] - g_right)
        if not mismatch <= tol:
            continue  # a jump of the endpoint map, not a root
        u_half, _ = _integrate(g_left, q_root, 0.5 * h, 2 * n_steps, *rhs)
        rich = abs(u_half[-1] - u[-1])

        x_fine = xa + h * np.arange(n_steps + 1)
        dens = np.abs(q) ** (params.p / (params.p - 1.0)) / params.p + (
            params.delta * potential_value_exact(u, params)
        )
        energy = float(np.trapezoid(dens, x_fine))

        solutions.append(
            ShootingSolution(
                initial_flux=float(q_root),
                x=x_fine[::steps_per_seg].copy(),
                u=u[::steps_per_seg].copy(),
                flux=q[::steps_per_seg].copy(),
                boundary_mismatch=float(mismatch),
                richardson_error=float(rich),
                energy=energy,
            )
        )

    if not solutions:
        raise ValueError(
            "no bracket holds a match at full accuracy: each one dissolved or "
            f"closed on a jump of the endpoint map (tolerance {tol:.3g})"
        )
    solutions.sort(key=lambda s: (s.energy, s.initial_flux))
    return ShootingResult(solutions=tuple(solutions))


def potential_value_exact(u: np.ndarray, params: Params) -> np.ndarray:
    """Unsmoothed potential along a trajectory (the shooter's energy uses it)."""
    up = np.maximum(u, 0.0)
    um = np.maximum(-u, 0.0)
    return params.lambda_plus * up**params.gamma + params.lambda_minus * um**params.gamma
