"""Discrete two-phase power-potential energy and its first variation.

The functional on a grid field u is

    J(u) = sum_i w_i * ( phi(q_i) + delta * F(u_i) ),

with trapezoidal weights w, the node gradient-square

    q_i = sum_axes ( mean of the squared one-sided differences at i ),

phi(q) = ((q + eps^2)^(p/2) - eps^p) / p, and the smoothed two-phase
potential

    F(v) = lam+ * ((v+^2 + eps^2)^(g/2) - eps^g)  +  (- part).

Averaging forward and backward differences per axis (instead of a central
difference) keeps the discrete Dirichlet form free of odd/even sublattice
decoupling: at p = 2 it reduces edge-by-edge to the classical second-order
form, and it is exact on affine fields for every p.  One width eps >= 0
smooths both the potential and the gradient norm; both smoothings are
anchored so that the density vanishes where grad u = 0 and u = 0, for any
eps, and eps = 0 gives the exact density.

``DiscreteEnergy`` evaluates all of this from one q per iterate.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, Params, ScalarField

__all__ = [
    "DiscreteEnergy",
    "potential_value",
    "potential_derivative",
    "potential_curvature",
    "el_residual",
]


def potential_value(v, params: Params, eps: float = 0.0):
    """Two-phase potential F(v), optionally smoothed with width eps.

    Vectorized over arrays.  F(0) = 0 for every eps, and the smoothed
    value decreases to the exact one as eps -> 0.
    """
    v = np.asarray(v, dtype=float)
    g = params.gamma
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    if eps == 0.0:
        return params.lambda_plus * vp**g + params.lambda_minus * vm**g
    e2 = eps * eps
    eg = eps**g
    return params.lambda_plus * ((vp * vp + e2) ** (0.5 * g) - eg) + (
        params.lambda_minus * ((vm * vm + e2) ** (0.5 * g) - eg)
    )


def potential_derivative(v, params: Params, eps: float = 0.0):
    """dF/dv, the two-phase reaction term; zero at v = 0 by definition."""
    v = np.asarray(v, dtype=float)
    g = params.gamma
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    if eps == 0.0:
        out = np.zeros_like(v)
        pos = v > 0.0
        neg = v < 0.0
        out[pos] = params.lambda_plus * g * vp[pos] ** (g - 1.0)
        out[neg] = -params.lambda_minus * g * vm[neg] ** (g - 1.0)
        return out
    e2 = eps * eps
    dplus = params.lambda_plus * g * vp * (vp * vp + e2) ** (0.5 * g - 1.0)
    dminus = params.lambda_minus * g * vm * (vm * vm + e2) ** (0.5 * g - 1.0)
    return dplus - dminus


def potential_curvature(v, params: Params, eps: float) -> np.ndarray:
    """d2F/dv2 of the smoothed potential (eps > 0 required)."""
    if eps <= 0.0:
        raise ValueError("potential_curvature needs eps > 0")
    v = np.asarray(v, dtype=float)
    g = params.gamma
    e2 = eps * eps
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    cp = params.lambda_plus * g * (vp * vp + e2) ** (0.5 * g - 2.0) * (
        e2 + (g - 1.0) * vp * vp
    )
    cm = params.lambda_minus * g * (vm * vm + e2) ** (0.5 * g - 2.0) * (
        e2 + (g - 1.0) * vm * vm
    )
    cp = np.where(v >= 0.0, cp, 0.0)
    cm = np.where(v <= 0.0, cm, 0.0)
    return cp + cm


def _axis(grid: Grid, a: int) -> tuple:
    """The edges along axis ``a``: (lo, hi, cplus, cminus, h).

    ``lo``/``hi`` slice out the lower/upper node of every edge, and
    ``cplus``/``cminus`` weigh the edge's square at that node.  Interior
    nodes average both differences (1/2 each); the first and last node
    carry the only available difference with weight 1.
    """
    n = grid.resolution[a]
    cplus = np.full(n - 1, 0.5)
    cplus[0] = 1.0
    cminus = cplus[::-1]  # the mirror image: weight 1 at the last node
    along = (-1,) + (1,) * (grid.ndim - 1 - a)  # broadcasts along axis a
    lead = (slice(None),) * a
    return (
        lead + (slice(0, n - 1),), lead + (slice(1, n),),
        cplus.reshape(along), cminus.reshape(along), grid.spacing[a],
    )


def _phi(q: np.ndarray, p: float, eps: float) -> np.ndarray:
    if eps == 0.0:
        return q ** (0.5 * p) / p
    e2 = eps * eps
    return ((q + e2) ** (0.5 * p) - eps**p) / p


def _psi(q: np.ndarray, p: float, eps: float) -> np.ndarray:
    """phi'(q) = (q + eps^2)^((p-2)/2) / 2."""
    if eps == 0.0:
        if p < 2.0 and np.any(q == 0.0):
            raise ValueError(
                "p < 2 with eps = 0 hits a zero-gradient node; "
                "use a positive smoothing width"
            )
        return 0.5 * q ** (0.5 * p - 1.0)
    return 0.5 * (q + eps * eps) ** (0.5 * p - 1.0)


def _width(eps: float) -> float:
    if eps < 0:
        raise ValueError("smoothing width must be >= 0")
    return eps


class DiscreteEnergy:
    """The discrete energy of one grid and parameter set.

    Built once per problem, it holds the quadrature weights and each
    axis's edge slices and one-sided weights.  The energy, its gradient
    and the edge conductances of an iterate u all derive from one node
    gradient-square ``q = grad_sq(u)``, which does not depend on the
    smoothing width ``eps``.  Node arrays are grid-shaped, and every sum
    runs over the full grid.
    """

    def __init__(self, grid: Grid, params: Params):
        self.grid = grid
        self.params = params
        self.weights = grid.quadrature_weights
        self.axes = tuple(_axis(grid, a) for a in range(grid.ndim))

    @classmethod
    def dirichlet(cls, grid: Grid, p: float) -> "DiscreteEnergy":
        """The kernel of the Dirichlet term alone (no potential)."""
        return cls(
            grid,
            Params(p=p, gamma=1.0, lambda_plus=0.0, lambda_minus=0.0, delta=0.0,
                   alpha_p=1.0),
        )

    def grad_sq(self, u: np.ndarray) -> np.ndarray:
        """|grad u|^2 at nodes from averaged one-sided differences."""
        q = np.zeros(self.grid.shape)
        for lo, hi, cplus, cminus, h in self.axes:
            d = (u[hi] - u[lo]) / h
            dsq = d * d
            q[lo] += cplus * dsq
            q[hi] += cminus * dsq
        return q

    def energy(self, u: np.ndarray, q: np.ndarray, eps: float,
               region: np.ndarray | None = None) -> float:
        """Quadrature value of the energy smoothed with width ``eps``.

        ``region`` is a non-empty boolean node mask of grid shape that
        restricts the trapezoidal weights to its nodes; None means the
        whole grid.
        """
        prm = self.params
        eps = _width(eps)
        dens = _phi(q, prm.p, eps) + prm.delta * potential_value(u, prm, eps)
        if region is None:
            return float(np.sum(self.weights * dens))
        region = np.asarray(region)
        if region.dtype != bool or region.shape != self.grid.shape:
            raise ValueError("region must be a bool node mask of grid shape")
        if not region.any():
            raise ValueError("empty integration region")
        return float(np.sum(self.weights[region] * dens[region]))

    def conductances(self, q: np.ndarray, eps: float) -> tuple:
        """Per-axis edge conductances of the linearized Dirichlet form.

        The exact first variation of the Dirichlet part is the graph
        operator  g_i = sum_edges kappa_e (u_i - u_j)  with the conductances
        returned here (frozen at the current field).  The solver reuses them
        as its lagged-coefficient matrix.
        """
        psi_w = self.weights * _psi(q, self.params.p, _width(eps))
        return tuple(
            2.0 * (psi_w[lo] * cplus + psi_w[hi] * cminus) / h**2
            for lo, hi, cplus, cminus, h in self.axes
        )

    def gradient(self, u: np.ndarray, kappas, eps: float) -> np.ndarray:
        """First variation of the energy at u, given the conductances of u.

        Masked nodes still get their partials (the solver projects them
        out).
        """
        prm = self.params
        eps = _width(eps)
        grad = np.zeros(self.grid.shape)
        for (lo, hi, *_), kappa in zip(self.axes, kappas):
            t = kappa * (u[hi] - u[lo])  # one entry per edge
            grad[lo] -= t
            grad[hi] += t
        if prm.delta != 0.0:
            grad = grad + self.weights * (
                prm.delta * potential_derivative(u, prm, eps)
            )
        return grad


def el_residual(
    field: ScalarField,
    params: Params,
    eps: float = 0.0,
    activity_threshold: float | None = None,
) -> float:
    """Max Euler-Lagrange defect over active interior nodes.

    The discrete p-Laplacian is read off the first variation of the
    Dirichlet sum (divided by the node weight), and compared with the
    exact reaction term delta * F'(u), both smoothed with width ``eps``.
    Excluded: nodes with |u| at or below the activity threshold (default
    10 h^(1+tau), h the largest grid spacing), and nodes within two layers
    of a grid face -- at the face-adjacent layer the variational stencil
    encodes the natural boundary flux, not the operator, and differs from
    it by O(1) for p != 2.  If nothing is active the residual is 0.
    """
    g = field.grid
    if activity_threshold is None:
        activity_threshold = 10.0 * max(g.spacing) ** (1.0 + params.tau)
    kern = DiscreteEnergy.dirichlet(g, params.p)
    u = field.values
    lap = -kern.gradient(u, kern.conductances(kern.grad_sq(u), eps), eps)
    lap /= g.quadrature_weights
    rhs = params.delta * potential_derivative(u, params, eps)
    interior = np.zeros(g.shape, dtype=bool)
    interior[(slice(2, -2),) * g.ndim] = True
    active = interior & (np.abs(u) > activity_threshold)
    if not active.any():
        return 0.0
    return float(np.max(np.abs(lap[active] - rhs[active])))
