"""Discrete two-phase power-potential energy and its first variation.

The functional on a grid field u is

    J(u) = sum_i w_i * ( phi(q_i) + delta * F(u_i) ),

with trapezoidal weights w, the node gradient-square

    q_i = sum_axes ( mean of the squared one-sided differences at i ),

phi(q) = ((q + eps_grad^2)^(p/2) - eps_grad^p) / p, and the smoothed
two-phase potential

    F(v) = lam+ * ((v+^2 + eps_pot^2)^(g/2) - eps_pot^g)  +  (- part).

Averaging forward and backward differences per axis (instead of a central
difference) keeps the discrete Dirichlet form free of odd/even sublattice
decoupling: at p = 2 it reduces edge-by-edge to the classical second-order
form, and it is exact on affine fields for every p.  Both smoothings are
anchored so that the density vanishes where grad u = 0 and u = 0, for any
eps; eps = 0 gives the exact density.

``DiscreteEnergy`` evaluates all of this from one q per iterate; the
module-level functions are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField

__all__ = [
    "Regularization",
    "NO_REG",
    "DiscreteEnergy",
    "potential_value",
    "potential_derivative",
    "potential_curvature",
    "grad_sq_nodes",
    "dirichlet_gradient",
    "edge_conductances",
    "total_energy",
    "energy_gradient",
    "el_residual",
    "default_activity_threshold",
]


@dataclass(frozen=True)
class Regularization:
    """Smoothing widths for the potential and the gradient norm."""

    eps_pot: float = 0.0
    eps_grad: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_pot < 0 or self.eps_grad < 0:
            raise ValueError("regularization widths must be >= 0")


NO_REG = Regularization(0.0, 0.0)


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


def _phi(q: np.ndarray, p: float, eps_grad: float) -> np.ndarray:
    if eps_grad == 0.0:
        return q ** (0.5 * p) / p
    e2 = eps_grad * eps_grad
    return ((q + e2) ** (0.5 * p) - eps_grad**p) / p


def _psi(q: np.ndarray, p: float, eps_grad: float) -> np.ndarray:
    """phi'(q) = (q + eps^2)^((p-2)/2) / 2."""
    if eps_grad == 0.0:
        if p < 2.0 and np.any(q == 0.0):
            raise ValueError(
                "p < 2 with eps_grad = 0 hits a zero-gradient node; "
                "use a positive gradient regularization"
            )
        return 0.5 * q ** (0.5 * p - 1.0)
    return 0.5 * (q + eps_grad * eps_grad) ** (0.5 * p - 1.0)


class DiscreteEnergy:
    """The discrete energy of one grid and parameter set.

    Built once per problem, it holds the quadrature weights and each
    axis's edge slices and one-sided weights.  The energy, its gradient
    and the edge conductances of an iterate u all derive from one node
    gradient-square ``q = grad_sq(u)``, which does not depend on the
    smoothing widths.  Node arrays are grid-shaped, and every sum runs
    over the full grid.
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

    def energy(self, u: np.ndarray, q: np.ndarray, reg: Regularization,
               region: np.ndarray | None = None) -> float:
        """Quadrature value of the (regularized) energy, on ``region`` if given."""
        prm = self.params
        dens = _phi(q, prm.p, reg.eps_grad) + prm.delta * potential_value(
            u, prm, reg.eps_pot
        )
        if region is None:
            return float(np.sum(self.weights * dens))
        return float(np.sum(self.weights[region] * dens[region]))

    def conductances(self, q: np.ndarray, eps_grad: float) -> tuple:
        """Per-axis edge conductances of the linearized Dirichlet form.

        The exact first variation of the Dirichlet part is the graph
        operator  g_i = sum_edges kappa_e (u_i - u_j)  with the conductances
        returned here (frozen at the current field).  The solver reuses them
        as its lagged-coefficient matrix.
        """
        psi_w = self.weights * _psi(q, self.params.p, eps_grad)
        return tuple(
            2.0 * (psi_w[lo] * cplus + psi_w[hi] * cminus) / h**2
            for lo, hi, cplus, cminus, h in self.axes
        )

    def gradient(self, u: np.ndarray, kappas, reg: Regularization) -> np.ndarray:
        """First variation of the energy at u, given the conductances of u."""
        prm = self.params
        grad = np.zeros(self.grid.shape)
        for (lo, hi, *_), kappa in zip(self.axes, kappas):
            t = kappa * (u[hi] - u[lo])  # one entry per edge
            grad[lo] -= t
            grad[hi] += t
        if prm.delta != 0.0:
            grad = grad + self.weights * (
                prm.delta * potential_derivative(u, prm, reg.eps_pot)
            )
        return grad


def grad_sq_nodes(values: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad u|^2 at nodes from averaged one-sided differences."""
    return DiscreteEnergy.dirichlet(grid, 2.0).grad_sq(values)  # q has no p


def edge_conductances(
    values: np.ndarray, grid: Grid, p: float, eps_grad: float
) -> tuple[np.ndarray, ...]:
    """Per-axis edge conductances (``DiscreteEnergy.conductances``) at ``values``."""
    kern = DiscreteEnergy.dirichlet(grid, p)
    return kern.conductances(kern.grad_sq(values), eps_grad)


def dirichlet_gradient(
    values: np.ndarray, grid: Grid, p: float, eps_grad: float
) -> np.ndarray:
    """Exact gradient of sum_i w_i phi(q_i) with respect to node values."""
    kappas = edge_conductances(values, grid, p, eps_grad)
    return DiscreteEnergy.dirichlet(grid, p).gradient(values, kappas, NO_REG)


def total_energy(
    field: ScalarField,
    params: Params,
    reg: Regularization = NO_REG,
    region: np.ndarray | None = None,
) -> float:
    """Quadrature value of the (regularized) energy, optionally on a region.

    ``region`` is a boolean node mask; None means the whole grid.  The
    quadrature weights are the grid's trapezoidal weights restricted to
    the region.
    """
    if region is not None:
        region = np.asarray(region)
        if region.dtype != bool or region.shape != field.grid.shape:
            raise ValueError("region must be a bool node mask of grid shape")
        if not region.any():
            raise ValueError("empty integration region")
    kern = DiscreteEnergy(field.grid, params)
    return kern.energy(field.values, kern.grad_sq(field.values), reg, region)


def energy_gradient(
    field: ScalarField, params: Params, reg: Regularization = NO_REG
) -> np.ndarray:
    """First variation of the discrete energy at every node.

    Matches central finite differences of ``total_energy`` to roundoff
    scale; masked nodes still get their partials (the solver projects
    them out).
    """
    kern = DiscreteEnergy(field.grid, params)
    u = field.values
    return kern.gradient(u, kern.conductances(kern.grad_sq(u), reg.eps_grad), reg)


def default_activity_threshold(grid: Grid, params: Params) -> float:
    """|u| level below which a node does not count as active: 10 h^(1+tau)."""
    h = max(grid.spacing)
    return 10.0 * h ** (1.0 + params.tau)


def el_residual(
    field: ScalarField,
    params: Params,
    reg: Regularization = NO_REG,
    activity_threshold: float | None = None,
) -> float:
    """Max Euler-Lagrange defect over active interior nodes.

    The discrete p-Laplacian is read off the first variation of the
    Dirichlet sum (divided by the node weight), and compared with the
    exact reaction term delta * F'(u).  Excluded: nodes with |u| below
    the activity threshold, and nodes within two layers of a grid face
    -- at the face-adjacent layer the variational stencil encodes the
    natural boundary flux, not the operator, and differs from it by O(1)
    for p != 2.  If nothing is active the residual is 0.
    """
    g = field.grid
    if activity_threshold is None:
        activity_threshold = default_activity_threshold(g, params)
    lap = -dirichlet_gradient(field.values, g, params.p, reg.eps_grad)
    lap /= g.quadrature_weights
    rhs = params.delta * potential_derivative(field.values, params, reg.eps_pot)
    interior = np.zeros(g.shape, dtype=bool)
    interior[(slice(2, -2),) * g.ndim] = True
    active = interior & (np.abs(field.values) > activity_threshold)
    if not active.any():
        return 0.0
    return float(np.max(np.abs(lap[active] - rhs[active])))
