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

A node lies in one phase, the plus phase where v > 0 and the minus phase
elsewhere, so F and its derivatives take one fractional power per node,
that of the node's own phase; the other phase's term has argument 0 and
is a constant of the width.  ``DiscreteEnergy.at(u, eps)`` is the one
way into the kernel: the state of one iterate, which computes q,
q + eps^2, |u|, the phase mask, the phase weight lambda(u) and
u^2 + eps^2 once, and whose energy (over the grid or a node region),
conductances, gradient and potential curvature all read them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Grid, Params, ScalarField

__all__ = [
    "DiscreteEnergy",
    "Iterate",
    "potential_value",
    "potential_derivative",
    "el_residual",
]


class _Phases(NamedTuple):
    """A field v split by phase, node by node."""

    a: np.ndarray  # |v|
    pos: np.ndarray  # v > 0: the plus phase; the minus phase elsewhere
    lam: np.ndarray  # the phase weight lambda(v)
    s: np.ndarray  # |v|^2 + eps^2


class _Potential:
    """F, F' and F'' of one parameter set at one smoothing width.

    Each node's own phase is evaluated per node; the idle phase's term and
    the curvature at v = 0 (the mean of both one-sided limits) are
    constants.  They are the same array expressions on one zero node per
    phase, since numpy's vectorized power can round differently from its
    scalar one, and they stay float64: a width out of the kernel's range
    gives inf or nan there, where Python floats would raise.
    """

    def __init__(self, params: Params, eps: float):
        self.params = params
        self.eps = eps
        self.e2 = eps * eps

    def phases(self, v: np.ndarray) -> _Phases:
        a = np.abs(v)
        pos = v > 0.0
        lam = np.where(pos, self.params.lambda_plus, self.params.lambda_minus)
        return _Phases(a, pos, lam, a * a + self.e2)

    @cached_property
    def _zero(self) -> _Phases:
        """v = 0, once in each phase: plus, then minus."""
        zero = np.zeros(2)
        lam = np.array([self.params.lambda_plus, self.params.lambda_minus])
        return _Phases(zero, np.array([True, False]), lam, zero * zero + self.e2)

    @cached_property
    def _idle_value(self) -> np.ndarray:
        return self._value(self._zero)

    @cached_property
    def _idle_slope(self) -> np.ndarray:
        return self._slope(self._zero)

    @cached_property
    def _zero_curvature(self) -> np.float64:
        cp, cm = self._curvature(self._zero)
        return 0.5 * (cp + cm)

    # Each node's own phase: its term, its slope in |v| and its curvature.

    def _value(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        if self.eps == 0.0:
            return ph.lam * ph.a**g
        return ph.lam * (ph.s ** (0.5 * g) - self.eps**g)

    def _slope(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        return ph.lam * g * ph.a * ph.s ** (0.5 * g - 1.0)

    def _curvature(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        bend = self.e2 + (g - 1.0) * ph.a * ph.a
        return ph.lam * g * ph.s ** (0.5 * g - 2.0) * bend

    # Both phases: the terms add as F = F+ + F-, and F' = F+' - F-'.

    def value(self, ph: _Phases) -> np.ndarray:
        t = self._value(ph)
        plus_idle, minus_idle = self._idle_value
        return np.where(ph.pos, t + minus_idle, plus_idle + t)

    def slope(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        if self.eps == 0.0:
            # the exact slope, set to 0 at v = 0 where it is not defined
            out = np.zeros_like(ph.a)
            on = ph.a > 0.0
            lam_g = np.where(ph.pos, ph.lam * g, -ph.lam * g)
            out[on] = lam_g[on] * ph.a[on] ** (g - 1.0)
            return out
        d = self._slope(ph)
        plus_idle, minus_idle = self._idle_slope
        return np.where(ph.pos, d - minus_idle, plus_idle - d)

    def curvature(self, ph: _Phases) -> np.ndarray:
        if self.eps <= 0.0:
            raise ValueError("potential_curvature needs eps > 0")
        return np.where(ph.a == 0.0, self._zero_curvature, self._curvature(ph))


def potential_value(v, params: Params, eps: float = 0.0):
    """Two-phase potential F(v), optionally smoothed with width eps.

    Vectorized over arrays.  F(0) = 0 for every eps, and the smoothed
    value decreases to the exact one as eps -> 0.
    """
    pot = _Potential(params, eps)
    return pot.value(pot.phases(np.asarray(v, dtype=float)))


def potential_derivative(v, params: Params, eps: float = 0.0):
    """dF/dv, the two-phase reaction term; zero at v = 0 by definition."""
    pot = _Potential(params, eps)
    return pot.slope(pot.phases(np.asarray(v, dtype=float)))


def potential_curvature(v, params: Params, eps: float) -> np.ndarray:
    """d2F/dv2 of the smoothed potential (eps > 0 required).

    At v = 0 the two phases' one-sided limits differ when their weights
    do; the value there is their mean, as a central difference gives.
    """
    pot = _Potential(params, eps)
    return pot.curvature(pot.phases(np.asarray(v, dtype=float)))


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


class DiscreteEnergy:
    """The discrete energy of one grid and parameter set.

    Built once per problem, it holds the quadrature weights, each axis's
    edge slices and one-sided weights, and the potential's constants per
    smoothing width.  ``at(u, eps)`` is the one way to evaluate it: the
    state of iterate u at width ``eps``, whose energy, conductances,
    gradient and potential curvature derive from one node gradient-square
    ``q = grad_sq(u)``.  Node arrays are grid-shaped, and every sum runs
    over the full grid unless ``Iterate.energy_in`` restricts it.
    """

    def __init__(self, grid: Grid, params: Params):
        self.grid = grid
        self.params = params
        self.weights = grid.quadrature_weights
        self.axes = tuple(_axis(grid, a) for a in range(grid.ndim))
        self._potentials: dict[float, _Potential] = {}

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

    def at(self, u: np.ndarray, eps: float) -> "Iterate":
        """The state of iterate ``u`` at smoothing width ``eps >= 0``."""
        if eps < 0:
            raise ValueError("smoothing width must be >= 0")
        pot = self._potentials.get(eps)
        if pot is None:
            pot = self._potentials[eps] = _Potential(self.params, eps)
        return Iterate(self, pot, u)


class Iterate:
    """One field u of a ``DiscreteEnergy`` at one smoothing width.

    q = ``grad_sq(u)``, q + eps^2 and the phase split of u (|u|, u > 0,
    lambda(u), u^2 + eps^2) are computed once, on construction; the energy
    and the conductances on first use, and then kept.  The field must not
    change while its state is in use.
    """

    def __init__(self, kern: DiscreteEnergy, pot: _Potential, u: np.ndarray):
        self.kern = kern
        self.pot = pot
        self.eps = pot.eps
        self.u = u
        self.q = kern.grad_sq(u)
        self.qe = self.q + pot.e2
        self.phases = pot.phases(u)
        self._energy: float | None = None
        self._conductances: tuple | None = None

    def density(self) -> np.ndarray:
        """The energy density at every node."""
        p = self.kern.params.p
        phi = (self.qe ** (0.5 * p) - self.eps**p) / p
        return phi + self.kern.params.delta * self.pot.value(self.phases)

    @property
    def energy(self) -> float:
        if self._energy is None:
            self._energy = float(np.sum(self.kern.weights * self.density()))
        return self._energy

    def energy_in(self, region: np.ndarray) -> float:
        """The energy with the quadrature restricted to ``region``, a
        non-empty boolean node mask of grid shape."""
        region = np.asarray(region)
        if region.dtype != bool or region.shape != self.kern.grid.shape:
            raise ValueError("region must be a bool node mask of grid shape")
        if not region.any():
            raise ValueError("empty integration region")
        return float(np.sum(self.kern.weights[region] * self.density()[region]))

    @property
    def conductances(self) -> tuple:
        """Per-axis edge conductances of the linearized Dirichlet form.

        The exact first variation of the Dirichlet part is the graph
        operator  g_i = sum_edges kappa_e (u_i - u_j)  with these
        conductances, frozen at u.  The solver reuses them as its
        lagged-coefficient matrix.
        """
        if self._conductances is None:
            kern, p = self.kern, self.kern.params.p
            if self.eps == 0.0 and p < 2.0 and np.any(self.qe == 0.0):
                raise ValueError(
                    "p < 2 with eps = 0 hits a zero-gradient node; "
                    "use a positive smoothing width"
                )
            # phi'(q) = (q + eps^2)^((p-2)/2) / 2
            psi_w = kern.weights * (0.5 * self.qe ** (0.5 * p - 1.0))
            self._conductances = tuple(
                2.0 * (psi_w[lo] * cplus + psi_w[hi] * cminus) / h**2
                for lo, hi, cplus, cminus, h in kern.axes
            )
        return self._conductances

    def gradient(self) -> np.ndarray:
        """First variation of the energy at u.

        Masked nodes still get their partials (the solver projects them
        out).
        """
        kern = self.kern
        grad = np.zeros(kern.grid.shape)
        for (lo, hi, *_), kappa in zip(kern.axes, self.conductances):
            t = kappa * (self.u[hi] - self.u[lo])  # one entry per edge
            grad[lo] -= t
            grad[hi] += t
        delta = kern.params.delta
        if delta != 0.0:
            grad = grad + kern.weights * (delta * self.pot.slope(self.phases))
        return grad

    def curvature(self) -> np.ndarray:
        """d2F/du2 at every node (eps > 0 required)."""
        return self.pot.curvature(self.phases)


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
    u = field.values
    lap = -DiscreteEnergy.dirichlet(g, params.p).at(u, eps).gradient()
    lap /= g.quadrature_weights
    rhs = params.delta * potential_derivative(u, params, eps)
    interior = np.zeros(g.shape, dtype=bool)
    interior[(slice(2, -2),) * g.ndim] = True
    active = interior & (np.abs(u) > activity_threshold)
    if not active.any():
        return 0.0
    return float(np.max(np.abs(lap[active] - rhs[active])))
