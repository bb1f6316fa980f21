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
way into the kernel and the one place that evaluates phi and F: the
state of one iterate.  On construction it takes u's edge differences,
q, q + eps^2, |u|, the phase mask, the phase weight lambda(u) (also times
gamma) and u^2 + eps^2, once.  The two halves of the density, phi(q)
(``dirichlet``) and F(u) without delta (``potential``), the energy and
the conductances (and, away from p = 2, the rank-one part of the Dirichlet
Hessian, ``hessian``) are computed on first use and then kept; the density,
the energy over a node region, the gradient, F' (``slope()``) and F''
(``curvature()``) on every call, as new arrays.  All of them read the
construction's arrays, and two states share no writable array.  At p = 2
phi'(q) is 1/2 at every node, so the conductances do not depend on u:
the kernel builds them once and every state returns that read-only tuple.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Grid, Params

__all__ = [
    "DiscreteEnergy",
    "Iterate",
]


class _lazy:
    """An attribute computed on first read and then stored on the instance.

    ``functools.cached_property`` without its lock, which on Python 3.11
    costs more than most of the node-array operations it guards.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Phases(NamedTuple):
    """A field v split by phase, node by node."""

    a: np.ndarray  # |v|
    pos: np.ndarray  # v > 0: the plus phase; the minus phase elsewhere
    lam: np.ndarray  # the phase weight lambda(v)
    lam_g: np.ndarray  # lambda(v) * gamma
    s: np.ndarray  # |v|^2 + eps^2


class _Potential:
    """F, F' and F'' of one parameter set at one smoothing width.

    Each node's own phase is evaluated per node; the idle phase's term and
    slope and the curvature at v = 0 (the mean of both one-sided limits)
    are constants.  They are the same array expressions on one zero node
    per phase, since numpy's vectorized power can round differently from
    its scalar one, and a width out of the kernel's range gives inf or nan
    there where Python float arithmetic would raise.  They are kept as
    Python floats, the same values, which numpy mixes into array
    expressions faster than its own scalars.
    """

    def __init__(self, params: Params, eps: float):
        self.params = params
        self.eps = eps
        self.e2 = eps * eps

    def phases(self, v: np.ndarray) -> _Phases:
        a = np.abs(v)
        pos = v > 0.0
        lam = np.where(pos, self.params.lambda_plus, self.params.lambda_minus)
        s = a * a
        s += self.e2
        return _Phases(a, pos, lam, lam * self.params.gamma, s)

    @_lazy
    def _zero(self) -> _Phases:
        """v = 0, once in each phase: plus, then minus."""
        zero = np.zeros(2)
        lam = np.array([self.params.lambda_plus, self.params.lambda_minus])
        return _Phases(
            zero, np.array([True, False]), lam, lam * self.params.gamma,
            zero * zero + self.e2,
        )

    @_lazy
    def _idle_value(self) -> tuple[float, float]:
        plus, minus = self._value(self._zero)
        return float(plus), float(minus)

    @_lazy
    def _idle_slope(self) -> tuple[float, float]:
        plus, minus = self._slope(self._zero)
        return float(plus), float(minus)

    @_lazy
    def _zero_curvature(self) -> float:
        cp, cm = self._curvature(self._zero)
        return float(0.5 * (cp + cm))

    # Each node's own phase: its term, its slope in |v| and its curvature.
    # Here and in ``Iterate`` a product or sum is often taken in place on
    # a fresh temporary (``t *= x`` for ``x * t``): the same operations on
    # the same operands, without a new array per step.

    def _value(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        if self.eps == 0.0:
            t = ph.a**g
        else:
            t = ph.s ** (0.5 * g)
            t -= self.eps**g
        t *= ph.lam
        return t

    def _slope(self, ph: _Phases) -> np.ndarray:
        t = ph.lam_g * ph.a
        t *= ph.s ** (0.5 * self.params.gamma - 1.0)
        return t

    def _curvature(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        bend = (g - 1.0) * ph.a
        bend *= ph.a
        bend += self.e2
        t = ph.s ** (0.5 * g - 2.0)
        t *= ph.lam_g
        t *= bend
        return t

    # Both phases: the terms add as F = F+ + F-, and F' = F+' - F-'.

    def value(self, ph: _Phases) -> np.ndarray:
        plus_idle, minus_idle = self._idle_value
        t = self._value(ph)
        t += np.where(ph.pos, minus_idle, plus_idle)
        return t

    def slope(self, ph: _Phases) -> np.ndarray:
        g = self.params.gamma
        if self.eps == 0.0:
            # the exact slope, set to 0 at v = 0 where it is not defined
            out = np.zeros_like(ph.a)
            on = ph.a > 0.0
            lam_g = np.where(ph.pos, ph.lam_g, -ph.lam_g)
            out[on] = lam_g[on] * ph.a[on] ** (g - 1.0)
            return out
        d = self._slope(ph)
        plus_idle, minus_idle = self._idle_slope
        minus = plus_idle - d
        d -= minus_idle
        return np.where(ph.pos, d, minus)

    def curvature(self, ph: _Phases) -> np.ndarray:
        if self.eps <= 0.0:
            raise ValueError("the potential curvature needs eps > 0")
        return np.where(ph.a == 0.0, self._zero_curvature, self._curvature(ph))


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
    over the full grid unless ``Iterate.energy_in`` restricts it.  At
    p = 2 it also holds the conductances, which there depend on the grid
    alone.
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
        return self._grad_sq(self._differences(u))

    def _differences(self, u: np.ndarray) -> tuple:
        """u[hi] - u[lo] on every edge, one array per axis."""
        return tuple(u[hi] - u[lo] for lo, hi, *_ in self.axes)

    def _grad_sq(self, du: tuple) -> np.ndarray:
        q = np.zeros(self.weights.shape)
        for (lo, hi, cplus, cminus, h), diff in zip(self.axes, du):
            dsq = diff / h
            dsq *= dsq
            q[lo] += cplus * dsq
            q[hi] += cminus * dsq
        return q

    def _conductances(self, power: np.ndarray) -> tuple:
        """Per-axis edge conductances from (q + eps^2)^((p-2)/2) at every
        node."""
        # phi'(q) = (q + eps^2)^((p-2)/2) / 2, times the node weight
        psi_w = 0.5 * power
        psi_w *= self.weights
        kappas = []
        for lo, hi, cplus, cminus, h in self.axes:
            kappa = psi_w[lo] * cplus
            kappa += psi_w[hi] * cminus
            kappa *= 2.0
            kappa /= h**2
            kappas.append(kappa)
        return tuple(kappas)

    @_lazy
    def quadratic_conductances(self) -> tuple:
        """The conductances at p = 2, read-only: (q + eps^2)^0 is 1 at every
        node, whatever u and eps, so they are a constant of the problem."""
        kappas = self._conductances(np.ones(self.weights.shape))
        for kappa in kappas:
            kappa.flags.writeable = False
        return kappas

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

    On construction: u's edge differences u[hi] - u[lo] per axis (``du``),
    q = ``grad_sq(u)`` from them, q + eps^2 (``qe``) and the phase split of
    u (|u|, u > 0, lambda(u), lambda(u) * gamma, u^2 + eps^2).  On first
    use, and then kept: the two halves of the density (``dirichlet``,
    ``potential``), the energy, the conductances and the rank-one part of
    the Dirichlet Hessian (``hessian``).  On every call, as a
    new array the caller may keep or change: ``density()``, ``gradient()``,
    ``slope()`` and ``curvature()``; the gradient takes its edge
    differences from ``du``.  At p = 2 the conductances are the kernel's
    ``quadratic_conductances``, shared and read-only.  The field must not
    change while its state is in use.
    """

    def __init__(self, kern: DiscreteEnergy, pot: _Potential, u: np.ndarray):
        self.kern = kern
        self.pot = pot
        self.eps = pot.eps
        self.u = u
        self.du = kern._differences(u)
        self.q = kern._grad_sq(self.du)
        self.qe = self.q + pot.e2
        self.phases = pot.phases(u)

    @_lazy
    def dirichlet(self) -> np.ndarray:
        """phi(q) at every node."""
        p = self.kern.params.p
        t = self.qe ** (0.5 * p)
        t -= self.eps**p
        t /= p
        return t

    @_lazy
    def potential(self) -> np.ndarray:
        """F(u) at every node, without the multiplier delta."""
        return self.pot.value(self.phases)

    def density(self) -> np.ndarray:
        """The energy density phi(q) + delta * F(u) at every node."""
        t = self.kern.params.delta * self.potential
        t += self.dirichlet
        return t

    @_lazy
    def energy(self) -> float:
        t = self.density()
        t *= self.kern.weights
        # np.sum's reduction, without its Python wrapper
        return float(np.add.reduce(t, axis=None))

    def energy_in(self, region: np.ndarray) -> float:
        """The energy with the quadrature restricted to ``region``, a
        non-empty boolean node mask of grid shape."""
        region = np.asarray(region)
        if region.dtype != bool or region.shape != self.kern.grid.shape:
            raise ValueError("region must be a bool node mask of grid shape")
        if not region.any():
            raise ValueError("empty integration region")
        return float(np.sum(self.kern.weights[region] * self.density()[region]))

    @_lazy
    def conductances(self) -> tuple:
        """Per-axis edge conductances of the linearized Dirichlet form.

        The exact first variation of the Dirichlet part is the graph
        operator  g_i = sum_edges kappa_e (u_i - u_j)  with these
        conductances, frozen at u.  The solver reuses them as its
        lagged-coefficient matrix.  At p = 2 they are the kernel's
        read-only ``quadratic_conductances``.
        """
        kern, p = self.kern, self.kern.params.p
        if p == 2.0:
            return kern.quadratic_conductances
        if self.eps == 0.0 and p < 2.0 and np.any(self.qe == 0.0):
            raise ValueError(
                "p < 2 with eps = 0 hits a zero-gradient node; "
                "use a positive smoothing width"
            )
        return kern._conductances(self._power)

    @_lazy
    def _power(self) -> np.ndarray:
        """(q + eps^2)^((p-2)/2) at every node, 2 phi'(q): the one power that
        the conductances and the Hessian terms share."""
        return self.qe ** (0.5 * self.kern.params.p - 1.0)

    @_lazy
    def hessian(self) -> tuple | None:
        """The rank-one part of the Dirichlet Hessian; None at p = 2.

        The Hessian of sum_i w_i phi(q_i) is the operator of the
        conductances plus  sum_i psi_i grad q_i grad q_i^T  with
        psi = w phi''(q) and phi''(q) = (p - 2)/4 (q + eps^2)^((p-4)/2),
        identically 0 at p = 2.  Returns (psi, factors): psi at every node,
        and per axis the edge arrays (alpha, beta), the partials of q at
        the edge's lower and upper node in its difference u[hi] - u[lo],
        2 c+- (u[hi] - u[lo]) / h^2, so that  grad q_i . x  sums the
        factor at i of every edge at i times x[hi] - x[lo].  Read it at
        eps > 0, where psi is finite for a width the solver accepts.
        """
        kern, p = self.kern, self.kern.params.p
        if p == 2.0:
            return None
        psi = self._power / self.qe
        psi *= 0.25 * (p - 2.0)
        psi *= kern.weights
        factors = []
        for (_, _, cplus, cminus, h), du in zip(kern.axes, self.du):
            t = du * (2.0 / h**2)
            factors.append((t * cplus, t * cminus))
        return psi, tuple(factors)

    def gradient(self) -> np.ndarray:
        """First variation of the energy at u.

        Masked nodes still get their partials (the solver projects them
        out).
        """
        kern = self.kern
        grad = np.zeros(kern.weights.shape)
        for (lo, hi, *_), kappa, du in zip(kern.axes, self.conductances, self.du):
            t = kappa * du  # one entry per edge
            grad[lo] -= t
            grad[hi] += t
        delta = kern.params.delta
        if delta != 0.0:
            t = self.slope()
            t *= delta
            t *= kern.weights
            grad += t
        return grad

    def slope(self) -> np.ndarray:
        """dF/du at every node; at eps = 0 it is 0 where u = 0."""
        return self.pot.slope(self.phases)

    def curvature(self) -> np.ndarray:
        """d2F/du2 at every node (eps > 0 required).

        At u = 0 the two phases' one-sided limits differ when their
        weights do; the value there is their mean, as a central
        difference gives.
        """
        return self.pot.curvature(self.phases)

