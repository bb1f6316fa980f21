"""Energy descent with smoothing continuation, coarse grids first.

The objective is nonsmooth at u = 0 (potential) and, away from p = 2,
degenerate or singular in the gradient, so minimization runs over a
ladder of smoothing widths: each stage minimizes the regularized energy
starting from the previous stage's output.  A grid that nests a coarse
grid (every other node, ``core.coarse_grid``) is solved coarse first, by
nested iteration (Brandt, Math. Comp. 31, 1977): the coarsest level runs
the whole ladder from the injected start, and each finer level runs only
the ladder's last width, from the linear prolongation of the level below
with its own Dirichlet data.  The levels follow from the resolution alone.

Steps are damped Newton steps on a model of the stage energy, solved
sparsely, then an Armijo backtracking line search on the true stage
energy.  The model is the Hessian of the Dirichlet energy (the linearized
diffusion operator, assembled from the same edge conductances that make
up the exact gradient, plus at p != 2 the rank-one terms
w phi''(q) grad q grad q^T of each node; Huang, Li & Liu, J. Sci.
Comput. 32, 2007) plus the potential curvature F''.  Where F is concave
(gamma < 1, away from u = 0) F'' < 0 and the model may be indefinite, so
it carries the signed F'' only where a Cholesky factorization certifies
it positive definite, which in 1D is the factorization that solves it.
A step's models are the rungs of one loop, each cutting the potential
term delta w F'' at -c.  A 1D step with F'' < 0 first tries the uncut
term, c at its most negative entry, halves c on each model that the
factorization refuses (Newton with Hessian modification, Nocedal &
Wright, Numerical Optimization, sec. 3.4), and below 1e-3 of that start
keeps only the convex part max(F'', 0), c = 0.  Every other step, every
2D and 3D step included, where CG cannot certify the signed model, has
only that last rung.  The model is the Hessian of the stage energy on
every step that cuts no curvature.  A line search that collapses below
the step floor is a stall, and so is a step whose every model the
factorization refuses, a Newton system that CG does not solve or whose
solution is not finite, or one whose solution is not a descent
direction; a stall ends its level's ladder.  A coarse level that stops
short only supplies the start of the next; the finest level's partial
result is returned with a message that says where it stopped.

Each line-search trial is one ``DiscreteEnergy.at`` state.  The trial
Armijo accepts becomes the next iterate, and the gradient, conductances,
Hessian terms and curvature of the next Newton step come from that same
state, so nothing is evaluated twice for one field.

Every linear system, each rung's model of a Newton step included, goes
through ``spsolve``, which has one solver per dimension.  In every
dimension the system is a stencil, never a matrix: one coefficient array
per offset between coupled nodes, the diagonal and each axis's unit at
p = 2, and at p != 2 also the offsets 2 e_a and e_a +- e_b of the
rank-one terms, filled once per Newton step from the conductances and the
Hessian terms (once per grid level at p = 2, where the conductances are
the kernel's).  Its product, diagonal and bands all read those arrays,
and the product adds in the order of a CSR product, bit for bit.  A 1D
system is tridiagonal at p = 2 and pentadiagonal otherwise (the rank-one
terms couple nodes two apart, also across one node outside the set); its
two or three bands go to LAPACK's banded Cholesky (``dpbsv``), whose
refusal of a model that is not positive definite moves the step to the
next rung, which differs from it only in its diagonal.  A 2D or 3D
system is solved by conjugate gradients preconditioned with a fast
Poisson solve: the constant-coefficient Laplacian of the interior box,
or of the whole grid when a node lies on a face of the box, inverted by
DST-I, with a diagonal scaling that matches the system's own diagonal
(Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  How far CG goes
depends on p and on the clipping.  A system at p = 2 with no curvature
clipped, the Hessian, CG solves to a residual of 1e-12 relative to the
right-hand side, or to the representation floor of the Newton system,
whichever is larger: rounding the iterate u to float64 already moves the
right-hand side by up to eps |M| |u| per entry, so a smaller residual
solves rounding noise (Arioli, Numer. Math. 97, 2004).  Any other
system, at p != 2 or with curvature clipped, CG stops at the forcing
term, a residual of 0.1 relative to the gradient, the inexact Newton step
that keeps the descent's convergence (Dembo, Eisenstat & Steihaug, SIAM
J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996); at p != 2 that was cheaper than the floor.  A CG solve that
breaks down or reaches its iteration cap is a stall, and so is a
solution that is not finite.  Inner products are plain ``np.sum``
reductions, not BLAS, so a solve does not depend on the number of BLAS
threads.

Importing the module loads no scipy module, and only a 1D solve loads
one: ``scipy.linalg`` (``dpbsv``), on its first call.  The preconditioner
of a 2D or 3D solve runs DST-I on numpy's real FFT, bit for bit
``scipy.fft.dstn`` and ``idstn``, so CG loads no scipy module, and no
solve loads scipy's sparse matrices.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import Grid, Params, ScalarField, inject, prolong
from .energy import DiscreteEnergy

__all__ = [
    "DEFAULT_LADDER",
    "STAGE_EXITS",
    "WORK_COUNTERS",
    "StageRecord",
    "SolveResult",
    "SolverStall",
    "minimize",
    "p_harmonic_replacement",
    "comparison_gap",
    "nonlinearity_gap",
]

DEFAULT_LADDER = tuple(10.0 ** (-1.0 - 0.5 * j) for j in range(9))  # 1e-1 .. 1e-5

# Scaled gradient rms at which a stage has converged, and Newton steps per stage.
_TOL_RESIDUAL = 1e-7
_MAX_ITERS = 400

# Armijo line search: sufficient-decrease fraction, step shrink factor, and
# the step length below which a search has stalled.
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_STEP_FLOOR = 1e-14
# A relative energy change below this counts as flat to rounding.
_TOL_ENERGY = 1e-15
# Halvings of the cut of a refused signed 1D model before the clipped one,
# c = 0: the ninth leaves 2^-9 of the start, the last cut not below 1e-3.
_TRUNCATIONS = 9


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage: smoothing width, trace, exit state and why,
    and the resolution of the grid level it ran on.

    ``energies`` is the Armijo trace: the stage's start, then each
    accepted line-search step, so it never increases; polish steps do
    not extend it.  ``energy`` and the residual belong to the field the
    stage leaves, at the stage's width: its energy, and the rms and max
    of its scaled gradient |g / w| over the free nodes.
    """

    eps: float  # width of both the potential and the gradient smoothing
    n_iters: int  # Newton steps: accepted line-search steps and polish steps
    energies: tuple[float, ...]
    energy: float
    residual_rms: float
    residual_max: float
    exit: str  # one of STAGE_EXITS
    resolution: tuple[int, ...]  # node counts of the grid the stage ran on


# Why a stage ended: the value of StageRecord.exit.
STAGE_EXITS = (
    "tolerance",  # the residual met _TOL_RESIDUAL
    "step_cap",  # _MAX_ITERS Newton steps were taken
    "polish",  # the residual-monotone polish stopped contracting
    "stall",  # a failed line search far from criticality, no positive
    # definite model, a CG miss, no finite solve, or a direction that is not
    # a descent one
)


# The work counters of a solve: keys of its tally and of SolveResult.work.
WORK_COUNTERS = (
    "linear_solves",  # systems solved, one per Newton step
    "cg_iterations",  # preconditioned CG iterations over all of them
    "cg_floor_stops",  # CG solves stopped by the representation floor
    "cg_forcing_stops",  # CG solves stopped by the inexact-Newton forcing term
    "backtracks",  # Armijo trials rejected, those of a failed search included
    "polish_steps",  # accepted residual-monotone polish steps
    "clipped_models",  # Newton steps whose model cut concave curvature:
    # c < top, a refused signed 1D model or a 2D/3D one with F'' < 0
)


def _work(tally: Mapping[str, int] = MappingProxyType({})) -> Mapping[str, int]:
    """A tally's ``WORK_COUNTERS``, in that order, as a read-only mapping."""
    return MappingProxyType({k: tally.get(k, 0) for k in WORK_COUNTERS})


@dataclass(frozen=True)
class SolveResult:
    """A solve's final field, its stages, its work counters and how it ended.

    ``stages`` lists every grid level's stages, coarsest first, and
    ``work`` maps each of ``WORK_COUNTERS`` to its count over all levels,
    read-only.

    The totals derive from the stages; ``converged`` means that the last
    stage, the finest level's, has an exit residual that meets
    ``_TOL_RESIDUAL`` (no stages: no free node).
    ``shortfall`` is None for a converged solve; otherwise it names the
    last stage's exit, its smoothing width and the residual, and a
    line-search stall also the last accepted step.
    """

    field: ScalarField
    energy: float  # exact-potential energy of the final iterate
    stages: tuple[StageRecord, ...] = ()
    work: Mapping[str, int] = field(default_factory=_work)  # WORK_COUNTERS
    shortfall: str | None = None

    @property
    def n_iterations(self) -> int:
        return sum(s.n_iters for s in self.stages)

    @property
    def residual_rms(self) -> float:
        """Scaled gradient rms of the final field at the last stage's width."""
        return self.stages[-1].residual_rms if self.stages else 0.0

    @property
    def residual_max(self) -> float:
        """Scaled gradient max of the final field at the last stage's width."""
        return self.stages[-1].residual_max if self.stages else 0.0

    @property
    def converged(self) -> bool:
        return self.residual_rms <= _TOL_RESIDUAL


class SolverStall(RuntimeError):
    """A replacement stopped short of its tolerance; .result holds its solve.

    ``p_harmonic_replacement`` raises it when its descent ends unconverged,
    a stall included; ``minimize`` itself returns every solve.
    """

    def __init__(self, message: str, result: SolveResult):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# Linearized operator.


class _FreeBlock:
    """A + H + diag(shift) restricted to a fixed sorted flat node set, as a
    ``_Stencil``, in every dimension.

    A is the diffusion operator (A v)_i = sum_edges kappa (v_i - v_j), and
    H the rank-one part of the Dirichlet Hessian, sum_k psi_k g_k g_k^T
    with g_k = grad q_k (``Iterate.hessian``; None at p = 2, where it
    vanishes), so that A + H is the Hessian of the Dirichlet energy.  The
    block is one coefficient array per upper offset d between coupled
    nodes (d >= 0 in flat order): the diagonal d = 0 and each axis's unit
    e_a for A, and for H also 2 e_a and e_a +- e_b.  g_k lives on k and
    k +- e_a, so entry (k + s, k + t) gains psi_k g_k[s] g_k[t]: 6 pair
    products in 1D, 15 in 2D and 28 in 3D, over slices planned once per
    grid shape and kind of node set (``_plan``).

    A call splits the block into its Dirichlet part A + H, which depends
    only on the conductances and the Hessian terms, and the shift.  The
    block keeps the Dirichlet part of its last call, keyed by the identity
    of both, so a call with the same ones (the kernel's conductances at
    p = 2, or the same iterate's twice) only adds the shift to the kept
    diagonal: the same addition on the same operands, so the same block,
    bit for bit.  The conductances and Hessian terms must not change in
    place between calls, and the kept coefficients are read-only.

    ``in_box`` and ``box`` are decided once here.  ``in_box`` holds each
    node's flat position in the interior box of the grid, in the nodes'
    order, or is None when a node lies on a face of the grid.  ``box`` is
    set when the nodes fill the interior box: then it holds the slices
    that cut the box out of a grid array, whose C order is the nodes'
    order; otherwise it is None.  ``minimize`` and ``_box_preconditioner``
    read them.

    When the nodes fill the interior box the stencil works on the box;
    otherwise it works on the whole grid, with each coefficient zeroed
    where an end of its pair leaves the node set.  The diagonal of A is
    summed on the whole grid, axis by axis and lower end first, the order
    in which COO->CSR sums the duplicates of A's edge-by-edge assembly,
    and A's couplings are -kappa.  H's pair products are added to them
    over every k of the whole grid, whose every node has a q.
    """

    def __init__(self, kern: DiscreteEnergy, nodes: np.ndarray):
        self.nodes = nodes
        self.shape = kern.weights.shape
        self.edges = [axis[:2] for axis in kern.axes]  # the whole grid's (lo, hi)
        self._kept = None  # (conductances, Hessian terms, diagonal, coefficients)
        inside = np.zeros(self.shape, dtype=bool)
        inside.reshape(-1)[nodes] = True
        inner = (slice(1, -1),) * len(self.shape)  # the box, in nodes and edges
        fills = inside[inner]
        in_box = np.flatnonzero(fills)
        self.in_box = in_box if in_box.size == nodes.size else None
        self.box = inner if self.in_box is not None and fills.all() else None
        self.where = nodes if self.box is None else None
        plan = _plan(self.shape, self.box is not None)
        self.grid, self.zero, self.units, self.support, self.pairs, self.ends = plan
        if self.box is None:
            self.keep = {d: inside[lo] & inside[hi]
                         for d, (lo, hi) in self.ends.items()}
        if len(self.shape) == 1 and self.box is None:
            # where the bands' entries lie in C_1, C_2 and a trailing 0 laid
            # end to end: nodes one apart couple in C_1, two apart in C_2
            n, lo = self.shape[0], nodes[:-1]
            gap, z = nodes[1:] - lo, 2 * n - 3
            near = np.where(gap == 1, lo, np.where(gap == 2, n - 1 + lo, z))
            after = np.where(nodes[2:] - nodes[:-2] == 2, n - 1 + nodes[:-2], z)
            self.taps = (near, after)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """A whole-grid array's values on the nodes, in order."""
        if self.box is None:
            return a.reshape(-1)[self.nodes]
        return a[self.box].reshape(-1)

    def _coefficients(self, kappas, hessian) -> tuple[np.ndarray, dict]:
        """The diagonal of A + H on the nodes and its upper coefficients."""
        zero, box = self.zero, (... if self.box is None else self.box)
        diag = np.zeros(self.shape)
        for (lo, hi), kap in zip(self.edges, kappas):
            diag[lo] += kap
            diag[hi] += kap
        coef = {zero: diag[box], **{e: -kap[box] for kap, e in zip(kappas, self.units)}}
        if hessian is not None:
            psi, factors = hessian
            g = {zero: np.zeros(self.shape)}
            for (lo, hi), (alpha, beta), e in zip(self.edges, factors, self.units):
                g[zero][lo] -= alpha
                g[zero][hi] += beta
                g[e], g[tuple(-x for x in e)] = alpha, np.negative(beta)
            pg = {s: psi[self.support[s]] * gs for s, gs in g.items()}
            for s, t, d, ks, kt, kd in self.pairs:
                if d not in coef:
                    size = [max(0, n - abs(a)) for n, a in zip(self.grid, d)]
                    coef[d] = np.zeros(size)
                coef[d][kd] += pg[s][ks] * g[t][kt]
        main = coef.pop(zero).reshape(-1)
        if self.box is None:
            return main[self.nodes], {
                d: np.where(self.keep[d], coef[d], 0.0) for d in self.ends if d in coef
            }
        return main, {d: coef[d] for d in self.ends if d in coef}

    def __call__(self, kappas, shift=0.0, hessian=None) -> _Stencil:
        kept = self._kept
        if kept is None or kept[0] is not kappas or kept[1] is not hessian:
            base, coef = self._coefficients(kappas, hessian)
            for c in coef.values():
                c.flags.writeable = False
            kept = self._kept = (kappas, hessian, base, coef)
        return _Stencil(kept[2] + shift, kept[3], self)


@functools.lru_cache(maxsize=64)
def _plan(shape: tuple[int, ...], boxed: bool) -> tuple:
    """The node-set-free part of a ``_FreeBlock`` on a grid of ``shape``
    whose nodes fill the interior box (``boxed``) or not, planned once:
    the stencil's grid, the zero and unit offsets, the support of each
    g[s], the pair products' slices and each offset's end slices.  Read
    only."""
    grid = tuple(n - 2 for n in shape) if boxed else shape
    ndim = len(shape)
    zero = (0,) * ndim
    units = tuple(tuple(int(b == a) for b in range(ndim)) for a in range(ndim))
    # g_k's entries sit at k + s for s in 0 and +-e_a, in flat order;
    # g[s] is stored over the k with k + s on the grid
    minus = [tuple(-x for x in e) for e in units]
    steps = sorted([zero, *units, *minus])
    support = {s: _ends(shape, s)[0] for s in steps}
    # each pair's k: on the grid, with k + s and k + t on the stencil's
    # grid, which starts at node o of the whole one
    o = int(boxed)
    pairs = []  # (s, t, d, slices of k in g[s], in g[t], k + s in C_d)
    for i, s in enumerate(steps):
        for t in steps[i:]:
            d = tuple(b - a for a, b in zip(s, t))
            cuts = ([], [], [])
            for n, sa, ta, da in zip(shape, s, t, d):
                lo = max(0, o - sa, o - ta)
                hi = max(lo, n - max(0, o + sa, o + ta))
                # where each array starts; C_d at the stencil's max(0, -d)
                starts = (max(0, -sa), max(0, -ta), o + max(0, -da) - sa)
                for cut, at in zip(cuts, starts):
                    cut.append(slice(lo - at, hi - at))
            pairs.append((s, t, d, *map(tuple, cuts)))
    offsets = sorted({d for _, _, d, *_ in pairs} - {zero})
    ends = {d: _ends(grid, d) for d in offsets}  # the stencil's
    return grid, zero, units, support, tuple(pairs), ends


def _ends(shape: tuple[int, ...], d: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The slices of the lower and upper ends r, r + d of every node pair
    at offset ``d`` on a grid of ``shape``."""
    lo = tuple(slice(max(0, -a), n - max(0, a)) for n, a in zip(shape, d))
    hi = tuple(slice(max(0, a), n - max(0, -a)) for n, a in zip(shape, d))
    return lo, hi


class _Stencil:
    """A Newton block, applied as a stencil on a grid array.

    ``main`` is the diagonal and ``coef`` maps each upper offset d, in
    flat order, to the array of entries (r, r + d) over the r of the grid
    array of shape ``grid`` that the block works on, +0 where an end lies
    outside the node set; ``where`` is each node's flat position in that
    array, None when the nodes fill it.  The grid and each offset's end
    slices are the ``_FreeBlock``'s that made it.  Every operation reads
    only these coefficients.

    ``M @ x`` adds to +0.0, node by node, the terms of the lower offsets
    from the largest to the smallest, the diagonal term, then those of the
    upper offsets from the smallest to the largest: the ascending-column
    order in which scipy's CSR product adds a row, so the product equals
    that of the block's entries as CSR bit for bit.  ``abs(M)`` has the
    absolute entries, and in 1D ``M.banded()`` gives the block's bands to
    LAPACK.
    """

    def __init__(self, main, coef, block: _FreeBlock):
        self.main = main
        self.coef = coef
        self.block = block
        self.grid = block.grid
        self.where = block.where
        if self.where is None:
            self.on_grid = main.reshape(self.grid)
        else:
            self.on_grid = np.zeros(self.grid)
            self.on_grid.reshape(-1)[self.where] = main

    def diagonal(self) -> np.ndarray:
        return self.main

    def banded(self) -> np.ndarray:
        """A 1D block in LAPACK's lower band storage, for ``dpbsv``.

        Row k holds each node's coupling to the k-th next node of the set
        (row 0 the diagonal), +0 where the two share no term; the rows'
        unused tails are 0.  There are as many rows as the block has bands:
        two without H (p = 2), three with it, whose C_2 couples nodes two
        apart, also across one node outside the set, in the first band.
        """
        rows = 2 + ((2,) in self.coef)
        ab = np.zeros((rows, self.main.size), order="F")  # LAPACK's layout
        ab[0] = self.main
        c1, c2 = self.coef[(1,)], self.coef.get((2,))
        if self.where is None:
            ab[1, :-1] = c1
            if c2 is not None:
                ab[2, :-2] = c2
        else:
            if c2 is None:
                c2 = np.zeros(c1.size - 1)
            flat = np.concatenate((c1, c2, [0.0]))
            for k, tap in zip(range(1, rows), self.block.taps):
                ab[k, :-k] = flat[tap]
        return ab

    def __abs__(self) -> _Stencil:
        coef = {d: np.abs(c) for d, c in self.coef.items()}
        return _Stencil(np.abs(self.main), coef, self.block)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self.where is None:
            v = x.reshape(self.grid)
        else:
            v = np.zeros(self.grid)
            v.reshape(-1)[self.where] = x
        ends = self.block.ends
        coef = list(self.coef.items())
        y = np.zeros(self.grid)
        for d, c in reversed(coef):
            lo, hi = ends[d]
            y[hi] += c * v[lo]
        y += self.on_grid * v
        for d, c in coef:
            lo, hi = ends[d]
            y[lo] += c * v[hi]
        y = y.reshape(-1)
        return y if self.where is None else y[self.where]


def assemble_diffusion(
    values: np.ndarray, grid: Grid, p: float, eps: float
) -> _Stencil:
    """The Dirichlet diffusion operator over all nodes, conductances of
    ``values``, as the whole grid's stencil.

    Nothing in the package calls it; the benchmark's tracer patches this
    name and its self-check reads it, so it stays until the benchmark
    drops it.  It returns the stencil that every solve uses, not a
    sparse matrix.
    """
    kern = DiscreteEnergy.dirichlet(grid, p)
    block = _FreeBlock(kern, np.arange(kern.weights.size))
    return block(kern.at(values, eps).conductances)


class _OddLines:
    """Held buffers for DST-I along one axis of a box, through numpy's
    real FFT.

    DST-I of a line x of length m is -Im of bins 1..m of the real FFT of
    its odd extension [0, x, 0, -x reversed], of length 2(m + 1): the
    same extension, on the same pocketfft plan, as ``scipy.fft.dst(x,
    type=1)``, so the same bits.  Both hold for numpy 2 alone, which
    runs scipy's C++ pocketfft and takes ``out=`` (numpy 1 had neither).  ``ext`` holds the odd extensions of all
    the box's lines along ``axis``, and the caller fills their x through
    ``head``, the view of positions 1..m.  A call fills -x reversed and
    returns -DST-I of ``head`` along ``axis``: the view of Im of bins
    1..m, in the box's layout.  ``flat`` is ``head`` in C order for the
    lines along axis 0, where ``head`` is contiguous.
    """

    def __init__(self, box: tuple[int, ...], axis: int):
        m = box[axis]

        def cut(x: np.ndarray, s: slice) -> np.ndarray:
            return x[(slice(None),) * axis + (s,)]

        self.axis = axis
        self.ext = np.zeros(box[:axis] + (2 * (m + 1),) + box[axis + 1:])
        self.spec = np.empty(box[:axis] + (m + 2,) + box[axis + 1:], dtype=complex)
        self.head = cut(self.ext, slice(1, m + 1))
        self.flat = self.head.reshape(-1) if axis == 0 else None
        self._mirror = cut(self.ext, slice(m, 0, -1))
        self._tail = cut(self.ext, slice(m + 2, None))
        self._im = cut(self.spec.imag, slice(1, m + 1))

    def __call__(self) -> np.ndarray:
        np.negative(self._mirror, out=self._tail)
        np.fft.rfft(self.ext, axis=self.axis, out=self.spec)
        return self._im


@dataclass(frozen=True)
class _BoxPreconditioner:
    """Fast Poisson solve on a box of the grid: its interior box, or the
    whole grid.

    ``lam`` holds the eigenvalues, on the DST-I basis of every axis, of
    ``L0 = sum_a (vol / h_a^2) T_a`` with ``T_a`` the Dirichlet second
    difference along axis a, zero one node past each face of the box;
    ``diag`` is L0's (constant) diagonal and ``where`` each node's flat
    position in the box, None when the nodes fill the whole box.

    A call is ``idstn(dstn(y, type=1) / lam, type=1)`` of scipy.fft, bit
    for bit, on the held buffers of ``lines``, one per axis.  Like
    pocketfft it transforms axis 0 first and scales the inverse once,
    after its first axis, by ``scale``, 1 / prod 2(m_a + 1) rounded from
    long double.  Each axis negates (``_OddLines``); the 2 ndim negations
    of a call cancel, and negation commutes with every operation between
    them exactly.
    """

    lam: np.ndarray
    diag: float
    where: np.ndarray | None
    lines: tuple[_OddLines, ...]
    scale: float

    def __call__(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """s * E^T L0^-1 E (s * r), E the zero extension into the box."""
        first, *rest = self.lines
        if self.where is None:
            np.multiply(s, r, out=first.flat)
        else:
            first.head.fill(0.0)
            first.flat[self.where] = s * r
        y = first()
        for line in rest:
            np.copyto(line.head, y)
            y = line()
        np.divide(y, self.lam, out=first.head)
        y = first()
        scale = self.scale  # after the inverse's first axis only
        for line in rest:
            np.multiply(y, scale, out=line.head)
            scale = 1.0
            y = line()
        if self.where is None:
            return np.multiply(s.reshape(y.shape), y).reshape(-1)
        return s * y.reshape(-1)[self.where]


def _box_preconditioner(
    kern: DiscreteEnergy, block: _FreeBlock
) -> _BoxPreconditioner | None:
    """The fast Poisson preconditioner of the systems ``block`` makes, in
    2D and 3D.

    None in 1D, where ``spsolve`` factors the banded system directly.  Its
    box is the grid's interior box when that holds every node, and
    otherwise, when a node lies on a face of the grid, the whole grid,
    with its Dirichlet condition one node past every face.
    """
    shape = kern.weights.shape
    if len(shape) == 1:
        return None
    if block.in_box is None:
        box, where = shape, block.nodes
    else:
        box = tuple(n - 2 for n in shape)
        where = None if block.box is not None else block.in_box
    h = kern.grid.spacing
    vol = float(np.prod(h))
    lam = np.zeros(box)
    for a, (m, ha) in enumerate(zip(box, h)):
        theta = 0.5 * np.pi * np.arange(1, m + 1) / (m + 1)
        along = (1,) * a + (-1,) + (1,) * (len(box) - 1 - a)
        lam += (4.0 * vol / ha**2 * np.sin(theta) ** 2).reshape(along)
    lines = tuple(_OddLines(box, a) for a in range(len(box)))
    # pocketfft's 1 / N, N an integer rounded once from long double
    scale = float(1 / np.longdouble(math.prod(2 * (m + 1) for m in box)))
    diag = sum(2.0 * vol / ha**2 for ha in h)
    return _BoxPreconditioner(lam, diag, where, lines, scale)


# CG's relative residual for a system solved exactly, and the forcing term
# of an inexact Newton step: a system with clipped curvature, or at
# p != 2, stops at that fraction of the gradient.
_CG_RTOL = 1e-12
_CG_FORCING = 0.1
# A Newton system of the bundled 2D configs takes 1 iteration, one of the
# 2D session fixtures at most 9, and one of any tier-1 test at most 52 (a
# direct solve to _CG_RTOL); a miss is a stall.
_CG_MAX_ITERS = 200


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # np.sum's pairwise reduction (without its Python wrapper), unlike
    # BLAS, does not depend on threads
    return float(np.add.reduce(x * y))


def _pcg(
    M: _Stencil,
    b: np.ndarray,
    precond: _BoxPreconditioner,
    tally: Counter,
    floor: float,
    rtol: float = _CG_RTOL,
) -> np.ndarray | None:
    """Preconditioned CG from zero; None on breakdown or at the iteration cap.

    ``M`` is the stencil of a Newton block.  CG stops once the residual
    norm is at most ``rtol`` times that of ``b`` or at most ``floor``,
    whichever bound is larger.  A solve that the floor stopped counts as a
    floor stop, one that a relative tolerance looser than ``_CG_RTOL``
    stopped as a forcing stop.
    """
    x = np.zeros_like(b)
    if not b.any():
        return x
    rel = rtol**2 * _dot(b, b)
    stop = max(rel, floor * floor)
    rr = math.inf
    with np.errstate(all="ignore"):
        s = np.sqrt(precond.diag / M.diagonal())
        r = b.copy()
        z = precond(s, r)
        rz = _dot(r, z)
        d = z
        for k in range(1, _CG_MAX_ITERS + 1):
            Md = M @ d
            dMd = _dot(d, Md)
            if not (math.isfinite(dMd) and dMd > 0.0):
                break  # M is not positive definite, or the values blew up
            alpha = rz / dMd
            x += alpha * d
            r -= alpha * Md
            rr = _dot(r, r)
            if rr <= stop:
                break
            z = precond(s, r)
            rz, rz_prev = _dot(r, z), rz
            d = z + (rz / rz_prev) * d
    tally["cg_iterations"] += k
    if rr > stop:
        return None
    if stop > rel:
        tally["cg_floor_stops"] += 1
    elif rtol > _CG_RTOL:
        tally["cg_forcing_stops"] += 1
    return x


def solveh_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the SPD banded system of lower band storage ``ab`` (``dpbsv``,
    imported on the first call), which the factorization overwrites.

    LinAlgError when the factorization finds it not positive definite.
    """
    from scipy.linalg import lapack

    _, x, info = lapack.dpbsv(ab, b, lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} not positive definite")
    return x


def spsolve(
    M: _Stencil,
    rhs: np.ndarray,
    precond: _BoxPreconditioner | None = None,
    tally: Counter | None = None,
    floor: float = 0.0,
    rtol: float = _CG_RTOL,
) -> np.ndarray | None:
    """Solve the SPD system ``M x = rhs``; None when CG misses.

    A 1D block (no ``precond``) is solved by LAPACK's banded Cholesky,
    whose LinAlgError for a block it finds not positive definite
    propagates.  A 2D or 3D block is solved by CG with its box
    preconditioner, which stops at a residual norm of ``rtol`` (by default
    ``_CG_RTOL``) times that of ``rhs`` or of ``floor``, whichever is
    larger, and gives None when CG breaks down or reaches its iteration
    cap.  ``tally`` counts the CG iterations, the CG solves that the floor
    stopped and those that a looser ``rtol`` stopped.  The solution may
    be non-finite; the caller checks.
    """
    if precond is None:
        return solveh_banded(M.banded(), rhs)
    return _pcg(M, rhs, precond, Counter() if tally is None else tally, floor, rtol)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x) / x.size) if x.size else 0.0


# ---------------------------------------------------------------------------
# Main minimization loop.


def _check_ladder(ladder: tuple[float, ...], kern: DiscreteEnergy) -> None:
    """ValueError unless the ladder is nonempty and nonincreasing and each
    width is positive and finite, with a finite potential curvature at u = 0
    and finite Dirichlet conductances and Hessian weights psi at zero
    gradient.

    At u = 0 the curvature is one constant, psi at a node depends only on
    its weight, and an edge's conductance only on the spacing and its ends'
    weights, which a grid of at most 3 nodes per axis at the same spacing
    has all of.  It lacks edges between two interior nodes, but in float64
    their sum w/2 + w/2 equals that of a first or last edge,
    w/2 * 1 + w * 1/2, so the check runs on that grid.  A psi that
    overflows (p < 4 with eps^2 tiny) would make a NaN block of inf * 0.
    """
    if not ladder:
        raise ValueError("continuation ladder must not be empty")
    if not all(0.0 < e < math.inf for e in ladder):
        raise ValueError("smoothing widths must be positive and finite")
    if any(a < b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("continuation ladder must be nonincreasing")
    grid = kern.grid
    small = tuple(min(n, 3) for n in grid.shape)
    if small != grid.shape and all(math.isfinite(h) for h in grid.spacing):
        # extents (0, (m - 1) h) with m - 1 = 1 or 2: the spacing is h exactly
        extents = tuple((0.0, (m - 1) * h) for m, h in zip(small, grid.spacing))
        grid = Grid(extents, small)
        kern = DiscreteEnergy(grid, kern.params)
    flat = np.zeros(grid.shape)
    for eps in ladder:
        with np.errstate(all="ignore"):
            at_rest = kern.at(flat, eps)
            arrays = [at_rest.curvature(), *at_rest.conductances]
            if at_rest.hessian is not None:
                arrays.append(at_rest.hessian[0])
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"smoothing width {eps:g} is out of the kernel's range")


def minimize(
    initial: ScalarField,
    params: Params,
    eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
) -> SolveResult:
    """Descend the discrete energy from ``initial`` under its Dirichlet data,
    coarse grids first.

    A ladder that ``_check_ladder`` refuses on ``initial``'s grid raises
    ValueError.  When the grid has a coarse grid (``core.coarse_grid``),
    the field injected onto it is solved first, the same way, and the fine
    level starts from the linear prolongation of that result, with its own
    Dirichlet data, and runs only the ladder's last width: the coarsest
    level runs the whole ladder.  A coarse level that stops short only
    supplies the start.

    Each width is a stage of at most ``_MAX_ITERS`` Newton steps.  A stage
    ends when its residual meets ``_TOL_RESIDUAL``, at the step cap, when
    the polish stops contracting the residual, or in a stall, and is
    recorded once, with its grid's resolution, the residual of the iterate
    it leaves and which of these ``STAGE_EXITS`` it took.  A stall (the
    Armijo search fell below the step floor, the factorization refused
    every model of a Newton step, CG broke down on a Newton system or
    reached its iteration cap, the solution d is not finite, or it is no
    descent direction: g . d <= 0 or not finite) ends the level's ladder,
    and the level returns the best iterate so far.  The result lists every
    level's stages, coarsest first, and sums their work; its ``shortfall``
    is the finest level's.  A level whose last stage misses the tolerance
    carries a ``shortfall`` message naming that stage's exit, smoothing
    width and residual; a line-search stall also names the step length of
    the last accepted Armijo step ("none" before the first), and a
    direction without descent its g . d.
    """
    kern = DiscreteEnergy(initial.grid, params)
    _check_ladder(eps_ladder, kern)
    return _nested(initial, kern, eps_ladder)


def _nested(
    initial: ScalarField, kern: DiscreteEnergy, eps_ladder: tuple[float, ...]
) -> SolveResult:
    """``minimize`` on a checked ladder: the coarse levels, then this one."""
    coarse = inject(initial)
    if coarse is None:
        return _descend(initial, kern, eps_ladder)
    below = _nested(coarse, DiscreteEnergy(coarse.grid, kern.params), eps_ladder)
    start = initial.with_values(prolong(below.field.values))
    fine = _descend(start, kern, eps_ladder[-1:])
    return SolveResult(
        fine.field,
        fine.energy,
        below.stages + fine.stages,
        _work(Counter(below.work) + Counter(fine.work)),
        fine.shortfall,
    )


def _descend(
    initial: ScalarField, kern: DiscreteEnergy, eps_ladder: tuple[float, ...]
) -> SolveResult:
    """The ladder's stages on ``initial``'s grid alone (see ``minimize``)."""
    params = kern.params
    idx_f = np.flatnonzero(initial.free_mask.ravel())
    if idx_f.size == 0:
        return SolveResult(initial, kern.at(initial.values, 0.0).energy)

    block = _FreeBlock(kern, idx_f)
    precond = _box_preconditioner(kern, block)
    one_d = len(block.shape) == 1
    box = block.box
    tally: Counter = Counter()
    stages: list[StageRecord] = []
    t_last = None  # step length of the last accepted Armijo step
    shortfall = None  # why the solve stopped short: a stall ends the ladder

    # The free nodes of a node array, in order, and u - t d on them: through
    # the box's slices when the free nodes fill it, which is cheaper than
    # indexing by idx_f and the same values.
    free = block.gather
    if box is None:
        def step_free(u: np.ndarray, td: np.ndarray) -> None:
            u.reshape(-1)[idx_f] -= td  # a view: .flat indexing is slower
    else:
        def step_free(u: np.ndarray, td: np.ndarray) -> None:
            u[box] -= td.reshape(block.grid)

    w_f = free(kern.weights)

    def free_gradient(state) -> np.ndarray:
        return free(state.gradient())

    def trial(d: np.ndarray, t: float):
        # the state at u - t d on the free nodes, u the current iterate
        u = it.u.copy()
        step_free(u, t * d)
        return kern.at(u, it.eps)

    start = initial.values
    for eps in eps_ladder:
        it = kern.at(start, eps)  # the current iterate
        trace = [it.energy]
        n_it = 0
        n_flat = 0
        polishing = False
        stage_exit = None  # set by a break; else the loop condition decides
        g_f = free_gradient(it)  # kept current with every accepted step
        while (res_rms := _rms(g_f / w_f)) > _TOL_RESIDUAL and n_it < _MAX_ITERS:
            # The rungs cut the potential term delta w F'' at -c (see the
            # module docstring): a 1D step with F'' < 0 starts at c = top,
            # the largest -delta w F'', which cuts nothing, and halves c on
            # each model dpbsv refuses; every step ends on c = 0, the convex
            # part max(F'', 0), positive definite without being stiffened:
            # |F''| over-damps every step.
            term = free(it.curvature())
            term *= params.delta
            term *= w_f
            top = -float(np.min(term))
            halvings = _TRUNCATIONS + 1 if one_d and top > 0.0 else 0
            stall = "no positive definite Newton model"  # unless a rung solves
            for c in (*(top * 0.5**k for k in range(halvings)), 0.0):
                exact = c >= top  # no curvature cut: the model is the Hessian
                M = block(it.conductances, term if exact else np.maximum(term, -c),
                          it.hessian)
                # CG solves the Hessian to the floor at p = 2 and stops any
                # other system at the forcing term: at p != 2 the floor saved
                # a quarter of the Newton steps but took up to four times the
                # CG iterations and twice the time
                floor, rtol = 0.0, _CG_RTOL
                if precond is not None and exact and params.p == 2.0:
                    # rounding u to float64 moves g_f by up to eps |M| |u_f|
                    # per entry, so CG need not resolve a smaller residual;
                    # 0 at a zero iterate
                    blur = abs(M) @ np.abs(free(it.u))
                    floor = np.finfo(float).eps * math.sqrt(_dot(blur, blur))
                elif precond is not None:
                    rtol = _CG_FORCING
                try:
                    d = spsolve(M, g_f, precond, tally, floor, rtol)
                except np.linalg.LinAlgError:
                    continue  # dpbsv refused the model
                tally["linear_solves"] += 1
                if not exact:
                    tally["clipped_models"] += 1
                if d is None:
                    stall = "CG breakdown or iteration cap"
                elif not np.isfinite(d).all():
                    stall = "linear solve non-finite"
                else:
                    stall = None
                break
            if stall is not None:
                shortfall = (
                    f"{stall} at smoothing width {eps:g} (residual rms {res_rms:.3e})"
                )
                stage_exit = "stall"
                break
            slope = _dot(g_f, d)
            if not (0.0 < slope < math.inf):
                # a positive definite model gives g . d > 0; no step along
                # an ascent or non-finite direction is taken
                shortfall = (
                    f"no descent direction at smoothing width {eps:g} "
                    f"(g.d = {slope:.3e}, residual rms {res_rms:.3e})"
                )
                stage_exit = "stall"
                break
            if not polishing:
                t = 1.0
                while t >= _STEP_FLOOR:
                    nxt = trial(d, t)
                    if nxt.energy <= it.energy - _ARMIJO_C1 * t * slope:
                        break
                    tally["backtracks"] += 1
                    t *= _BACKTRACK
                # A failed search close to criticality just means the
                # available decrease sank under float rounding; switch to the
                # residual-monotone polish, whose first step is the Newton
                # direction just solved.  Far from criticality it is a
                # genuine stall and must surface, not pass as success.
                polishing = t < _STEP_FLOOR
                if polishing and res_rms > 1e3 * _TOL_RESIDUAL:
                    last = "none" if t_last is None else f"t = {t_last:g}"
                    shortfall = (
                        f"line search stalled at smoothing width {eps:g} "
                        f"(residual rms {res_rms:.3e}, last accepted step {last})"
                    )
                    stage_exit = "stall"
                    break
            if polishing:
                # Energy decreases here are below float rounding, so Armijo
                # can no longer certify progress; full model steps still
                # contract the residual, which we watch directly instead.
                nxt = trial(d, 1.0)
                g_t = free_gradient(nxt)
                if not _rms(g_t / w_f) < 0.95 * res_rms:
                    stage_exit = "polish"
                    break
                it, g_f = nxt, g_t
                n_it += 1
                tally["polish_steps"] += 1
                continue
            it = nxt
            t_last = t
            g_f = free_gradient(it)
            trace.append(it.energy)
            n_it += 1
            if abs(trace[-2] - trace[-1]) <= _TOL_ENERGY * max(1.0, abs(trace[-1])):
                n_flat += 1
            else:
                n_flat = 0
            if n_flat >= 5:
                # a one-off tiny decrease happens mid-descent; five in a row
                # means the energy is flat to rounding at this smoothing level
                polishing = True
        if stage_exit is None:
            stage_exit = "tolerance" if res_rms <= _TOL_RESIDUAL else "step_cap"
        res_max = float(np.max(np.abs(g_f / w_f)))
        stages.append(
            StageRecord(
                eps,
                n_it,
                tuple(trace),
                it.energy,
                res_rms,
                res_max,
                stage_exit,
                initial.grid.resolution,
            )
        )
        if shortfall is not None:
            break
        start = it.u
    if shortfall is None and stage_exit != "tolerance":
        shortfall = (
            f"{stage_exit} exit at smoothing width {eps:g} "
            f"(residual rms {res_rms:.3e})"
        )
    return SolveResult(
        initial.with_values(it.u),
        kern.at(it.u, 0.0).energy,
        tuple(stages),
        _work(tally),
        shortfall,
    )


# ---------------------------------------------------------------------------
# Dirichlet-term replacement and comparison gaps.


def p_harmonic_replacement(
    field: ScalarField, p: float, region: np.ndarray | None = None
) -> ScalarField:
    """Minimize the Dirichlet term alone over ``region``, boundary data kept.

    Every node outside the relaxed set is pinned at its current value and
    ``minimize`` descends the discrete Dirichlet energy at the single
    smoothing width 1e-9 (which does not enter the conductances at p = 2),
    so the result is a critical point of the same discrete energy that
    ``comparison_gap`` reads, in every dimension.  A result that misses
    the residual tolerance, a stall of that descent included, raises
    SolverStall carrying it, with the descent's ``shortfall`` in its
    message.
    """
    grid = field.grid
    relax = field.free_mask if region is None else (np.asarray(region) & field.free_mask)
    if not relax.any():
        return field
    pinned = ScalarField(grid, field.values, ~relax, field.values)
    params = DiscreteEnergy.dirichlet(grid, p).params
    res = minimize(pinned, params, (1e-9,))
    if not res.converged:
        raise SolverStall(
            f"p-harmonic replacement did not converge: {res.shortfall}", res
        )
    return field.with_values(res.field.values)


def comparison_gap(
    field: ScalarField, replaced: ScalarField, p: float
) -> tuple[float, float]:
    """(gradient distance, Dirichlet energy drop) between a field and its
    Dirichlet-term replacement.

    The distance is the natural monotonicity quantity for the exponent:
    int |grad(u - v)|^p for p >= 2, and the weighted squared distance
    int (|grad u| + |grad v|)^(p-2) |grad(u - v)|^2 for p <= 2 (summands
    with both gradients zero contribute nothing).  The energy drop is
    (int |grad u|^p - int |grad v|^p) / p.
    """
    if field.grid is not replaced.grid and field.grid != replaced.grid:
        raise ValueError("fields live on different grids")
    kern = DiscreteEnergy.dirichlet(field.grid, p)
    w = kern.weights
    su, sv = kern.at(field.values, 0.0), kern.at(replaced.values, 0.0)
    qd = kern.grad_sq(field.values - replaced.values)
    energy_gap = float(np.sum(w * (su.dirichlet - sv.dirichlet)))
    if p >= 2.0:
        distance = float(np.sum(w * qd ** (0.5 * p)))
    else:
        base = np.sqrt(su.q) + np.sqrt(sv.q)
        integrand = np.zeros_like(base)
        nz = base > 0.0
        integrand[nz] = base[nz] ** (p - 2.0) * qd[nz]
        distance = float(np.sum(w * integrand))
    return distance, energy_gap


def nonlinearity_gap(
    field: ScalarField, replaced: ScalarField, params: Params
) -> tuple[float, float]:
    """Potential-term change under replacement and its Hoelder/Lipschitz cap.

    Returns (gap, bound) with gap = delta * int (F(v) - F(u)) and a bound
    valid for the exact potential: gamma-Hoelder in u for gamma <= 1,
    Lipschitz with slope gamma * M**(gamma-1) on |u| <= M for gamma >= 1.
    """
    kern = DiscreteEnergy(field.grid, params)
    w = kern.weights
    u = field.values
    v = replaced.values
    gap = params.delta * float(
        np.sum(w * (kern.at(v, 0.0).potential - kern.at(u, 0.0).potential))
    )
    lam = params.lambda_plus + params.lambda_minus
    g = params.gamma
    diff = np.abs(u - v)
    if g <= 1.0:
        bound = params.delta * lam * float(np.sum(w * diff**g))
    else:
        m = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 0.0)
        bound = params.delta * lam * g * m ** (g - 1.0) * float(np.sum(w * diff))
    return gap, bound
