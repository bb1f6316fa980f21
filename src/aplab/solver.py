"""Energy descent with smoothing continuation.

The objective is nonsmooth at u = 0 (potential) and, away from p = 2,
degenerate or singular in the gradient, so minimization runs over a
ladder of smoothing widths: each stage minimizes the regularized energy
starting from the previous stage's output.  Steps are damped Newton-type:
the linearized diffusion operator (assembled from the same edge
conductances that make up the exact gradient) plus the convex part
max(F'', 0) of the potential curvature, solved sparsely, then an Armijo
backtracking line search on the true stage energy.  A line search that
collapses below the step floor is a stall and raises, carrying the
partial result; so is a Newton system with no finite solution.

Each line-search trial is one ``DiscreteEnergy.at`` state.  The trial
Armijo accepts becomes the next iterate, and the gradient, conductances
and curvature of the next Newton step come from that same state, so
nothing is evaluated twice for one field.

Every linear system is symmetric positive definite and goes through
``spsolve``.  Its sparsity pattern is built once per problem; each
Newton step refills only the values.  A 1D system is tridiagonal: it is
built in band storage and solved by LAPACK's banded Cholesky
(``scipy.linalg.solveh_banded``).  On a 2D or 3D grid whose nodes all lie
strictly inside the box, it is solved by conjugate gradients
preconditioned with a fast Poisson solve: the constant-coefficient
Laplacian of the interior box, inverted by DST-I, with a diagonal scaling
that matches the system's own diagonal (Concus & Golub, SIAM J. Numer.
Anal. 10, 1973).  SuperLU is the counted fallback:
it takes a banded system found not positive definite, a system on which
CG breaks down or reaches its iteration cap, and the diagonal-lift retry
of a non-finite solve.  Inner products are plain ``np.sum`` reductions,
not BLAS, so a solve does not depend on the number of BLAS threads.

Importing the module loads no scipy module: ``scipy.sparse`` loads with
the first CSR system, ``scipy.linalg`` (the banded Cholesky) and
``scipy.sparse.linalg`` (SuperLU) on the first solve that calls them, so a
2D or 3D solve that CG finishes needs neither and a 1D solve needs no
``scipy.sparse``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Grid, Params, ScalarField
from .energy import DiscreteEnergy, potential_value

if TYPE_CHECKING:
    import scipy.sparse as sp

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


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage: smoothing width, trace, exit residual and why."""

    eps: float  # width of both the potential and the gradient smoothing
    n_iters: int
    energies: tuple[float, ...]
    residual_rms: float
    exit: str  # one of STAGE_EXITS


# Why a stage ended: the value of StageRecord.exit.
STAGE_EXITS = (
    "tolerance",  # the residual met _TOL_RESIDUAL
    "step_cap",  # _MAX_ITERS Newton steps were taken
    "polish",  # the residual-monotone polish stopped contracting
    "stall",  # a failed line search far from criticality, or no finite solve
)


# The work counters of a solve: fields of SolveResult and keys of its tally.
WORK_COUNTERS = (
    "linear_solves",  # systems solved, one per Newton step
    "cg_iterations",  # preconditioned CG iterations over all of them
    "superlu_solves",  # fallback solves: CG misses, banded non-SPD, lifts
    "lift_retries",  # non-finite solves retried with a lifted diagonal
    "gradient_fallbacks",  # non-descent Newton directions replaced
    "backtracks",  # Armijo trials rejected, those of a failed search included
)


@dataclass(frozen=True)
class SolveResult:
    """A solve's final field, its stages and its ``WORK_COUNTERS``.

    The totals derive from the stages; ``converged`` means that the last
    stage's exit residual meets ``_TOL_RESIDUAL`` (no stages: no free node).
    """

    field: ScalarField
    energy: float  # exact-potential energy of the final iterate
    stages: tuple[StageRecord, ...] = ()
    linear_solves: int = 0
    cg_iterations: int = 0
    superlu_solves: int = 0
    lift_retries: int = 0
    gradient_fallbacks: int = 0
    backtracks: int = 0

    @property
    def n_iterations(self) -> int:
        return sum(s.n_iters for s in self.stages)

    @property
    def residual_rms(self) -> float:
        """Scaled gradient rms of the final field at the last stage's width."""
        return self.stages[-1].residual_rms if self.stages else 0.0

    @property
    def converged(self) -> bool:
        return self.residual_rms <= _TOL_RESIDUAL


class SolverStall(RuntimeError):
    """A solve stopped short of its tolerance; .result holds the partial state.

    ``minimize`` raises it when the line search falls below the step floor
    or a linear solve stays non-finite, ``p_harmonic_replacement`` also
    when the descent ends unconverged.
    """

    def __init__(self, message: str, result: SolveResult):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# Linearized operator.


class _FreeBlock:
    """scale * A + diag(shift) restricted to a fixed sorted flat node set.

    A is the diffusion operator (A v)_i = sum_edges kappa (v_i - v_j).  The
    pattern is built once per node set: each axis's edges with both ends in
    the set (flat positions in that axis's conductance array), which alone
    give off-diagonal entries, and the block's sparse structure.  A call
    refills only the values.  The diagonal is summed over the whole grid,
    axis by axis and lower end first, the order in which COO->CSR would sum
    duplicate entries.  In 1D the block is tridiagonal and comes as its
    LAPACK upper band storage, an array of shape (2, m) whose row 0 holds
    the superdiagonal (entry j couples j - 1 and j) and row 1 the diagonal;
    else it is CSR, bit for bit the matrix COO->CSR makes of the
    (main, upper, lower) entries.  Every CSR block of one pattern shares its
    ``indices`` and ``indptr`` arrays.
    """

    def __init__(self, kern: DiscreteEnergy, nodes: np.ndarray):
        m = nodes.size
        self.nodes = nodes
        self.shape = kern.weights.shape
        self.ends = [(lo, hi) for lo, hi, *_ in kern.axes]
        pos = np.full(self.shape, -1)  # block index of each node, -1 if outside
        pos.flat[nodes] = np.arange(m)
        self.edges, rows, cols = [], [], []
        for lo, hi in self.ends:
            i, j = pos[lo], pos[hi]
            both = (i >= 0) & (j >= 0)
            self.edges.append(np.flatnonzero(both))
            rows.append(i[both])
            cols.append(j[both])
        if len(self.shape) == 1:
            # an edge joins block neighbours j = i + 1; across a gap the band is 0
            (self.upper,) = cols
            return
        i, j = np.concatenate(rows), np.concatenate(cols)
        at = np.arange(m)
        row = np.concatenate((at, i, j))
        col = np.concatenate((at, j, i))
        # (main, k, k) entry of each CSR slot: rows in order, columns sorted
        self.order = np.lexsort((col, row))
        self.indices = col[self.order].astype(np.int32)
        self.indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(row, minlength=m), out=self.indptr[1:])

    def __call__(
        self, kappas, scale: float = 1.0, shift=0.0
    ) -> sp.csr_matrix | np.ndarray:
        m = self.nodes.size
        diag = np.zeros(self.shape)
        ks = []
        for (lo, hi), kap, edges in zip(self.ends, kappas, self.edges):
            diag[lo] += kap
            diag[hi] += kap
            ks.append(scale * -np.take(kap, edges))
        main = scale * diag.ravel()[self.nodes] + shift
        if diag.ndim == 1:
            bands = np.zeros((2, m))
            bands[0, self.upper] = ks[0]
            bands[1] = main
            return bands
        import scipy.sparse as sp

        k = np.concatenate(ks)
        data = np.concatenate((main, k, k))[self.order]
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(m, m))


def assemble_diffusion(
    values: np.ndarray, grid: Grid, p: float, eps: float
) -> sp.csr_matrix:
    """The Dirichlet diffusion operator over all nodes, conductances of ``values``.

    Nothing in the package calls it; the benchmark's tracer patches this
    name, so it stays until the benchmark drops it.
    """
    kern = DiscreteEnergy.dirichlet(grid, p)
    block = _FreeBlock(kern, np.arange(kern.weights.size))
    return _csr(block(kern.at(values, eps).conductances))


def _csr(M: sp.csr_matrix | np.ndarray) -> sp.csr_matrix:
    """A block as CSR; 1D upper band rows are mirrored below the diagonal."""
    if not isinstance(M, np.ndarray):
        return M.tocsr()
    import scipy.sparse as sp

    m = M.shape[1]
    bands = np.vstack((M, np.append(M[0, 1:], 0.0)))
    return sp.dia_matrix((bands, (1, 0, -1)), shape=(m, m)).tocsr()


@dataclass(frozen=True)
class _BoxPreconditioner:
    """Fast Poisson solve on the interior box of the grid.

    ``lam`` holds the eigenvalues, on the DST-I basis of every axis, of
    ``L0 = sum_a (vol / h_a^2) T_a`` with ``T_a`` the Dirichlet second
    difference along axis a; ``diag`` is L0's (constant) diagonal and
    ``where`` each node's flat position in the box, None when the nodes
    fill the whole box.
    """

    lam: np.ndarray
    diag: float
    where: np.ndarray | None

    def __call__(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """s * E^T L0^-1 E (s * r), E the zero extension into the box."""
        from scipy.fft import dstn, idstn

        y = s * r
        if self.where is not None:
            y = np.zeros(self.lam.size)
            y[self.where] = s * r
        y = dstn(y.reshape(self.lam.shape), type=1)
        y /= self.lam
        y = idstn(y, type=1, overwrite_x=True).reshape(-1)
        return s * (y if self.where is None else y[self.where])


def _box_preconditioner(
    kern: DiscreteEnergy, nodes: np.ndarray
) -> _BoxPreconditioner | None:
    """The fast Poisson preconditioner of systems on ``nodes``, if one applies.

    None in 1D, where ``spsolve`` factors the tridiagonal band directly,
    and when a node lies on a box face, which the interior box does not
    hold.
    """
    shape = kern.weights.shape
    index = np.unravel_index(nodes, shape)
    if len(shape) == 1 or any(
        np.any((i == 0) | (i == n - 1)) for i, n in zip(index, shape)
    ):
        return None
    box = tuple(n - 2 for n in shape)
    h = kern.grid.spacing
    vol = float(np.prod(h))
    lam = np.zeros(box)
    for a, (m, ha) in enumerate(zip(box, h)):
        theta = 0.5 * np.pi * np.arange(1, m + 1) / (m + 1)
        along = (1,) * a + (-1,) + (1,) * (len(box) - 1 - a)
        lam += (4.0 * vol / ha**2 * np.sin(theta) ** 2).reshape(along)
    where = np.ravel_multi_index(tuple(i - 1 for i in index), box)
    if where.size == lam.size:  # sorted and distinct, so where == arange
        where = None
    return _BoxPreconditioner(lam, sum(2.0 * vol / ha**2 for ha in h), where)


_CG_RTOL = 1e-12
# The Newton systems of the bundled 2D configs and of the test fixtures
# take at most 47 iterations; a miss costs at most a few SuperLU solves.
_CG_MAX_ITERS = 200


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # np.sum's pairwise reduction, unlike BLAS, does not depend on threads
    return float(np.sum(x * y))


def _pcg(
    M: sp.csr_matrix, b: np.ndarray, precond: _BoxPreconditioner, tally: Counter
) -> np.ndarray | None:
    """Preconditioned CG from zero; None on breakdown or at the iteration cap."""
    x = np.zeros_like(b)
    if not b.any():
        return x
    stop = _CG_RTOL**2 * _dot(b, b)
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
    return x if rr <= stop else None


# scipy's two direct solvers, imported on their first call.
def solveh_banded(ab: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    from scipy import linalg

    return linalg.solveh_banded(ab, b, **kwargs)


def _superlu(M: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    from scipy.sparse import linalg

    return linalg.spsolve(M, rhs)


def spsolve(
    M: sp.csr_matrix | np.ndarray,
    rhs: np.ndarray,
    precond: _BoxPreconditioner | None = None,
    tally: Counter | None = None,
) -> np.ndarray:
    """Solve the SPD system ``M x = rhs``.

    A banded ``M`` (LAPACK upper band storage, an array) is solved by
    banded Cholesky; a system with a box preconditioner by
    preconditioned CG.  Everything else goes to SuperLU, and so does a
    system that the banded factorization finds not positive definite or on
    which CG breaks down or reaches its iteration cap.  ``tally`` counts
    the CG iterations and the SuperLU solves.
    """
    if tally is None:
        tally = Counter()
    if isinstance(M, np.ndarray):
        try:
            return solveh_banded(M, rhs, check_finite=False)
        except np.linalg.LinAlgError:  # scipy.linalg raises numpy's class
            M = _csr(M)
    elif precond is not None:
        x = _pcg(M, rhs, precond, tally)
        if x is not None:
            return x
    tally["superlu_solves"] += 1
    return _superlu(M, rhs)


def _solve_spd(
    M: sp.csr_matrix | np.ndarray,
    rhs: np.ndarray,
    precond: _BoxPreconditioner | None,
    tally: Counter,
) -> np.ndarray | None:
    """Sparse SPD solve with a tiny diagonal lift retry for rank issues.

    None when the lifted solve is still non-finite.
    """
    tally["linear_solves"] += 1
    with np.errstate(all="ignore"):
        x = spsolve(M, rhs, precond, tally)
    if np.all(np.isfinite(x)):
        return x
    import scipy.sparse as sp

    tally["lift_retries"] += 1
    M = _csr(M)
    diag = M.diagonal()
    lift = 1e-12 * float(np.max(np.abs(diag))) + 1e-300
    x = spsolve(M + lift * sp.identity(M.shape[0], format="csr"), rhs, None, tally)
    return x if np.all(np.isfinite(x)) else None


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x))) if x.size else 0.0


# ---------------------------------------------------------------------------
# Main minimization loop.


def _check_ladder(ladder: tuple[float, ...], kern: DiscreteEnergy) -> None:
    """ValueError unless the ladder is nonempty and nonincreasing and each
    width is positive and finite, with a finite potential curvature at u = 0
    and finite Dirichlet conductances at zero gradient."""
    if not ladder:
        raise ValueError("continuation ladder must not be empty")
    if not all(0.0 < e < math.inf for e in ladder):
        raise ValueError("smoothing widths must be positive and finite")
    if any(a < b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("continuation ladder must be nonincreasing")
    flat = np.zeros(kern.grid.shape)
    for eps in ladder:
        with np.errstate(all="ignore"):
            at_rest = kern.at(flat, eps)
            curv = at_rest.curvature()
            kappas = at_rest.conductances
        if not (np.isfinite(curv).all() and all(np.isfinite(k).all() for k in kappas)):
            raise ValueError(f"smoothing width {eps:g} is out of the kernel's range")


def minimize(
    initial: ScalarField,
    params: Params,
    eps_ladder: tuple[float, ...] = DEFAULT_LADDER,
) -> SolveResult:
    """Descend the discrete energy from ``initial`` under its Dirichlet data.

    Each width of ``eps_ladder`` is a stage of at most ``_MAX_ITERS`` Newton
    steps; a ladder that ``_check_ladder`` refuses raises ValueError.  A
    stage ends when its residual meets ``_TOL_RESIDUAL``, at the step cap,
    when the polish stops contracting the residual, or in a stall, and is
    recorded once, with the residual of the iterate it leaves and which of
    these ``STAGE_EXITS`` it took.  A stall then raises SolverStall
    carrying the best iterate so far: the Armijo search fell below the
    step floor, or a Newton system had no finite solution even after the
    diagonal lift.  Its message names the stage's smoothing
    width and the residual; a line-search stall also names the step length
    of the last accepted Armijo step ("none" before the first).
    """
    kern = DiscreteEnergy(initial.grid, params)
    _check_ladder(eps_ladder, kern)
    idx_f = np.flatnonzero(initial.free_mask.ravel())
    w_f = kern.weights.ravel()[idx_f]
    it = kern.at(initial.values, 0.0)  # the current iterate
    if idx_f.size == 0:
        return SolveResult(initial, it.energy)

    precond = _box_preconditioner(kern, idx_f)
    block = _FreeBlock(kern, idx_f)
    tally: Counter = Counter()
    stages: list[StageRecord] = []
    t_last = None  # step length of the last accepted Armijo step
    stall = None  # the message of a stall, which ends the solve

    def free_gradient(state) -> np.ndarray:
        return state.gradient().ravel()[idx_f]

    def trial(d: np.ndarray, t: float):
        # the state at u - t d on the free nodes, u the current iterate
        u = it.u.copy()
        u.reshape(-1)[idx_f] -= t * d  # a view: .flat indexing is slower
        return kern.at(u, it.eps)

    # The lagged operator carries |∇u|^{p-2}, but the curvature of
    # t ↦ |t|^{p-2} t along the gradient is (p-1)|t|^{p-2}; for p > 2
    # the unscaled model understates stiffness and every Newton step
    # overshoots into a backtrack.  Scaling by p-1 restores the
    # one-dimensional Hessian exactly and only over-damps transverse
    # directions, which Armijo tolerates.
    stiff = max(params.p - 1.0, 1.0)
    for eps in eps_ladder:
        it = kern.at(it.u, eps)
        trace = [it.energy]
        n_it = 0
        n_flat = 0
        polishing = False
        stage_exit = None  # set by a break; else the loop condition decides
        g_f = free_gradient(it)  # kept current with every accepted step
        while (res_rms := _rms(g_f / w_f)) > _TOL_RESIDUAL and n_it < _MAX_ITERS:
            # Only the convex part max(F'', 0) of the potential enters the
            # model (Nocedal & Wright, Numerical Optimization, ch. 3), so it
            # stays SPD where F is concave (gamma < 1, away from u = 0)
            # without stiffening there: |F''| over-damps every step, and the
            # signed F'' is indefinite and fails the (2, 0.5) restricted run.
            curv = params.delta * np.maximum(it.curvature(), 0.0)
            M = block(it.conductances, stiff, w_f * curv.ravel()[idx_f])
            d = _solve_spd(M, g_f, precond, tally)
            if d is None:
                stall = (
                    f"linear solve non-finite at smoothing width {eps:g} "
                    f"(residual rms {res_rms:.3e})"
                )
                stage_exit = "stall"
                break
            if not polishing:
                step, slope = d, _dot(g_f, d)
                if not math.isfinite(slope) or slope <= 0.0:
                    # fall back to a diagonally preconditioned gradient step
                    tally["gradient_fallbacks"] += 1
                    dg = M[-1] if isinstance(M, np.ndarray) else M.diagonal()
                    dg = np.where(dg > 0, dg, np.max(dg) if np.max(dg) > 0 else 1.0)
                    step = g_f / dg
                    slope = _dot(g_f, step)
                t = 1.0
                while t >= _STEP_FLOOR:
                    nxt = trial(step, t)
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
                    stall = (
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
        stages.append(StageRecord(eps, n_it, tuple(trace), res_rms, stage_exit))
        if stall is not None:
            break

    result = SolveResult(
        initial.with_values(it.u),
        kern.at(it.u, 0.0).energy,
        tuple(stages),
        **{k: tally[k] for k in WORK_COUNTERS},
    )
    if stall is not None:
        raise SolverStall(stall, result)
    return result


# ---------------------------------------------------------------------------
# Dirichlet-term replacement and comparison gaps.


def _affine_fill_1d(values: np.ndarray, relax: np.ndarray) -> np.ndarray:
    """Interpolate every relaxed run linearly between its pinned neighbours."""
    if relax[0] or relax[-1]:
        raise ValueError("replacement region must be bounded by pinned nodes")
    n = len(values)
    k = np.arange(n)
    left = np.maximum.accumulate(np.where(relax, 0, k))
    right = np.minimum.accumulate(np.where(relax, n, k)[::-1])[::-1]
    r = np.flatnonzero(relax)
    lo, hi = left[r], right[r]
    out = values.copy()
    out[r] = values[lo] + (values[hi] - values[lo]) * (r - lo) / (hi - lo)
    return out


def p_harmonic_replacement(
    field: ScalarField, p: float, region: np.ndarray | None = None
) -> ScalarField:
    """Minimize the Dirichlet term alone over ``region``, boundary data kept.

    In 1D the minimizer is affine on each relaxed run for every p, so it
    is filled in exactly.  In 2D and 3D every node outside the relaxed set
    is pinned at its current value and ``minimize`` descends the Dirichlet
    energy at the single smoothing width 1e-9 (which does not enter the
    conductances at p = 2).  A result that misses the residual tolerance
    raises SolverStall carrying it, as does a stall inside ``minimize``.
    """
    grid = field.grid
    relax = field.free_mask if region is None else (np.asarray(region) & field.free_mask)
    if not relax.any():
        return field
    if grid.ndim == 1:
        return field.with_values(_affine_fill_1d(np.array(field.values), relax))
    pinned = ScalarField(grid, field.values, ~relax, field.values)
    params = DiscreteEnergy.dirichlet(grid, p).params
    res = minimize(pinned, params, (1e-9,))
    if not res.converged:
        raise SolverStall(
            "p-harmonic replacement did not converge "
            f"(residual rms {res.residual_rms:.3e})",
            res,
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
    qu = kern.grad_sq(field.values)
    qv = kern.grad_sq(replaced.values)
    qd = kern.grad_sq(field.values - replaced.values)
    energy_gap = float(np.sum(w * (qu ** (0.5 * p) - qv ** (0.5 * p)))) / p
    if p >= 2.0:
        distance = float(np.sum(w * qd ** (0.5 * p)))
    else:
        base = np.sqrt(qu) + np.sqrt(qv)
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
    grid = field.grid
    w = grid.quadrature_weights
    u = field.values
    v = replaced.values
    gap = params.delta * float(
        np.sum(w * (potential_value(v, params) - potential_value(u, params)))
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
