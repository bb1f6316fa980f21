"""Energy descent with smoothing continuation.

The objective is nonsmooth at u = 0 (potential) and, away from p = 2,
degenerate or singular in the gradient, so minimization runs over a
ladder of smoothing widths: each stage minimizes the regularized energy
starting from the previous stage's output.  Steps are damped Newton-type:
the linearized diffusion operator (assembled from the same edge
conductances that make up the exact gradient) plus the clipped potential
curvature, solved sparsely, then an Armijo backtracking line search on
the true stage energy.  A line search that collapses below the step
floor is a stall and raises, carrying the partial result.

Every linear system is symmetric positive definite and goes through
``spsolve``.  On a 2D or 3D grid whose nodes all lie strictly inside the
box, it is solved by conjugate gradients preconditioned with a fast
Poisson solve: the constant-coefficient Laplacian of the interior box,
inverted by DST-I, with a diagonal scaling that matches the system's own
diagonal (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  1D systems, and
a system on which CG breaks down or reaches its iteration cap, go to
SuperLU.  Inner products are plain ``np.sum`` reductions, not BLAS, so a
solve does not depend on the number of BLAS threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve as _superlu

from .core import Grid, Params, ScalarField
from .energy import DiscreteEnergy, potential_curvature, potential_value

__all__ = [
    "SolverConfig",
    "StageRecord",
    "SolveResult",
    "SolverStall",
    "minimize",
    "p_harmonic_replacement",
    "comparison_gap",
    "nonlinearity_gap",
]

_DEFAULT_LADDER = tuple(10.0 ** (-1.0 - 0.5 * j) for j in range(9))  # 1e-1 .. 1e-5


@dataclass(frozen=True)
class SolverConfig:
    eps_ladder: tuple[float, ...] = _DEFAULT_LADDER
    max_iters: int = 400
    tol_residual: float = 1e-7
    tol_energy: float = 1e-15
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    step_floor: float = 1e-14

    def __post_init__(self) -> None:
        if not self.eps_ladder:
            raise ValueError("continuation ladder must not be empty")
        if any(e <= 0 for e in self.eps_ladder):
            raise ValueError("smoothing widths must be positive")
        if any(
            a < b for a, b in zip(self.eps_ladder, self.eps_ladder[1:])
        ):
            raise ValueError("continuation ladder must be nonincreasing")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.armijo_c1 < 1.0):
            raise ValueError("armijo_c1 must lie in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")
        if not (0.0 < self.step_floor < 1.0):
            raise ValueError("step_floor must lie in (0, 1)")
        for name in ("tol_residual", "tol_energy"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage: smoothing width, trace, exit residual."""

    eps: float  # width of both the potential and the gradient smoothing
    n_iters: int
    energies: tuple[float, ...]
    residual_rms: float


@dataclass(frozen=True)
class SolveResult:
    field: ScalarField
    energy: float  # exact-potential energy of the final iterate
    residual_rms: float  # scaled gradient rms at the last stage's widths
    stages: tuple[StageRecord, ...] = dc_field(default=())
    converged: bool = False
    n_iterations: int = 0
    linear_solves: int = 0  # systems solved, one per Newton step
    cg_iterations: int = 0  # preconditioned CG iterations over all of them
    superlu_solves: int = 0  # 1D solves, CG misses and diagonal-lift retries


class SolverStall(RuntimeError):
    """A solve stopped short of its tolerance; .result holds the partial state.

    ``minimize`` raises it when the line search falls below the step floor,
    ``p_harmonic_replacement`` also when the descent ends unconverged.
    """

    def __init__(self, message: str, result: SolveResult):
        super().__init__(message)
        self.result = result


# ---------------------------------------------------------------------------
# Linearized operator.


def _free_block(
    kern: DiscreteEnergy, kappas, nodes: np.ndarray, scale: float = 1.0, shift=0.0
) -> sp.csr_matrix:
    """scale * A + diag(shift) restricted to the sorted flat node set ``nodes``.

    A is the diffusion operator (A v)_i = sum_edges kappa (v_i - v_j).  Its
    diagonal is summed over the whole grid, axis by axis and lower end
    first, the order in which COO->CSR would sum duplicate entries; only
    edges with both ends in ``nodes`` give off-diagonal entries.
    """
    at = np.arange(nodes.size)
    pos = np.full(kern.weights.shape, -1)  # block index of each node, -1 if outside
    pos.flat[nodes] = at
    diag = np.zeros(kern.weights.shape)
    rows, cols, data = [at], [at], []
    for (lo, hi, *_), kap in zip(kern.axes, kappas):
        diag[lo] += kap
        diag[hi] += kap
        i, j = pos[lo], pos[hi]
        both = (i >= 0) & (j >= 0)
        i, j, k = i[both], j[both], scale * -kap[both]
        rows.extend((i, j))
        cols.extend((j, i))
        data.extend((k, k))
    data.insert(0, scale * diag.ravel()[nodes] + shift)
    M = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(at.size, at.size),
    )
    return M.tocsr()


def assemble_diffusion(
    values: np.ndarray, grid: Grid, p: float, eps: float
) -> sp.csr_matrix:
    """The Dirichlet diffusion operator over all nodes, conductances of ``values``.

    Nothing in the package calls it; the benchmark's tracer patches this
    name, so it stays until the benchmark drops it.
    """
    kern = DiscreteEnergy.dirichlet(grid, p)
    return _free_block(kern, kern.conductances(kern.grad_sq(values), eps),
                       np.arange(kern.weights.size))


@dataclass(frozen=True)
class _BoxPreconditioner:
    """Fast Poisson solve on the interior box of the grid.

    ``lam`` holds the eigenvalues, on the DST-I basis of every axis, of
    ``L0 = sum_a (vol / h_a^2) T_a`` with ``T_a`` the Dirichlet second
    difference along axis a; ``diag`` is L0's (constant) diagonal and
    ``where`` each node's flat position in the box.
    """

    lam: np.ndarray
    diag: float
    where: np.ndarray

    def __call__(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """s * E^T L0^-1 E (s * r), E the zero extension into the box."""
        from scipy.fft import dstn, idstn

        y = np.zeros(self.lam.size)
        y[self.where] = s * r
        y = dstn(y.reshape(self.lam.shape), type=1)
        y /= self.lam
        y = idstn(y, type=1, overwrite_x=True)
        return s * y.reshape(-1)[self.where]


def _box_preconditioner(
    kern: DiscreteEnergy, nodes: np.ndarray
) -> _BoxPreconditioner | None:
    """The fast Poisson preconditioner of systems on ``nodes``, if one applies.

    None in 1D, where SuperLU's tridiagonal solve is cheap, and when a node
    lies on a box face, which the interior box does not hold.
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


def spsolve(
    M: sp.csr_matrix,
    rhs: np.ndarray,
    precond: _BoxPreconditioner | None = None,
    tally: Counter | None = None,
) -> np.ndarray:
    """Solve the SPD system ``M x = rhs``.

    By preconditioned CG when given a box preconditioner, else by SuperLU;
    a CG breakdown or a CG run that reaches the iteration cap falls back to
    SuperLU on the same system.  ``tally`` counts the CG iterations and the
    SuperLU solves.
    """
    if tally is None:
        tally = Counter()
    if precond is not None:
        x = _pcg(M, rhs, precond, tally)
        if x is not None:
            return x
    tally["superlu_solves"] += 1
    return _superlu(M, rhs)


def _solve_spd(
    M: sp.csr_matrix,
    rhs: np.ndarray,
    precond: _BoxPreconditioner | None,
    tally: Counter,
) -> np.ndarray:
    """Sparse SPD solve with a tiny diagonal lift retry for rank issues."""
    tally["linear_solves"] += 1
    with np.errstate(all="ignore"):
        x = spsolve(M, rhs, precond, tally)
    if np.all(np.isfinite(x)):
        return x
    diag = M.diagonal()
    lift = 1e-12 * float(np.max(np.abs(diag))) + 1e-300
    x = spsolve(M + lift * sp.identity(M.shape[0], format="csr"), rhs, None, tally)
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("linearized solve produced non-finite values")
    return x


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x))) if x.size else 0.0


# ---------------------------------------------------------------------------
# Main minimization loop.


def minimize(
    initial: ScalarField,
    params: Params,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Descend the discrete energy from ``initial`` under its Dirichlet data.

    Raises SolverStall when the Armijo search cannot make progress above
    the step floor; the exception carries the best iterate so far.  The
    returned ``converged`` flag certifies that the scaled gradient rms at
    the final smoothing widths met ``tol_residual``.
    """
    if config is None:
        config = SolverConfig()
    kern = DiscreteEnergy(initial.grid, params)
    idx_f = np.flatnonzero(initial.free_mask.ravel())
    w_f = kern.weights.ravel()[idx_f]
    u = initial.values  # node values of the current iterate
    q = kern.grad_sq(u)  # its gradient-square, shared by every smoothing width
    if idx_f.size == 0:
        return SolveResult(initial, kern.energy(u, q, 0.0), 0.0, (), True, 0)

    precond = _box_preconditioner(kern, idx_f)
    tally: Counter = Counter()
    stages: list[StageRecord] = []
    total_iters = 0
    res_rms = math.inf

    def model(v: np.ndarray, qv: np.ndarray, eps: float) -> tuple:
        """The edge conductances of v and its free-node energy gradient."""
        kap = kern.conductances(qv, eps)
        return kap, kern.gradient(v, kap, eps).ravel()[idx_f]

    def result(converged: bool) -> SolveResult:
        return SolveResult(
            field=initial.with_values(u),
            energy=kern.energy(u, q, 0.0),
            residual_rms=res_rms,
            stages=tuple(stages),
            converged=converged,
            n_iterations=total_iters,
            linear_solves=tally["linear_solves"],
            cg_iterations=tally["cg_iterations"],
            superlu_solves=tally["superlu_solves"],
        )

    # The lagged operator carries |∇u|^{p-2}, but the curvature of
    # t ↦ |t|^{p-2} t along the gradient is (p-1)|t|^{p-2}; for p > 2
    # the unscaled model understates stiffness and every Newton step
    # overshoots into a backtrack.  Scaling by p-1 restores the
    # one-dimensional Hessian exactly and only over-damps transverse
    # directions, which Armijo tolerates.
    stiff = max(params.p - 1.0, 1.0)
    for eps in config.eps_ladder:
        energy = kern.energy(u, q, eps)
        trace = [energy]
        n_it = 0
        res_rms = math.inf
        n_flat = 0
        polishing = False
        kappas, g_f = model(u, q, eps)  # kept current with every accepted step
        for _ in range(config.max_iters):
            res_rms = _rms(g_f / w_f)
            if res_rms <= config.tol_residual:
                break
            # |F''|, not max(F'', 0): for gamma < 1 the potential is concave
            # where it matters and a pure-diffusion model lets Newton overshoot
            # there, throttling every stage; the absolute value keeps the model
            # SPD and sized to the true local stiffness.
            curv = params.delta * np.abs(potential_curvature(u, params, eps))
            M = _free_block(kern, kappas, idx_f, stiff, w_f * curv.ravel()[idx_f])
            d = _solve_spd(M, g_f, precond, tally)
            if polishing:
                # Energy decreases here are below float rounding, so Armijo
                # can no longer certify progress; full model steps still
                # contract the residual, which we watch directly instead.
                trial = u.copy()
                trial.flat[idx_f] -= d
                q_t = kern.grad_sq(trial)
                kap_t, g_t = model(trial, q_t, eps)
                r2 = _rms(g_t / w_f)
                if not (math.isfinite(r2) and r2 < 0.95 * res_rms):
                    break
                u, q, res_rms, kappas, g_f = trial, q_t, r2, kap_t, g_t
                n_it += 1
                total_iters += 1
                continue
            slope = _dot(g_f, d)
            if not math.isfinite(slope) or slope <= 0.0:
                # fall back to a diagonally preconditioned gradient step
                dg = M.diagonal()
                dg = np.where(dg > 0, dg, np.max(dg) if np.max(dg) > 0 else 1.0)
                d = g_f / dg
                slope = _dot(g_f, d)
            t = 1.0
            accepted = None
            while t >= config.step_floor:
                trial = u.copy()
                trial.flat[idx_f] -= t * d
                q_t = kern.grad_sq(trial)
                e_t = kern.energy(trial, q_t, eps)
                if e_t <= energy - config.armijo_c1 * t * slope:
                    accepted = (trial, q_t, e_t)
                    break
                t *= config.backtrack
            if accepted is None:
                # A failed search close to criticality just means the
                # available decrease sank under float rounding; switch to the
                # residual-monotone polish.  Far from criticality it is a
                # genuine stall and must surface, not pass as success.
                if res_rms <= 1e3 * config.tol_residual:
                    polishing = True
                    continue
                stages.append(StageRecord(eps, n_it, tuple(trace), res_rms))
                raise SolverStall(
                    f"line search stalled at smoothing width {eps:g} "
                    f"(residual rms {res_rms:.3e})",
                    result(False),
                )
            u, q, energy = accepted
            kappas, g_f = model(u, q, eps)
            trace.append(energy)
            n_it += 1
            total_iters += 1
            if abs(trace[-2] - trace[-1]) <= config.tol_energy * max(
                1.0, abs(trace[-1])
            ):
                n_flat += 1
            else:
                n_flat = 0
            if n_flat >= 5:
                # a one-off tiny decrease happens mid-descent; five in a row
                # means the energy is flat to rounding at this smoothing level
                polishing = True
        stages.append(StageRecord(eps, n_it, tuple(trace), res_rms))

    return result(res_rms <= config.tol_residual)


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
    res = minimize(pinned, params, SolverConfig(eps_ladder=(1e-9,)))
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
