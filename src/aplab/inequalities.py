"""Elementary vector inequalities behind the energy comparison estimates.

Each check evaluates both sides on arrays of vector pairs and returns the
margins (rhs - lhs, oriented so that nonnegative means the inequality
holds).  The constants are the provable ones where a clean closed form
exists.  The two-sided equivalence constant for the half-power map V is
the largest ratio (or reciprocal ratio) of its two sides; the ratio
reduces exactly to two curves in one parameter, whose end values give
it in closed form (see ``calibrate_v_constant``).

Pairs are arrays of shape (..., N); reductions run over the last axis.
Computations preserve the input dtype.  A sum over the last axis (``_dot``,
and ``_norm`` through it) adds the component terms one by one, left to
right, starting from +0.0.  For N < 8 that is the order in which
``np.sum(..., axis=-1)`` adds them, so the result is the same bit for bit,
signed zeros included, without numpy's per-row cost of reducing a short
axis (about half the time of a sweep at N = 2).  For N >= 8
numpy sums pairwise, so those axes (and an empty one) still go through
``np.sum``.

The randomized sweeps report scale-free margins in float64.  Every check
is homogeneous of degree p in (a, b), so a sweep scales each pair to
max(|a|, |b|) = 1 before evaluating it, which keeps the sign of every
margin, and the sum margin is further divided by its weighted right-hand
side.  Rounding is then relative to 1 and grows only like p ulps
(about -3e-15 at p = 4 and -7e-13 at p = 1000), whereas absolute margins
of pairs with |a| near 14 carry rounding of order 14^p and overflow at
p = 1000.  Extended precision is therefore not needed: it only held that
absolute rounding under the gate at small p.  Past the float range
(monotonicity and the sum from p = 1025) a sweep raises instead of
reporting a non-finite margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "v_map",
    "check_sum_inequality",
    "check_convexity_inequality",
    "check_monotonicity",
    "monotonicity_constant",
    "check_v_equivalence",
    "calibrate_v_constant",
    "InequalityReport",
    "sweep_inequality",
]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sum(a * b, axis=-1), bit for bit; see the module docstring."""
    if not 0 < a.shape[-1] < 8:
        return np.sum(a * b, axis=-1)
    s = a[..., 0] * b[..., 0]
    s += 0  # the +0.0 start: a sum of -0 terms is +0, as in np.sum
    for k in range(1, a.shape[-1]):
        s += a[..., k] * b[..., k]
    return s


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _power(n: np.ndarray, e: float) -> np.ndarray:
    """n ** e, and 0 where n = 0 for every e, negative e included.

    For e > 0 the power is already +0 at a +0 base, so only e <= 0 takes
    the mask.  A -0 base would give -0 at odd integer e, but every base
    here is a norm, a sum of norms or a sum of their squares: never -0.
    """
    n = np.asarray(n)
    if e > 0:
        return n**e
    with np.errstate(divide="ignore"):
        return np.where(n == 0, 0, n**e)


def v_map(a: np.ndarray, p: float) -> np.ndarray:
    """Half-power map V(a) = |a|^((p-2)/2) a, with V(0) = 0."""
    a = np.asarray(a)
    return a * _power(_norm(a), (p - 2.0) / 2.0)[..., None]


def _sum_rhs(a: np.ndarray, b: np.ndarray, p: float, eps: float | None) -> np.ndarray:
    """Right-hand side of the sum split: |a|^p + |b|^p, weighted for p > 1."""
    na = _power(_norm(a), p)
    nb = _power(_norm(b), p)
    if p <= 1.0:
        return na + nb
    # numpy scalars: past the float range a weight is inf, not OverflowError
    one = na.dtype.type(1.0)
    return (one + eps) ** (p - 1.0) * na + (one + one / eps) ** (p - 1.0) * nb


def check_sum_inequality(a, b, p: float, eps: float | None = None) -> np.ndarray:
    """Margins of the split of |a+b|^p into |a|^p and |b|^p.

    For 0 < p <= 1 the split is plain subadditivity and ``eps`` is not
    used.  For p >= 1 it is the Young-type split with weights
    (1+eps)^(p-1) and (1+1/eps)^(p-1); ``eps`` > 0 is then required.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if p <= 0:
        raise ValueError("p must be positive")
    if p > 1.0 and (eps is None or eps <= 0):
        raise ValueError("p > 1 requires eps > 0")
    return _sum_rhs(a, b, p, eps) - _power(_norm(a + b), p)


def check_convexity_inequality(a, b, p: float) -> np.ndarray:
    """Margins of |b|^p - |a|^p >= p |a|^(p-2) a . (b - a), valid for p >= 1."""
    if p < 1.0:
        raise ValueError("convexity inequality needs p >= 1")
    a = np.asarray(a)
    b = np.asarray(b)
    na = _norm(a)
    lhs = p * _power(na, p - 2.0) * _dot(a, b - a)
    return _power(_norm(b), p) - _power(na, p) - lhs


def monotonicity_constant(p: float) -> float:
    """Constant used in the monotonicity margin for the given exponent.

    2^(2-p) for p >= 2 (sharp at antipodal pairs); the conservative
    (p-1) 2^(p-2) on 1 < p <= 2, which degrades to the exact constant 1
    at p = 2 and is safe at both the parallel and antipodal extremes.
    """
    if p >= 2.0:
        return 2.0 ** (2.0 - p)
    return (p - 1.0) * 2.0 ** (p - 2.0)


def check_monotonicity(a, b, p: float) -> np.ndarray:
    """Margins of the monotonicity of the p-flux map a -> |a|^(p-2) a.

    lhs = (|a|^(p-2) a - |b|^(p-2) b) . (a - b); the lower bound is
    C(p) |a-b|^p for p >= 2 and C(p) (|a|+|b|)^(p-2) |a-b|^2 for
    1 < p <= 2.  Pairs with a = b contribute margin 0.
    """
    if p <= 1.0:
        raise ValueError("monotonicity check needs p > 1")
    a = np.asarray(a)
    b = np.asarray(b)
    na = _norm(a)
    nb = _norm(b)
    flux_a = a * _power(na, p - 2.0)[..., None]
    flux_b = b * _power(nb, p - 2.0)[..., None]
    lhs = _dot(flux_a - flux_b, a - b)
    d = _norm(a - b)
    c = monotonicity_constant(p)
    if p >= 2.0:
        rhs = c * _power(d, p)
    else:
        # d > 0 forces |a| + |b| > 0, so the zero base only meets d = 0
        rhs = c * _power(na + nb, p - 2.0) * d * d
    return lhs - rhs


def check_v_equivalence(a, b, p: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided margins of |V(a)-V(b)|^2 ~ (|a|^2+|b|^2)^((p-2)/2)|a-b|^2.

    Returns (upper_margin, lower_margin) = (c*base - diff, diff - base/c);
    both are nonnegative when the calibrated constant c is valid.  Pairs
    with a = b = 0 contribute zero margins.
    """
    if c < 1.0:
        raise ValueError("equivalence constant must be >= 1")
    a = np.asarray(a)
    b = np.asarray(b)
    diff = v_map(a, p) - v_map(b, p)
    diff2 = _dot(diff, diff)
    s = _power(_norm(a), 2) + _power(_norm(b), 2)
    base = _power(s, (p - 2.0) / 2.0) * _power(_norm(a - b), 2)
    return c * base - diff2, diff2 - base / c


def calibrate_v_constant(p: float) -> float:
    """Smallest safe two-sided constant for ``check_v_equivalence``.

    The ratio |V(a)-V(b)|^2 / ((|a|^2+|b|^2)^((p-2)/2) |a-b|^2) is
    invariant under scaling, rotation and swapping a and b, so pairs
    reduce to a = e1, b = t (cos th, sin th) with 0 <= t <= 1.  For fixed
    t the ratio is (A - B c) / (C - D c) in c = cos th, with A = 1 + t^p,
    B = 2 t^(p/2), C = 1 + t^2, D = 2t and C - D c >= (1-t)^2 > 0: a
    Moebius function of c, hence monotone, so its extremes lie on the
    parallel curve (c = 1) and the antipodal curve (c = -1).  A dense
    sampling of both curves finds nothing beyond their end values: 1 at
    t = 0, and at t = 1 the parallel limit p^2/4 2^((2-p)/2) and the
    antipodal value 2^((2-p)/2).  The constant is the max of these and
    their reciprocals, with a 1e-6 headroom.  It is evaluated in float64,
    so past p = 2050, where it leaves the float range, it raises
    ValueError.
    """
    if p <= 1.0:
        raise ValueError("calibration needs p > 1")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        edge = np.float64(2.0) ** ((2.0 - p) / 2.0)
        ends = np.array([1.0, p * p / 4.0 * edge, edge])
        constant = max(ends.max(), 1.0 / ends.min()) * (1.0 + 1e-6)
    if not np.isfinite(constant):
        raise ValueError(f"the v-map constant at p = {p} exceeds the float range")
    return float(constant)


# ---------------------------------------------------------------------------
# Randomized sweeps.


@dataclass(frozen=True)
class InequalityReport:
    """Worst case of a randomized margin sweep: min margin plus witness.

    ``min_margin`` is scale-free: the margin of the witness pair scaled to
    max(|a|, |b|) = 1, and for ``sum`` also divided by the split's
    right-hand side at that scaled pair.  ``witness_a`` and ``witness_b``
    are the pair as drawn, unscaled.  ``eps`` is the sum split's weight
    parameter, and None where the check does not read it (every other
    check, and the sum at p <= 1).
    """

    name: str
    p: float
    n_pairs: int
    min_margin: float
    witness_a: tuple[float, ...]
    witness_b: tuple[float, ...]
    constant: float | None = None
    eps: float | None = None


def _sweep_pairs(rng: np.random.Generator, n: int):
    """Uniform pairs in [-10, 10]^2 plus derived adversarial families:
    near-parallel, near-antipodal, and near-zero rescalings."""
    a = rng.uniform(-10.0, 10.0, size=(n, 2))
    b = rng.uniform(-10.0, 10.0, size=(n, 2))
    m = max(n // 10, 1)
    jitter = 1.0 + 1e-12
    aa = np.concatenate([a, a[:m], a[:m], a[:m] * 1e-9])
    bb = np.concatenate([b, a[:m] * jitter, -a[:m] * jitter, b[:m] * 1e-9])
    return aa, bb


def sweep_inequality(
    name: str,
    p: float,
    n_pairs: int = 100_000,
    seed: int = 0,
    eps: float = 1.0,
) -> InequalityReport:
    """Run one margin check over a seeded randomized batch of vector pairs.

    ``name`` is one of sum / convexity / monotonicity / v_equivalence.
    Each pair is divided by max(|a|, |b|) before the check: every check
    is homogeneous of degree p, so this keeps the sign of each margin and
    makes it scale-free.  The sum margin is also divided by its right-hand
    side, (1+eps)^(p-1)|a|^p + (1+1/eps)^(p-1)|b|^p for p > 1 and
    |a|^p + |b|^p for p <= 1, since its weights grow like 2^(p-1).  A
    margin that is not finite (p past the float range, or a non-finite p
    or eps) raises ValueError.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    a, b = _sweep_pairs(rng, n_pairs)
    scale = np.maximum(_norm(a), _norm(b))[:, None]
    ua, ub = a / scale, b / scale
    constant: float | None = None
    with np.errstate(all="ignore"):
        if name == "sum":
            margins = check_sum_inequality(ua, ub, p, eps) / _sum_rhs(ua, ub, p, eps)
        elif name == "convexity":
            margins = check_convexity_inequality(ua, ub, p)
        elif name == "monotonicity":
            margins = check_monotonicity(ua, ub, p)
            constant = monotonicity_constant(p)
        elif name == "v_equivalence":
            constant = calibrate_v_constant(p)
            margins = np.minimum(*check_v_equivalence(ua, ub, p, constant))
        else:
            raise ValueError(f"unknown inequality sweep {name!r}")
    if not np.isfinite(margins).all():
        raise ValueError(f"the {name} margins at p = {p} are not finite")
    i = int(np.argmin(margins))
    return InequalityReport(
        name=name,
        p=p,
        n_pairs=len(margins),
        min_margin=float(margins[i]),
        witness_a=tuple(float(x) for x in a[i]),
        witness_b=tuple(float(x) for x in b[i]),
        constant=constant,
        eps=eps if name == "sum" and p > 1.0 else None,
    )
