"""Elementary vector inequalities behind the energy comparison estimates.

Each check evaluates both sides on arrays of vector pairs and returns the
margins (rhs - lhs, oriented so that nonnegative means the inequality
holds).  The constants are the provable ones where a clean closed form
exists; the two-sided equivalence constant for the half-power map V has
no convenient closed form, so it is calibrated numerically per exponent
by maximizing the ratio over the scale- and rotation-reduced family of
pairs.

Pairs are arrays of shape (..., N); reductions run over the last axis.
Computations preserve the input dtype; the randomized sweeps draw planar
pairs in extended precision (np.longdouble), so that roundoff at
near-equality pairs does not pass for a violated inequality.
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


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def v_map(a: np.ndarray, p: float) -> np.ndarray:
    """Half-power map V(a) = |a|^((p-2)/2) a, with V(0) = 0."""
    a = np.asarray(a)
    na = _norm(a)
    scale = np.where(na > 0, na, 1.0) ** ((p - 2.0) / 2.0)
    scale = np.where(na > 0, scale, 0.0)
    return a * scale[..., None]


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
    lhs = _norm(a + b) ** p
    if p <= 1.0:
        rhs = _norm(a) ** p + _norm(b) ** p
    else:
        if eps is None or eps <= 0:
            raise ValueError("p > 1 requires eps > 0")
        one = lhs.dtype.type(1.0) if hasattr(lhs, "dtype") else 1.0
        rhs = (one + eps) ** (p - 1.0) * _norm(a) ** p + (
            one + one / eps
        ) ** (p - 1.0) * _norm(b) ** p
    return rhs - lhs


def check_convexity_inequality(a, b, p: float) -> np.ndarray:
    """Margins of |b|^p - |a|^p >= p |a|^(p-2) a . (b - a), valid for p >= 1."""
    if p < 1.0:
        raise ValueError("convexity inequality needs p >= 1")
    a = np.asarray(a)
    b = np.asarray(b)
    na = _norm(a)
    coef = np.where(na > 0, na, 1.0) ** (p - 2.0)
    coef = np.where(na > 0, coef, 0.0)
    lhs = p * coef * _dot(a, b - a)
    return _norm(b) ** p - na**p - lhs


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

    def flux(v, nv):
        s = np.where(nv > 0, nv, 1.0) ** (p - 2.0)
        s = np.where(nv > 0, s, 0.0)
        return v * s[..., None]

    lhs = _dot(flux(a, na) - flux(b, nb), a - b)
    d = _norm(a - b)
    c = monotonicity_constant(p)
    if p >= 2.0:
        rhs = c * d**p
    else:
        s = na + nb
        base = np.where(s > 0, s, 1.0) ** (p - 2.0)
        rhs = np.where(d > 0, c * base * d * d, 0.0)
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
    diff2 = np.sum(diff * diff, axis=-1)
    s = _norm(a) ** 2 + _norm(b) ** 2
    base = np.where(s > 0, s, 1.0) ** ((p - 2.0) / 2.0)
    base = np.where(s > 0, base, 0.0)
    base = base * _norm(a - b) ** 2
    return c * base - diff2, diff2 - base / c


def _v_ratio(t: np.ndarray, theta: np.ndarray, p: float) -> np.ndarray:
    """Ratio |V(a)-V(b)|^2 / base on the reduced family a = e1, b = t e(theta)."""
    bx = t * np.cos(theta)
    by = t * np.sin(theta)
    # V(a) = e1, V(b) = t^(p/2) e(theta)
    tp = t ** (p / 2.0)
    dx = 1.0 - tp * np.cos(theta)
    dy = tp * np.sin(theta)
    num = dx * dx + dy * dy
    base = (1.0 + t * t) ** ((p - 2.0) / 2.0) * (
        (1.0 - bx) ** 2 + by * by
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / base
    return np.where(base > 0, r, 1.0)


_SCAN_RESOLUTION = 1500  # samples per axis of each calibration scan
_ZOOM_ROUNDS = 3


def calibrate_v_constant(p: float) -> float:
    """Smallest safe two-sided constant for ``check_v_equivalence``.

    The ratio is scale and rotation invariant, so pairs reduce to
    a = e1, b = t (cos th, sin th); the constant is the max of the ratio
    and its reciprocal over that family, scanned on a grid and refined
    around each extremum, with a small safety headroom.
    """
    if p <= 1.0:
        raise ValueError("calibration needs p > 1")

    def scan(tlo, thi, alo, ahi):
        t = np.linspace(tlo, thi, _SCAN_RESOLUTION)
        th = np.linspace(alo, ahi, _SCAN_RESOLUTION)
        tt, aa = np.meshgrid(t, th, indexing="ij")
        r = _v_ratio(tt, aa, p)
        imax = np.unravel_index(np.argmax(r), r.shape)
        imin = np.unravel_index(np.argmin(np.where(r > 0, r, np.inf)), r.shape)
        return (
            float(r[imax]), float(t[imax[0]]), float(th[imax[1]]),
            float(r[imin]), float(t[imin[0]]), float(th[imin[1]]),
        )

    hi, t_hi, a_hi, lo, t_lo, a_lo = scan(0.0, 4.0, 0.0, np.pi)
    span_t, span_a = 4.0 / _SCAN_RESOLUTION, np.pi / _SCAN_RESOLUTION
    for _ in range(_ZOOM_ROUNDS):
        h2, th2, ah2, _, _, _ = scan(
            max(t_hi - 2 * span_t, 0.0), t_hi + 2 * span_t,
            max(a_hi - 2 * span_a, 0.0), min(a_hi + 2 * span_a, np.pi),
        )
        _, _, _, l2, tl2, al2 = scan(
            max(t_lo - 2 * span_t, 0.0), t_lo + 2 * span_t,
            max(a_lo - 2 * span_a, 0.0), min(a_lo + 2 * span_a, np.pi),
        )
        hi, t_hi, a_hi = max(hi, h2), th2, ah2
        lo, t_lo, a_lo = min(lo, l2), tl2, al2
        span_t /= _SCAN_RESOLUTION / 4.0
        span_a /= _SCAN_RESOLUTION / 4.0
    # analytic limit candidates: parallel, transverse/antipodal, b = 0
    par = (p * p / 4.0) * 2.0 ** ((2.0 - p) / 2.0)
    perp = 2.0 ** ((2.0 - p) / 2.0)
    hi = max(hi, par, perp, 1.0)
    lo = min(lo, par, perp, 1.0)
    c = max(hi, 1.0 / lo)
    return float(c * (1.0 + 1e-6))


# ---------------------------------------------------------------------------
# Randomized sweeps.


@dataclass(frozen=True)
class InequalityReport:
    """Worst case of a randomized margin sweep: min margin plus witness."""

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
    ld = np.longdouble
    a = rng.uniform(-10.0, 10.0, size=(n, 2)).astype(ld)
    b = rng.uniform(-10.0, 10.0, size=(n, 2)).astype(ld)
    m = max(n // 10, 1)
    jitter = ld(1.0) + ld(1e-12)
    aa = np.concatenate([a, a[:m], a[:m], a[:m] * ld(1e-9)])
    bb = np.concatenate([b, a[:m] * jitter, -a[:m] * jitter, b[:m] * ld(1e-9)])
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
    The sweep runs in extended precision so that genuinely valid
    inequalities do not report spurious negative margins at the
    adversarial near-equality pairs.
    """
    rng = np.random.default_rng(seed)
    a, b = _sweep_pairs(rng, n_pairs)
    constant: float | None = None
    if name == "sum":
        margins = check_sum_inequality(a, b, p, eps)
    elif name == "convexity":
        margins = check_convexity_inequality(a, b, p)
        eps = None
    elif name == "monotonicity":
        margins = check_monotonicity(a, b, p)
        constant = monotonicity_constant(p)
        eps = None
    elif name == "v_equivalence":
        constant = calibrate_v_constant(p)
        upper, lower = check_v_equivalence(a, b, p, constant)
        margins = np.minimum(upper, lower)
        eps = None
    else:
        raise ValueError(f"unknown inequality sweep {name!r}")
    i = int(np.argmin(margins))
    return InequalityReport(
        name=name,
        p=p,
        n_pairs=len(margins),
        min_margin=float(margins[i]),
        witness_a=tuple(float(x) for x in a[i]),
        witness_b=tuple(float(x) for x in b[i]),
        constant=constant,
        eps=eps,
    )
