"""Elementary vector inequalities behind the energy comparison estimates.

Each check evaluates both sides on arrays of vector pairs and returns the
margins (rhs - lhs, oriented so that nonnegative means the inequality
holds).  The constants are the provable ones where a clean closed form
exists.  The two-sided equivalence constant for the half-power map V is
the largest ratio (or reciprocal ratio) of its two sides; the ratio
reduces exactly to two curves in one parameter, which are sampled per
exponent (see ``calibrate_v_constant``).

Pairs are arrays of shape (..., N); reductions run over the last axis.
Computations preserve the input dtype; the randomized sweeps draw planar
pairs in extended precision (np.longdouble), so that roundoff at
near-equality pairs does not pass for a violated inequality.

Every array power goes through ``_power``, which builds n^e from
squarings, one sqrt and at most one exp-log remainder.  numpy's long
double ``**`` calls the C library's x87 ``powl``: on 130k elements a
generic exponent costs about 60 ms, a squaring 3 ms, a sqrt 0.7 ms and
an exp-log 15 ms, so ``powl`` was most of a sweep's time at p = 1.5
and 4.
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


def _power(n: np.ndarray, e: float) -> np.ndarray:
    """n^e for n > 0 and 0 where n = 0, also for negative e.

    Every array power of the checks goes through here, in the dtype of n.
    With 2e rounded to the nearest integer, e = k + h/2 + f where h is 0
    or 1 and |f| <= 1/4: n^|k| is taken by repeated squaring (and divided
    by when k < 0), times sqrt(n) when h = 1, times exp(f log n) only when
    f != 0.  That avoids the x87 ``powl`` behind a long double ``n ** e``
    (see the module docstring).  Each squaring doubles the relative error
    it inherits, so the error grows like log2|e| squarings, roughly |e|
    ulps: a few for the sweeps' exponents, 400 (4e-17 relative) at
    e = 1000 in long double.  The exp-log remainder adds about |f log n|
    ulps.  At e = 0.5, 1 and 2 the result is numpy's sqrt, identity and
    square bit for bit.
    """
    n = np.asarray(n)
    zero = np.atleast_1d(n <= 0)  # a ufunc would turn a 0-d x into a scalar
    x = np.where(zero, 1, n)
    twice = round(2.0 * e)
    k, h = divmod(twice, 2)
    f = e - 0.5 * twice
    part = np.sqrt(x) if h else None  # n^(h/2 + f)
    if f:
        rest = np.log(x)
        rest *= f
        np.exp(rest, out=rest)
        part = rest if part is None else np.multiply(part, rest, out=part)
    whole = None  # n^|k|, squaring x in place
    m = abs(k)
    while m:
        if m & 1:
            if whole is None:
                whole = x if m == 1 else x.copy()
            else:
                np.multiply(whole, x, out=whole)
        m >>= 1
        if m:
            np.multiply(x, x, out=x)
    if whole is None:  # k = 0: n^0 = 1, in x's storage
        x.fill(1)
        whole = x
    if k < 0:
        np.divide(1 if part is None else part, whole, out=whole)
    elif part is not None:
        whole *= part
    whole[zero] = 0
    return whole.reshape(n.shape)


def v_map(a: np.ndarray, p: float) -> np.ndarray:
    """Half-power map V(a) = |a|^((p-2)/2) a, with V(0) = 0."""
    a = np.asarray(a)
    return a * _power(_norm(a), (p - 2.0) / 2.0)[..., None]


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
    lhs = _power(_norm(a + b), p)
    if p <= 1.0:
        rhs = _power(_norm(a), p) + _power(_norm(b), p)
    else:
        if eps is None or eps <= 0:
            raise ValueError("p > 1 requires eps > 0")
        one = lhs.dtype.type(1.0)
        rhs = (one + eps) ** (p - 1.0) * _power(_norm(a), p) + (
            one + one / eps
        ) ** (p - 1.0) * _power(_norm(b), p)
    return rhs - lhs


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
    diff2 = np.sum(diff * diff, axis=-1)
    s = _power(_norm(a), 2) + _power(_norm(b), 2)
    base = _power(s, (p - 2.0) / 2.0) * _power(_norm(a - b), 2)
    return c * base - diff2, diff2 - base / c


_CURVE_SAMPLES = 100_000  # samples of t in (0, 1) on each extremal curve


def calibrate_v_constant(p: float) -> float:
    """Smallest safe two-sided constant for ``check_v_equivalence``.

    The ratio |V(a)-V(b)|^2 / ((|a|^2+|b|^2)^((p-2)/2) |a-b|^2) is
    invariant under scaling, rotation and swapping a and b, so pairs
    reduce to a = e1, b = t (cos th, sin th) with 0 <= t <= 1.  For fixed
    t the ratio is (A - B c) / (C - D c) in c = cos th, with A = 1 + t^p,
    B = 2 t^(p/2), C = 1 + t^2, D = 2t and C - D c >= (1-t)^2 > 0: a
    Moebius function of c, hence monotone, so its extremes lie on the
    parallel curve (c = 1) and the antipodal curve (c = -1).  Both are
    sampled on (0, 1) and joined by their end values: 1 at t = 0, and at
    t = 1 the parallel limit p^2/4 2^((2-p)/2) and the antipodal value
    2^((2-p)/2).  The constant is the max of the ratio and its
    reciprocal, with a 1e-6 headroom; past p = 2050 it overflows and raises.
    """
    if p <= 1.0:
        raise ValueError("calibration needs p > 1")
    t = np.arange(1, _CURVE_SAMPLES + 1) / (_CURVE_SAMPLES + 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        half_log = 0.5 * p * np.log(t)  # log t^(p/2)
        tail = (1.0 + t * t) ** ((2.0 - p) / 2.0)
        # expm1 gives t^(p/2) - 1 without the cancellation of 1 - t^(p/2) at t -> 1
        parallel = (np.expm1(half_log) / (1.0 - t)) ** 2 * tail
        antipodal = ((1.0 + np.exp(half_log)) / (1.0 + t)) ** 2 * tail
        edge = 2.0 ** ((2.0 - p) / 2.0)
        ratio = np.concatenate([parallel, antipodal, [1.0, p * p / 4.0 * edge, edge]])
        constant = float(max(ratio.max(), 1.0 / ratio.min()) * (1.0 + 1e-6))
    if not np.isfinite(constant):
        raise ValueError(f"the v-map constant at p = {p} exceeds the float range")
    return constant


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
