"""Elementary vector inequalities behind the energy comparison estimates.

The public API is ``sweep_inequality``, which runs one margin check (the
sum split, convexity, monotonicity of the p-flux or equivalence of the
half-power map V) over a seeded randomized batch of vector pairs and
returns its worst case as an ``InequalityReport``, and the two constants
the checks use, ``monotonicity_constant`` and ``calibrate_v_constant``.

Each check is a private margin kernel on one block of pairs (``_Pairs``,
which also carries |a|, |b|, a - b and |a - b|).  It evaluates both sides
and returns the margins (rhs - lhs, oriented so that nonnegative means
the inequality holds); the sum's kernel returns both sides, since its
sweep divides the margin by the right-hand side.  The constants are the
provable ones where a clean closed form exists.  The two-sided
equivalence constant for V is the largest ratio (or reciprocal ratio) of
its two sides; the ratio reduces exactly to two curves in one parameter,
whose end values give it in closed form (see ``calibrate_v_constant``).

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

A sweep runs its kernel on consecutive blocks of 2^14 pairs and writes
each block's margins into one array of all the margins.  Every margin
depends on its own pair only (the kernels reduce over the N components
alone), so the margins are bit for bit those of one call on all the
pairs, and a temporary holds at most 2^14 pairs, 256 KB: it reuses the
heap memory that the block before it freed and stays in cache.  A run
sweeps every (name, p) at one seed, so the pairs are drawn and scaled
once per (n_pairs, seed) and held, read-only, with their blocks for the
next sweep, one (n_pairs, seed) entry at a time.  The scaled pairs are
column-contiguous (Fortran order), so the component sums above read
unit-stride data; the margins are the same bit for bit in either layout.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "monotonicity_constant",
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
    """|a| over the last axis."""
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


class _Pairs(NamedTuple):
    """A block of pairs a, b and what the kernels read of them."""

    a: np.ndarray
    b: np.ndarray
    na: np.ndarray  # |a|
    nb: np.ndarray  # |b|
    diff: np.ndarray  # a - b
    nd: np.ndarray  # |a - b|


def _pairs(a: np.ndarray, b: np.ndarray) -> _Pairs:
    """The ``_Pairs`` of a and b, by ``_norm`` and ``-``."""
    diff = a - b
    return _Pairs(a, b, _norm(a), _norm(b), diff, _norm(diff))


def _radial(a: np.ndarray, na: np.ndarray, s: float) -> np.ndarray:
    """|a|^s a from the norm na, with 0 where a = 0: the half-power map V
    at s = (p-2)/2 and the p-flux at s = p-2."""
    return a * _power(na, s)[..., None]


def _sum_sides(x: _Pairs, p: float, eps: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the split of |a+b|^p into |a|^p and |b|^p.

    For 0 < p <= 1 the split is plain subadditivity, with right-hand side
    |a|^p + |b|^p, and ``eps`` is not used.  For p > 1 it is the
    Young-type split with weights (1+eps)^(p-1) and (1+1/eps)^(p-1),
    eps > 0.
    """
    lhs = _power(_norm(x.a + x.b), p)
    na = _power(x.na, p)
    nb = _power(x.nb, p)
    if p <= 1.0:
        return lhs, na + nb
    # numpy scalars: past the float range a weight is inf, not OverflowError
    one = na.dtype.type(1.0)
    return lhs, (one + eps) ** (p - 1.0) * na + (one + one / eps) ** (p - 1.0) * nb


def _convexity(x: _Pairs, p: float) -> np.ndarray:
    """Margins of |b|^p - |a|^p >= p |a|^(p-2) a . (b - a), valid for p >= 1."""
    lhs = p * _power(x.na, p - 2.0) * _dot(x.a, x.b - x.a)
    return _power(x.nb, p) - _power(x.na, p) - lhs


def monotonicity_constant(p: float) -> float:
    """Constant used in the monotonicity margin for the given exponent.

    2^(2-p) for p >= 2 (sharp at antipodal pairs); the conservative
    (p-1) 2^(p-2) on 1 < p <= 2, which degrades to the exact constant 1
    at p = 2 and is safe at both the parallel and antipodal extremes.
    """
    if p >= 2.0:
        return 2.0 ** (2.0 - p)
    return (p - 1.0) * 2.0 ** (p - 2.0)


def _monotonicity(x: _Pairs, p: float, c: float) -> np.ndarray:
    """Margins of the monotonicity of the p-flux map a -> |a|^(p-2) a.

    lhs = (|a|^(p-2) a - |b|^(p-2) b) . (a - b); the lower bound is
    c |a-b|^p for p >= 2 and c (|a|+|b|)^(p-2) |a-b|^2 for 1 < p <= 2,
    c = ``monotonicity_constant(p)``.  Pairs with a = b contribute margin 0.
    """
    lhs = _dot(_radial(x.a, x.na, p - 2.0) - _radial(x.b, x.nb, p - 2.0), x.diff)
    if p >= 2.0:
        return lhs - c * _power(x.nd, p)
    # |a - b| > 0 forces |a| + |b| > 0, so the zero base only meets a = b
    return lhs - c * _power(x.na + x.nb, p - 2.0) * x.nd * x.nd


def _v_equivalence(x: _Pairs, p: float, c: float) -> np.ndarray:
    """Two-sided margins of |V(a)-V(b)|^2 ~ (|a|^2+|b|^2)^((p-2)/2)|a-b|^2.

    The worse of c*base - |V(a)-V(b)|^2 and |V(a)-V(b)|^2 - base/c; both
    are nonnegative when the constant c >= 1 is valid.  Pairs with
    a = b = 0 contribute zero margins.
    """
    s = (p - 2.0) / 2.0
    dv = _radial(x.a, x.na, s) - _radial(x.b, x.nb, s)
    diff2 = _dot(dv, dv)
    base = _power(_power(x.na, 2) + _power(x.nb, 2), s) * _power(x.nd, 2)
    return np.minimum(c * base - diff2, diff2 - base / c)


def calibrate_v_constant(p: float) -> float:
    """Smallest safe two-sided constant for the v_equivalence sweep.

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
    their reciprocals, with a 1e-6 headroom, so it is at least 1.  It is
    evaluated in float64, so past p = 2050, where it leaves the float
    range, it raises ValueError.
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

    ``n_pairs`` counts every pair checked: the requested uniform pairs
    plus the three derived families of ``sweep_inequality``, 130 000 for
    n_pairs = 100 000.  ``min_margin`` is scale-free: the margin of the
    witness pair scaled to max(|a|, |b|) = 1, and for ``sum`` also divided
    by the split's right-hand side at that scaled pair.  ``witness_a`` and
    ``witness_b`` are the pair as drawn, unscaled.  ``eps`` is the sum
    split's weight parameter, and None where the check does not read it
    (every other check, and the sum at p <= 1).
    """

    name: str
    p: float
    n_pairs: int
    min_margin: float
    witness_a: tuple[float, ...]
    witness_b: tuple[float, ...]
    constant: float | None = None
    eps: float | None = None


def _draw_pairs(n: int, seed) -> tuple[np.ndarray, ...]:
    """A sweep's pairs a, b as drawn and ua, ub scaled to max(|a|, |b|) = 1.

    Uniform pairs in [-10, 10]^2 plus derived adversarial families:
    near-parallel, near-antipodal, and near-zero rescalings.  The unit
    pairs are Fortran-ordered (see the module docstring); every array is
    read-only, since ``_sweep_pairs`` hands the same arrays to every sweep.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10.0, 10.0, size=(n, 2))
    b = rng.uniform(-10.0, 10.0, size=(n, 2))
    m = max(n // 10, 1)
    jitter = 1.0 + 1e-12
    aa = np.concatenate([a, a[:m], a[:m], a[:m] * 1e-9])
    bb = np.concatenate([b, a[:m] * jitter, -a[:m] * jitter, b[:m] * 1e-9])
    scale = np.maximum(_norm(aa), _norm(bb))[:, None]
    ua = np.divide(aa, scale, out=np.empty_like(aa, order="F"))
    ub = np.divide(bb, scale, out=np.empty_like(bb, order="F"))
    pairs = (aa, bb, ua, ub)
    for x in pairs:
        x.flags.writeable = False
    return pairs


# Pairs per block of a sweep: the kernels run on consecutive blocks of this
# many pairs, so a temporary holds at most 2^14 pairs (256 KB).
_BLOCK = 2**14

# The one (n, seed) entry of ``_sweep_pairs``.  A run sweeps every (name, p)
# at its one seed, so one entry is all it reuses; an entry is five arrays of
# 1.3 n pairs and three of 1.3 n norms, about 13.5 MB at n = 100 000.
_held: dict[tuple, tuple[np.ndarray, np.ndarray, tuple[_Pairs, ...]]] = {}


def _sweep_pairs(n: int, seed) -> tuple[np.ndarray, np.ndarray, Iterable[_Pairs]]:
    """The pairs a, b of ``_draw_pairs(n, seed)`` as drawn, and the
    ``_Pairs`` of each block of their unit pairs (views of ua and ub), all
    read-only.

    An integer seed's entry, its blocks a tuple, is held until a sweep
    asks for another (n, seed).  Any other seed is drawn anew on every
    call: None draws fresh entropy, and a Generator or SeedSequence has
    state of its own.  Its blocks are a generator, so each block's norms
    and difference are built as the sweep reaches it and dropped after.
    """
    hold = isinstance(seed, (int, np.integer))
    if hold and (n, seed) in _held:
        return _held[n, seed]
    a, b, ua, ub = _draw_pairs(n, seed)
    blocks = (_block(ua[i:i + _BLOCK], ub[i:i + _BLOCK])
              for i in range(0, len(ua), _BLOCK))
    if not hold:
        return a, b, blocks
    entry = a, b, tuple(blocks)
    _held.clear()
    _held[n, seed] = entry
    return entry


def _block(a: np.ndarray, b: np.ndarray) -> _Pairs:
    """``_pairs(a, b)`` with its norms and difference read-only."""
    x = _pairs(a, b)
    for y in x[2:]:
        y.flags.writeable = False
    return x


def sweep_inequality(
    name: str,
    p: float,
    n_pairs: int = 100_000,
    seed: int | np.random.Generator | np.random.SeedSequence | None = 0,
    eps: float = 1.0,
) -> InequalityReport:
    """Run one margin check over a seeded randomized batch of vector pairs.

    ``name`` is one of sum / convexity / monotonicity / v_equivalence.
    The batch is ``n_pairs`` uniform pairs plus three derived families of
    max(n_pairs // 10, 1) pairs each (see ``_draw_pairs``), and the
    report's ``n_pairs`` counts them all: 130 000 at n_pairs = 100 000.
    Each pair is divided by max(|a|, |b|) before the check: every check
    is homogeneous of degree p, so this keeps the sign of each margin and
    makes it scale-free.  The sum margin is also divided by its right-hand
    side, (1+eps)^(p-1)|a|^p + (1+1/eps)^(p-1)|b|^p for p > 1 and
    |a|^p + |b|^p for p <= 1, since its weights grow like 2^(p-1).

    An unknown name, p outside the check's range (sum: p > 0, and eps > 0
    for p > 1; convexity: p >= 1; monotonicity and v_equivalence: p > 1)
    or a v-map constant past the float range raises ValueError before any
    pair is drawn.  A margin that is not finite (p past the float range,
    or a non-finite p or eps) raises ValueError too.

    The pairs are drawn and scaled once per (n_pairs, seed) and held,
    read-only and column-contiguous, until a sweep asks for another
    (n_pairs, seed); only one entry is held.  A seed that is not an
    integer (None for fresh entropy, a Generator or a SeedSequence) is
    drawn anew on every sweep.  The check runs on consecutive blocks of
    2^14 pairs; each margin depends on its own pair only, so the margins
    are those of one call on all pairs, bit for bit.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    constant: float | None = None
    if name == "sum":
        if p <= 0:
            raise ValueError("p must be positive")
        if p > 1.0 and (eps is None or eps <= 0):
            raise ValueError("p > 1 requires eps > 0")

        def margin(x):
            lhs, rhs = _sum_sides(x, p, eps)
            return (rhs - lhs) / rhs
    elif name == "convexity":
        if p < 1.0:
            raise ValueError("convexity inequality needs p >= 1")

        def margin(x):
            return _convexity(x, p)
    elif name == "monotonicity":
        if p <= 1.0:
            raise ValueError("monotonicity check needs p > 1")
        constant = monotonicity_constant(p)

        def margin(x):
            return _monotonicity(x, p, constant)
    elif name == "v_equivalence":
        constant = calibrate_v_constant(p)

        def margin(x):
            return _v_equivalence(x, p, constant)
    else:
        raise ValueError(f"unknown inequality sweep {name!r}")
    a, b, blocks = _sweep_pairs(n_pairs, seed)
    margins = np.empty(len(a))
    start = 0
    with np.errstate(all="ignore"):
        for x in blocks:
            margins[start:start + len(x.a)] = margin(x)
            start += len(x.a)
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
