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

A run sweeps every (name, p) at one seed, so the pairs are drawn and
scaled once per (n_pairs, seed) and held, read-only, for the next sweep,
one (n_pairs, seed) entry at a time.  The scaled pairs are held
column-contiguous (Fortran order), so the component sums above read
unit-stride data; the margins are the same bit for bit in either layout.
The entry also holds what the checks would recompute from the unit pairs
ua, ub on every sweep: |ua|, |ub|, ua - ub and |ua - ub|, computed once
by the same ``_norm`` and subtraction.  ``_norm`` and ``_difference``
return a held value only for the held array itself, so a check on any
other arrays computes its own.

A sweep runs its check on consecutive blocks of 2^14 pairs and writes each
block's margins into one array of all the margins.  Every margin depends
on its own pair only (the checks reduce over the N components alone), so
the margins are bit for bit those of one call on all the pairs.  A
temporary then holds at most 2^14 pairs, 256 KB: it reuses the heap memory
that the block before it freed and stays in cache.  On all 130 000 pairs
of a 100 000-pair sweep at once, every temporary was 1-2 MB and a sweep's
traced peak 5.0-8.5 MB; the sum at p = 2 and every monotonicity and
v_equivalence sweep took 476-983 minor page faults each, even with the
pairs held, as they grew the trimmed heap again.  By blocks a held sweep
takes none and peaks at 1.7-2.1 MB.  The held entry also holds its
arrays' block views (slices, not copies), which the sweeps pass to the
checks, so the held values are found per block as well.  A seed that is
not held streams its draw through the same blocks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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
    """|a| over the last axis; the held value for a held unit array."""
    for units in _held_units():
        if a is units.ua:
            return units.norm_ua
        if a is units.ub:
            return units.norm_ub
        if a is units.diff:
            return units.norm_diff
    return np.sqrt(_dot(a, a))


def _difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b; the held ua - ub for the held unit pairs."""
    for units in _held_units():
        if a is units.ua and b is units.ub:
            return units.diff
    return a - b


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
    diff = _difference(a, b)
    lhs = _dot(flux_a - flux_b, diff)
    d = _norm(diff)
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
    base = _power(s, (p - 2.0) / 2.0) * _power(_norm(_difference(a, b)), 2)
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


# Pairs per block of a sweep: the checks run on consecutive blocks of this
# many pairs, so a temporary holds at most 2^14 pairs (256 KB).
_BLOCK = 2**14


def _blocks(x: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of ``_BLOCK`` rows of x; the last may be shorter."""
    return [x[i:i + _BLOCK] for i in range(0, len(x), _BLOCK)]


class _Units(NamedTuple):
    """Unit pairs ua, ub and what every check computes from them."""

    ua: np.ndarray
    ub: np.ndarray
    diff: np.ndarray  # ua - ub
    norm_ua: np.ndarray
    norm_ub: np.ndarray
    norm_diff: np.ndarray


class _Held(NamedTuple):
    """A held (n, seed) entry: the pairs as drawn, the unit pairs with what
    every sweep computes from them, and the same per block as views of
    those arrays, all read-only.  ``_norm`` and ``_difference`` return the
    held values for the held arrays themselves (an identity check), so no
    other array reads them."""

    a: np.ndarray
    b: np.ndarray
    units: _Units
    blocks: tuple[_Units, ...]


def _hold(pairs: tuple[np.ndarray, ...]) -> _Held:
    """The entry of ``pairs``, its values computed as the checks compute
    them (``_norm``, and ``-`` for the difference), so every bit is the
    same."""
    a, b, ua, ub = pairs
    diff = ua - ub
    units = _Units(ua, ub, diff, _norm(ua), _norm(ub), _norm(diff))
    for x in units:
        x.flags.writeable = False  # and so every view of x
    blocks = tuple(_Units(*views) for views in zip(*map(_blocks, units)))
    return _Held(a, b, units, blocks)


def _held_units() -> Iterator[_Units]:
    """Every held ``_Units``: each entry's whole arrays, then its blocks."""
    for held in _held.values():
        yield held.units
        yield from held.blocks


# The one (n, seed) entry of ``_sweep_pairs``.  A run sweeps every (name, p)
# at its one seed, so one entry is all it reuses; an entry is five arrays of
# 1.3 n pairs and three of 1.3 n norms, about 13.5 MB at n = 100 000.
_held: dict[tuple, _Held] = {}


def _sweep_pairs(n: int, seed) -> tuple[np.ndarray, ...]:
    """``_draw_pairs(n, seed)``, drawn once for an integer seed.

    An integer seed's pairs are held, with their unit pairs' norms and
    difference, until a sweep asks for another (n, seed).  Any other seed
    is drawn anew on every call: None draws fresh entropy, and a Generator
    or SeedSequence has state of its own.
    """
    if not isinstance(seed, (int, np.integer)):
        return _draw_pairs(n, seed)
    key = (n, seed)
    held = _held.get(key)
    if held is None:
        pairs = _draw_pairs(n, seed)
        _held.clear()
        held = _held[key] = _hold(pairs)
    return held.a, held.b, held.units.ua, held.units.ub


def _unit_blocks(ua: np.ndarray, ub: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks of the unit pairs: the held views for the held arrays,
    fresh views of any other arrays."""
    for held in _held.values():
        if ua is held.units.ua and ub is held.units.ub:
            return [(units.ua, units.ub) for units in held.blocks]
    return list(zip(_blocks(ua), _blocks(ub)))


def sweep_inequality(
    name: str,
    p: float,
    n_pairs: int = 100_000,
    seed: int = 0,
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
    |a|^p + |b|^p for p <= 1, since its weights grow like 2^(p-1).  A
    margin that is not finite (p past the float range, or a non-finite p
    or eps) raises ValueError.

    The pairs are drawn and scaled once per (n_pairs, seed) and held,
    read-only and column-contiguous, until a sweep asks for another
    (n_pairs, seed); only one entry is held.  A seed that is not an
    integer (None for fresh entropy) is drawn anew on every sweep.  The
    check runs on consecutive blocks of 2^14 pairs; each margin depends
    on its own pair only, so the margins are those of one call on all
    pairs, bit for bit.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    a, b, ua, ub = _sweep_pairs(n_pairs, seed)
    constant: float | None = None
    if name == "sum":
        def check(x, y):
            return check_sum_inequality(x, y, p, eps) / _sum_rhs(x, y, p, eps)
    elif name == "convexity":
        def check(x, y):
            return check_convexity_inequality(x, y, p)
    elif name == "monotonicity":
        def check(x, y):
            return check_monotonicity(x, y, p)
        constant = monotonicity_constant(p)
    elif name == "v_equivalence":
        constant = calibrate_v_constant(p)

        def check(x, y):
            return np.minimum(*check_v_equivalence(x, y, p, constant))
    else:
        raise ValueError(f"unknown inequality sweep {name!r}")
    margins = np.empty(len(ua))
    start = 0
    with np.errstate(all="ignore"):
        for x, y in _unit_blocks(ua, ub):
            margins[start:start + len(x)] = check(x, y)
            start += len(x)
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
