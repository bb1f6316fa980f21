"""Vector inequalities behind the comparison estimates.

Each check returns margins (nonnegative means the inequality holds); the
sweeps randomize over pair families including the adversarial near-parallel,
near-antipodal, and near-zero ones.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aplab import inequalities
from aplab.inequalities import (
    InequalityReport,
    _convexity,
    _dot,
    _monotonicity,
    _norm,
    _pairs,
    _power,
    _sum_sides,
    _v_equivalence,
    calibrate_v_constant,
    monotonicity_constant,
    sweep_inequality,
)

unit_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False
)
vectors = st.tuples(unit_floats, unit_floats)


def _random_pairs(seed=0, n=5000, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, size=(n, dim))
    b = rng.uniform(-10, 10, size=(n, dim))
    return a, b


def _sum_margin(a, b, p, eps=None):
    lhs, rhs = _sum_sides(_pairs(a, b), p, eps)
    return rhs - lhs


def _monotonicity_margin(a, b, p):
    return _monotonicity(_pairs(a, b), p, monotonicity_constant(p))


# ---------------------------------------------------------------------------
# _power

POWER_EXPONENTS = [
    -2.0, -1.5, -0.5, -0.3, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.5, 2.0,
    2.5, 3.0, 4.0, 7.3,
]
POWER_DTYPES = [np.longdouble, np.float64]


@pytest.mark.parametrize("dtype", POWER_DTYPES)
@pytest.mark.parametrize("e", POWER_EXPONENTS)
def test_power_is_zero_at_a_zero_base(dtype, e):
    n = np.array([0.0, 2.0, 0.0, 0.5], dtype=dtype)
    got = _power(n, e)
    assert got[0] == got[2] == 0.0
    assert np.all(got[[1, 3]] > 0.0)


# ---------------------------------------------------------------------------
# reductions over the component axis


def assert_same_bits(x, y):
    # equal values with equal signs are equal bits for every non-NaN float
    # (a long double's padding bytes are not part of its value)
    x, y = np.asarray(x), np.asarray(y)
    assert (x.dtype, x.shape) == (y.dtype, y.shape)
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("dtype", POWER_DTYPES)
@pytest.mark.parametrize("n", range(1, 10))
def test_dot_and_norm_are_np_sum_bit_for_bit(dtype, n):
    rng = np.random.default_rng(n)
    shape = (3, 400, n)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, shape)
    b = rng.standard_normal(shape)
    zeros = rng.random(shape) < 0.3
    a[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    # rows whose products are all -0: np.sum gives +0 there
    a[:, :50] = -0.0
    b[:, :50] = np.abs(b[:, :50])
    a, b = a.astype(dtype), b.astype(dtype)
    for x, y in ((a, b), (a[0, 0], b[0, 0])):
        assert_same_bits(_dot(x, y), np.sum(x * y, axis=-1))
        assert_same_bits(_norm(x), np.sqrt(np.sum(x * x, axis=-1)))


def _masked_power(n, e):
    n = np.asarray(n)
    with np.errstate(divide="ignore"):
        return np.where(n == 0, 0, n**e)


def _fresh_unit_pairs(seed):
    """A 2000-pair sweep's pairs, drawn anew and scaled as a sweep scales
    them, in C order: the reference for the held, Fortran-ordered pairs."""
    a, b = inequalities._draw_pairs(2000, seed)[:2]
    assert a.flags.c_contiguous and b.flags.c_contiguous
    scale = np.maximum(inequalities._norm(a), inequalities._norm(b))[:, None]
    return a, b, a / scale, b / scale


def _unit_margins(name, p, seed=1):
    """Every array a sweep reads of its kernel, on 2000 of its pairs,
    scaled as it scales them: both sides of the sum, the margins of the
    other checks."""
    x = _pairs(*_fresh_unit_pairs(seed)[2:])
    if name == "sum":
        return _sum_sides(x, p, 1.0)
    if name == "convexity":
        return (_convexity(x, p),)
    if name == "monotonicity":
        return (_monotonicity(x, p, monotonicity_constant(p)),)
    return (_v_equivalence(x, p, calibrate_v_constant(p)),)


UNIT_CASES = [
    ("sum", 0.5), ("sum", 3.0), ("convexity", 2.0), ("convexity", 4.0),
    ("monotonicity", 1.5), ("monotonicity", 3.0), ("v_equivalence", 1.5),
    ("v_equivalence", 3.0),
]
# the sweeps of tests/test_acceptance.py::SWEEPS that UNIT_CASES leaves out
SWEEP_ONLY_CASES = [
    ("sum", 2.0), ("sum", 4.0), ("convexity", 3.0), ("monotonicity", 2.0),
    ("monotonicity", 4.0), ("v_equivalence", 2.0),
]
ACCEPTANCE_SWEEPS = [c for c in UNIT_CASES + SWEEP_ONLY_CASES if c != ("sum", 0.5)]


@pytest.mark.parametrize("name, p", UNIT_CASES)
def test_margins_keep_their_bits_under_np_sum_reductions(name, p, monkeypatch):
    # the reference: numpy's reductions, and the zero mask at every exponent
    got = _unit_margins(name, p)
    dot = lambda a, b: np.sum(a * b, axis=-1)  # noqa: E731
    monkeypatch.setattr(inequalities, "_dot", dot)
    monkeypatch.setattr(inequalities, "_norm", lambda a: np.sqrt(dot(a, a)))
    monkeypatch.setattr(inequalities, "_power", _masked_power)
    expected = _unit_margins(name, p)
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        assert_same_bits(x, y)


# ---------------------------------------------------------------------------
# the half-power map V, through the v_equivalence kernel


def test_v_map_fixed_points():
    # V(0) = 0, also at p < 2, where |a|^((p-2)/2) is infinite at a = 0
    zero = np.zeros((1, 2))
    for p in (1.5, 3.0):
        assert _v_equivalence(_pairs(zero, zero), p, 2.0)[0] == 0.0
    # p = 2 reduces V to the identity: both sides are |a - b|^2, so even
    # the constant 1 leaves only rounding
    a = np.array([[1.5, -2.0], [0.0, 3.0]])
    b = np.array([[-0.5, 1.0], [2.0, 0.5]])
    np.testing.assert_allclose(_v_equivalence(_pairs(a, b), 2.0, 1.0), 0.0, atol=1e-12)


def test_v_map_norm_is_half_power():
    # with b = 0 the difference is V(a), and the base is |a|^p: at the
    # constant 1 the margin is |V(a)|^2 - |a|^p to rounding
    a = np.array([[3.0, 4.0]])
    margin = _v_equivalence(_pairs(a, np.zeros((1, 2))), 3.0, 1.0)
    assert abs(margin[0]) <= 1e-12 * 5.0**3


# ---------------------------------------------------------------------------
# individual margins


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_sum_split_subadditive_branch(p):
    a, b = _random_pairs(1)
    assert _sum_margin(a, b, p).min() >= -1e-12


@pytest.mark.parametrize("p,eps", [(2.0, 1.0), (3.0, 0.5), (1.5, 2.0)])
def test_sum_split_weighted_branch(p, eps):
    a, b = _random_pairs(2)
    assert _sum_margin(a, b, p, eps=eps).min() >= -1e-12


def test_sum_split_requires_eps_above_one():
    with pytest.raises(ValueError, match="p > 1 requires eps > 0"):
        sweep_inequality("sum", 2.0, n_pairs=10, seed=0, eps=None)


def test_sum_split_weighted_is_tight_for_proportional_pairs():
    # at b = eps * a the Young split holds with equality
    a = np.array([[2.0, 1.0]])
    eps = 0.7
    margin = _sum_margin(a, eps * a, 3.0, eps=eps)
    assert abs(margin[0]) <= 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, 2.7, 4.0])
def test_convexity_margins(p):
    a, b = _random_pairs(4)
    assert _convexity(_pairs(a, b), p).min() >= -1e-12


def test_convexity_equality_at_same_point():
    a, _ = _random_pairs(5, n=50)
    np.testing.assert_allclose(_convexity(_pairs(a, a), 3.0), 0.0, atol=1e-12)


def test_monotonicity_constants_branch_values():
    assert monotonicity_constant(2.0) == pytest.approx(1.0)
    assert monotonicity_constant(4.0) == pytest.approx(0.25)
    assert monotonicity_constant(1.5) == pytest.approx(0.5 * 2.0**-0.5)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
def test_monotonicity_margins(p):
    a, b = _random_pairs(6)
    assert _monotonicity_margin(a, b, p).min() >= -1e-12


def test_monotonicity_sharp_at_antipodal_pairs_for_large_p():
    # b = -a makes the p >= 2 bound an equality
    a = np.array([[1.0, 2.0]])
    margin = _monotonicity_margin(a, -a, 3.0)
    assert abs(margin[0]) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_v_equivalence_two_sided(p):
    a, b = _random_pairs(7)
    assert _v_equivalence(_pairs(a, b), p, calibrate_v_constant(p)).min() >= -1e-12


def test_v_equivalence_identity_at_p_two():
    # V is the identity at p = 2, so the constant 1 + headroom works
    a, b = _random_pairs(8)
    assert _v_equivalence(_pairs(a, b), 2.0, 1.0 + 1e-9).min() >= -1e-12


def _sampled_v_constant(p, samples=100_000):
    """The v-map constant from 100k samples of t in (0, 1) on the parallel
    and the antipodal curve, joined by their end values."""
    t = np.arange(1, samples + 1) / (samples + 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        half_log = 0.5 * p * np.log(t)  # log t^(p/2)
        tail = (1.0 + t * t) ** ((2.0 - p) / 2.0)
        # expm1 gives t^(p/2) - 1 without the cancellation of 1 - t^(p/2) at t -> 1
        parallel = (np.expm1(half_log) / (1.0 - t)) ** 2 * tail
        antipodal = ((1.0 + np.exp(half_log)) / (1.0 + t)) ** 2 * tail
        edge = 2.0 ** ((2.0 - p) / 2.0)
        ratio = np.concatenate([parallel, antipodal, [1.0, p * p / 4.0 * edge, edge]])
        return float(max(ratio.max(), 1.0 / ratio.min()) * (1.0 + 1e-6))


@pytest.mark.parametrize(
    "p", [1.2, 1.5, 2.0, 3.0, 4.0, 6.0, *np.geomspace(1.01, 2049.0, 13).round(6)]
)
def test_calibrated_constant_is_the_endpoint_extremum(p):
    # the parallel (b -> a) and antipodal (b = -a) limits carry the extremes
    par = p * p / 4.0 * 2.0 ** ((2.0 - p) / 2.0)
    perp = 2.0 ** ((2.0 - p) / 2.0)
    expected = max(par, 1.0 / par, perp, 1.0 / perp) * (1.0 + 1e-6)
    c = calibrate_v_constant(p)
    assert c == pytest.approx(expected, rel=1e-12, abs=0.0)
    # no sample inside either curve lies beyond the end values, to rounding
    # (at p = 2 the sampled constant reads 1.0000010000000004)
    sampled = _sampled_v_constant(p)
    assert c <= sampled
    assert sampled == pytest.approx(c, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [2060.0, 2500.0])
def test_calibrated_constant_past_the_float_range_raises(p):
    # 2^((p-2)/2) overflows above p = 2050; say so instead of returning inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"at p = {p} exceeds the float range"):
            calibrate_v_constant(p)


def test_calibrated_constant_is_necessary():
    # deflating the calibrated constant must break one of the two sides
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0 - 1e-6, 0.0], [-1.0, 0.0]])
    for p in (1.5, 3.0, 4.0):
        c = calibrate_v_constant(p)
        assert _v_equivalence(_pairs(a, b), p, c / (1.0 + 1e-4)).min() < 0, p


@given(vectors, vectors)
def test_monotonicity_margin_property(av, bv):
    a = np.array([av])
    b = np.array([bv])
    assert _monotonicity_margin(a, b, 3.0)[0] >= -1e-12
    assert _monotonicity_margin(a, b, 1.5)[0] >= -1e-12


@given(vectors, vectors)
def test_convexity_margin_property(av, bv):
    a = np.array([av])
    b = np.array([bv])
    assert _convexity(_pairs(a, b), 2.5)[0] >= -1e-12


# ---------------------------------------------------------------------------
# sweeps


@pytest.mark.parametrize(
    "name,p",
    [
        ("sum", 1.2),
        ("convexity", 1.2),
        ("monotonicity", 1.2),
        ("v_equivalence", 1.2),
        ("sum", 2.0),
        ("sum", 3.0),
        ("convexity", 2.0),
        ("convexity", 4.0),
        ("monotonicity", 1.5),
        ("monotonicity", 3.0),
        ("v_equivalence", 1.5),
        ("v_equivalence", 3.0),
    ],
)
def test_sweep_margins_small(name, p):
    rep = sweep_inequality(name, p, n_pairs=5000, seed=11)
    assert rep.name == name
    assert rep.p == p
    assert rep.n_pairs >= 5000
    assert rep.min_margin >= -1e-13
    assert len(rep.witness_a) == 2


def test_sweep_is_reproducible():
    one = sweep_inequality("monotonicity", 2.5, n_pairs=2000, seed=5)
    two = sweep_inequality("monotonicity", 2.5, n_pairs=2000, seed=5)
    assert one == two


def test_sweep_unknown_name_rejected():
    with pytest.raises(ValueError):
        sweep_inequality("triangle", 2.0, n_pairs=10, seed=0)


SWEEP_NAMES = ["sum", "convexity", "monotonicity", "v_equivalence"]


@pytest.mark.parametrize("p", [1.2, 20.0, 100.0])
@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_sweep_margins_are_scale_free(name, p):
    # on unit-scaled pairs rounding stays near p ulps, not of order 14^p
    rep = sweep_inequality(name, p, n_pairs=2000, seed=1)
    assert np.isfinite(rep.min_margin)
    assert rep.min_margin >= -1e-12


def test_sweep_sees_a_constant_one_part_in_a_billion_too_large(monkeypatch):
    # c(p) is sharp at antipodal pairs, so a 1e-9 inflation must fail the gate
    c = monotonicity_constant(4.0)
    monkeypatch.setattr(
        "aplab.inequalities.monotonicity_constant", lambda p: c * (1.0 + 1e-9)
    )
    rep = sweep_inequality("monotonicity", 4.0, n_pairs=2000, seed=1)
    assert rep.min_margin < -1e-13


@pytest.mark.parametrize(
    "p",
    [pytest.param(p, marks=pytest.mark.xfail(reason="ROADMAP item 12"))
     for p in (1.2, 1.5, 3.0)] + [4.0],
)
def test_sweep_sees_a_v_constant_a_tenth_of_a_percent_too_small(p, monkeypatch):
    # the margins are absolute: on near-parallel pairs (|a - b| about 1e-12)
    # a deflated constant reads about -1e-27 and passes the gate; only p = 4,
    # sharp at antipodal pairs too, shows it
    c = calibrate_v_constant(p)
    monkeypatch.setattr("aplab.inequalities.calibrate_v_constant", lambda p: 0.999 * c)
    rep = sweep_inequality("v_equivalence", p, n_pairs=2000, seed=1)
    assert rep.min_margin < -1e-4


@pytest.mark.parametrize("n_pairs", [0, -5])
def test_sweep_refuses_fewer_than_one_pair(n_pairs):
    with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}"):
        sweep_inequality("sum", 2.0, n_pairs=n_pairs, seed=0)


def _uniform_pairs(n, seed):
    # uniform pairs only: near-equality pairs have margins that are all rounding
    a, b = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(2, n, 2))
    scale = np.maximum(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    return a, b, (_pairs(a / scale[:, None], b / scale[:, None]),)


@pytest.mark.parametrize(
    "name, p, eps",
    [("sum", 3.0, 0.5), ("sum", 0.5, 1.0), ("convexity", 3.0, 1.0),
     ("monotonicity", 1.5, 1.0), ("v_equivalence", 3.0, 1.0)],
)
def test_sweep_margin_is_the_witness_margin_in_unit_scale(name, p, eps, monkeypatch):
    monkeypatch.setattr("aplab.inequalities._sweep_pairs", _uniform_pairs)
    rep = sweep_inequality(name, p, n_pairs=2000, seed=3, eps=eps)
    a = np.array([rep.witness_a])
    b = np.array([rep.witness_b])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    scale = max(na, nb) ** p
    if name == "sum":
        margin = _sum_margin(a, b, p, eps)
        if p > 1.0:
            scale = (1 + eps) ** (p - 1) * na**p + (1 + 1 / eps) ** (p - 1) * nb**p
        else:
            scale = na**p + nb**p
    elif name == "convexity":
        margin = _convexity(_pairs(a, b), p)
    elif name == "monotonicity":
        margin = _monotonicity_margin(a, b, p)
    else:
        margin = _v_equivalence(_pairs(a, b), p, rep.constant)
    assert rep.min_margin > 1e-6
    assert margin[0] / scale == pytest.approx(rep.min_margin, rel=1e-9)


def test_a_patched_draw_leaves_no_pairs_behind(monkeypatch):
    # the patch replaces the memo itself, so the pairs it hands out are
    # never held for the next sweep at its (n_pairs, seed)
    with monkeypatch.context() as patch:
        patch.setattr("aplab.inequalities._sweep_pairs", _uniform_pairs)
        patched = sweep_inequality("convexity", 3.0, n_pairs=2000, seed=3)
    after = sweep_inequality("convexity", 3.0, n_pairs=2000, seed=3)
    monkeypatch.setattr(inequalities, "_held", {})
    fresh = sweep_inequality("convexity", 3.0, n_pairs=2000, seed=3)
    assert repr(after) == repr(fresh)
    assert patched.n_pairs == 2000 and after.n_pairs == 2600


def _counted_draws(monkeypatch):
    """Empty the memo and record every (n, seed) drawn from here on."""
    calls = []
    draw = inequalities._draw_pairs

    def counted(n, seed):
        calls.append((n, seed))
        return draw(n, seed)

    monkeypatch.setattr(inequalities, "_held", {})
    monkeypatch.setattr(inequalities, "_draw_pairs", counted)
    return calls


def test_sweeps_at_one_seed_draw_their_pairs_once(monkeypatch):
    calls = _counted_draws(monkeypatch)
    for name, p in UNIT_CASES:
        sweep_inequality(name, p, n_pairs=2000, seed=4)
    assert calls == [(2000, 4)]
    assert list(inequalities._held) == [(2000, 4)]


REFUSALS = {
    "unknown-name": (("bogus", 2.0), "unknown inequality sweep 'bogus'"),
    "sum-p": (("sum", 0.0), "p must be positive"),
    "sum-eps": (("sum", 3.0, 0.0), "p > 1 requires eps > 0"),
    "convexity-p": (("convexity", 0.5), "convexity inequality needs p >= 1"),
    "monotonicity-p": (("monotonicity", 1.0), "monotonicity check needs p > 1"),
    "v_equivalence-p": (("v_equivalence", 1.0), "calibration needs p > 1"),
    "v_equivalence-overflow": (
        ("v_equivalence", 2500.0), "the v-map constant at p = 2500.0 exceeds the float range"
    ),
}


@pytest.mark.parametrize("args, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refused_sweep_draws_nothing(args, message, monkeypatch):
    # the range checks run before the draw: the held entry stays
    calls = _counted_draws(monkeypatch)
    sweep_inequality("monotonicity", 3.0, n_pairs=2000, seed=4)
    name, p, *eps = args
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_inequality(name, p, 2000, 5, *eps)
    assert calls == [(2000, 4)]
    assert list(inequalities._held) == [(2000, 4)]


def test_held_pairs_are_read_only_and_column_contiguous(monkeypatch):
    monkeypatch.setattr(inequalities, "_held", {})
    a, b, blocks = entry = inequalities._sweep_pairs(2000, 4)
    ((key, held),) = inequalities._held.items()
    assert key == (2000, 4) and held is entry
    # 2600 pairs: one block, the whole held unit pairs
    (x,) = blocks
    assert x.a.flags.f_contiguous and x.b.flags.f_contiguous
    _, _, ua, ub = inequalities._draw_pairs(2000, 4)
    assert_same_bits(x.a, ua)
    assert_same_bits(x.b, ub)
    for y in (a, b, *x):
        with pytest.raises(ValueError, match="read-only"):
            y[0] = 1.0
    # the held values are those of ``_norm`` and ``-`` on the block
    assert_same_bits(x.diff, x.a - x.b)
    for y, n in ((x.a, x.na), (x.b, x.nb), (x.diff, x.nd)):
        assert_same_bits(n, np.sqrt(_dot(y, y)))
    # another (n, seed) drops the entry
    inequalities._sweep_pairs(2000, 5)
    assert list(inequalities._held) == [(2000, 5)]


def _counted_dots(monkeypatch):
    """Record the arguments of every ``_dot`` from here on."""
    calls = []
    dot = inequalities._dot

    def counted(a, b):
        calls.append((a, b))
        return dot(a, b)

    monkeypatch.setattr(inequalities, "_dot", counted)
    return calls


def _assert_norms_computed_once(blocks, calls):
    for x in blocks:
        for y in (x.a, x.b, x.diff):
            assert sum(a is y and b is y for a, b in calls) == 1


def test_sweeps_compute_each_held_norm_once(monkeypatch):
    # every sweep of tests/test_acceptance.py::SWEEPS (and the sum at
    # p = 0.5) reads |a|, |b| and |a - b| of each held block from the
    # entry, which computed each of them once
    monkeypatch.setattr(inequalities, "_held", {})
    calls = _counted_dots(monkeypatch)
    for name, p in UNIT_CASES + SWEEP_ONLY_CASES:
        sweep_inequality(name, p, n_pairs=20_000, seed=4)
    ((_, _, blocks),) = inequalities._held.values()
    assert len(blocks) == 2
    _assert_norms_computed_once(blocks, calls)


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_a_fresh_seed_computes_each_block_norm_once(name, monkeypatch):
    blocks = []
    pairs = inequalities._pairs

    def recorded(a, b):
        blocks.append(pairs(a, b))
        return blocks[-1]

    monkeypatch.setattr(inequalities, "_pairs", recorded)
    calls = _counted_dots(monkeypatch)
    sweep_inequality(name, 3.0, n_pairs=20_000, seed=np.random.default_rng(4))
    assert len(blocks) == 2
    _assert_norms_computed_once(blocks, calls)


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_the_sum_evaluates_its_right_hand_side_once_per_block(p, monkeypatch):
    # |a|^p and |b|^p once each, from the held norms, and |a + b|^p
    monkeypatch.setattr(inequalities, "_held", {})
    _, _, blocks = inequalities._sweep_pairs(20_000, 4)
    bases = []
    power = inequalities._power

    def counted(n, e):
        bases.append(n)
        return power(n, e)

    monkeypatch.setattr(inequalities, "_power", counted)
    sweep_inequality("sum", p, n_pairs=20_000, seed=4)
    assert len(bases) == 3 * len(blocks) == 6
    for x in blocks:
        assert sum(n is x.na for n in bases) == sum(n is x.nb for n in bases) == 1


def test_an_evicted_draw_gives_the_held_report_again(monkeypatch):
    # repr spells every float exactly, signed zeros included
    calls = _counted_draws(monkeypatch)
    drawn = repr(sweep_inequality("monotonicity", 3.0, n_pairs=2000, seed=4))
    held = repr(sweep_inequality("monotonicity", 3.0, n_pairs=2000, seed=4))
    sweep_inequality("monotonicity", 3.0, n_pairs=2000, seed=5)
    sweep_inequality("monotonicity", 3.0, n_pairs=100, seed=5)
    again = repr(sweep_inequality("monotonicity", 3.0, n_pairs=2000, seed=4))
    assert calls == [(2000, 4), (2000, 5), (100, 5), (2000, 4)]
    assert list(inequalities._held) == [(2000, 4)]
    assert drawn == held == again


def test_fresh_entropy_is_never_held(monkeypatch):
    calls = _counted_draws(monkeypatch)
    one = sweep_inequality("sum", 3.0, n_pairs=2000, seed=None)
    two = sweep_inequality("sum", 3.0, n_pairs=2000, seed=None)
    assert calls == [(2000, None), (2000, None)]
    assert inequalities._held == {}
    assert one.witness_a != two.witness_a


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name, p", UNIT_CASES + SWEEP_ONLY_CASES)
def test_sweep_is_bit_for_bit_its_margins_on_fresh_c_ordered_pairs(name, p, seed):
    margins = _unit_margins(name, p, seed)
    if name == "sum":
        lhs, rhs = margins
        margins = ((rhs - lhs) / rhs,)
    (margins,) = margins
    i = int(np.argmin(margins))
    a, b = _fresh_unit_pairs(seed)[:2]
    rep = sweep_inequality(name, p, n_pairs=2000, seed=seed)
    assert rep.min_margin.hex() == float(margins[i]).hex()
    assert rep.witness_a == tuple(a[i]) and rep.witness_b == tuple(b[i])


def _one_call_report(name, p, n_pairs, seed):
    """A sweep's report built from one kernel call on all of its unit
    pairs, drawn anew; also the witness's index."""
    a, b, ua, ub = inequalities._draw_pairs(n_pairs, seed)
    x = _pairs(ua, ub)
    constant = None
    if name == "sum":
        lhs, rhs = _sum_sides(x, p, 1.0)
        margins = (rhs - lhs) / rhs
    elif name == "convexity":
        margins = _convexity(x, p)
    elif name == "monotonicity":
        constant = monotonicity_constant(p)
        margins = _monotonicity(x, p, constant)
    else:
        constant = calibrate_v_constant(p)
        margins = _v_equivalence(x, p, constant)
    i = int(np.argmin(margins))
    report = InequalityReport(
        name, p, len(margins), float(margins[i]), tuple(map(float, a[i])),
        tuple(map(float, b[i])), constant, 1.0 if name == "sum" and p > 1.0 else None,
    )
    return report, i


@pytest.mark.parametrize("generator", [False, True], ids=["held", "generator"])
@pytest.mark.parametrize("name, p", ACCEPTANCE_SWEEPS)
def test_blocked_sweep_is_bit_for_bit_one_call_on_all_pairs(name, p, generator):
    # 130 000 pairs: seven whole blocks and one of 15 312; repr spells every
    # float exactly, signed zeros included
    def seed():
        return np.random.default_rng(11) if generator else 1

    report = sweep_inequality(name, p, n_pairs=100_000, seed=seed())
    assert repr(report) == repr(_one_call_report(name, p, 100_000, seed())[0])


BLOCK = inequalities._BLOCK


# batches of 4 pairs, one short of a block, one block, one past it, two blocks
@pytest.mark.parametrize("n_pairs, total", [
    (1, 4), (12603, BLOCK - 1), (12604, BLOCK), (12605, BLOCK + 1), (25208, 2 * BLOCK),
])
@pytest.mark.parametrize("name, p", [
    ("sum", 3.0), ("convexity", 3.0), ("monotonicity", 1.5), ("v_equivalence", 3.0),
])
def test_blocked_sweep_at_the_block_edges(name, p, n_pairs, total):
    report = sweep_inequality(name, p, n_pairs=n_pairs, seed=2)
    assert report.n_pairs == total
    assert repr(report) == repr(_one_call_report(name, p, n_pairs, 2)[0])


def test_a_witness_in_the_last_block_is_the_reported_one():
    expected, i = _one_call_report("monotonicity", 4.0, 100_000, 1)
    assert i >= 7 * BLOCK  # the last of eight blocks
    assert repr(sweep_inequality("monotonicity", 4.0, n_pairs=100_000, seed=1)) == repr(expected)


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_a_nonfinite_margin_in_the_last_block_raises(name, monkeypatch):
    a, b, ua, ub = (np.array(x) for x in inequalities._draw_pairs(100_000, 1))
    ua[-1] = np.nan  # pair 129 999, in the last of eight blocks
    monkeypatch.setattr(inequalities, "_held", {})
    monkeypatch.setattr(inequalities, "_draw_pairs", lambda n, seed: (a, b, ua, ub))
    with pytest.raises(ValueError, match=f"the {name} margins at p = 3.0 are not finite"):
        sweep_inequality(name, 3.0, n_pairs=100_000, seed=1)


def test_a_held_sweep_reads_block_views_and_peaks_under_3_mb(monkeypatch):
    monkeypatch.setattr(inequalities, "_held", {})
    _, _, blocks = inequalities._sweep_pairs(100_000, 1)
    assert [len(x.a) for x in blocks] == [BLOCK] * 7 + [15312]
    # every block's pairs are views of the held unit pairs
    ua, ub = blocks[0].a.base, blocks[0].b.base
    assert ua.shape == ub.shape == (130_000, 2) and ua.flags.f_contiguous
    for x in blocks:
        assert np.shares_memory(x.a, ua) and np.shares_memory(x.b, ub)
    # one call on all 130 000 pairs peaks at 5.0 to 8.5 MB of temporaries
    for name, p in ACCEPTANCE_SWEEPS:
        tracemalloc.start()
        try:
            sweep_inequality(name, p, n_pairs=100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, (name, p)


@pytest.mark.parametrize("name, p", [
    ("sum", 2.0), ("convexity", 3.0), ("monotonicity", 1.5), ("v_equivalence", 2.0),
])
def test_a_generator_seed_builds_each_block_as_the_sweep_reaches_it(name, p, monkeypatch):
    # default_rng(11) draws the pairs of seed 11, so the reports agree bit
    # for bit; the integer seed builds and holds all eight blocks' norms and
    # differences (5.2 MB), the generator one block at a time
    def traced(seed):
        monkeypatch.setattr(inequalities, "_held", {})
        tracemalloc.start()
        try:
            report = sweep_inequality(name, p, n_pairs=100_000, seed=seed)
            return repr(report), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held, held_peak = traced(11)
    fresh, fresh_peak = traced(np.random.default_rng(11))
    assert fresh == held
    assert fresh_peak <= held_peak - 2e6
    _, _, blocks = inequalities._sweep_pairs(100_000, np.random.default_rng(11))
    assert not isinstance(blocks, tuple)
    assert [len(x.a) for x in blocks] == [BLOCK] * 7 + [15312]


@pytest.mark.parametrize("name", ["sum", "monotonicity"])
def test_sweep_past_the_float_range_raises(name):
    # 2^(p-1) and |a-b|^p overflow from p = 1025: refuse, never report -inf or nan
    with pytest.raises(ValueError, match=f"{name} margins at p = 1100.0 are not"):
        sweep_inequality(name, 1100.0, n_pairs=100, seed=0)


@pytest.mark.parametrize(
    "name, p, eps",
    [("sum", np.nan, 1.0), ("sum", np.inf, 1.0), ("sum", 3.0, np.nan),
     ("sum", 3.0, np.inf), ("convexity", np.nan, 1.0), ("monotonicity", np.inf, 1.0)],
)
def test_sweep_refuses_nonfinite_p_or_eps(name, p, eps):
    with pytest.raises(ValueError, match="not finite"):
        sweep_inequality(name, p, n_pairs=100, seed=0, eps=eps)


def test_sweep_reports_no_eps_where_the_sum_does_not_read_it():
    assert sweep_inequality("sum", 0.5, n_pairs=100, seed=0, eps=2.0).eps is None
    assert sweep_inequality("sum", 2.0, n_pairs=100, seed=0, eps=2.0).eps == 2.0
