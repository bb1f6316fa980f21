"""Vector inequalities behind the comparison estimates.

Each check returns margins (nonnegative means the inequality holds); the
sweeps randomize over pair families including the adversarial near-parallel,
near-antipodal, and near-zero ones.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aplab import inequalities
from aplab.inequalities import (
    _dot,
    _norm,
    _power,
    calibrate_v_constant,
    check_convexity_inequality,
    check_monotonicity,
    check_sum_inequality,
    check_v_equivalence,
    monotonicity_constant,
    sweep_inequality,
    v_map,
)

unit_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False
)
vectors = st.tuples(unit_floats, unit_floats)


def _pairs(seed=0, n=5000, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, size=(n, dim))
    b = rng.uniform(-10, 10, size=(n, dim))
    return a, b


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


def _unit_margins(name, p):
    """Every margin array a sweep reads, on 2000 of its pairs, scaled as it
    scales them."""
    a, b = inequalities._sweep_pairs(np.random.default_rng(1), 2000)
    scale = np.maximum(inequalities._norm(a), inequalities._norm(b))[:, None]
    a, b = a / scale, b / scale
    if name == "sum":
        return check_sum_inequality(a, b, p, 1.0), inequalities._sum_rhs(a, b, p, 1.0)
    if name == "convexity":
        return (check_convexity_inequality(a, b, p),)
    if name == "monotonicity":
        return (check_monotonicity(a, b, p),)
    return check_v_equivalence(a, b, p, calibrate_v_constant(p))


@pytest.mark.parametrize(
    "name, p",
    [("sum", 0.5), ("sum", 3.0), ("convexity", 2.0), ("convexity", 4.0),
     ("monotonicity", 1.5), ("monotonicity", 3.0), ("v_equivalence", 1.5),
     ("v_equivalence", 3.0)],
)
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
# v_map


def test_v_map_fixed_points():
    np.testing.assert_allclose(v_map(np.array([0.0, 0.0]), 3.0), 0.0)
    # p = 2 reduces to the identity
    a = np.array([[1.5, -2.0], [0.0, 3.0]])
    np.testing.assert_allclose(v_map(a, 2.0), a)


def test_v_map_norm_is_half_power():
    a = np.array([3.0, 4.0])
    out = v_map(a, 3.0)
    assert np.linalg.norm(out) == pytest.approx(5.0**1.5)


# ---------------------------------------------------------------------------
# individual margins


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_sum_split_subadditive_branch(p):
    a, b = _pairs(1)
    assert check_sum_inequality(a, b, p).min() >= -1e-12


@pytest.mark.parametrize("p,eps", [(2.0, 1.0), (3.0, 0.5), (1.5, 2.0)])
def test_sum_split_weighted_branch(p, eps):
    a, b = _pairs(2)
    assert check_sum_inequality(a, b, p, eps=eps).min() >= -1e-12


def test_sum_split_requires_eps_above_one():
    a, b = _pairs(3, n=10)
    with pytest.raises(ValueError):
        check_sum_inequality(a, b, 2.0)


def test_sum_split_weighted_is_tight_for_proportional_pairs():
    # at b = eps * a the Young split holds with equality
    a = np.array([[2.0, 1.0]])
    eps = 0.7
    margin = check_sum_inequality(a, eps * a, 3.0, eps=eps)
    assert abs(margin[0]) <= 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, 2.7, 4.0])
def test_convexity_margins(p):
    a, b = _pairs(4)
    assert check_convexity_inequality(a, b, p).min() >= -1e-12


def test_convexity_equality_at_same_point():
    a, _ = _pairs(5, n=50)
    np.testing.assert_allclose(check_convexity_inequality(a, a, 3.0), 0.0, atol=1e-12)


def test_monotonicity_constants_branch_values():
    assert monotonicity_constant(2.0) == pytest.approx(1.0)
    assert monotonicity_constant(4.0) == pytest.approx(0.25)
    assert monotonicity_constant(1.5) == pytest.approx(0.5 * 2.0**-0.5)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
def test_monotonicity_margins(p):
    a, b = _pairs(6)
    assert check_monotonicity(a, b, p).min() >= -1e-12


def test_monotonicity_sharp_at_antipodal_pairs_for_large_p():
    # b = -a makes the p >= 2 bound an equality
    a = np.array([[1.0, 2.0]])
    margin = check_monotonicity(a, -a, 3.0)
    assert abs(margin[0]) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_v_equivalence_two_sided(p):
    a, b = _pairs(7)
    c = calibrate_v_constant(p)
    upper, lower = check_v_equivalence(a, b, p, c)
    assert upper.min() >= -1e-12
    assert lower.min() >= -1e-12


def test_v_equivalence_identity_at_p_two():
    # V is the identity at p = 2, so the constant 1 + headroom works
    a, b = _pairs(8)
    upper, lower = check_v_equivalence(a, b, 2.0, 1.0 + 1e-9)
    assert upper.min() >= -1e-12
    assert lower.min() >= -1e-12


def test_v_equivalence_rejects_constant_below_one():
    with pytest.raises(ValueError):
        check_v_equivalence(np.zeros((1, 2)), np.zeros((1, 2)), 3.0, 0.5)


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
        upper, lower = check_v_equivalence(a, b, p, c / (1.0 + 1e-4))
        assert min(upper.min(), lower.min()) < 0, p


@given(vectors, vectors)
def test_monotonicity_margin_property(av, bv):
    a = np.array([av])
    b = np.array([bv])
    assert check_monotonicity(a, b, 3.0)[0] >= -1e-12
    assert check_monotonicity(a, b, 1.5)[0] >= -1e-12


@given(vectors, vectors)
def test_convexity_margin_property(av, bv):
    a = np.array([av])
    b = np.array([bv])
    assert check_convexity_inequality(a, b, 2.5)[0] >= -1e-12


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


@pytest.mark.parametrize(
    "name, p, eps",
    [("sum", 3.0, 0.5), ("sum", 0.5, 1.0), ("convexity", 3.0, 1.0),
     ("monotonicity", 1.5, 1.0), ("v_equivalence", 3.0, 1.0)],
)
def test_sweep_margin_is_the_witness_margin_in_unit_scale(name, p, eps, monkeypatch):
    # uniform pairs only: near-equality pairs have margins that are all rounding
    monkeypatch.setattr(
        "aplab.inequalities._sweep_pairs",
        lambda rng, n: tuple(rng.uniform(-10.0, 10.0, size=(2, n, 2))),
    )
    rep = sweep_inequality(name, p, n_pairs=2000, seed=3, eps=eps)
    a = np.array([rep.witness_a])
    b = np.array([rep.witness_b])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    scale = max(na, nb) ** p
    if name == "sum":
        margin = check_sum_inequality(a, b, p, eps)
        if p > 1.0:
            scale = (1 + eps) ** (p - 1) * na**p + (1 + 1 / eps) ** (p - 1) * nb**p
        else:
            scale = na**p + nb**p
    elif name == "convexity":
        margin = check_convexity_inequality(a, b, p)
    elif name == "monotonicity":
        margin = check_monotonicity(a, b, p)
    else:
        margin = np.minimum(*check_v_equivalence(a, b, p, rep.constant))
    assert rep.min_margin > 1e-6
    assert margin[0] / scale == pytest.approx(rep.min_margin, rel=1e-9)


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
