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

from aplab.inequalities import (
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


def _power_bases(dtype):
    rng = np.random.default_rng(0)
    n = np.concatenate([np.geomspace(1e-12, 30.0, 4001), rng.uniform(0.0, 30.0, 4000)])
    return n.astype(dtype)


@pytest.mark.parametrize("dtype", POWER_DTYPES)
@pytest.mark.parametrize("e", POWER_EXPONENTS)
def test_power_matches_the_pow_reference(dtype, e):
    # squarings, sqrt and one exp-log remainder against numpy's pow (powl in
    # long double); the worst measured is 5.3 ulps at e = 7.3 in long double
    # and 4.6 at e = -0.3 in float64, from the exp-log remainder
    n = _power_bases(dtype)
    ref = n ** dtype(e)
    got = _power(n, e)
    assert got.dtype == dtype
    ulps = np.abs(got - ref) / (ref * np.finfo(dtype).eps)
    assert ulps.max() <= 8.0


@pytest.mark.parametrize("dtype", POWER_DTYPES)
@pytest.mark.parametrize("e", POWER_EXPONENTS)
def test_power_is_zero_at_a_zero_base(dtype, e):
    n = np.array([0.0, 2.0, 0.0, 0.5], dtype=dtype)
    got = _power(n, e)
    assert got[0] == got[2] == 0.0
    assert np.all(got[[1, 3]] > 0.0)


@pytest.mark.parametrize("dtype", POWER_DTYPES)
@pytest.mark.parametrize("e, fast", [(0.5, np.sqrt), (1.0, np.copy), (2.0, np.square)])
def test_power_is_numpys_fast_path_bit_for_bit(dtype, e, fast):
    n = _power_bases(dtype)
    np.testing.assert_array_equal(_power(n, e), fast(n))
    np.testing.assert_array_equal(_power(n, e), n**e)


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


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_calibrated_constant_is_the_endpoint_extremum(p):
    # the parallel (b -> a) and antipodal (b = -a) limits carry the extremes
    par = p * p / 4.0 * 2.0 ** ((2.0 - p) / 2.0)
    perp = 2.0 ** ((2.0 - p) / 2.0)
    expected = max(par, 1.0 / par, perp, 1.0 / perp) * (1.0 + 1e-6)
    assert calibrate_v_constant(p) == pytest.approx(expected, rel=1e-12, abs=0.0)


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
    assert rep.min_margin >= -1e-12
    assert len(rep.witness_a) == 2


def test_sweep_is_reproducible():
    one = sweep_inequality("monotonicity", 2.5, n_pairs=2000, seed=5)
    two = sweep_inequality("monotonicity", 2.5, n_pairs=2000, seed=5)
    assert one == two


def test_sweep_unknown_name_rejected():
    with pytest.raises(ValueError):
        sweep_inequality("triangle", 2.0, n_pairs=10, seed=0)
