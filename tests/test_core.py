"""Grids, parameters, fields, the text field format, and package exports."""

import importlib
import inspect
import io
import pkgutil
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aplab
from aplab.core import (
    FieldFormatError,
    Grid,
    Params,
    ScalarField,
    build_grid,
    coarse_grid,
    deserialize_field,
    inject,
    load_field,
    prolong,
    save_field,
    serialize_field,
)


# ---------------------------------------------------------------------------
# Params


def test_params_derived_exponents():
    prm = Params(p=3.0, gamma=1.0, lambda_plus=1.0, lambda_minus=0.5, alpha_p=1.0)
    assert prm.tau == pytest.approx(1.0 / 2.0)


def test_params_alpha_p_defaults_only_for_laplacian():
    assert Params(p=2.0, gamma=1.0, lambda_plus=1.0, lambda_minus=0.0).alpha_p == 1.0
    with pytest.raises(ValueError, match="alpha_p"):
        Params(p=3.0, gamma=1.0, lambda_plus=1.0, lambda_minus=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=1.0, gamma=0.5),
        dict(p=2.0, gamma=0.0),
        dict(p=2.0, gamma=2.0),
        dict(p=2.0, gamma=2.5),
        dict(p=2.0, gamma=1.0, lambda_plus=-1.0),
        dict(p=2.0, gamma=1.0, delta=-0.5),
        dict(p=2.0, gamma=1.0, lambda_minus=float("nan")),
        dict(p=2.0, gamma=1.0, delta=float("inf")),
    ],
)
def test_params_rejects_out_of_range(kwargs):
    kwargs.setdefault("lambda_plus", 1.0)
    kwargs.setdefault("lambda_minus", 1.0)
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_restricted_range_flag():
    # gamma < min(1, p*alpha_p/(1+alpha_p)) with alpha_p = 1 means gamma < 1
    assert Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=1.0).restricted_range
    assert not Params(p=2.0, gamma=1.0, lambda_plus=1.0, lambda_minus=1.0).restricted_range


def test_with_delta_returns_rescaled_copy():
    prm = Params(p=2.0, gamma=0.5, lambda_plus=1.0, lambda_minus=2.0)
    other = prm.with_delta(3.5)
    assert other.delta == 3.5
    assert other.p == prm.p and other.gamma == prm.gamma
    assert prm.delta == 1.0


# ---------------------------------------------------------------------------
# Grid


def test_build_grid_axes_and_spacing():
    grid = build_grid(((-1.0, 1.0), (0.0, 3.0)), (5, 7))
    assert grid.ndim == 2
    assert grid.shape == (5, 7)
    np.testing.assert_allclose(grid.spacing, (0.5, 0.5))
    np.testing.assert_allclose(grid.axes[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid.cell_volume == pytest.approx(0.25)


def test_quadrature_weights_sum_to_volume():
    grid = build_grid(((-1.0, 1.0), (0.0, 2.0)), (9, 17))
    assert grid.quadrature_weights.sum() == pytest.approx(4.0)


def test_quadrature_weights_trapezoid_pattern_1d():
    grid = build_grid(((0.0, 1.0),), (5,))
    w = grid.quadrature_weights
    np.testing.assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_boundary_face_mask_marks_box_faces():
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (4, 5))
    mask = grid.boundary_face_mask
    assert mask[0].all() and mask[-1].all()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[1:-1, 1:-1].any()


def test_build_grid_rejects_degenerate_extent():
    with pytest.raises(ValueError):
        build_grid(((1.0, 1.0),), (5,))
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0),), (1,))


# ---------------------------------------------------------------------------
# ScalarField


def test_field_stamps_boundary_values_on_mask():
    grid = build_grid(((0.0, 1.0),), (5,))
    bvals = np.full(5, 7.0)
    fld = ScalarField(grid, np.zeros(5), grid.boundary_face_mask, bvals)
    np.testing.assert_allclose(fld.values[[0, -1]], 7.0)
    np.testing.assert_allclose(fld.values[1:-1], 0.0)
    assert fld.free_mask.sum() == 3


def test_field_with_values_keeps_mask_pinned():
    grid = build_grid(((0.0, 1.0),), (5,))
    fld = ScalarField(grid, np.zeros(5), grid.boundary_face_mask, np.ones(5))
    new = fld.with_values(np.full(5, 3.0))
    np.testing.assert_allclose(new.values[[0, -1]], 1.0)
    np.testing.assert_allclose(new.values[1:-1], 3.0)


def test_field_shape_mismatch_rejected():
    grid = build_grid(((0.0, 1.0),), (5,))
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros(6), grid.boundary_face_mask, np.zeros(5))


# ---------------------------------------------------------------------------
# Lattice hierarchy


@given(
    a=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    intervals=st.sampled_from([32, 64, 96, 128, 2048]),
)
def test_coarse_nodes_are_the_even_fine_nodes_bit_for_bit(a, width, intervals):
    grid = build_grid(((a, a + width), (-1.0, 1.0)), (intervals + 1, 33))
    coarse = coarse_grid(grid)
    assert coarse.resolution == (intervals // 2 + 1, 17)
    assert coarse.spacing == tuple(2.0 * h for h in grid.spacing)
    for c, f in zip(coarse.axes, grid.axes):
        assert np.array_equal(c, f[::2])


@pytest.mark.parametrize("shape", [(9, 9), (17, 13), (33, 17), (31,), (64,), (65, 64)])
def test_a_grid_with_an_even_axis_or_a_short_coarse_axis_has_no_coarse_grid(shape):
    grid = build_grid([(0.0, 1.0)] * len(shape), shape)
    assert coarse_grid(grid) is None
    assert inject(ScalarField(grid, np.zeros(shape), grid.boundary_face_mask,
                              np.zeros(shape))) is None


def test_injection_keeps_values_mask_and_boundary_values_at_the_even_nodes():
    grid = build_grid(((-1.0, 1.0), (0.0, 2.0)), (33, 65))
    rng = np.random.default_rng(0)
    vals, bvals = rng.standard_normal((2, *grid.shape))
    fld = ScalarField(grid, vals, rng.random(grid.shape) < 0.3, bvals)
    coarse = inject(fld)
    even = np.s_[::2, ::2]
    assert coarse.grid == coarse_grid(grid)
    assert np.array_equal(coarse.values, fld.values[even])
    assert np.array_equal(coarse.boundary_mask, fld.boundary_mask[even])
    assert np.array_equal(coarse.boundary_values, fld.boundary_values[even])


@pytest.mark.parametrize("shape", [(17,), (9, 17), (5, 9, 3)])
def test_prolongation_keeps_the_coarse_nodes_bit_for_bit(shape):
    coarse = np.random.default_rng(1).standard_normal(shape)
    fine = prolong(coarse)
    assert fine.shape == tuple(2 * n - 1 for n in shape)
    assert np.array_equal(fine[(np.s_[::2],) * len(shape)], coarse)


def _multilinear(*x):
    # affine in each coordinate: 1D affine, 2D bilinear, 3D trilinear
    out = 0.3 + np.zeros_like(x[0])
    for k, xa in enumerate(x):
        out = out * (1.0 + (0.7 - 0.2 * k) * xa) + (0.1 * k - 0.4) * xa
    return out


@pytest.mark.parametrize(
    "extents, shape",
    [
        (((-1.0, 1.0),), (33,)),
        (((-1.0, 1.0), (0.0, 3.0)), (65, 33)),
        (((-1.0, 1.0), (0.0, 3.0), (-2.0, 0.5)), (33, 33, 65)),
    ],
)
def test_prolongation_is_exact_on_multilinear_data(extents, shape):
    fine = build_grid(extents, shape)
    coarse = coarse_grid(fine)
    want = _multilinear(*fine.coordinate_arrays())
    got = prolong(_multilinear(*coarse.coordinate_arrays()))
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Text format


def _demo_field() -> ScalarField:
    grid = build_grid(((-1.0, 1.0), (0.0, 0.5)), (4, 3))
    X, Y = grid.coordinate_arrays()
    vals = X * Y - 0.125
    return ScalarField(grid, vals, grid.boundary_face_mask, vals)


def test_field_text_round_trip_is_exact():
    fld = _demo_field()
    text = serialize_field(fld)
    assert text.startswith("APFIELD v1 ")
    back = deserialize_field(text)
    np.testing.assert_array_equal(back.values, fld.values)
    np.testing.assert_array_equal(back.boundary_mask, fld.boundary_mask)
    np.testing.assert_array_equal(back.boundary_values, fld.boundary_values)
    assert back.grid.extents == fld.grid.extents
    assert back.grid.resolution == fld.grid.resolution


def test_field_file_round_trip(tmp_path):
    fld = _demo_field()
    path = tmp_path / "field.apf"
    save_field(fld, path)
    back = load_field(path)
    np.testing.assert_array_equal(back.values, fld.values)


def test_serialization_is_deterministic():
    assert serialize_field(_demo_field()) == serialize_field(_demo_field())


def _per_element_lines(fld: ScalarField) -> list[str]:
    # the reference writer: repr(float(v)) per node, one value per line
    header, _ = serialize_field(fld).split("\n", 1)
    lines = [header]
    lines.extend(repr(float(v)) for v in fld.values.ravel())
    lines.append("MASK")
    lines.extend("1" if m else "0" for m in fld.boundary_mask.ravel())
    lines.append("BVALS")
    lines.extend(repr(float(v)) for v in fld.boundary_values.ravel())
    return lines


def _nans() -> np.ndarray:
    # quiet NaNs with two payloads, and one with the sign bit set
    bits = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64)
    return bits.view(np.float64)


def _signed_field() -> ScalarField:
    # -0.0, mirrored +-x pairs and +-subnormals; the four free nodes'
    # boundary values are +-inf, NaN with the sign bit set and -0.0, which a
    # field allows off its mask
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    vals = np.array([[-0.0, 5e-324, 1e308, -1.7976931348623157e308],
                     [-2.5e-310, 2.5e-310, 0.1, -0.1],
                     [1e22, -1e-5, 1e-5, 0.0],
                     [-5e-324, -1e22, 7.25, -7.25]])
    bvals = vals.copy()
    bvals[1:3, 1:3] = [[np.inf, -np.inf], [_nans()[2], -0.0]]
    return ScalarField(grid, vals, grid.boundary_face_mask, bvals)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def test_serialization_matches_per_element_repr():
    fld = _signed_field()
    assert np.signbit(fld.boundary_values[2, 1]) and np.isnan(fld.boundary_values[2, 1])
    lines = _per_element_lines(fld)
    for token in ("-0.0", "0.0", "5e-324", "-5e-324", "2.5e-310", "-2.5e-310",
                  "0.1", "-0.1", "1e+308", "-1e+22", "inf", "-inf", "nan"):
        assert token in lines, token
    assert "-nan" not in lines
    assert serialize_field(fld) == "\n".join(lines) + "\n"


def test_signed_values_round_trip_bit_for_bit():
    fld = _signed_field()
    back = deserialize_field(serialize_field(fld))
    np.testing.assert_array_equal(_bits(back.values), _bits(fld.values))
    # repr writes every NaN as nan, so a NaN comes back as NaN, sign and
    # payload aside; every other boundary value comes back bit for bit
    nan = np.isnan(fld.boundary_values)
    np.testing.assert_array_equal(np.isnan(back.boundary_values), nan)
    np.testing.assert_array_equal(_bits(back.boundary_values)[~nan],
                                  _bits(fld.boundary_values)[~nan])


def test_serialization_of_repeated_values_matches_per_element_repr():
    # the writer formats each distinct bit pattern once: -0.0 and 0.0, and
    # NaNs of different payloads, are different patterns but may not be
    # told apart by a float comparison
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (9, 8))
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 0.1, 0.1 + 2**-56, -7.0])
    rng = np.random.default_rng(2)
    vals = rng.choice(pool, size=grid.shape)
    free = ~grid.boundary_face_mask
    bvals = vals.copy()
    extra = np.concatenate((_nans(), [np.inf, -np.inf], pool))
    bvals[free] = rng.choice(extra, size=int(free.sum()))
    fld = ScalarField(grid, vals, grid.boundary_face_mask, bvals)
    assert np.array_equal(fld.boundary_values.view(np.uint64), bvals.view(np.uint64))
    lines = _per_element_lines(fld)
    for token in ("0.0", "-0.0", "5e-324", "-2.5e-310", "nan", "inf", "-inf"):
        assert token in lines, token
    assert serialize_field(fld) == "\n".join(lines) + "\n"


_BIT_PATTERNS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    pool=st.lists(_BIT_PATTERNS, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 7), min_size=12, max_size=12),
    free_picks=st.lists(st.integers(0, 12), min_size=2, max_size=2),
)
def test_serialization_of_drawn_duplicates_matches_per_element_repr(
    pool, picks, free_picks
):
    # every node's value is drawn from a pool of at most four values and
    # their negations, so values repeat and a zero comes with both signs;
    # the two free nodes' boundary values may also be nan or inf
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (3, 4))
    signed = pool + [-x for x in pool]
    vals = np.array([signed[i % len(signed)] for i in picks]).reshape(grid.shape)
    extra = np.concatenate((signed, _nans(), [np.inf, -np.inf]))
    bvals = vals.copy()
    free = ~grid.boundary_face_mask
    bvals[free] = [extra[i % extra.size] for i in free_picks]
    fld = ScalarField(grid, vals, grid.boundary_face_mask, bvals)
    assert serialize_field(fld) == "\n".join(_per_element_lines(fld)) + "\n"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("APFIELD v1", "APFIELD v2"),
        lambda t: t.replace("APFIELD v1", "JUNK"),
        lambda t: "\n".join(t.splitlines()[:-2]) + "\n",
        lambda t: t.replace("MASK", "MASQUE"),
    ],
)
def test_malformed_field_text_rejected(mangle):
    text = serialize_field(_demo_field())
    with pytest.raises(FieldFormatError):
        deserialize_field(mangle(text))


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308]),
        ),
        min_size=5,
        max_size=5,
    )
)
def test_round_trip_preserves_arbitrary_values(vals):
    # each value with its mirror, so a magnitude comes with both signs
    grid = build_grid(((0.0, 1.0),), (10,))
    arr = np.concatenate((vals, np.negative(vals)))
    fld = ScalarField(grid, arr, grid.boundary_face_mask, arr)
    back = deserialize_field(serialize_field(fld))
    np.testing.assert_array_equal(_bits(back.values), _bits(fld.values))


_MODULES = ["aplab"] + sorted(
    f"aplab.{m.name}" for m in pkgutil.iter_modules(aplab.__path__)
)


@pytest.mark.parametrize("module", _MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def _code_names(root: Path) -> set[str]:
    """Every name token in the .py files under root, except a def/class name."""
    names = set()
    for path in root.rglob("*.py"):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        previous = None
        for tok in tokens:
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return names


def test_every_exported_name_has_a_caller():
    # __all__ entries are string tokens, so only uses in code count
    src = Path(aplab.__file__).parent
    used = _code_names(src) | _code_names(src.parents[1] / "perfbench")
    unused = [
        f"{module}.{name}"
        for module in _MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
        if name not in used
    ]
    assert unused == []


def test_every_public_definition_has_a_caller():
    # every public module-level function and class, exported or not, is
    # called somewhere in the package or the benchmark: a string naming it
    # does not count
    src = Path(aplab.__file__).parent
    used = _code_names(src) | _code_names(src.parents[1] / "perfbench")
    unused = [
        f"{module}.{name}"
        for module in _MODULES
        for name, obj in vars(importlib.import_module(module)).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module
        and name not in used
    ]
    assert unused == []
