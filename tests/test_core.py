"""Grids, parameters, fields, the text field format, and package exports."""

import importlib
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
    deserialize_field,
    load_field,
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
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False
        ),
        min_size=5,
        max_size=5,
    )
)
def test_round_trip_preserves_arbitrary_values(vals):
    grid = build_grid(((0.0, 1.0),), (5,))
    arr = np.asarray(vals)
    fld = ScalarField(grid, arr, grid.boundary_face_mask, arr)
    back = deserialize_field(serialize_field(fld))
    np.testing.assert_array_equal(back.values, fld.values)


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
