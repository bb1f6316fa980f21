"""Phase split and free-boundary node classification."""

import numpy as np
import pytest

from aplab.core import Params, ScalarField, build_grid
from aplab.phases import classify, distance_to_set, pick_interface_node

# the classification reads the node gradient only, so the weights do not enter
PAR = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)


def _field_1d(values):
    values = np.asarray(values, dtype=float)
    grid = build_grid(((0.0, 1.0),), (len(values),))
    return ScalarField(grid, values, grid.boundary_face_mask, values)


def _field_2d(values):
    values = np.asarray(values, dtype=float)
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), values.shape)
    return ScalarField(grid, values, grid.boundary_face_mask, values)


# ---------------------------------------------------------------------------
# phase split


def test_classify_partitions_nodes():
    fld = _field_1d([-2.0, -0.5, -0.01, 0.0, 0.01, 0.5, 2.0])
    cls = classify(fld, PAR, zero_tol=0.1)
    np.testing.assert_array_equal(cls.positive, [0, 0, 0, 0, 0, 1, 1])
    np.testing.assert_array_equal(cls.negative, [1, 1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(cls.zero, [0, 0, 1, 1, 1, 0, 0])
    # the three sets tile the grid
    total = cls.positive.astype(int) + cls.negative.astype(int) + cls.zero.astype(int)
    np.testing.assert_array_equal(total, 1)


def test_classify_zero_band_is_closed():
    # |u| exactly at the tolerance counts as zero
    cls = classify(_field_1d([-0.1, 0.1, 0.2]), PAR, zero_tol=0.1)
    np.testing.assert_array_equal(cls.zero, [1, 1, 0])


def test_classify_rejects_negative_zero_tol():
    with pytest.raises(ValueError, match="zero_tol"):
        classify(_field_1d([0.0, 1.0]), PAR, zero_tol=-1e-3)


def test_classification_masks_are_frozen():
    cls = classify(_field_1d([-1.0, 0.0, 1.0]), PAR, zero_tol=0.5)
    masks = cls.masks()
    assert list(masks) == [
        "positive", "negative", "zero", "gamma_all", "gamma_zero",
        "two_phase", "branching",
    ]
    for name, mask in masks.items():
        with pytest.raises(ValueError):
            mask[0] = True
        assert mask is getattr(cls, name)


def test_default_tolerances_scale_with_spacing():
    coarse = _field_1d(np.zeros(11))
    fine = _field_1d(np.zeros(101))
    # tau = 1 here, so zero_tol ~ h^2 and grad_tol ~ h
    assert classify(coarse, PAR).zero_tol == pytest.approx(0.1**2)
    assert classify(fine, PAR).zero_tol == pytest.approx(0.01**2)
    assert classify(coarse, PAR).grad_tol == pytest.approx(0.1)
    assert classify(fine, PAR).grad_tol == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# free boundary


def test_classify_transversal_crossing_1d():
    # a straight crossing: interface nodes carry gradient, nothing branches
    n = 21
    x = np.linspace(-1.0, 1.0, n)
    cls = classify(_field_1d(x), PAR, zero_tol=1e-12, grad_tol=0.5)
    # only the sign change at x = 0 and its signed neighbors are interface
    assert cls.gamma_all.sum() == 3
    assert cls.gamma_all[9] and cls.gamma_all[10] and cls.gamma_all[11]
    assert cls.two_phase.sum() == 3
    assert not cls.gamma_zero.any()
    assert not cls.branching.any()


def test_classify_dead_core_1d():
    # a one-phase profile with a flat core: interface is one-sided, so the
    # two-phase set is empty and the takeoff node has low gradient
    x = np.linspace(-1.0, 1.0, 41)
    u = np.clip(x, 0.0, None) ** 2
    cls = classify(_field_1d(u), PAR, zero_tol=1e-9, grad_tol=0.2)
    assert cls.gamma_all.any()
    assert not cls.two_phase.any()
    assert cls.gamma_zero.any()
    # every detected interface node sits near the sign change at x = 0
    assert np.all(np.abs(x[cls.gamma_all]) <= 0.15)


def test_classify_branching_interface_1d():
    # odd sublinear profile through zero: signs touch across a low-gradient
    # node, which is exactly the branching configuration
    x = np.linspace(-1.0, 1.0, 41)
    u = np.sign(x) * np.abs(x) ** 2
    cls = classify(_field_1d(u), PAR, zero_tol=1e-9, grad_tol=0.2)
    assert cls.two_phase.any()
    assert cls.branching.any()
    mid = len(x) // 2
    assert cls.branching[mid]


def test_classify_2d_vertical_interface():
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
    X = grid.coordinate_arrays()[0]
    fld = ScalarField(grid, 0.5 * X, grid.boundary_face_mask, 0.5 * X)
    cls = classify(fld, PAR, zero_tol=1e-12, grad_tol=0.1)
    # the interface is the x1 = 0 column plus one signed column on each side
    cols = np.unique(np.argwhere(cls.gamma_all)[:, 0])
    assert set(cols) == {15, 16, 17}
    assert cls.two_phase.sum() == 3 * 33
    assert not cls.branching.any()


def test_classify_rejects_negative_grad_tol():
    with pytest.raises(ValueError, match="grad_tol"):
        classify(_field_1d([-1.0, 0.0, 1.0]), PAR, zero_tol=0.1, grad_tol=-0.5)


def test_classification_thresholds_recorded():
    cls = classify(_field_1d([-1.0, 0.0, 1.0]), PAR, zero_tol=0.25, grad_tol=0.125)
    assert cls.zero_tol == 0.25
    assert cls.grad_tol == 0.125


# ---------------------------------------------------------------------------
# distance transform


def test_distance_to_set_single_node():
    grid = build_grid(((0.0, 1.0), (0.0, 2.0)), (11, 11))
    mask = np.zeros((11, 11), dtype=bool)
    mask[5, 5] = True
    d = distance_to_set(grid, mask)
    assert d[5, 5] == 0.0
    # spacings differ per axis: 0.1 along x1, 0.2 along x2
    assert d[4, 5] == pytest.approx(0.1)
    assert d[5, 4] == pytest.approx(0.2)
    assert d[3, 3] == pytest.approx(np.hypot(0.2, 0.4))


def test_distance_to_empty_set_is_infinite():
    grid = build_grid(((0.0, 1.0),), (5,))
    d = distance_to_set(grid, np.zeros(5, dtype=bool))
    assert np.all(np.isinf(d))


# non-dyadic and anisotropic spacings: the grid's extents over its intervals
_EXTENTS = ((0.0, 1.0), (-1.0, 2.3), (0.0, 0.7))
# dyadic spacings: every (o h)^2 and every sum of them is exact
_DYADIC = ((0.0, 1.0), (-1.0, 3.0), (0.0, 0.5))


def _rings(shape, rng):
    """2D masks of lattice points at radius 5 or 25 from a node, some of
    them dropped: nodes equidistant from the centre along different
    offsets, (5, 0) and (3, 4) among them."""
    masks = []
    for r in (5, 25):
        ring = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                if a * a + b * b == r * r]
        for _ in range(4):
            mask = np.zeros(shape, dtype=bool)
            c = rng.integers(0, shape)
            for a, b in ring:
                i, j = c[0] + a, c[1] + b
                if 0 <= i < shape[0] and 0 <= j < shape[1] and rng.random() < 0.6:
                    mask[i, j] = True
            mask[tuple(c)] |= not mask.any()
            masks.append(mask)
    return masks


def _edt_cases(extents, shapes, seed):
    """(grid, set mask) pairs: random sets of several densities, sets that
    leave lines and planes without a set node, and the full set; in 2D
    also rings of equidistant nodes."""
    rng = np.random.default_rng(seed)
    cases = []
    for shape in shapes:
        grid = build_grid(extents[: len(shape)], shape)
        for density in (0.001, 0.02, 0.3):
            mask = rng.random(shape) < density
            mask.flat[rng.integers(mask.size)] = True
            cases.append((grid, mask))
        sparse = np.zeros(shape, dtype=bool)
        sparse[(shape[0] // 3,) + tuple(n - 2 for n in shape[1:])] = True
        sparse[(0,) * len(shape)] = True
        cases.append((grid, sparse))
        cases.append((grid, np.ones(shape, dtype=bool)))
        if len(shape) == 2:
            cases += [(grid, mask) for mask in _rings(shape, rng)]
    return cases


def _float_minimum(grid, mask):
    """Brute force: the smallest float sqrt(sum_a (o_a h_a)^2) over the set
    nodes, the squares summed in axis order."""
    at = np.indices(grid.shape).reshape(grid.ndim, -1)
    best = np.full(at.shape[1], np.inf)
    for node in np.argwhere(mask):
        total = 0.0
        for a, h in enumerate(grid.spacing):
            d = (at[a] - node[a]).astype(float) * h
            total = total + d * d
        np.minimum(best, total, out=best)
    return np.sqrt(best).reshape(grid.shape)


def _bits(x):
    assert x.flags.c_contiguous and x.dtype == np.float64
    return x.view(np.uint64)


def test_distance_to_set_is_scipy_edt_bit_for_bit_on_dyadic_spacings():
    from scipy import ndimage

    shapes = [(257,), (33, 65), (65, 17), (129, 129), (17, 9, 33)]
    for grid, mask in _edt_cases(_DYADIC, shapes, seed=5):
        want = ndimage.distance_transform_edt(~mask, sampling=grid.spacing)
        got = distance_to_set(grid, mask)
        assert np.array_equal(_bits(got), _bits(want)), (grid.shape, int(mask.sum()))


@pytest.mark.parametrize("extents", [_EXTENTS, ((0.0, 1.0),) * 3],
                         ids=["anisotropic", "isotropic"])
def test_distance_to_set_is_the_float_minimum_over_the_set(extents):
    """On non-dyadic spacings, isotropic h = 0.1 and 1/30 with rings of
    equidistant nodes included: the float minimum bit for bit, never above
    scipy's distance, and within two roundings of it."""
    from scipy import ndimage

    shapes = [(200,), (11, 11), (31, 31), (37, 41), (13, 17, 11)]
    for grid, mask in _edt_cases(extents, shapes, seed=7):
        got = distance_to_set(grid, mask)
        assert np.array_equal(_bits(got), _bits(_float_minimum(grid, mask)))
        want = ndimage.distance_transform_edt(~mask, sampling=grid.spacing)
        assert np.all(got <= want), (grid.shape, int(mask.sum()))
        np.testing.assert_allclose(got, want, rtol=5e-16, atol=0)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_dilation_is_scipy_binary_dilation_by_the_cross(ndim):
    from scipy import ndimage

    from aplab.phases import _dilate

    cross = ndimage.generate_binary_structure(ndim, 1)
    rng = np.random.default_rng(ndim)
    shape = {1: (50,), 2: (23, 31), 3: (9, 12, 7)}[ndim]
    edges = np.zeros(shape, dtype=bool)
    edges[(0,) * ndim] = edges[(-1,) * ndim] = True
    masks = [rng.random(shape) < d for d in (0.02, 0.2, 0.6)]
    for mask in masks + [edges, np.zeros(shape, bool), np.ones(shape, bool)]:
        assert np.array_equal(_dilate(mask), ndimage.binary_dilation(mask, cross))


def test_distance_to_set_validates_mask():
    grid = build_grid(((0.0, 1.0),), (5,))
    with pytest.raises(ValueError):
        distance_to_set(grid, np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        distance_to_set(grid, np.zeros(5, dtype=float))


# ---------------------------------------------------------------------------
# representative node


def test_pick_interface_node_smallest_value_wins():
    fld = _field_1d([0.5, 0.1, -0.05, 0.4, 0.3])
    mask = np.array([True, True, True, False, True])
    assert pick_interface_node(mask, fld) == (2,)


def test_pick_interface_node_breaks_ties_toward_center():
    fld = _field_1d([0.2, 0.7, 0.9, 0.7, 0.2])
    mask = np.ones(5, dtype=bool)
    # |u| ties at nodes 0 and 4, and at 1 and 3; center distance also ties,
    # so the smallest flat index among the global minimizers wins
    assert pick_interface_node(mask, fld) == (0,)
    mask[0] = False
    assert pick_interface_node(mask, fld) == (4,)


def test_pick_interface_node_2d_center_preference():
    vals = np.ones((5, 5))
    fld = _field_2d(vals)
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True
    mask[2, 2] = True
    mask[4, 4] = True
    # all values tie; the node nearest the domain center wins
    assert pick_interface_node(mask, fld) == (2, 2)


def test_pick_interface_node_empty_set_raises():
    fld = _field_1d([1.0, 2.0])
    with pytest.raises(ValueError):
        pick_interface_node(np.zeros(2, dtype=bool), fld)


def test_pick_interface_node_is_deterministic():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(17, 17))
    fld = _field_2d(vals)
    mask = np.abs(vals) < 0.5
    assert pick_interface_node(mask, fld) == pick_interface_node(mask, fld)
