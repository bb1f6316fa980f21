"""Phase split and free-boundary node classification of a solved field.

On a grid the zero set is a tolerance band, not a level set, so every
classification carries the thresholds it was computed with.  ``classify``
is the one place that knows them: by default values below h^(1+tau) are
indistinguishable from zero at resolution h, and gradients below h^tau
likewise.

The module runs on numpy alone.  The neighbour sets of ``classify`` are
binary dilations by the cross, built from shifted slices.
``distance_to_set`` is a separable exact transform (Saito & Toriwaki,
Pattern Recognit. 27, 1994): squared gaps along axis 0, then one lower
envelope of shifted parabolas per later axis.  It sums the squared axis
terms in axis order before the square root, as
``scipy.ndimage.distance_transform_edt`` does, and returns the smallest
such float over the set.  On dyadic spacings (the bundled configs' 1/64)
every square and sum is exact, and the result is scipy's bits.  scipy
sums the squares of the one set node it picks, so where two set nodes
lie at the same distance and their rounded sums differ (h = 0.1:
(5h)^2 = 0.25 but (3h)^2 + (4h)^2 rounds above it) scipy may return the
larger, one rounding above this result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import Grid, Params, ScalarField
from .energy import DiscreteEnergy

__all__ = [
    "FreeBoundaryClassification",
    "residue_floor",
    "classify",
    "distance_to_set",
    "pick_interface_node",
]


@dataclass(frozen=True)
class FreeBoundaryClassification:
    """The phase split and the free-boundary node sets, with the thresholds.

    ``positive``, ``negative`` and ``zero`` tile the grid at |u| <= zero_tol.
    ``gamma_all`` collects interface nodes (zero-band nodes touching a
    signed node, and signed nodes touching the zero band or the opposite
    sign).  ``gamma_zero`` is its low-gradient part.  ``two_phase`` keeps
    the nodes with both signs within two face steps; ``branching`` is its
    part with gradient below tolerance.  Every mask is read-only.
    """

    positive: np.ndarray
    negative: np.ndarray
    zero: np.ndarray
    gamma_all: np.ndarray
    gamma_zero: np.ndarray
    two_phase: np.ndarray
    branching: np.ndarray
    zero_tol: float
    grad_tol: float

    def __post_init__(self) -> None:
        for mask in self.masks().values():
            mask.flags.writeable = False

    def masks(self) -> dict[str, np.ndarray]:
        """The seven node sets by name, in field order."""
        named = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in named.items() if isinstance(v, np.ndarray)}


def residue_floor(values: np.ndarray) -> float:
    """1e-12 max|u|: diagnostics count values at or below it as zero."""
    return 1e-12 * float(np.max(np.abs(values)))


def classify(
    field: ScalarField,
    params: Params,
    zero_tol: float | None = None,
    grad_tol: float | None = None,
) -> FreeBoundaryClassification:
    """Split the nodes by sign and classify the free boundary.

    The zero band is |u| <= zero_tol; the low-gradient sets keep the nodes
    with sqrt(DiscreteEnergy.grad_sq(u)) <= grad_tol.  With h the largest
    spacing, the defaults are zero_tol = h^(1+tau) and grad_tol = h^tau.
    """
    h = max(field.grid.spacing)
    zero_tol = h ** (1.0 + params.tau) if zero_tol is None else float(zero_tol)
    grad_tol = h**params.tau if grad_tol is None else float(grad_tol)
    if zero_tol < 0 or grad_tol < 0:
        raise ValueError(f"zero_tol {zero_tol} and grad_tol {grad_tol} must be >= 0")
    v = field.values
    pos = v > zero_tol
    neg = v < -zero_tol
    zero = ~(pos | neg)
    near_pos = _dilate(pos)
    near_neg = _dilate(neg)
    near_zero = _dilate(zero)

    gamma_all = (zero & (near_pos | near_neg)) | (pos & (near_neg | near_zero)) | (
        neg & (near_pos | near_zero)
    )
    two_phase = gamma_all & _dilate(near_pos) & _dilate(near_neg)

    low_grad = np.sqrt(DiscreteEnergy(field.grid, params).grad_sq(v)) <= grad_tol
    return FreeBoundaryClassification(
        positive=pos,
        negative=neg,
        zero=zero,
        gamma_all=gamma_all,
        gamma_zero=gamma_all & low_grad,
        two_phase=two_phase,
        branching=two_phase & low_grad,
        zero_tol=zero_tol,
        grad_tol=grad_tol,
    )


def distance_to_set(grid: Grid, set_mask: np.ndarray) -> np.ndarray:
    """Euclidean distance from every node to the nearest set node.

    Exact on the node lattice (anisotropic spacings respected): the
    smallest float sqrt(sum_a (o_a h_a)^2) over the set nodes, offsets
    o_a, the squares summed in axis order.  An empty set gives +inf
    everywhere.
    """
    set_mask = np.asarray(set_mask)
    if set_mask.dtype != bool or set_mask.shape != grid.shape:
        raise ValueError("set_mask must be a bool array of grid shape")
    if not set_mask.any():
        return np.full(grid.shape, np.inf)
    h = grid.spacing
    sq = _gaps_sq(set_mask, h[0])
    for axis in range(1, grid.ndim):
        sq = _envelope(sq, axis, h[axis])
    return np.sqrt(sq, out=np.empty(grid.shape))


def _dilate(mask: np.ndarray) -> np.ndarray:
    """``mask`` or a face neighbour in it, False past the grid's faces:
    binary dilation by the cross."""
    out = mask.copy()
    for a in range(mask.ndim):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        out[lo] |= mask[hi]
        out[hi] |= mask[lo]
    return out


def _gaps_sq(set_mask: np.ndarray, h: float) -> np.ndarray:
    """(g h)^2 per node, g the index gap along axis 0 to the nearest set
    node of its line, +inf on a line without one."""
    n = set_mask.shape[0]
    idx = np.arange(n, dtype=float).reshape((n,) + (1,) * (set_mask.ndim - 1))
    before = np.maximum.accumulate(np.where(set_mask, idx, -np.inf), axis=0)
    after = np.minimum.accumulate(np.where(set_mask, idx, np.inf)[::-1], axis=0)
    d = np.minimum(idx - before, after[::-1] - idx) * h
    return d * d


def _envelope(sq: np.ndarray, axis: int, h: float) -> np.ndarray:
    """min over offsets o of ``sq`` shifted by o along ``axis``, plus (o h)^2.

    The passes run offset by offset, and a line's pass at offset o stops
    being needed once its minimum plus (o h)^2 reaches its largest entry
    so far: no farther offset can lower any entry (float addition is
    monotone).  So they run on the lines that can still improve, and
    never on a line with no finite entry.
    """
    moved = np.moveaxis(sq, axis, -1)
    n = moved.shape[-1]
    start = moved.reshape(-1, n)
    best = start.copy()
    low = start.min(axis=1)
    rows = np.flatnonzero(np.isfinite(low))
    g, b, lo = start[rows], best[rows], low[rows]
    for o in range(1, n):
        d = o * h
        t = d * d
        live = lo + t < b.max(axis=1)
        if not live.all():
            best[rows] = b
            rows, g, b, lo = rows[live], g[live], b[live], lo[live]
            if not rows.size:
                break
        np.minimum(b[:, o:], g[:, :-o] + t, out=b[:, o:])
        np.minimum(b[:, :-o], g[:, o:] + t, out=b[:, :-o])
    else:
        best[rows] = b
    return np.moveaxis(best.reshape(moved.shape), -1, axis)


def pick_interface_node(
    mask: np.ndarray, field: ScalarField
) -> tuple[int, ...]:
    """Deterministic representative node of a nonempty node set.

    Smallest |u| wins; ties go to the node closest to the grid center,
    then to the smallest flat index.  Used to anchor growth ladders at a
    detected free-boundary point.
    """
    mask = np.asarray(mask)
    if not mask.any():
        raise ValueError("cannot pick a node from an empty set")
    g = field.grid
    idx = np.argwhere(mask)
    vals = np.abs(field.values[mask])
    coords = np.stack(
        [g.axes[a][idx[:, a]] for a in range(g.ndim)], axis=1
    )
    center = np.array([(a + b) / 2.0 for a, b in g.extents])
    d2 = np.sum((coords - center) ** 2, axis=1)
    flat = np.ravel_multi_index(idx.T, g.shape)
    order = np.lexsort((flat, d2, vals))
    return tuple(int(i) for i in idx[order[0]])
