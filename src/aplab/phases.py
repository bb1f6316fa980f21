"""Phase split and free-boundary node classification of a solved field.

On a grid the zero set is a tolerance band, not a level set, so every
classification carries the thresholds it was computed with.  ``classify``
is the one place that knows them: by default values below h^(1+tau) are
indistinguishable from zero at resolution h, and gradients below h^tau
likewise.
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
    from scipy import ndimage

    h = max(field.grid.spacing)
    zero_tol = h ** (1.0 + params.tau) if zero_tol is None else float(zero_tol)
    grad_tol = h**params.tau if grad_tol is None else float(grad_tol)
    if zero_tol < 0 or grad_tol < 0:
        raise ValueError(f"zero_tol {zero_tol} and grad_tol {grad_tol} must be >= 0")
    v = field.values
    pos = v > zero_tol
    neg = v < -zero_tol
    zero = ~(pos | neg)
    st = ndimage.generate_binary_structure(v.ndim, 1)
    near_pos = ndimage.binary_dilation(pos, st)
    near_neg = ndimage.binary_dilation(neg, st)
    near_zero = ndimage.binary_dilation(zero, st)

    gamma_all = (zero & (near_pos | near_neg)) | (pos & (near_neg | near_zero)) | (
        neg & (near_pos | near_zero)
    )
    pos2 = ndimage.binary_dilation(near_pos, st)
    neg2 = ndimage.binary_dilation(near_neg, st)
    two_phase = gamma_all & pos2 & neg2

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

    Exact on the node lattice (anisotropic spacings respected); an empty
    set gives +inf everywhere.
    """
    set_mask = np.asarray(set_mask)
    if set_mask.dtype != bool or set_mask.shape != grid.shape:
        raise ValueError("set_mask must be a bool array of grid shape")
    if not set_mask.any():
        return np.full(grid.shape, np.inf)
    from scipy import ndimage

    return ndimage.distance_transform_edt(~set_mask, sampling=grid.spacing)


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
