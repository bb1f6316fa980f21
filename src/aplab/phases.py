"""Sign decomposition and free-boundary node classification.

On a grid the zero set is a tolerance band, not a level set, so every
classification here carries the thresholds it was computed with.  The
default thresholds track the natural scales of a minimizer: values below
h^(1+tau) are indistinguishable from zero at resolution h, gradients
below h^tau likewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, Params, ScalarField

__all__ = [
    "PhaseDecomposition",
    "FreeBoundaryClassification",
    "default_zero_tol",
    "default_grad_tol",
    "residue_floor",
    "decompose",
    "classify",
    "distance_to_set",
    "pick_interface_node",
]


@dataclass(frozen=True)
class PhaseDecomposition:
    positive: np.ndarray
    negative: np.ndarray
    zero: np.ndarray
    zero_tol: float

    def __post_init__(self) -> None:
        for m in (self.positive, self.negative, self.zero):
            m.flags.writeable = False


@dataclass(frozen=True)
class FreeBoundaryClassification:
    """Node sets of the free boundary, with the thresholds used.

    ``gamma_all`` collects interface nodes (zero-band nodes touching a
    signed node, and signed nodes touching the zero band or the opposite
    sign).  ``gamma_zero`` is its low-gradient part.  ``two_phase`` keeps
    the nodes with both signs within two face steps; ``branching`` is its
    part with gradient below tolerance.
    """

    gamma_all: np.ndarray
    gamma_zero: np.ndarray
    two_phase: np.ndarray
    branching: np.ndarray
    zero_tol: float
    grad_tol: float

    def __post_init__(self) -> None:
        for m in (
            self.gamma_all,
            self.gamma_zero,
            self.two_phase,
            self.branching,
        ):
            m.flags.writeable = False


def default_zero_tol(grid: Grid, params: Params) -> float:
    h = max(grid.spacing)
    return h ** (1.0 + params.tau)


def default_grad_tol(grid: Grid, params: Params) -> float:
    h = max(grid.spacing)
    return h**params.tau


def residue_floor(values: np.ndarray) -> float:
    """1e-12 max|u|: diagnostics count values at or below it as zero."""
    return 1e-12 * float(np.max(np.abs(values)))


def decompose(field: ScalarField, zero_tol: float) -> PhaseDecomposition:
    """Split nodes into positive / negative / zero band at |u| <= zero_tol."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be >= 0")
    v = field.values
    pos = v > zero_tol
    neg = v < -zero_tol
    zero = ~(pos | neg)
    return PhaseDecomposition(
        positive=pos, negative=neg, zero=zero, zero_tol=float(zero_tol)
    )


def classify(
    decomp: PhaseDecomposition,
    grad_norm: np.ndarray,
    grad_tol: float,
) -> FreeBoundaryClassification:
    """Classify free-boundary nodes given sqrt(DiscreteEnergy.grad_sq(u))."""
    from scipy import ndimage

    if grad_tol < 0:
        raise ValueError("grad_tol must be >= 0")
    pos, neg, zero = decomp.positive, decomp.negative, decomp.zero
    st = ndimage.generate_binary_structure(pos.ndim, 1)
    signed = pos | neg
    near_signed = ndimage.binary_dilation(signed, st)
    near_pos = ndimage.binary_dilation(pos, st)
    near_neg = ndimage.binary_dilation(neg, st)
    near_zero = ndimage.binary_dilation(zero, st)

    gamma_all = (zero & near_signed) | (pos & (near_neg | near_zero)) | (
        neg & (near_pos | near_zero)
    )

    pos2 = ndimage.binary_dilation(near_pos, st)
    neg2 = ndimage.binary_dilation(near_neg, st)
    two_phase = gamma_all & pos2 & neg2

    low_grad = grad_norm <= grad_tol
    gamma_zero = gamma_all & low_grad
    branching = two_phase & low_grad
    return FreeBoundaryClassification(
        gamma_all=gamma_all,
        gamma_zero=gamma_zero,
        two_phase=two_phase,
        branching=branching,
        zero_tol=decomp.zero_tol,
        grad_tol=float(grad_tol),
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
