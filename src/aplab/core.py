"""Problem parameters, grids, fields, and the text field format.

Everything downstream (energy, solver, diagnostics) is built on the three
value types defined here.  All of them are frozen: construct, validate,
never mutate.  Updated fields are new objects (``ScalarField.with_values``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "Params",
    "Grid",
    "ScalarField",
    "FieldFormatError",
    "build_grid",
    "serialize_field",
    "deserialize_field",
    "save_field",
    "load_field",
]


class FieldFormatError(ValueError):
    """Raised when field text data cannot be parsed or is inconsistent."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Params:
    """Exponents and weights of the two-phase power potential.

    Parameters
    ----------
    p : float
        Dirichlet exponent, 1 < p < inf.
    gamma : float
        Potential exponent, 0 < gamma < p.
    lambda_plus, lambda_minus : float
        Nonnegative phase weights.  A one-phase problem sets one of them
        to zero.
    delta : float
        Multiplier of the potential term; delta = 0 is the pure
        p-Dirichlet problem.
    alpha_p : float, optional
        Gradient Hoelder exponent of p-harmonic functions used in the
        growth-rate cap.  There is no closed form in general, so the
        value is a configuration input.  Defaults to 1.0 for p = 2
        (harmonic functions are smooth) and must be given explicitly
        otherwise.
    """

    p: float
    gamma: float
    lambda_plus: float = 1.0
    lambda_minus: float = 0.0
    delta: float = 1.0
    alpha_p: float | None = None

    def __post_init__(self) -> None:
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not (0.0 < self.gamma < self.p):
            raise ValueError(
                f"gamma must lie in (0, p) = (0, {self.p}), got {self.gamma}"
            )
        if not all(0.0 <= w < math.inf for w in (self.lambda_plus, self.lambda_minus)):
            raise ValueError(
                "phase weights lambda_plus/lambda_minus must be finite and >= 0"
            )
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.alpha_p is None:
            if self.p == 2.0:
                object.__setattr__(self, "alpha_p", 1.0)
            else:
                raise ValueError(
                    "alpha_p has no default for p != 2; pass it explicitly"
                )
        if not (0.0 < self.alpha_p <= 1.0):
            raise ValueError(f"alpha_p must lie in (0, 1], got {self.alpha_p}")

    @property
    def tau(self) -> float:
        """Scaling exponent gamma / (p - gamma); growth rate is 1 + tau."""
        return self.gamma / (self.p - self.gamma)

    @property
    def restricted_range(self) -> bool:
        """True when gamma < min(1, p*alpha_p/(1+alpha_p)), where the
        growth rate 1 + tau is attained without the regularity cap."""
        return self.gamma < min(1.0, self.p * self.alpha_p / (1.0 + self.alpha_p))

    def with_delta(self, delta: float) -> "Params":
        return replace(self, delta=delta)


@dataclass(frozen=True)
class Grid:
    """Axis-aligned node-centered tensor grid in 1, 2, or 3 dimensions.

    Node i along axis a sits at ``extents[a][0] + i * spacing[a]``; the
    coordinate formula (not linspace) is the contract, so coordinates are
    reproducible bit-exactly from the index.
    """

    extents: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.extents) <= 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {len(self.extents)}")
        if len(self.resolution) != len(self.extents):
            raise ValueError("extents and resolution must have equal length")
        for (a, b), n in zip(self.extents, self.resolution):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid axis extent ({a}, {b})")
            if n < 2:
                raise ValueError(f"resolution must be >= 2 per axis, got {n}")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (b - a) / (n - 1) for (a, b), n in zip(self.extents, self.resolution)
        )

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        out = []
        for (a, _), n, h in zip(self.extents, self.resolution, self.spacing):
            out.append(_readonly(a + h * np.arange(n)))
        return tuple(out)

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays of shape ``grid.shape``, one per axis."""
        return np.meshgrid(*self.axes, indexing="ij")

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Tensor-product trapezoidal weights (read-only array)."""
        w = np.ones((), dtype=float)
        for n, h in zip(self.resolution, self.spacing):
            w1 = np.full(n, h)
            w1[0] *= 0.5
            w1[-1] *= 0.5
            w = np.multiply.outer(w, w1)
        return _readonly(w.reshape(self.shape))

    @cached_property
    def boundary_face_mask(self) -> np.ndarray:
        """True on nodes lying on any face of the grid box."""
        mask = np.zeros(self.shape, dtype=bool)
        for a in range(self.ndim):
            sl = [slice(None)] * self.ndim
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        mask.flags.writeable = False
        return mask


def build_grid(
    extents: "list[tuple[float, float]] | tuple[tuple[float, float], ...]",
    resolution: "list[int] | tuple[int, ...]",
) -> Grid:
    """Validate and build a grid from per-axis extents and node counts."""
    ext = tuple((float(a), float(b)) for a, b in extents)
    res = tuple(int(n) for n in resolution)
    return Grid(extents=ext, resolution=res)


@dataclass(frozen=True)
class ScalarField:
    """Node values plus the Dirichlet mask and boundary data.

    Masked nodes are pinned: on construction their values are stamped
    with ``boundary_values``, so the invariant "masked nodes equal their
    boundary values" holds for every field the package hands out.
    """

    grid: Grid
    values: np.ndarray
    boundary_mask: np.ndarray = dc_field(default=None)  # type: ignore[assignment]
    boundary_values: np.ndarray = dc_field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        mask = self.boundary_mask
        if mask is None:
            mask = np.zeros(self.grid.shape, dtype=bool)
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != self.grid.shape:
            raise ValueError("boundary_mask must be a bool array of grid shape")
        bvals = self.boundary_values
        if bvals is None:
            bvals = np.zeros(self.grid.shape, dtype=float)
        bvals = np.asarray(bvals, dtype=float)
        if bvals.shape != self.grid.shape:
            raise ValueError("boundary_values must have grid shape")
        if not np.all(np.isfinite(bvals[mask])):
            raise ValueError("boundary values must be finite on masked nodes")
        vals = vals.copy()
        vals[mask] = bvals[mask]
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "boundary_mask", mask)
        object.__setattr__(self, "boundary_values", _readonly(bvals))

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def with_values(self, values: np.ndarray) -> "ScalarField":
        """New field with the same grid/mask/boundary data, new values."""
        return ScalarField(
            grid=self.grid,
            values=values,
            boundary_mask=self.boundary_mask,
            boundary_values=self.boundary_values,
        )


# ---------------------------------------------------------------------------
# Text format.
#
#   APFIELD v1 dim=<N> n=<n1,...> a=<a1,...> b=<b1,...>
#   one value per line, row-major
#   MASK
#   0|1 per line, row-major
#   BVALS
#   one value per line, row-major
#
# Floats are written with repr (shortest round-trip form), so a
# serialize/deserialize cycle is bit-exact.

_MAGIC = "APFIELD"
_VERSION = "v1"


def _fmt_floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def serialize_field(field: ScalarField) -> str:
    g = field.grid
    header = (
        f"{_MAGIC} {_VERSION} dim={g.ndim}"
        f" n={','.join(str(n) for n in g.resolution)}"
        f" a={_fmt_floats(a for a, _ in g.extents)}"
        f" b={_fmt_floats(b for _, b in g.extents)}"
    )
    lines = [header]
    lines.extend(repr(float(v)) for v in field.values.ravel(order="C"))
    lines.append("MASK")
    lines.extend("1" if m else "0" for m in field.boundary_mask.ravel(order="C"))
    lines.append("BVALS")
    lines.extend(repr(float(v)) for v in field.boundary_values.ravel(order="C"))
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> Grid:
    parts = line.split()
    if len(parts) != 6 or parts[0] != _MAGIC:
        raise FieldFormatError(f"corrupted header: {line!r}")
    if parts[1] != _VERSION:
        raise FieldFormatError(
            f"unsupported format version {parts[1]!r} (expected {_VERSION})"
        )
    kv = {}
    for tok in parts[2:]:
        key, _, val = tok.partition("=")
        if not val:
            raise FieldFormatError(f"corrupted header token: {tok!r}")
        kv[key] = val
    if set(kv) != {"dim", "n", "a", "b"}:
        raise FieldFormatError(f"corrupted header keys: {sorted(kv)}")
    try:
        dim = int(kv["dim"])
        n = tuple(int(s) for s in kv["n"].split(","))
        a = tuple(float(s) for s in kv["a"].split(","))
        b = tuple(float(s) for s in kv["b"].split(","))
    except ValueError as exc:
        raise FieldFormatError(f"corrupted header: {line!r}") from exc
    if not (len(n) == len(a) == len(b) == dim):
        raise FieldFormatError("header dim does not match per-axis lists")
    try:
        return build_grid(tuple(zip(a, b)), n)
    except ValueError as exc:
        raise FieldFormatError(f"invalid grid in header: {exc}") from exc


def deserialize_field(text: str) -> ScalarField:
    lines = text.splitlines()
    if not lines:
        raise FieldFormatError("empty field data")
    grid = _parse_header(lines[0])
    count = int(np.prod(grid.shape))
    body = lines[1:]
    if len(body) != 2 * count + 2 + count:
        # values, MASK, mask rows, BVALS, bval rows
        raise FieldFormatError(
            f"expected {3 * count + 2} data lines for shape {grid.shape}, "
            f"got {len(body)}"
        )
    if body[count] != "MASK":
        raise FieldFormatError("missing MASK section")
    if body[2 * count + 1] != "BVALS":
        raise FieldFormatError("missing BVALS section")

    def _floats(rows, what):
        try:
            return np.array([float(s) for s in rows], dtype=float)
        except ValueError as exc:
            raise FieldFormatError(f"bad {what} entry") from exc

    values = _floats(body[:count], "value").reshape(grid.shape)
    mask_rows = body[count + 1 : 2 * count + 1]
    bad = set(mask_rows) - {"0", "1"}
    if bad:
        raise FieldFormatError(f"bad MASK entries: {sorted(bad)}")
    mask = np.array([r == "1" for r in mask_rows], dtype=bool).reshape(grid.shape)
    bvals = _floats(body[2 * count + 2 :], "BVALS").reshape(grid.shape)
    try:
        return ScalarField(
            grid=grid, values=values, boundary_mask=mask, boundary_values=bvals
        )
    except ValueError as exc:
        raise FieldFormatError(f"invalid field data: {exc}") from exc


def save_field(field: ScalarField, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_field(field))


def load_field(path) -> ScalarField:
    try:
        with open(path) as fh:
            return deserialize_field(fh.read())
    except OSError as exc:
        raise FieldFormatError(f"cannot read field file {path}: {exc}") from exc
