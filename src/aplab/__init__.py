"""Grid laboratory for two-phase power-potential p-Dirichlet minimizers.

The package solves, on axis-aligned node-centered grids,

    minimize  int_D |grad u|^p / p + delta * F(u) dx,
    F(u) = lam_plus * (u+)^gamma + lam_minus * (u-)^gamma,

with Dirichlet data on masked nodes, and ships the measurement tools used
to probe the free boundary of the minimizer: growth and nondegeneracy
exponents, scaling transport, phase densities, perimeter and porosity
estimators, and the elementary vector inequalities the energy comparisons
rest on.

Set APL_THREADS to cap the BLAS/OpenMP pools; it must take effect before
numpy loads, which is why it is applied here, ahead of any submodule
import.  It only fills the per-library variables (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS, NUMEXPR_NUM_THREADS) that are not
already set: one that is set wins over APL_THREADS.
"""

import os as _os


def _apply_thread_cap() -> None:
    cap = _os.environ.get("APL_THREADS")
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(var, cap)


_apply_thread_cap()

from .core import (  # noqa: E402  (the thread cap must precede this import)
    Params,
    Grid,
    ScalarField,
    FieldFormatError,
    build_grid,
    serialize_field,
    deserialize_field,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "Grid",
    "ScalarField",
    "FieldFormatError",
    "build_grid",
    "serialize_field",
    "deserialize_field",
    "__version__",
]
