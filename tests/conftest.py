"""Shared solved fixtures.

The expensive minimization runs are session-scoped: the acceptance tests
and several module tests all measure the same handful of solved fields,
so each problem is solved exactly once per session.  Fixtures carry the
exact nodal profile when a closed form exists.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import aplab
from aplab.core import Params, ScalarField, build_grid
from aplab.oracle import one_phase_profile
from aplab.solver import SolveResult, minimize

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# When a property test fails, hypothesis's plugin imports its patch writer,
# whose libcst import warns that mypy_extensions.TypedDict is deprecated;
# under `filterwarnings = ["error"]` that warning, raised in a hook, ends the
# session with INTERNALERROR and hides every later result.  Imported here
# once, with only that warning ignored, it has nothing left to warn about.
# Without libcst the plugin skips the patch, and so does this.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401

# pytest's `pythonpath` setting reaches this interpreter only; the child
# interpreters of the CLI tests import aplab through PYTHONPATH
_SRC = str(Path(aplab.__file__).parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)


@dataclass(frozen=True)
class SolvedCase:
    params: Params
    result: SolveResult
    exact: np.ndarray | None
    runtime: float

    @property
    def field(self) -> ScalarField:
        return self.result.field

    @property
    def grid(self):
        return self.result.field.grid


def solve_one_phase_1d(
    p: float, gamma: float, lam: float, n: int = 1025
) -> SolvedCase:
    """Solve on [-1, 1] with the exact power profile as boundary data and
    zero interior start; the minimizer should recover the profile."""
    params = Params(
        p=p, gamma=gamma, lambda_plus=lam, lambda_minus=lam, alpha_p=1.0
    )
    prof = one_phase_profile(params)
    grid = build_grid(((-1.0, 1.0),), (n,))
    x = grid.axes[0]
    exact = prof.coefficient * np.clip(x, 0.0, None) ** prof.beta
    init = ScalarField(
        grid, np.zeros_like(x), grid.boundary_face_mask, exact.copy()
    )
    t0 = time.perf_counter()
    result = minimize(init, params)
    return SolvedCase(params, result, exact, time.perf_counter() - t0)


def solve_crossing(resolution, lam: float = 0.05) -> SolvedCase:
    """Two-phase run whose minimizer crosses zero transversally: boundary
    data 0.5 * x1 with a potential too weak to open a dead core."""
    ndim = len(resolution)
    params = Params(
        p=2.0, gamma=0.5, lambda_plus=lam, lambda_minus=lam, alpha_p=1.0
    )
    grid = build_grid(((-1.0, 1.0),) * ndim, resolution)
    bvals = grid.coordinate_arrays()[0] * 0.5
    init = ScalarField(
        grid, np.zeros_like(bvals), grid.boundary_face_mask, bvals
    )
    t0 = time.perf_counter()
    result = minimize(init, params)
    return SolvedCase(params, result, None, time.perf_counter() - t0)


BRANCHING_AMPLITUDE = 0.45 ** (2.0 / 3.0)

# (p, gamma) -> lambda for the restricted-range growth runs
RESTRICTED_RUNS = {
    (2.0, 0.5): 1.0,
    (3.0, 0.8): 1.6905,
    (1.5, 0.3): 0.466,
}


@pytest.fixture(scope="session")
def convex_1d() -> SolvedCase:
    return solve_one_phase_1d(2.0, 1.0, 0.5)


@pytest.fixture(scope="session")
def degenerate_1d() -> SolvedCase:
    return solve_one_phase_1d(3.0, 1.0, 2.25)


@pytest.fixture(scope="session")
def restricted_cases() -> dict[tuple[float, float], SolvedCase]:
    return {
        key: solve_one_phase_1d(key[0], key[1], lam)
        for key, lam in RESTRICTED_RUNS.items()
    }


@pytest.fixture(scope="session")
def restricted_cases_fine() -> dict[tuple[float, float], SolvedCase]:
    return {
        key: solve_one_phase_1d(key[0], key[1], lam, n=2049)
        for key, lam in RESTRICTED_RUNS.items()
    }


@pytest.fixture(scope="session")
def branching_2d() -> SolvedCase:
    """Odd two-phase 2D run branching along the x1 = 0 line.

    The boundary trace A * sign(x1) * |x1|^(1 + tau) extends the exact
    one-dimensional two-phase profile constantly in x2, so the solved
    field should be x2-independent with a branching line through the
    origin.
    """
    n = 257
    params = Params(
        p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, alpha_p=1.0
    )
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
    x1 = grid.coordinate_arrays()[0]
    exact = BRANCHING_AMPLITUDE * np.sign(x1) * np.abs(x1) ** (4.0 / 3.0)
    init = ScalarField(
        grid, np.zeros_like(exact), grid.boundary_face_mask, exact.copy()
    )
    t0 = time.perf_counter()
    result = minimize(init, params)
    return SolvedCase(params, result, exact, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def crossing_1d() -> SolvedCase:
    return solve_crossing((1025,))


@pytest.fixture(scope="session")
def crossing_2d() -> SolvedCase:
    return solve_crossing((193, 193))
