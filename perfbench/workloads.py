"""The benchmark's workloads: fixed, ordered case lists with their checks.

A case calls aplab's public API or the in-process ``apl`` entry point. The
worker times only that call and runs the check after it. The seed reaches
the inequality sweeps and the configs' ``seed`` field, never a solver
start: for gamma < 1 the potential is concave, so a perturbed start can
pick another local minimizer, which would change the workload instead of
sampling it.

- ``grid2d``: ``apl run`` on the two 129x129 configs. The sparse direct
  solve is most of the time; the only workload running the diagnostics
  stack and the bundle writer on 2D fields.
- ``ladder1d``: thousands of Newton steps on small tridiagonal systems,
  where per-step overhead, assembly and energy evaluation matter as much
  as the solve.
- ``oracle_sweep``: the ODE shooter and the randomized inequality sweeps.
  No grid solve at all: the control that solver changes must not move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import aplab.cli
import aplab.inequalities
import aplab.oracle
import aplab.solver
from aplab.core import Params, ScalarField, build_grid, load_field
from aplab.oracle import one_phase_profile

from perfbench.tracing import endpoint_evals

BUNDLE_FILES = ("field.apf", "report.json", "diagnostics.csv", "manifest.json")
BRANCHING_AMPLITUDE = 0.45 ** (2.0 / 3.0)

# Sup-norm envelopes of tests/test_acceptance.py against the one-phase
# profiles: 1e-3 for the convex case (p = 2, gamma = 1), 5e-3 otherwise.
CONVEX_ENVELOPE = 1e-3
PROFILE_ENVELOPE = 5e-3

# (p, gamma) -> lambda, the restricted-range runs of tests/conftest.py.
RESTRICTED_RUNS = {
    (2.0, 0.5): 1.0,
    (3.0, 0.8): 1.6905,
    (1.5, 0.3): 0.466,
}

# (name, p) pairs of tests/test_acceptance.py::SWEEPS.
SWEEPS = (
    [("sum", p) for p in (2.0, 3.0, 4.0)]
    + [("convexity", p) for p in (2.0, 3.0, 4.0)]
    + [("monotonicity", p) for p in (1.5, 2.0, 3.0, 4.0)]
    + [("v_equivalence", p) for p in (1.5, 2.0, 3.0)]
)
SWEEP_PAIRS = 100_000

# Cases that fail their check at the commit that introduced the benchmark:
# (1.5, 0.3) stops at max_iters in four stages with residual 0.37 (tol 1e-7).
# They still run and count as failed; any other failure makes a run incorrect.
KNOWN_FAILURES = frozenset({"ladder1d/restricted_p1.5_g0.3"})


@dataclass(frozen=True)
class Outcome:
    """What a case's check found."""

    ok: bool
    iters: int = 0  # Newton steps, or endpoint integrations of a root search
    abs_err: float | None = None  # sup-norm error against a closed form
    note: str = ""


@dataclass(frozen=True)
class Case:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _sup(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class AplRun:
    """``apl run`` in process, on a config copy carrying the run's seed.

    The bundle is rewritten in place on every pass; a pass whose bundle
    differs in any byte from the first pass's fails.
    """

    def __init__(self, root: Path, workdir: Path, config: str, seed: int,
                 exact: Callable | None = None, envelope: float | None = None):
        cfg = json.loads((root / "configs" / f"{config}.json").read_text())
        cfg["seed"] = seed
        self.config = workdir / f"{config}.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.out = workdir / config
        self.problem = cfg["problem"]
        self.exact = exact
        self.envelope = envelope
        self.first: dict[str, bytes] | None = None

    def run(self) -> int:
        return aplab.cli.main(["run", str(self.config), "--out", str(self.out)])

    def check(self, rc: int) -> Outcome:
        report = json.loads((self.out / "report.json").read_text())
        bundle = {name: (self.out / name).read_bytes() for name in BUNDLE_FILES}
        if self.first is None:
            self.first = bundle
        notes = []
        if rc != 0:
            notes.append(f"exit code {rc}")
        if not report["solve"]["converged"]:
            notes.append("not converged")
        if bundle != self.first:
            notes.append("bundle differs from the first pass")
        err = None
        if self.exact is not None:
            fld = load_field(self.out / "field.apf")
            err = _sup(fld.values, self.exact(self.problem, fld.grid))
            if self.envelope is not None and not err <= self.envelope:
                notes.append(f"sup error {err:.3e} above {self.envelope:g}")
        return Outcome(not notes, report["solve"]["n_iterations"], err, "; ".join(notes))


def _branching_profile(problem, grid) -> np.ndarray:
    x = grid.coordinate_arrays()[0]
    return BRANCHING_AMPLITUDE * np.sign(x) * np.abs(x) ** (4.0 / 3.0)


def _one_phase(problem, grid) -> np.ndarray:
    params = Params(
        p=problem["p"],
        gamma=problem["gamma"],
        lambda_plus=problem["lambda_plus"],
        lambda_minus=problem["lambda_minus"],
        delta=problem["delta"],
        alpha_p=problem["alpha_p"],
    )
    return one_phase_profile(params).evaluate(grid.axes[0])


def _restricted_case(p: float, gamma: float, lam: float, n: int = 2049) -> Case:
    """Exact one-phase profile as wall data, zero start (tests/conftest.py)."""
    params = Params(p=p, gamma=gamma, lambda_plus=lam, lambda_minus=lam, alpha_p=1.0)
    prof = one_phase_profile(params)
    grid = build_grid(((-1.0, 1.0),), (n,))
    x = grid.axes[0]
    exact = prof.coefficient * np.clip(x, 0.0, None) ** prof.beta
    start = ScalarField(grid, np.zeros_like(x), grid.boundary_face_mask, exact.copy())

    def run():
        try:
            return aplab.solver.minimize(start, params)
        except aplab.solver.SolverStall as exc:
            return exc.result

    def check(result) -> Outcome:
        err = _sup(result.field.values, exact)
        notes = []
        if not result.converged:
            notes.append(f"not converged (residual {result.residual_rms:.3e})")
        if not err <= PROFILE_ENVELOPE:
            notes.append(f"sup error {err:.3e} above {PROFILE_ENVELOPE:g}")
        return Outcome(not notes, result.n_iterations, err, "; ".join(notes))

    return Case(f"ladder1d/restricted_p{p:g}_g{gamma:g}", run, check)


def _shot_case(name, params, g_left, g_right, interval, n_out, profile,
               max_err, max_mismatch) -> Case:
    """Shooter run with tests/test_oracle.py's thresholds."""

    def run():
        with endpoint_evals() as calls:
            shot = aplab.oracle.shoot_two_phase_1d(
                params, g_left, g_right, interval=interval, n_out=n_out
            )
        return shot, calls[0]

    def check(out) -> Outcome:
        shot, evals = out
        sol = shot.primary
        err = _sup(sol.u, profile(sol.x))
        notes = []
        if not err <= max_err:
            notes.append(f"sup error {err:.3e} above {max_err:g}")
        if not sol.boundary_mismatch <= max_mismatch:
            notes.append(f"boundary mismatch {sol.boundary_mismatch:.3e}")
        return Outcome(not notes, evals, err, "; ".join(notes))

    return Case(f"oracle_sweep/shot_{name}", run, check)


def _sweep_case(name: str, p: float, seed: int) -> Case:
    def run():
        return aplab.inequalities.sweep_inequality(
            name, p, n_pairs=SWEEP_PAIRS, seed=seed
        )

    def check(report) -> Outcome:
        notes = []
        if report.n_pairs < SWEEP_PAIRS:
            notes.append(f"only {report.n_pairs} pairs")
        if not report.min_margin >= -1e-12:
            notes.append(f"min margin {report.min_margin:.3e}")
        return Outcome(not notes, note="; ".join(notes))

    return Case(f"oracle_sweep/sweep_{name}_p{p:g}", run, check)


def grid2d(root: Path, workdir: Path, seed: int) -> list[Case]:
    branching = AplRun(root, workdir, "branching_2d", seed, _branching_profile)
    crossing = AplRun(root, workdir, "crossing_2d", seed)
    return [
        Case("grid2d/branching_2d", branching.run, branching.check),
        Case("grid2d/crossing_2d", crossing.run, crossing.check),
    ]


def ladder1d(root: Path, workdir: Path, seed: int) -> list[Case]:
    cases = [_restricted_case(p, g, lam) for (p, g), lam in RESTRICTED_RUNS.items()]
    for config, envelope in (
        ("one_phase_1d", CONVEX_ENVELOPE),
        ("degenerate_1d", PROFILE_ENVELOPE),
    ):
        run = AplRun(root, workdir, config, seed, _one_phase, envelope)
        cases.append(Case(f"ladder1d/{config}", run.run, run.check))
    return cases


def oracle_sweep(root: Path, workdir: Path, seed: int) -> list[Case]:
    takeoff = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5, delta=1.0)
    branching = Params(
        p=2.0, gamma=0.5, lambda_plus=0.4, lambda_minus=0.4, delta=1.0, alpha_p=1.0
    )
    amp = BRANCHING_AMPLITUDE
    cases = [
        _shot_case("takeoff", takeoff, 0.0, 0.25, (0.0, 1.0), 257,
                   lambda x: x**2 / 4.0, 1e-6, 1e-12),
        _shot_case("branching", branching, -amp, amp, (-1.0, 1.0), 513,
                   lambda x: amp * np.sign(x) * np.abs(x) ** (4.0 / 3.0),
                   1e-5, 1e-10),
    ]
    return cases + [_sweep_case(name, p, seed) for name, p in SWEEPS]


WORKLOADS = {"grid2d": grid2d, "ladder1d": ladder1d, "oracle_sweep": oracle_sweep}


def warm_up() -> None:
    """One 9x9 solve, so scipy's lazily loaded modules are in before timing."""
    params = Params(p=2.0, gamma=1.0, lambda_plus=0.5, lambda_minus=0.5)
    grid = build_grid(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
    wall = 0.25 * np.clip(grid.coordinate_arrays()[0], 0.0, None) ** 2
    aplab.solver.minimize(
        ScalarField(grid, np.zeros_like(wall), grid.boundary_face_mask, wall), params
    )
