"""End-to-end acceptance gate for the solver + measurement stack.

Each test pins one headline guarantee of the laboratory on the shared
session fixtures: oracle equivalence at grid scale, growth/nondegeneracy
exponents at detected interface nodes, the rescaling energy transport,
strip-energy scaling, phase density/perimeter/porosity envelopes,
replacement comparison estimates, randomized inequality sweeps, and
bit-identical rerun of every bundled config.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aplab.solver
from aplab.core import Params, ScalarField, build_grid
from aplab.energy import DiscreteEnergy
from aplab.experiment import build_problem, load_config, run_experiment
from aplab.geometry import (
    BallSpec,
    minkowski_content,
    phase_density,
    porosity_constant,
    level_strip_energy,
    relative_perimeter,
)
from aplab.inequalities import monotonicity_constant, sweep_inequality
from aplab.oracle import shoot_two_phase_1d
from aplab.phases import classify, pick_interface_node
from aplab.scalelab import (
    fit_exponent,
    growth_profile,
    nondegeneracy_ratio,
    scaling_identity_gap,
)
from aplab.solver import (
    _TOL_RESIDUAL,
    DEFAULT_LADDER,
    comparison_gap,
    minimize,
    p_harmonic_replacement,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# dyadic ladder 8h .. 64h for the h = 2**-9 one-dimensional runs
LADDER_1D = tuple(8 * 2.0**-9 * 2.0**k for k in range(4))


def interface_anchor(case) -> tuple[float, ...]:
    """Detected free-boundary node: degenerate (low-gradient) points win."""
    cls = classify(case.field, case.params)
    mask = cls.gamma_zero if cls.gamma_zero.any() else cls.gamma_all
    idx = pick_interface_node(mask, case.field)
    grid = case.grid
    return tuple(float(grid.axes[a][idx[a]]) for a in range(grid.ndim))


def central_two_phase_anchor(case) -> tuple[float, ...]:
    """Two-phase interface node nearest the domain center, ties by index."""
    cls = classify(case.field, case.params)
    grid = case.grid
    idx = np.argwhere(cls.two_phase)
    coords = np.stack([grid.axes[a][idx[:, a]] for a in range(grid.ndim)], axis=1)
    mid = np.array([(a + b) / 2.0 for a, b in grid.extents])
    d2 = np.sum((coords - mid) ** 2, axis=1)
    flat = np.ravel_multi_index(idx.T, grid.shape)
    best = idx[np.lexsort((flat, d2))[0]]
    return tuple(float(grid.axes[a][best[a]]) for a in range(grid.ndim))


# ---------------------------------------------------------------------------
# 1-2: the solver reproduces the closed-form power profiles


def test_convex_profile_recovered_within_grid_error(convex_1d):
    err = np.max(np.abs(convex_1d.field.values - convex_1d.exact))
    assert convex_1d.result.converged
    assert err <= 1e-3
    assert convex_1d.runtime < 10.0


def test_degenerate_profile_recovered_within_grid_error(degenerate_1d):
    err = np.max(np.abs(degenerate_1d.field.values - degenerate_1d.exact))
    assert degenerate_1d.result.converged
    assert err <= 5e-3


# The grid minimizer from zero against the first-integral oracle, with wall
# data -+0.5 and lambda+- = 1: every profile has a dead core.  Away from
# (3, 0.8) the solve lands on a nearby critical point (ROADMAP item 1).
@pytest.mark.parametrize(
    "p, gamma, envelope",
    [
        (3.0, 0.8, 1e-4),
        pytest.param(2.0, 0.5, 1e-3, marks=pytest.mark.xfail(reason="ROADMAP item 1")),
        pytest.param(1.5, 0.3, 1e-3, marks=pytest.mark.xfail(reason="ROADMAP item 1")),
    ],
)
def test_two_phase_profile_matches_first_integral_oracle(p, gamma, envelope):
    params = Params(p=p, gamma=gamma, lambda_plus=1.0, lambda_minus=1.0, alpha_p=1.0)
    n = 1025
    grid = build_grid(((-1.0, 1.0),), (n,))
    walls = np.where(grid.axes[0] < 0.0, -0.5, 0.5)
    result = minimize(ScalarField(grid, np.zeros(n), grid.boundary_face_mask, walls),
                      params)
    exact = shoot_two_phase_1d(params, -0.5, 0.5, interval=(-1.0, 1.0), n_out=n)
    assert result.converged
    assert np.max(np.abs(result.field.values - exact.primary.u)) <= envelope


# ---------------------------------------------------------------------------
# Energy certificates: a solve that is the discrete minimizer has no more
# exact energy than the sampled reference with the same pinned values


def assert_energy_certificate(case) -> None:
    """J_h(solve) <= J_h(reference) + 1e-9 max(1, |J_h(reference)|), both at
    eps = 0; the reference is ``case.exact`` on the free nodes and the
    solve's own values on the pinned ones."""
    fld = case.field
    reference = np.where(fld.free_mask, case.exact, fld.values)
    kern = DiscreteEnergy(fld.grid, case.params)
    j_solve = kern.at(fld.values, 0.0).energy
    j_ref = kern.at(reference, 0.0).energy
    assert j_solve <= j_ref + 1e-9 * max(1.0, abs(j_ref)), j_solve - j_ref


_ITEM_1 = pytest.mark.xfail(reason="ROADMAP item 1")
_ITEM_11 = pytest.mark.xfail(reason="ROADMAP item 11")


# (session fixture, (p, gamma) key of a fixture dict, marks)
_CERTIFIED = [
    # the default ladder stops at 1e-5 and leaves a film over the dead core
    ("convex_1d", None, _ITEM_11),
    ("degenerate_1d", None, _ITEM_11),
    ("convex_1d_to_1e9", None, ()),
    ("degenerate_1d_to_1e9", None, ()),
    ("restricted_cases", (2.0, 0.5), _ITEM_1),
    ("restricted_cases", (3.0, 0.8), _ITEM_1),
    ("restricted_cases", (1.5, 0.3), _ITEM_1),
    # against its x2-independent profile
    ("branching_2d", None, ()),
]


@pytest.mark.parametrize(
    "fixture, key",
    [
        pytest.param(f, k, marks=m, id=f if k is None else f"{f}-p{k[0]:g}-g{k[1]:g}")
        for f, k, m in _CERTIFIED
    ],
)
def test_solve_energy_is_certified_by_the_sampled_reference(fixture, key, request):
    case = request.getfixturevalue(fixture)
    assert_energy_certificate(case if key is None else case[key])


def _one_phase_growth(n: int, ladder=None) -> tuple[float, float]:
    """The sup_pos growth exponent of ``configs/one_phase_1d.json`` at n nodes,
    and its auto-centre in grid spacings."""
    cfg = load_config(CONFIG_DIR / "one_phase_1d.json")
    cfg["problem"]["resolution"] = [n]
    cfg["diagnostics"] = {"growth": cfg["diagnostics"]["growth"]}
    if ladder is not None:
        cfg["solver"] = {"eps_ladder": list(ladder)}
    report = run_experiment(cfg).report
    growth = report["diagnostics"]["growth"]
    return growth["fits"]["sup_pos"]["exponent"], (
        growth["center"][0] / report["grid"]["spacing"][0]
    )


@pytest.mark.parametrize(
    "ladder",
    [
        pytest.param(None, marks=_ITEM_11, id="default"),
        pytest.param(DEFAULT_LADDER + (1e-7, 1e-9), id="to_1e9"),
    ],
)
def test_one_phase_growth_reading_settles_under_refinement(ladder):
    # the exponent moves monotonically toward its target 2 and the
    # auto-centre stays at the free boundary x = 0, within 2h
    readings = [_one_phase_growth(n, ladder) for n in (257, 1025, 4097)]
    exponents = [e for e, _ in readings]
    misses = [abs(e - 2.0) for e in exponents]
    assert all(a > b for a, b in zip(misses, misses[1:])), exponents
    assert all(abs(c) <= 2.0 for _, c in readings), readings


# ---------------------------------------------------------------------------
# 3-4: growth exponent and nondegeneracy at detected interface nodes


def test_growth_exponent_matches_rate_in_restricted_range(restricted_cases):
    for (p, gamma), case in restricted_cases.items():
        assert case.result.converged, (p, gamma)
        target = 1.0 + case.params.tau
        center = interface_anchor(case)
        prof = growth_profile(case.field, case.params, center, LADDER_1D)
        fit = fit_exponent(prof.radii, prof.sup_abs)
        assert abs(fit.exponent - target) <= 0.1, (p, gamma, fit.exponent)


def test_nondegeneracy_ratio_stable_under_refinement(
    restricted_cases, restricted_cases_fine
):
    for key, case in restricted_cases.items():
        assert case.result.converged, key
        prof = growth_profile(
            case.field, case.params, interface_anchor(case), LADDER_1D
        )
        ratio = nondegeneracy_ratio(prof, case.params, phase="positive")
        assert ratio >= 1e-2, key

        # not asserted converged: at n = 2049, (1.5, 0.3) stops short of
        # the residual tolerance
        fine = restricted_cases_fine[key]
        fine_prof = growth_profile(
            fine.field, fine.params, interface_anchor(fine), LADDER_1D
        )
        fine_ratio = nondegeneracy_ratio(fine_prof, fine.params, phase="positive")
        assert fine_ratio >= 1e-2, key
        assert abs(fine_ratio - ratio) / ratio <= 0.20, key


# ---------------------------------------------------------------------------
# 5: rescaling transports ball energy exactly


def test_rescaled_energy_matches_original(branching_2d):
    for r in (0.5, 0.25):
        lhs, rhs = scaling_identity_gap(
            branching_2d.field, branching_2d.params, (0.0, 0.0), r, 0.25
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), r


@pytest.mark.parametrize("fixture", ["convex_1d", "degenerate_1d"])
def test_growth_ball_energy_is_the_transport_identity_energy(fixture, request):
    # one discrete gradient: the growth ladder reads the same open-ball
    # energy as the original side of the transport identity
    case = request.getfixturevalue(fixture)
    center = interface_anchor(case)
    radii = (0.125, 0.25)
    prof = growth_profile(case.field, case.params, center, radii)
    for radius, dirichlet, potential in zip(radii, prof.dirichlet, prof.potential):
        _, original = scaling_identity_gap(
            case.field, case.params, center, 0.5, radius
        )
        assert abs(dirichlet + potential - original) <= 1e-12 * original, radius


# ---------------------------------------------------------------------------
# 6: energy in thin level strips scales linearly with the width


@pytest.mark.parametrize("fixture", ["crossing_1d", "crossing_2d"])
def test_strip_energy_scales_linearly(fixture, request):
    case = request.getfixturevalue(fixture)
    ball = BallSpec((0.0,) * case.grid.ndim, 0.5)
    widths = tuple(np.geomspace(0.01, 0.08, 8))
    energies = [
        level_strip_energy(case.field, case.params, w, ball) for w in widths
    ]
    fit = fit_exponent(widths, energies)
    assert 0.85 <= fit.exponent <= 1.15


# ---------------------------------------------------------------------------
# 7-8: both phases are dense at the interface; the null set is porous
# and the two-phase boundary has codimension one


def test_phase_densities_balanced_with_perimeter_bound(crossing_2d):
    cls = classify(crossing_2d.field, crossing_2d.params)
    center = central_two_phase_anchor(crossing_2d)
    h = max(crossing_2d.grid.spacing)
    for r in (8 * h, 16 * h, 32 * h, 64 * h):
        ball = BallSpec(center, r)
        assert 0.45 <= phase_density(cls.positive, ball, crossing_2d.grid) <= 0.55
        assert 0.45 <= phase_density(cls.negative, ball, crossing_2d.grid) <= 0.55
        assert relative_perimeter(crossing_2d.field, ball) / r >= 0.5


def test_null_set_porous_and_interface_codimension_one(crossing_2d):
    cls = classify(crossing_2d.field, crossing_2d.params)
    grid = crossing_2d.grid
    center = central_two_phase_anchor(crossing_2d)
    h = max(grid.spacing)
    ladder = (8 * h, 16 * h, 32 * h, 64 * h)
    for r in ladder:
        assert porosity_constant(cls.zero, BallSpec(center, r), grid) >= 0.2
    mink = minkowski_content(cls.two_phase, grid, ladder)
    assert abs(mink.slope - 1.0) <= 0.15
    assert mink.r_squared > 0.99


# ---------------------------------------------------------------------------
# 9: Dirichlet replacement is a converged minimizer and never gains energy;
# p = 2 is an exact identity


def test_replacement_comparison_estimates(
    convex_1d, degenerate_1d, crossing_1d, crossing_2d, branching_2d
):
    corpus = [convex_1d, degenerate_1d, crossing_1d, crossing_2d, branching_2d]
    for case in corpus:
        p = case.params.p
        ball = BallSpec((0.0,) * case.grid.ndim, 0.25)
        region = ball.node_mask(case.grid, closed=False)
        replaced = p_harmonic_replacement(case.field, p, region)
        # the replacement is a converged discrete Dirichlet minimizer: the
        # energy whose drop comparison_gap reads is critical at it
        kern = DiscreteEnergy.dirichlet(case.grid, p)
        defect = kern.at(replaced.values, 1e-9).gradient() / kern.weights
        r = defect[region & case.field.free_mask]
        assert np.sqrt(np.mean(r * r)) <= _TOL_RESIDUAL, p
        distance, energy_gap = comparison_gap(case.field, replaced, p)
        constant = monotonicity_constant(p)
        assert constant > 0.0
        assert distance >= 0.0
        assert energy_gap >= 0.0, p
        ratio = energy_gap / distance if distance > 0 else 0.0
        assert ratio >= 0.0
        if p == 2.0:
            assert abs(energy_gap - 0.5 * distance) <= 1e-12 * distance


def test_replacement_from_a_solved_field_converges_through_the_levels(monkeypatch):
    # the single-width replacement of configs/one_phase_1d.json starts warm and
    # runs through every level from n = 17 to 1025; its comparison gap is the
    # single-level solve's to 1e-12 relative
    solves = []
    real = aplab.solver.minimize

    def spy(*args):
        solves.append(real(*args))
        return solves[-1]

    monkeypatch.setattr(aplab.solver, "minimize", spy)
    cfg = load_config(CONFIG_DIR / "one_phase_1d.json")
    cfg["diagnostics"] = {"replacement": cfg["diagnostics"]["replacement"]}
    gap = run_experiment(cfg).report["diagnostics"]["replacement"]
    (replacement,) = solves
    assert replacement.converged
    assert [s.resolution for s in replacement.stages] == [
        (n,) for n in (17, 33, 65, 129, 257, 513, 1025)
    ]
    assert gap["distance"] == pytest.approx(0.0026041268117717948, rel=1e-12, abs=0)
    assert gap["energy_gap"] == pytest.approx(0.0013020634058858323, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# 10: randomized inequality sweeps and the first variation


SWEEPS = (
    [("sum", p) for p in (2.0, 3.0, 4.0)]
    + [("convexity", p) for p in (2.0, 3.0, 4.0)]
    + [("monotonicity", p) for p in (1.5, 2.0, 3.0, 4.0)]
    + [("v_equivalence", p) for p in (1.5, 2.0, 3.0)]
)


@pytest.mark.parametrize("name,p", SWEEPS)
def test_inequality_sweep_margins_nonnegative(name, p):
    report = sweep_inequality(name, p, n_pairs=100_000, seed=7)
    # the sweep tops the requested batch up with near-equality pairs
    assert report.n_pairs >= 100_000
    assert report.min_margin >= -1e-13


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(100):
        ndim = 1 + (k % 2)
        shape = (9,) if ndim == 1 else (5, 5)
        grid = build_grid(((-1.0, 1.0),) * ndim, shape)
        p = float(rng.uniform(1.5, 3.5))
        params = Params(
            p=p,
            gamma=float(rng.uniform(0.3, min(p - 0.1, 1.8))),
            lambda_plus=float(rng.uniform(0.2, 2.0)),
            lambda_minus=float(rng.uniform(0.2, 2.0)),
            delta=float(rng.uniform(0.5, 1.5)),
            alpha_p=1.0,
        )
        # magnitudes bounded away from zero keep F' smooth at every node
        values = rng.uniform(0.2, 1.2, shape) * rng.choice([-1.0, 1.0], shape)
        kern = DiscreteEnergy(grid, params)
        grad = kern.at(values, 0.0).gradient()

        fd = np.zeros_like(grad)
        step = 1e-6
        it = np.nditer(values, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            up, dn = values.copy(), values.copy()
            up[i] += step
            dn[i] -= step
            e_up = kern.at(up, 0.0).energy
            e_dn = kern.at(dn, 0.0).energy
            fd[i] = (e_up - e_dn) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))))
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# 11: coarse-first solves keep the single-level readings.  Pinned: whether
# the single-level solve converged, its J_h at eps = 0 and its sup error
# against the exact profile (None: no closed form).


def _config_solve(name: str):
    """The config's solve, and its boundary expression on every node: for
    branching_2d that is the exact x2-independent profile."""
    field0, params, ladder = build_problem(load_config(CONFIG_DIR / f"{name}.json"))
    return minimize(field0, params, ladder), field0.boundary_values


@pytest.mark.parametrize(
    "case, converged, energy, sup_error, exit",
    [
        ("branching_2d", True, 1.4710677523949869, 0.0004490510875173742, "tolerance"),
        ("crossing_2d", True, 0.5938334497844572, None, "tolerance"),
        ((2.0, 0.5), True, 1.2480595772511172, 0.0018258458795696875, "tolerance"),
        ((3.0, 0.8), True, 1.2127606246830382, 4.1576469313815007e-05, "tolerance"),
        ((1.5, 0.3), True, 1.0171740725561136, 0.01984378205655407, "tolerance"),
    ],
    ids=["branching_2d", "crossing_2d", "p2-g0.5", "p3-g0.8", "p1.5-g0.3"],
)
def test_nested_solve_keeps_the_single_level_readings(
    case, converged, energy, sup_error, exit, restricted_cases_fine
):
    # the 129^2 configs and the n = 2049 restricted runs; (1.5, 0.3)
    # converges since the 1D Newton model carries the signed potential
    # curvature (it stopped short at the polish exit with sup error
    # 1.98439e-2, and single-level at 1.98478e-2)
    if isinstance(case, str):
        result, exact = _config_solve(case)
    else:
        result, exact = restricted_cases_fine[case].result, restricted_cases_fine[case].exact
    assert result.converged == converged
    assert result.energy <= energy + 1e-12
    if sup_error is not None:
        err = float(np.max(np.abs(result.field.values - exact)))
        assert abs(err - sup_error) <= 1e-9
    assert result.stages[-1].exit == exit


# ---------------------------------------------------------------------------
# 12: every bundled config reruns to bit-identical outputs


@pytest.mark.parametrize(
    "config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda c: c.stem
)
def test_bundled_config_rerun_is_bit_identical(config, tmp_path):
    bundles = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "aplab.cli", "run", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=590,
        )
        assert proc.returncode == 0, proc.stderr
        bundles.append(out)
    first, second = bundles
    for name in ("field.apf", "report.json", "diagnostics.csv", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # only a concave potential clips curvature: every Newton step of the
    # gamma = 1/2 planes (CG takes no signed model), none at gamma = 1
    report = json.loads((first / "report.json").read_text())
    gamma = json.loads(config.read_text())["problem"]["gamma"]
    solve = report["solve"]
    assert solve["clipped_models"] == (solve["n_iterations"] if gamma < 1.0 else 0)
