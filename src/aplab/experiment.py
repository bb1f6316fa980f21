"""File-driven experiment runs.

A run is described by a JSON config (strict schema: unknown keys are
rejected), solved once, and measured by the requested diagnostics.  The
bundle written to the output directory is

    field.apf        final field in the text field format
    report.json      nested summary (sorted keys, no timestamps)
    diagnostics.csv  report.json flattened: one path,value row per leaf
    manifest.json    config hash, package/library versions, seed

Reruns of the same config produce byte-identical bundles: every float is
serialized with repr, dict keys are sorted, and nothing time- or
path-dependent is recorded.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import platform
from dataclasses import asdict, dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import (
    Grid,
    Params,
    ScalarField,
    build_grid,
    report_leaves,
    save_field,
)
from .energy import el_residual
from .geometry import (
    BallSpec,
    minkowski_content,
    phase_density,
    porosity_constant,
    relative_perimeter,
    level_strip_energy,
)
from .inequalities import monotonicity_constant, sweep_inequality
from .phases import (
    FreeBoundaryClassification,
    classify,
    pick_interface_node,
    residue_floor,
)
from .scalelab import (
    default_radius_ladder,
    fit_exponent,
    growth_profile,
    nondegeneracy_ratio,
    scaling_identity_gap,
)
from .solver import (
    DEFAULT_LADDER,
    WORK_COUNTERS,
    SolveResult,
    SolverStall,
    comparison_gap,
    minimize,
    nonlinearity_gap,
    p_harmonic_replacement,
)

__all__ = [
    "ConfigError",
    "ExperimentResult",
    "CONFIG_SCHEMA",
    "load_config",
    "validate_config",
    "eval_boundary_expression",
    "build_problem",
    "run_experiment",
    "write_bundle",
    "config_digest",
]


class ConfigError(ValueError):
    """Config file is unreadable, schema-invalid, or semantically broken."""


_NUM = {"type": "number"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_COORDS = {"type": "array", "minItems": 1, "maxItems": 3, "items": _NUM}
_LADDER = {"type": "array", "minItems": 1, "items": _POSNUM}

_BALL_DIAG = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"center": _COORDS, "radii": _LADDER},
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["p", "gamma", "extents", "resolution", "boundary"],
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 1},
                "gamma": _POSNUM,
                "lambda_plus": {"type": "number", "minimum": 0},
                "lambda_minus": {"type": "number", "minimum": 0},
                "delta": {"type": "number", "minimum": 0},
                "alpha_p": _POSNUM,
                "extents": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {
                        "type": "array",
                        "minItems": 2,
                        "maxItems": 2,
                        "items": _NUM,
                    },
                },
                "resolution": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {"type": "integer", "minimum": 2},
                },
                "boundary": {"type": "string"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"eps_ladder": _LADDER},
        },
        "diagnostics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "zero_tol": _POSNUM,
                "grad_tol": _POSNUM,
                "growth": _BALL_DIAG,
                "density": _BALL_DIAG,
                "perimeter": _BALL_DIAG,
                "porosity": _BALL_DIAG,
                "strip": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["eps_ladder", "radius"],
                    "properties": {
                        "center": _COORDS,
                        "radius": _POSNUM,
                        "eps_ladder": _LADDER,
                    },
                },
                "minkowski": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["eps_ladder"],
                    "properties": {
                        "set": {
                            "enum": ["gamma_all", "gamma_zero", "two_phase"]
                        },
                        "eps_ladder": _LADDER,
                    },
                },
                "scaling": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["r_values", "radius"],
                    "properties": {
                        "center": _COORDS,
                        "r_values": _LADDER,
                        "radius": _POSNUM,
                    },
                },
                "replacement": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["radius"],
                    "properties": {"center": _COORDS, "radius": _POSNUM},
                },
                "inequalities": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["names", "p_values"],
                    "properties": {
                        "names": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "enum": [
                                    "sum",
                                    "convexity",
                                    "monotonicity",
                                    "v_equivalence",
                                ]
                            },
                        },
                        "p_values": _LADDER,
                        "n_pairs": {"type": "integer", "minimum": 1},
                        "eps": _POSNUM,
                    },
                },
            },
        },
    },
}


@cache
def _config_validator():
    """The schema's validator, built on the first validation and only once.

    jsonschema.validate would repeat the schema self-check on every call
    (about 40 ms); a test checks the schema instead.
    """
    import jsonschema

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _refuse_nonfinite(node, path: str) -> None:
    """ConfigError naming the JSON path of a number that is not a finite float."""
    if isinstance(node, dict):
        for key, value in node.items():
            _refuse_nonfinite(value, f"{path}/{key}" if path else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _refuse_nonfinite(value, f"{path}/{i}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        try:
            finite = math.isfinite(node)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise ConfigError(f"config invalid at {path}: non-finite number")


def validate_config(cfg: dict) -> None:
    # NaN passes every schema bound and inf most, so they are refused first
    _refuse_nonfinite(cfg, "")
    from jsonschema.exceptions import best_match

    exc = best_match(_config_validator().iter_errors(cfg))
    if exc is not None:
        path = "/".join(str(k) for k in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    prob = cfg["problem"]
    ndim = len(prob["extents"])
    if len(prob["resolution"]) != ndim:
        raise ConfigError("resolution and extents must have equal length")
    for a, b in prob["extents"]:
        if not a < b:
            raise ConfigError(f"axis extent ({a}, {b}) is not increasing")
    diag = cfg.get("diagnostics", {})
    if "inequalities" in diag and "seed" not in cfg:
        raise ConfigError("seed is required when inequality sweeps are requested")
    for section, spec in diag.items():
        if isinstance(spec, dict) and "center" in spec:
            if len(spec["center"]) != ndim:
                raise ConfigError(
                    f"diagnostics.{section}.center must have {ndim} coordinates"
                )


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    validate_config(cfg)
    return cfg


def config_digest(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Boundary-data expressions: arithmetic over coordinates with pow/abs/max/min.

_AXIS_NAMES = ("x", "y", "z")
_TOO_DEEP = "boundary expression is nested too deeply"
_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def eval_boundary_expression(expr: str, grid: Grid) -> np.ndarray:
    """Evaluate a boundary-data expression on every grid node.

    Grammar: numbers, the coordinate names x/y/z (up to the grid
    dimension), + - * / ** and unary -, and calls to pow, abs, max, min.
    Anything else, a non-finite result, or nesting deeper than the parser
    or the evaluator can follow raises ConfigError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"boundary expression does not parse: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        # how the parser reports nesting deeper than its stack
        raise ConfigError(_TOO_DEEP) from exc
    coords = grid.coordinate_arrays()
    env = {name: coords[i] for i, name in enumerate(_AXIS_NAMES[: grid.ndim])}

    def ev(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                raise ConfigError(f"non-numeric constant {node.value!r}")
            try:
                return float(node.value)
            except OverflowError as exc:  # an integer literal past the float range
                raise ConfigError("numeric constant out of float range") from exc
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise ConfigError(
                    f"unknown name {node.id!r}; this grid has {sorted(env)}"
                )
            return env[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call):
            if (
                not isinstance(node.func, ast.Name)
                or node.keywords
                or node.func.id not in ("pow", "abs", "max", "min")
            ):
                raise ConfigError("only pow/abs/max/min calls are allowed")
            args = [ev(a) for a in node.args]
            name = node.func.id
            if name == "pow":
                if len(args) != 2:
                    raise ConfigError("pow takes exactly two arguments")
                return np.power(args[0], args[1])
            if name == "abs":
                if len(args) != 1:
                    raise ConfigError("abs takes exactly one argument")
                return np.abs(args[0])
            if len(args) < 2:
                raise ConfigError(f"{name} needs at least two arguments")
            fn = np.maximum if name == "max" else np.minimum
            out = args[0]
            for a in args[1:]:
                out = fn(out, a)
            return out
        raise ConfigError(
            f"disallowed syntax in boundary expression: {type(node).__name__}"
        )

    try:
        with np.errstate(all="ignore"):
            out = ev(tree.body)
    except RecursionError as exc:
        raise ConfigError(_TOO_DEEP) from exc
    out = np.broadcast_to(np.asarray(out, dtype=float), grid.shape).copy()
    if not np.all(np.isfinite(out)):
        raise ConfigError("boundary expression produced non-finite values")
    return out


def build_problem(cfg: dict) -> tuple[ScalarField, Params, tuple[float, ...]]:
    """Field with pinned box faces, problem parameters, continuation ladder."""
    prob = cfg["problem"]
    try:
        params = Params(
            p=prob["p"],
            gamma=prob["gamma"],
            lambda_plus=prob.get("lambda_plus", 1.0),
            lambda_minus=prob.get("lambda_minus", 0.0),
            delta=prob.get("delta", 1.0),
            alpha_p=prob.get("alpha_p"),
        )
        grid = build_grid(prob["extents"], prob["resolution"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bvals = eval_boundary_expression(prob["boundary"], grid)
    field = ScalarField(
        grid=grid,
        values=bvals,
        boundary_mask=grid.boundary_face_mask,
        boundary_values=bvals,
    )
    ladder = tuple(cfg.get("solver", {}).get("eps_ladder", DEFAULT_LADDER))
    return field, params, ladder


# ---------------------------------------------------------------------------
# Diagnostics.


def _section(result) -> dict:
    """A result dataclass as a report section, tuples as JSON lists."""
    return {
        k: list(v) if isinstance(v, tuple) else v for k, v in asdict(result).items()
    }


def _fit(scales, values) -> dict | None:
    try:
        return _section(fit_exponent(scales, values))
    except ValueError:
        return None


@dataclass(frozen=True)
class _Solved:
    """What the diagnostics read: the solved field and its phase analysis."""

    field: ScalarField
    params: Params
    cls: FreeBoundaryClassification
    seed: int | None

    @cached_property
    def auto_center(self) -> tuple[float, ...]:
        """Deterministic anchor: a branching node if any, else a low-gradient
        interface node, else any interface node, else the smallest-|u| node."""
        fld, cls = self.field, self.cls
        for mask in (cls.branching, cls.gamma_zero, cls.gamma_all):
            if mask.any():
                break
        else:
            mask = np.abs(fld.values) == np.min(np.abs(fld.values))
        idx = pick_interface_node(mask, fld)
        return tuple(float(fld.grid.axes[a][i]) for a, i in enumerate(idx))

    def center(self, spec) -> tuple[float, ...]:
        if "center" in spec:
            return tuple(float(c) for c in spec["center"])
        return self.auto_center

    def ball_ladder(self, spec) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The center and radii of a ball diagnostic; default radii if none."""
        center = self.center(spec)
        radii = spec.get("radii") or default_radius_ladder(self.field.grid, center)
        return center, tuple(radii)


def _growth_diag(solved: _Solved, spec):
    fld, params = solved.field, solved.params
    center, radii = solved.ball_ladder(spec)
    prof = growth_profile(fld, params, center, radii)
    series = {
        name: list(getattr(prof, name))
        for name in ("sup_pos", "sup_neg", "sup_abs", "dirichlet")
    }
    out = {
        "center": list(center),
        "radii": list(radii),
        **series,
        "potential": list(prof.potential),
        "target_exponent": 1.0 + params.tau,
        "restricted_range": params.restricted_range,
        "fits": {},
        "nondegeneracy": {},
    }
    # a phase whose sups are rounding residue does not exist and gets no fit
    floor = residue_floor(fld.values)
    for name, values in series.items():
        if name in ("sup_pos", "sup_neg"):
            values = [v if v > floor else 0.0 for v in values]
        out["fits"][name] = _fit(radii, values)
    for phase in ("positive", "negative", "max"):
        try:
            out["nondegeneracy"][phase] = nondegeneracy_ratio(prof, params, phase)
        except ValueError:
            out["nondegeneracy"][phase] = None
    return out


def _density_diag(solved: _Solved, spec):
    center, radii = solved.ball_ladder(spec)
    series = {
        name: [
            phase_density(getattr(solved.cls, name), BallSpec(center, r),
                          solved.field.grid)
            for r in radii
        ]
        for name in ("positive", "negative", "zero")
    }
    return {"center": list(center), "radii": list(radii), **series}


def _perimeter_diag(solved: _Solved, spec):
    center, radii = solved.ball_ladder(spec)
    per = [relative_perimeter(solved.field, BallSpec(center, r)) for r in radii]
    codim = solved.field.grid.ndim - 1
    series = {"perimeter": per, "scaled": [x / r**codim for x, r in zip(per, radii)]}
    return {"center": list(center), "radii": list(radii), **series}


def _porosity_diag(solved: _Solved, spec):
    center, radii = solved.ball_ladder(spec)
    kappas = [
        porosity_constant(solved.cls.gamma_zero, BallSpec(center, r),
                          solved.field.grid)
        for r in radii
    ]
    return {"center": list(center), "radii": list(radii), "values": kappas,
            "set": "gamma_zero"}


def _strip_diag(solved: _Solved, spec):
    center = solved.center(spec)
    ladder = tuple(spec["eps_ladder"])
    radius = spec["radius"]
    ball = BallSpec(center, radius)
    energies = [
        level_strip_energy(solved.field, solved.params, e, ball) for e in ladder
    ]
    return {
        "center": list(center),
        "radius": radius,
        "eps_ladder": list(ladder),
        "energies": energies,
        "fit": _fit(ladder, energies),
    }


def _minkowski_diag(solved: _Solved, spec):
    name = spec.get("set", "gamma_zero")
    res = minkowski_content(getattr(solved.cls, name), solved.field.grid,
                            spec["eps_ladder"])
    return {"set": name, **_section(res)}


def _scaling_diag(solved: _Solved, spec):
    center = solved.center(spec)
    radius, r_values = spec["radius"], spec["r_values"]
    gaps = [
        scaling_identity_gap(solved.field, solved.params, center, r, radius)
        for r in r_values
    ]
    rel = [abs(lhs - rhs) / max(abs(rhs), 1e-300) for lhs, rhs in gaps]
    return {
        "center": list(center),
        "radius": radius,
        "r_values": list(r_values),
        "transported": [lhs for lhs, _ in gaps],
        "original": [rhs for _, rhs in gaps],
        "rel_error": rel,
    }


def _replacement_diag(solved: _Solved, spec):
    fld, params = solved.field, solved.params
    center = solved.center(spec)
    radius = spec["radius"]
    region = BallSpec(center, radius).node_mask(fld.grid, closed=False)
    replaced = p_harmonic_replacement(fld, params.p, region=region)
    distance, energy_gap = comparison_gap(fld, replaced, params.p)
    nl_gap, nl_bound = nonlinearity_gap(fld, replaced, params)
    return {
        "center": list(center),
        "radius": radius,
        "distance": distance,
        "energy_gap": energy_gap,
        "ratio": distance / energy_gap if energy_gap > 0 else None,
        "monotonicity_constant": monotonicity_constant(params.p),
        "nonlinearity_gap": nl_gap,
        "nonlinearity_bound": nl_bound,
    }


def _inequality_diag(solved: _Solved, spec):
    n_pairs = spec.get("n_pairs", 100_000)
    eps = spec.get("eps", 1.0)
    return [
        _section(
            sweep_inequality(name, p, n_pairs=n_pairs, seed=solved.seed, eps=eps)
        )
        for name in spec["names"]
        for p in spec["p_values"]
    ]


# Each requested ``diagnostics`` section, run in this order, which decides
# whose error surfaces first.
_DIAGNOSTICS = {
    "growth": _growth_diag,
    "density": _density_diag,
    "perimeter": _perimeter_diag,
    "porosity": _porosity_diag,
    "strip": _strip_diag,
    "minkowski": _minkowski_diag,
    "scaling": _scaling_diag,
    "replacement": _replacement_diag,
    "inequalities": _inequality_diag,
}


# ---------------------------------------------------------------------------
# Run + bundle.


@dataclass(frozen=True)
class ExperimentResult:
    """A run: its solve, the report that holds every reading (diagnostics.csv
    is its flat view), and the manifest that says what produced it."""

    solve: SolveResult
    report: dict
    manifest: dict
    stall: str | None  # the SolverStall message when the solve stalled


def run_experiment(cfg: dict) -> ExperimentResult:
    """Validate the config, solve the problem and collect requested diagnostics.

    A solver stall is not fatal here: diagnostics run on the partial
    iterate, the report is marked ``stalled`` and ``stall`` keeps the
    stall message; the caller decides the exit status.  A diagnostic that
    cannot be computed, a replacement that does not converge included,
    raises ConfigError, and so does a continuation ladder that ``minimize``
    refuses.
    """
    validate_config(cfg)
    field0, params, ladder = build_problem(cfg)
    stall = None
    try:
        solve = minimize(field0, params, ladder)
    except SolverStall as exc:
        solve = exc.result
        stall = str(exc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fld = solve.field
    grid = fld.grid

    diag = cfg.get("diagnostics", {})
    cls = classify(fld, params, diag.get("zero_tol"), diag.get("grad_tol"))

    report = {
        "params": {
            "p": params.p,
            "gamma": params.gamma,
            "lambda_plus": params.lambda_plus,
            "lambda_minus": params.lambda_minus,
            "delta": params.delta,
            "alpha_p": params.alpha_p,
            "tau": params.tau,
            "restricted_range": params.restricted_range,
        },
        "grid": {
            "extents": [list(e) for e in grid.extents],
            "resolution": list(grid.resolution),
            "spacing": list(grid.spacing),
        },
        "solve": {
            "energy": solve.energy,
            "residual_rms": solve.residual_rms,
            "el_residual": el_residual(fld, params, ladder[-1]),
            "converged": solve.converged,
            "n_iterations": solve.n_iterations,
            **{k: getattr(solve, k) for k in WORK_COUNTERS},
            "n_stages": len(solve.stages),
            "stage_energies": [s.energies[-1] for s in solve.stages],
            "stage_exits": [s.exit for s in solve.stages],
        },
        "phases": {
            "zero_tol": cls.zero_tol,
            "grad_tol": cls.grad_tol,
            **{f"n_{name}": int(np.count_nonzero(mask))
               for name, mask in cls.masks().items()},
        },
        "stalled": stall is not None,
        "diagnostics": {},
    }
    solved = _Solved(fld, params, cls, cfg.get("seed"))
    try:
        for key, measure in _DIAGNOSTICS.items():
            if key in diag:
                report["diagnostics"][key] = measure(solved, diag[key])
    except (ValueError, SolverStall) as exc:
        raise ConfigError(f"diagnostics request not satisfiable: {exc}") from exc

    manifest = {
        "config_sha256": config_digest(cfg),
        "package_version": __version__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "seed": cfg.get("seed"),
        "outputs": ["field.apf", "report.json", "diagnostics.csv"],
    }
    return ExperimentResult(solve=solve, report=report, manifest=manifest, stall=stall)


def write_bundle(result: ExperimentResult, outdir) -> None:
    """Write field.apf, report.json, diagnostics.csv, manifest.json.

    diagnostics.csv is report.json flattened: a ``path,value`` header, then
    one row per scalar leaf in ``core.report_leaves`` order, its value the
    leaf's JSON text, so ``json.loads(value)`` gives back the report's value.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_field(result.solve.field, out / "field.apf")
    with open(out / "report.json", "w") as fh:
        json.dump(result.report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("path", "value"))
        writer.writerows(
            (path, json.dumps(leaf))
            for path, leaf in report_leaves(result.report).items()
        )
    with open(out / "manifest.json", "w") as fh:
        json.dump(result.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
