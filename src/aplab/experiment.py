"""File-driven experiment runs.

A run is described by a JSON config (strict schema: unknown keys are
rejected), solved once, and measured by the requested diagnostics.  The
bundle written to the output directory is

    field.apf        final field in the text field format
    report.json      nested summary (sorted keys, no timestamps)
    diagnostics.csv  one row per scalar measurement
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
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .core import (
    Grid,
    Params,
    ScalarField,
    build_grid,
    save_field,
)
from .energy import DiscreteEnergy, el_residual
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
    classify,
    decompose,
    default_grad_tol,
    default_zero_tol,
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
    SolveResult,
    SolverConfig,
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
    "CSV_COLUMNS",
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
            "properties": {
                "eps_ladder": _LADDER,
                "max_iters": {"type": "integer", "minimum": 1},
                "tol_residual": _POSNUM,
            },
        },
        "diagnostics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "zero_tol": _POSNUM,
                "grad_tol": _POSNUM,
                "growth": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "center": _COORDS,
                        "radii": _LADDER,
                        "fit_window": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": _POSNUM,
                        },
                    },
                },
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

# Built once, without the schema self-check that jsonschema.validate repeats
# on every call (about 40 ms); a test checks the schema instead.
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

CSV_COLUMNS = ("section", "name", "center", "scale", "value", "extra")


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
    exc = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
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
    window = diag.get("growth", {}).get("fit_window")
    if window is not None and not window[0] < window[1]:
        raise ConfigError("growth.fit_window must be increasing")


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


def build_problem(cfg: dict) -> tuple[ScalarField, Params, SolverConfig]:
    """Field with pinned box faces, problem parameters, solver settings."""
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
        solver_kwargs = dict(cfg.get("solver", {}))
        if "eps_ladder" in solver_kwargs:
            solver_kwargs["eps_ladder"] = tuple(solver_kwargs["eps_ladder"])
        solver_cfg = SolverConfig(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bvals = eval_boundary_expression(prob["boundary"], grid)
    field = ScalarField(
        grid=grid,
        values=bvals,
        boundary_mask=grid.boundary_face_mask,
        boundary_values=bvals,
    )
    return field, params, solver_cfg


# ---------------------------------------------------------------------------
# Diagnostics.


def _center_str(center) -> str:
    return ";".join(repr(float(c)) for c in center)


def _row(section, name, center="", scale="", value="", extra="") -> dict:
    return {
        "section": section,
        "name": name,
        "center": _center_str(center) if not isinstance(center, str) else center,
        "scale": repr(float(scale)) if not isinstance(scale, str) else scale,
        "value": repr(float(value)) if not isinstance(value, str) else value,
        "extra": extra,
    }


def _auto_center(field: ScalarField, cls) -> tuple[float, ...]:
    """Deterministic anchor: a branching node if any, else a low-gradient
    interface node, else any interface node, else the smallest-|u| node."""
    for mask in (cls.branching, cls.gamma_zero, cls.gamma_all):
        if mask.any():
            break
    else:
        mask = np.abs(field.values) == np.min(np.abs(field.values))
    idx = pick_interface_node(mask, field)
    return tuple(
        float(field.grid.axes[a][i]) for a, i in enumerate(idx)
    )


def _fit_dict(radii, values, window):
    try:
        f = fit_exponent(radii, values, window=window)
    except ValueError:
        return None
    return {
        "exponent": f.exponent,
        "prefactor": f.prefactor,
        "r_squared": f.r_squared,
        "n_used": f.n_used,
        "n_dropped": f.n_dropped,
    }


def _growth_diag(field, params, spec, center, rows):
    grid = field.grid
    radii = tuple(spec.get("radii") or default_radius_ladder(grid, center))
    window = spec.get("fit_window")
    window = tuple(window) if window else None
    prof = growth_profile(field, params, center, radii)
    out = {
        "center": list(center),
        "radii": list(radii),
        "sup_pos": list(prof.sup_pos),
        "sup_neg": list(prof.sup_neg),
        "sup_abs": list(prof.sup_abs),
        "dirichlet": list(prof.dirichlet),
        "potential": list(prof.potential),
        "target_exponent": 1.0 + params.tau,
        "restricted_range": params.restricted_range,
        "fits": {},
        "nondegeneracy": {},
    }
    # a phase whose sups are rounding residue does not exist and gets no fit
    floor = residue_floor(field.values)
    for name in ("sup_pos", "sup_neg", "sup_abs", "dirichlet"):
        values = getattr(prof, name)
        if name in ("sup_pos", "sup_neg"):
            values = [v if v > floor else 0.0 for v in values]
        out["fits"][name] = _fit_dict(radii, values, window)
    for phase in ("positive", "negative", "max"):
        try:
            out["nondegeneracy"][phase] = nondegeneracy_ratio(prof, params, phase)
        except ValueError:
            out["nondegeneracy"][phase] = None
    for r, sp, sn, sa, di in zip(
        radii, prof.sup_pos, prof.sup_neg, prof.sup_abs, prof.dirichlet
    ):
        rows.append(_row("growth", "sup_pos", center, r, sp))
        rows.append(_row("growth", "sup_neg", center, r, sn))
        rows.append(_row("growth", "sup_abs", center, r, sa))
        rows.append(_row("growth", "dirichlet", center, r, di))
    for name, f in out["fits"].items():
        if f is not None:
            rows.append(
                _row(
                    "growth",
                    f"fit_{name}",
                    center,
                    "",
                    f["exponent"],
                    extra=f"r_squared={f['r_squared']!r}",
                )
            )
    return out


def _density_diag(field, decomp, spec, center, rows):
    grid = field.grid
    radii = tuple(spec.get("radii") or default_radius_ladder(grid, center))
    out = {
        "center": list(center),
        "radii": list(radii),
        "positive": [],
        "negative": [],
        "zero": [],
    }
    for r in radii:
        ball = BallSpec(center, r)
        for name, mask in (
            ("positive", decomp.positive),
            ("negative", decomp.negative),
            ("zero", decomp.zero),
        ):
            d = phase_density(mask, ball, grid)
            out[name].append(d)
            rows.append(_row("density", name, center, r, d))
    return out


def _perimeter_diag(field, spec, center, rows):
    grid = field.grid
    radii = tuple(spec.get("radii") or default_radius_ladder(grid, center))
    out = {"center": list(center), "radii": list(radii), "perimeter": [], "scaled": []}
    for r in radii:
        per = relative_perimeter(field, BallSpec(center, r))
        scaled = per / r ** (grid.ndim - 1)
        out["perimeter"].append(per)
        out["scaled"].append(scaled)
        rows.append(_row("perimeter", "perimeter", center, r, per))
        rows.append(_row("perimeter", "scaled", center, r, scaled))
    return out


def _porosity_diag(field, cls, spec, center, rows):
    grid = field.grid
    radii = tuple(spec.get("radii") or default_radius_ladder(grid, center))
    out = {"center": list(center), "radii": list(radii), "values": [], "set": "gamma_zero"}
    for r in radii:
        kappa = porosity_constant(cls.gamma_zero, BallSpec(center, r), grid)
        out["values"].append(kappa)
        rows.append(_row("porosity", "kappa", center, r, kappa))
    return out


def _strip_diag(field, params, spec, center, rows):
    ladder = tuple(spec["eps_ladder"])
    radius = spec["radius"]
    ball = BallSpec(center, radius)
    energies = [level_strip_energy(field, params, e, ball) for e in ladder]
    out = {
        "center": list(center),
        "radius": radius,
        "eps_ladder": list(ladder),
        "energies": energies,
        "fit": _fit_dict(ladder, energies, None),
    }
    for e, en in zip(ladder, energies):
        rows.append(_row("strip", "energy", center, e, en))
    if out["fit"] is not None:
        rows.append(_row("strip", "fit_energy", center, "", out["fit"]["exponent"]))
    return out


def _minkowski_diag(field, cls, spec, rows):
    name = spec.get("set", "gamma_zero")
    mask = getattr(cls, name)
    res = minkowski_content(mask, field.grid, spec["eps_ladder"])
    out = {
        "set": name,
        "eps": list(res.eps),
        "tube_measures": list(res.tube_measures),
        "contents": list(res.contents),
        "slope": res.slope,
        "r_squared": res.r_squared,
    }
    for e, m, c in zip(res.eps, res.tube_measures, res.contents):
        rows.append(_row("minkowski", "tube_measure", "", e, m))
        rows.append(_row("minkowski", "content", "", e, c))
    rows.append(
        _row(
            "minkowski",
            "slope",
            "",
            "",
            res.slope,
            extra=f"r_squared={res.r_squared!r}",
        )
    )
    return out


def _scaling_diag(field, params, spec, center, rows):
    radius = spec["radius"]
    out = {
        "center": list(center),
        "radius": radius,
        "r_values": list(spec["r_values"]),
        "transported": [],
        "original": [],
        "rel_error": [],
    }
    for r in spec["r_values"]:
        lhs, rhs = scaling_identity_gap(field, params, center, r, radius)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        out["transported"].append(lhs)
        out["original"].append(rhs)
        out["rel_error"].append(rel)
        rows.append(_row("scaling", "rel_error", center, r, rel))
    return out


def _replacement_diag(field, params, spec, center, rows):
    radius = spec["radius"]
    region = BallSpec(center, radius).node_mask(field.grid, closed=False)
    replaced = p_harmonic_replacement(field, params.p, region=region)
    distance, energy_gap = comparison_gap(field, replaced, params.p)
    nl_gap, nl_bound = nonlinearity_gap(field, replaced, params)
    ratio = distance / energy_gap if energy_gap > 0 else None
    out = {
        "center": list(center),
        "radius": radius,
        "distance": distance,
        "energy_gap": energy_gap,
        "ratio": ratio,
        "monotonicity_constant": monotonicity_constant(params.p),
        "nonlinearity_gap": nl_gap,
        "nonlinearity_bound": nl_bound,
    }
    rows.append(_row("replacement", "distance", center, radius, distance))
    rows.append(_row("replacement", "energy_gap", center, radius, energy_gap))
    rows.append(_row("replacement", "nonlinearity_gap", center, radius, nl_gap))
    rows.append(_row("replacement", "nonlinearity_bound", center, radius, nl_bound))
    return out


def _inequality_diag(spec, seed, rows):
    n_pairs = spec.get("n_pairs", 100_000)
    eps = spec.get("eps", 1.0)
    out = []
    for name in spec["names"]:
        for p in spec["p_values"]:
            rep = sweep_inequality(name, p, n_pairs=n_pairs, seed=seed, eps=eps)
            out.append(
                {
                    "name": rep.name,
                    "p": rep.p,
                    "n_pairs": rep.n_pairs,
                    "min_margin": rep.min_margin,
                    "constant": rep.constant,
                    "eps": rep.eps,
                    "witness_a": list(rep.witness_a),
                    "witness_b": list(rep.witness_b),
                }
            )
            rows.append(
                _row(
                    "inequalities",
                    rep.name,
                    "",
                    p,
                    rep.min_margin,
                    extra=f"n_pairs={rep.n_pairs}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Run + bundle.


@dataclass(frozen=True)
class ExperimentResult:
    config: dict
    field: ScalarField
    solve: SolveResult
    report: dict
    rows: list
    manifest: dict
    stall: str | None  # the SolverStall message when the solve stalled


def run_experiment(cfg: dict) -> ExperimentResult:
    """Validate the config, solve the problem and collect requested diagnostics.

    A solver stall is not fatal here: diagnostics run on the partial
    iterate, the report is marked ``stalled`` and ``stall`` keeps the
    stall message; the caller decides the exit status.  A diagnostic that
    cannot be computed, a replacement that does not converge included,
    raises ConfigError.
    """
    validate_config(cfg)
    field0, params, solver_cfg = build_problem(cfg)
    stall = None
    try:
        solve = minimize(field0, params, solver_cfg)
    except SolverStall as exc:
        solve = exc.result
        stall = str(exc)
    fld = solve.field
    grid = fld.grid
    eps_last = solver_cfg.eps_ladder[-1]

    diag = cfg.get("diagnostics", {})
    zero_tol = diag.get("zero_tol", default_zero_tol(grid, params))
    grad_tol = diag.get("grad_tol", default_grad_tol(grid, params))
    decomp = decompose(fld, zero_tol)
    grad_norm = np.sqrt(DiscreteEnergy(grid, params).grad_sq(fld.values))
    cls = classify(decomp, grad_norm, grad_tol)

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
            "el_residual": el_residual(fld, params, eps_last),
            "converged": solve.converged,
            "n_iterations": solve.n_iterations,
            "linear_solves": solve.linear_solves,
            "cg_iterations": solve.cg_iterations,
            "superlu_solves": solve.superlu_solves,
            "lift_retries": solve.lift_retries,
            "gradient_fallbacks": solve.gradient_fallbacks,
            "n_stages": len(solve.stages),
            "stage_energies": [s.energies[-1] for s in solve.stages],
        },
        "phases": {
            "zero_tol": zero_tol,
            "grad_tol": grad_tol,
            "n_positive": int(np.count_nonzero(decomp.positive)),
            "n_negative": int(np.count_nonzero(decomp.negative)),
            "n_zero": int(np.count_nonzero(decomp.zero)),
            "n_gamma_all": int(np.count_nonzero(cls.gamma_all)),
            "n_gamma_zero": int(np.count_nonzero(cls.gamma_zero)),
            "n_two_phase": int(np.count_nonzero(cls.two_phase)),
            "n_branching": int(np.count_nonzero(cls.branching)),
        },
        "stalled": stall is not None,
        "diagnostics": {},
    }
    rows: list[dict] = [
        _row("solve", "energy", "", "", solve.energy),
        _row("solve", "residual_rms", "", "", solve.residual_rms),
        _row("solve", "el_residual", "", "", report["solve"]["el_residual"]),
    ]

    default_center = None

    def center_for(spec) -> tuple[float, ...]:
        nonlocal default_center
        if "center" in spec:
            return tuple(float(c) for c in spec["center"])
        if default_center is None:
            default_center = _auto_center(fld, cls)
        return default_center

    out = report["diagnostics"]
    try:
        if "growth" in diag:
            spec = diag["growth"]
            out["growth"] = _growth_diag(fld, params, spec, center_for(spec), rows)
        if "density" in diag:
            spec = diag["density"]
            out["density"] = _density_diag(fld, decomp, spec, center_for(spec), rows)
        if "perimeter" in diag:
            spec = diag["perimeter"]
            out["perimeter"] = _perimeter_diag(fld, spec, center_for(spec), rows)
        if "porosity" in diag:
            spec = diag["porosity"]
            out["porosity"] = _porosity_diag(fld, cls, spec, center_for(spec), rows)
        if "strip" in diag:
            spec = diag["strip"]
            out["strip"] = _strip_diag(fld, params, spec, center_for(spec), rows)
        if "minkowski" in diag:
            out["minkowski"] = _minkowski_diag(fld, cls, diag["minkowski"], rows)
        if "scaling" in diag:
            spec = diag["scaling"]
            out["scaling"] = _scaling_diag(fld, params, spec, center_for(spec), rows)
        if "replacement" in diag:
            spec = diag["replacement"]
            out["replacement"] = _replacement_diag(
                fld, params, spec, center_for(spec), rows
            )
        if "inequalities" in diag:
            out["inequalities"] = _inequality_diag(
                diag["inequalities"], cfg["seed"], rows
            )
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
    return ExperimentResult(
        config=cfg,
        field=fld,
        solve=solve,
        report=report,
        rows=rows,
        manifest=manifest,
        stall=stall,
    )


def write_bundle(result: ExperimentResult, outdir) -> None:
    """Write field.apf, report.json, diagnostics.csv, manifest.json."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_field(result.field, out / "field.apf")
    with open(out / "report.json", "w") as fh:
        json.dump(result.report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "diagnostics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(result.rows)
    with open(out / "manifest.json", "w") as fh:
        json.dump(result.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
