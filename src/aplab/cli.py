"""``apl``: run experiment configs, diff report bundles, print oracles.

Exit codes: 0 success, 1 compare deltas above tolerance, 2 invalid
config/arguments, 3 solve stopped short of its tolerance (the partial
bundle is still written), 4 failure writing outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def tolerance(text: str) -> float:
    """A compare tolerance: a float >= 0 (inf allowed); NaN would pass
    every delta, since no comparison with NaN is true.  argparse reports
    unparsable text as an "invalid tolerance value", after this name."""
    tol = float(text)
    if not tol >= 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apl",
        description="Two-phase power-potential minimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve a config and write a report bundle")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--out", required=True, help="output bundle directory")

    cmp_ = sub.add_parser("compare", help="diff two report bundles")
    cmp_.add_argument("dir_a")
    cmp_.add_argument("dir_b")
    cmp_.add_argument(
        "--tol",
        type=tolerance,
        default=0.0,
        help="max allowed |delta| per diagnostic (default: exact match)",
    )

    orc = sub.add_parser("oracle", help="print closed-form profile data")
    orc.add_argument("--p", type=float, required=True)
    orc.add_argument("--gamma", type=float, default=None)
    orc.add_argument("--lambda-plus", type=float, default=1.0)
    orc.add_argument("--delta", type=float, default=1.0)
    orc.add_argument(
        "--radial-dim",
        type=int,
        default=None,
        help="print the radial profile for this dimension instead",
    )
    orc.add_argument("--export", default=None, help="write sampled field here")
    orc.add_argument(
        "--interval", type=float, nargs=2, default=(-1.0, 1.0), metavar=("A", "B")
    )
    orc.add_argument("--resolution", type=int, default=513)
    return parser


def _cmd_run(args) -> int:
    from .experiment import ConfigError, load_config, run_experiment, write_bundle

    try:
        cfg = load_config(args.config)
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"apl run: {exc}", file=sys.stderr)
        return 2
    try:
        write_bundle(result, args.out)
    except OSError as exc:
        print(f"apl run: cannot write bundle: {exc}", file=sys.stderr)
        return 4
    if not result.solve.converged:
        print(
            f"apl run: residual tolerance not reached: {result.solve.shortfall}; "
            f"partial bundle in {args.out}",
            file=sys.stderr,
        )
        return 3
    print(f"energy={result.solve.energy!r} bundle={args.out}")
    return 0


def _delta(a: float, b: float) -> float:
    """|a - b|; NaN against NaN is 0, NaN against anything else is inf."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def _cmd_compare(args) -> int:
    from .core import FieldFormatError, load_field, report_leaves
    from .solver import WORK_COUNTERS

    reports = []
    fields = []
    for d in (args.dir_a, args.dir_b):
        base = Path(d)
        try:
            with open(base / "report.json") as fh:
                reports.append(json.load(fh))
            fields.append(load_field(base / "field.apf"))
        except (OSError, json.JSONDecodeError, FieldFormatError) as exc:
            print(f"apl compare: invalid bundle {d}: {exc}", file=sys.stderr)
            return 2
    fa, fb = fields
    if fa.grid != fb.grid:
        print("apl compare: bundles use different grids", file=sys.stderr)
        return 2
    import numpy as np

    sup_diff = float(np.max(np.abs(fa.values - fb.values)))
    na, nb = (
        {
            path: float(leaf)
            for path, leaf in report_leaves(report).items()
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
        }
        for report in reports
    )
    deltas = {k: _delta(na[k], nb[k]) for k in na if k in nb}
    # Work counters record how a build solved, not what it computed; they
    # are reported apart and never fail a comparison.
    work = {f"solve/{k}" for k in WORK_COUNTERS}
    counters = {k: deltas.pop(k) for k in sorted(work & deltas.keys())}
    unmatched = sorted(set(na) ^ set(nb))
    worst = max(deltas.values(), default=0.0)
    summary = {
        "counter_deltas": counters,
        "field_sup_diff": sup_diff,
        "max_delta": worst,
        "n_compared": len(deltas),
        "unmatched_paths": unmatched,
        "over_tolerance": {
            k: d for k, d in sorted(deltas.items()) if d > args.tol
        },
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    over = sup_diff > args.tol or worst > args.tol
    return 1 if over else 0


def _cmd_oracle(args) -> int:
    from .core import Params, build_grid, save_field
    from .oracle import one_phase_profile, radial_p_harmonic

    try:
        if args.radial_dim is not None:
            prof = radial_p_harmonic(args.radial_dim, args.p)
        else:
            if args.gamma is None:
                print(
                    "apl oracle: --gamma is required for the one-phase profile",
                    file=sys.stderr,
                )
                return 2
            params = Params(
                p=args.p,
                gamma=args.gamma,
                lambda_plus=args.lambda_plus,
                delta=args.delta,
                alpha_p=1.0,  # the profile does not read it
            )
            prof = one_phase_profile(params)
    except ValueError as exc:
        print(f"apl oracle: {exc}", file=sys.stderr)
        return 2
    info = {
        "kind": prof.kind,
        "beta": prof.beta,
        "coefficient": prof.coefficient,
        "p": prof.p,
        "gamma": prof.gamma,
        "dim": prof.dim,
    }
    print(json.dumps(info, sort_keys=True, indent=2))
    if args.export:
        a, b = args.interval
        try:
            grid = build_grid([(a, b)], [args.resolution])
            save_field(prof.sample(grid), args.export)
        except ValueError as exc:
            print(f"apl oracle: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"apl oracle: cannot write field: {exc}", file=sys.stderr)
            return 4
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "compare": _cmd_compare, "oracle": _cmd_oracle}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
