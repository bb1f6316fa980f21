"""Metric names and units, and how a run's passes reduce to them.

``BENCHMARK.json`` declares the same names and units; the self-check in
``perfbench/tests`` fails when the two drift apart.
"""

from __future__ import annotations

import statistics

# Printed by an untraced run (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "solver_iters": "count",
    "ops_ok_frac": "frac",
    "max_abs_err": "1",
    "peak_rss_mb": "MB",
}

# Printed by a traced run (--trace 1).
PER_LAYER = {
    "import.aplab_s": "s",
    "experiment.load_config_s": "s",
    "experiment.build_problem_s": "s",
    "experiment.write_bundle_s": "s",
    "experiment.bundle_bytes": "B",
    "solver.newton_steps": "count",
    "solver.linear_solve.calls": "count",
    "solver.linear_solve.s": "s",
    "solver.linear_solve.s_per_call": "s",
    "solver.linear_solve.retries": "count",
    "solver.assemble_diffusion.calls": "count",
    "solver.assemble_diffusion.s": "s",
    "solver.minimize.self_s": "s",
    "solver.steps_per_stage.max": "count",
    "solver.line_search.energy_evals_per_step": "1/step",
    "energy.total_energy.calls": "count",
    "energy.total_energy.s": "s",
    "energy.energy_gradient.calls": "count",
    "energy.energy_gradient.s": "s",
    "energy.potential_curvature.s": "s",
    "phases.s": "s",
    "geometry.s": "s",
    "scalelab.s": "s",
    "oracle.shoot_two_phase_1d.s": "s",
    "oracle.endpoint_evals": "count",
    "inequalities.sweep_inequality.s": "s",
    "inequalities.pairs_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


def pass_seconds(passes: list[list[dict]]) -> float:
    """Time of one pass: the sum over cases of each case's median.

    A case's time is its CPU time rescaled to the reference core
    (``perfbench.speed``), not its wall time: on a shared host the wall time
    of the same pass drifts by a quarter between runs. CPU time leaves out
    time taken by the hypervisor and by other processes; the rescaling
    takes out the drift of the core's own speed. The process computes on one
    thread (``APL_THREADS=1``).
    """
    if not passes:
        return 0.0
    return sum(
        statistics.median(p[i]["ref_s"] for p in passes)
        for i in range(len(passes[0]))
    )


def end_to_end(passes: list[list[dict]], peak_rss_mb: float) -> dict[str, float]:
    """All end-to-end metrics except ``setup_s``, which the runner measures."""
    runs = [c for p in passes for c in p]
    errs = [c["abs_err"] for c in passes[0] if c["abs_err"] is not None]
    return {
        "pass_s": pass_seconds(passes),
        "solver_iters": sum(c["iters"] for c in passes[0]),
        "ops_ok_frac": sum(c["ok"] for c in runs) / len(runs),
        "max_abs_err": max(errs),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced: list[dict], untraced_pass_s: float, traced_pass_s: float,
              import_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, the median over traced passes.

    Each element of ``traced`` holds one traced pass's ``names`` table
    (calls, s, self_s per span name), ``layers`` self times and ``counts``.
    """

    def one(t: dict) -> dict[str, float]:
        names, layers, counts = t["names"], t["layers"], t["counts"]

        def calls(name):
            return names.get(name, {}).get("calls", 0)

        def secs(name, key="s"):
            return names.get(name, {}).get(key, 0.0)

        steps = counts.get("solver.newton_steps", 0)
        sweep_s = secs("inequalities.sweep_inequality")
        solves = calls("solver.linear_solve")
        return {
            "experiment.load_config_s": secs("experiment.load_config"),
            "experiment.build_problem_s": secs("experiment.build_problem"),
            "experiment.write_bundle_s": secs("experiment.write_bundle"),
            "experiment.bundle_bytes": counts.get("experiment.bundle_bytes", 0),
            "solver.newton_steps": steps,
            "solver.linear_solve.calls": solves,
            "solver.linear_solve.s": secs("solver.linear_solve"),
            "solver.linear_solve.s_per_call": (
                secs("solver.linear_solve") / solves if solves else 0.0
            ),
            "solver.linear_solve.retries": counts.get("solver.linear_solve.retries", 0),
            "solver.assemble_diffusion.calls": calls("solver.assemble_diffusion"),
            "solver.assemble_diffusion.s": secs("solver.assemble_diffusion"),
            "solver.minimize.self_s": secs("solver.minimize", "self_s"),
            "solver.steps_per_stage.max": counts.get("solver.steps_per_stage.max", 0),
            "solver.line_search.energy_evals_per_step": (
                calls("energy.total_energy") / steps if steps else 0.0
            ),
            "energy.total_energy.calls": calls("energy.total_energy"),
            "energy.total_energy.s": secs("energy.total_energy"),
            "energy.energy_gradient.calls": calls("energy.energy_gradient"),
            "energy.energy_gradient.s": secs("energy.energy_gradient"),
            "energy.potential_curvature.s": secs("energy.potential_curvature"),
            "phases.s": layers.get("phases", 0.0),
            "geometry.s": layers.get("geometry", 0.0),
            "scalelab.s": layers.get("scalelab", 0.0),
            "oracle.shoot_two_phase_1d.s": secs("oracle.shoot_two_phase_1d"),
            "oracle.endpoint_evals": calls("oracle.endpoint"),
            "inequalities.sweep_inequality.s": sweep_s,
            "inequalities.pairs_per_s": (
                counts.get("inequalities.pairs", 0) / sweep_s if sweep_s else 0.0
            ),
        }

    each = [one(t) for t in traced]
    out = {k: statistics.median(m[k] for m in each) for k in each[0]}
    out["import.aplab_s"] = import_s
    out["trace.overhead_frac"] = traced_pass_s / untraced_pass_s - 1.0
    return out
