"""One workload process: set up, run passes for the given time, report.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` with the
checkout's ``src`` on ``PYTHONPATH``. It prints ``ready <ref_s> <cpu_s>``
once imports, the case list and the warm-up solve are done (its set-up time:
the process's CPU time so far, rescaled by ``perfbench.speed`` and raw) and,
at the end, one JSON line for the runner. With ``--setup-only`` it stops
after ``ready``.

Passes repeat for about ``--seconds`` of wall time: at least one, then more
while over half a pass of the time is left. Each case records its wall time,
its CPU time and that CPU time rescaled to the reference core
(``perfbench.speed``); the metrics use the rescaled time. With ``--trace 1`` they alternate untraced
and traced, ending on a traced one, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from perfbench.speed import SpeedProbe


def _run_pass(cases, probe, tracer=None) -> list[dict]:
    from perfbench.workloads import Outcome

    rows = []
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        probe.take()
        t0, c0 = time.perf_counter(), time.process_time()
        outcome = None
        try:
            with tracer.span("bench.case") if tracer else nullcontext():
                out = case.run()
        except Exception as exc:  # a crash is a failed case, never a skipped one
            outcome = Outcome(False, note=f"raised {exc!r}")
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        speed = probe.rescale(cpu, probe.take())
        if outcome is None:
            try:
                outcome = case.check(out)
            except Exception as exc:
                outcome = Outcome(False, note=f"check raised {exc!r}")
        rows.append({"case": case.id, "s": seconds, **speed, **asdict(outcome)})
    return rows


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "APL_THREADS": os.environ.get("APL_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--artifact", help="where to write the run's JSON detail")
    args = parser.parse_args(argv)
    with SpeedProbe() as probe:
        return _main(args, probe)


def _main(args, probe: SpeedProbe) -> int:
    root = Path(args.root).resolve()

    t0 = time.perf_counter()
    import aplab.cli  # noqa: F401
    import aplab.experiment  # noqa: F401
    import aplab.inequalities  # noqa: F401
    import aplab.oracle  # noqa: F401
    import aplab.solver  # noqa: F401
    import_s = time.perf_counter() - t0

    src = root / "src"
    if not Path(aplab.__file__).resolve().is_relative_to(src):
        print(f"aplab was imported from {aplab.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import metrics, workloads
    from perfbench.tracing import Tracer

    scratch = root / "perfbench" / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=scratch))
    try:
        cases = workloads.WORKLOADS[args.workload](root, workdir, args.seed)
        workloads.warm_up()
        setup = probe.rescale(time.process_time(), probe.take())
        print(f"ready {setup['ref_s']!r} {setup['cpu_s']!r}", flush=True)
        if args.setup_only:
            return 0

        untraced, traced, tables = [], [], []
        spans = None
        start = time.perf_counter()
        while True:
            if args.trace and len(untraced) > len(traced):
                with Tracer() as tracer:
                    traced.append(_run_pass(cases, probe, tracer))
                tables.append(
                    {
                        "names": tracer.by_name(),
                        "layers": tracer.layer_self_s(),
                        "counts": dict(tracer.counts),
                    }
                )
                if spans is None:
                    spans = tracer.spans
            else:
                untraced.append(_run_pass(cases, probe))
            # stop when less than half a pass (or pair) is left, so a run
            # measures as close to --seconds as whole passes allow
            if len(traced) == (len(untraced) if args.trace else 0):
                elapsed = time.perf_counter() - start
                rounds = len(untraced)
                if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        every = untraced + traced
        failed = [c for p in every for c in p if not c["ok"]]
        unexpected = sorted(
            {c["case"] for c in failed} - workloads.KNOWN_FAILURES
        )
        # counts and errors are deterministic: every pass must repeat them
        facts = [[(c["case"], c["ok"], c["iters"], c["abs_err"]) for c in p]
                 for p in every]
        repeatable = all(f == facts[0] for f in facts)
        repeatable &= all(t["counts"] == tables[0]["counts"] for t in tables)
        if args.trace:
            values = metrics.per_layer(
                tables,
                metrics.pass_seconds(untraced),
                metrics.pass_seconds(traced),
                import_s,
            )
        else:
            values = metrics.end_to_end(untraced, peak_rss_mb)
        result = {
            "correct": not unexpected and repeatable,
            "attempted": sum(len(p) for p in every),
            "failed": len(failed),
            "metrics": values,
            "unexpected_failures": unexpected,
            "repeatable": repeatable,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "env": _environment(),
        }
        if args.artifact:
            artifact = Path(args.artifact)
            detail = dict(result, cases={"untraced": untraced, "traced": traced})
            if args.trace:
                detail.update(import_s=import_s, tables=tables)
                artifact.with_name(artifact.stem + "-spans.json").write_text(
                    json.dumps(
                        {"fields": ["name", "start", "end", "parent", "case"],
                         "spans": spans}
                    )
                )
            artifact.write_text(json.dumps(detail, indent=1))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
