"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid2d --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the checkout is this file's parent
directory's parent. Each workload process is a fresh interpreter with the
checkout's ``src`` first on ``PYTHONPATH`` and ``APL_THREADS`` pinned to 1.
Set-up is the CPU time a workload process has used when it prints its
``ready`` line (interpreter start, imports, inputs and the warm-up solve),
rescaled to the reference core like every time the benchmark reports (see
``perfbench/speed.py``). Three processes set up (two that stop there, then
the measuring one); ``setup_s`` is their median. The last line printed is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A missing package source,
a crashed or late workload process, or a metric set that differs from the
declared one exits non-zero without printing a result.

Only the standard library is used here, so this file starts the same way
whatever the package does to its imports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid2d", "ladder1d", "oracle_sweep")
SETUP_ONLY_PROCESSES = 2
APL_THREADS = "1"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    # APL_THREADS is the package's own cap; the pools it sets must not be
    # preset, or aplab leaves them as they are.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    env["APL_THREADS"] = APL_THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _worker(args, deadline: float, setup_only: bool,
            artifact: Path | None = None) -> tuple[dict, str]:
    """Start one workload process; return its set-up times and last line."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", str(ROOT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if artifact is not None:
        cmd += ["--artifact", str(artifact)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            word, *values = line.split()
            if word == "ready":
                setup = dict(zip(("ref_s", "cpu_s"), map(float, values)))
                break
        else:
            raise BenchError("workload process ended before set-up finished")
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return setup, (lines[-1] if lines else "")


def run(args) -> dict:
    if not (ROOT / "src" / "aplab" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT))
    from perfbench.metrics import END_TO_END, PER_LAYER

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    artifact = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    setups = [_worker(args, deadline, True)[0] for _ in range(SETUP_ONLY_PROCESSES)]
    setup, last = _worker(args, deadline, False, artifact)
    setups.append(setup)
    try:
        result = json.loads(last)
    except json.JSONDecodeError as exc:
        raise BenchError(f"no result from the workload process: {exc}") from exc

    declared = PER_LAYER if args.trace else END_TO_END
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s["ref_s"] for s in setups)
    if set(values) != set(declared):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(declared))} differ from the declared set"
        )

    detail = json.loads(artifact.read_text())
    detail["setup_s_samples"] = setups
    artifact.write_text(json.dumps(detail, indent=1))

    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(
        f"# {args.workload} seed={args.seed} passes={result['passes']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"unexpected_failures={result['unexpected_failures']} "
        f"repeatable={result['repeatable']} detail={artifact.relative_to(ROOT)}"
    )
    raw = [[round(sum(c[k] for c in p), 3) for k in ("s", "cpu_s")]
           for p in detail["cases"]["untraced"]]
    print(f"# untraced passes, unscaled [wall s, CPU s]: {raw}")
    for name, unit in declared.items():
        print(f"{name} {values[name]!r} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        line = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
