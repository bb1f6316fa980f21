"""Self-check of the benchmark harness.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import aplab.cli  # noqa: E402
import aplab.experiment  # noqa: E402
import aplab.inequalities  # noqa: E402
import aplab.oracle  # noqa: E402
import aplab.solver  # noqa: E402
from perfbench import metrics, run, speed, workloads  # noqa: E402
from perfbench.tracing import Tracer, endpoint_evals  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PATCHED = (aplab.cli, aplab.experiment, aplab.inequalities, aplab.oracle, aplab.solver)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _module_state() -> list[dict]:
    return [dict(vars(m)) for m in PATCHED]


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    assert _declared("end_to_end") == metrics.END_TO_END
    assert _declared("per_layer") == metrics.PER_LAYER


def _rows(seconds: float) -> list[dict]:
    return [
        {"case": "a", "s": 9.0, "ref_s": seconds, "ok": True, "iters": 3,
         "abs_err": 1e-3},
        {"case": "b", "s": 9.0, "ref_s": 2 * seconds, "ok": False, "iters": 5,
         "abs_err": None},
    ]


def test_emitted_end_to_end_metrics_are_the_declared_ones():
    passes = [_rows(1.0), _rows(3.0), _rows(2.0)]
    values = metrics.end_to_end(passes, peak_rss_mb=50.0)
    values["setup_s"] = 1.0  # measured by the runner
    assert set(values) == set(_declared("end_to_end"))
    assert values["pass_s"] == pytest.approx(6.0)  # per-case medians 2 + 4
    assert values["solver_iters"] == 8
    assert values["ops_ok_frac"] == pytest.approx(0.5)
    assert values["max_abs_err"] == 1e-3


def test_traced_run_emits_the_declared_per_layer_metrics():
    before = _module_state()
    with Tracer() as tracer:
        tracer.case = "warm_up"
        with tracer.span("bench.case"):
            workloads.warm_up()
    assert _module_state() == before
    table = {
        "names": tracer.by_name(),
        "layers": tracer.layer_self_s(),
        "counts": dict(tracer.counts),
    }
    values = metrics.per_layer([table], 1.0, 1.1, import_s=0.5)
    assert set(values) == set(_declared("per_layer"))
    assert values["solver.newton_steps"] > 0
    assert values["solver.linear_solve.calls"] >= values["solver.newton_steps"]

    names = [s[0] for s in tracer.spans]
    assert names[0] == "bench.case"
    top = [s for s in tracer.spans if s[3] == -1]
    assert len(top) == 1
    for name, start, end, parent, case in tracer.spans[1:]:
        assert case == "warm_up"
        parent_span = tracer.spans[parent]
        assert parent_span[1] <= start <= end <= parent_span[2]
    # self times partition the top span's duration
    total = top[0][2] - top[0][1]
    assert sum(table["layers"].values()) == pytest.approx(total, rel=1e-9)


def test_tracer_restores_module_attributes_when_the_block_raises():
    before = _module_state()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert aplab.solver.spsolve is not before[-1]["spsolve"]
            assert aplab.experiment.minimize is aplab.solver.minimize
            raise RuntimeError("inside the traced block")
    assert _module_state() == before


def test_endpoint_counter_restores_brentq():
    brentq = aplab.oracle.brentq
    with endpoint_evals() as calls:
        root = aplab.oracle.brentq(lambda q: q - 0.25, 0.0, 1.0)
    assert aplab.oracle.brentq is brentq
    assert root == pytest.approx(0.25)
    assert calls[0] > 0


def test_runner_refuses_a_tree_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "grid2d", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tracer_skips_names_the_package_no_longer_has(monkeypatch):
    monkeypatch.delattr(aplab.solver, "spsolve")
    before = _module_state()
    with Tracer() as tracer:
        assert not hasattr(aplab.solver, "spsolve")
        assert aplab.solver.assemble_diffusion is not before[-1]["assemble_diffusion"]
    assert _module_state() == before
    assert tracer.spans == []


def test_speed_probe_rescales_cpu_time_and_disarms_on_exit():
    handler = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe() as probe:
        probe.take()
        c0 = time.process_time()
        while time.process_time() - c0 < 0.3:
            pass
        cpu = time.process_time() - c0
        samples = probe.take()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert len(samples) >= 3
    row = probe.rescale(cpu, samples)
    median = statistics.median(samples)
    assert row["ref_s"] == pytest.approx(
        (cpu - sum(samples)) * speed.REFERENCE_S / median
    )
    # a stretch too short for a sample borrows the last median
    assert probe.rescale(0.01, [])["probe_median_s"] == median
