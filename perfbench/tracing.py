"""Spans and counts around calls into aplab, recorded from outside the package.

``Tracer`` swaps module-level names that aplab modules look up when they run
(``aplab.solver.spsolve``, ``aplab.experiment.build_problem``, ...) for
wrappers that record one span per call, and puts every original back on
exit. No file of the package changes. A span is ``[name, start, end,
parent, case]``: ``parent`` is the index of the span open when it started
(-1 for none), so a layer's self time is its span durations minus the part
its child spans cover. Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

def _layer(span_name: str) -> str:
    return span_name.partition(".")[0]


@contextmanager
def endpoint_evals():
    """Count calls into the callable ``aplab.oracle`` hands to ``brentq``.

    Yields a one-element list holding the running count. This is the only
    instrument active in untraced passes: one counter per endpoint
    integration, each of which runs for a large fraction of a second.
    """
    import aplab.oracle as oracle

    calls = [0]
    brentq = getattr(oracle, "brentq", None)
    if brentq is None:  # a shooter without brentq: nothing to count
        yield calls
        return

    def counting(f, *args, **kwargs):
        def counted(*a):
            calls[0] += 1
            return f(*a)

        return brentq(counted, *args, **kwargs)

    oracle.brentq = counting
    try:
        yield calls
    finally:
        oracle.brentq = brentq


class Tracer:
    """Patch aplab's call sites on ``__enter__``, restore them on ``__exit__``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_rhs = None

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        rec = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(rec)

    def _open_span(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1,
               self.case]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close_span(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    def _timed(self, name: str, fn, on_result=None):
        """Wrapper recording a span per call of ``fn``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open_span(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close_span(rec)
                partial = getattr(exc, "result", None)
                if on_result is not None and partial is not None:
                    on_result(partial, args)  # SolverStall carries the partial solve
                raise
            self._close_span(rec)
            if on_result is not None:
                on_result(out, args)
            return out

        return wrapper

    # -- hooks on results ----------------------------------------------

    def _solve_stats(self, result, args) -> None:
        self.counts["solver.newton_steps"] += result.n_iterations
        longest = max((s.n_iters for s in result.stages), default=0)
        key = "solver.steps_per_stage.max"
        self.counts[key] = max(self.counts[key], longest)

    def _bundle_bytes(self, _, args) -> None:
        out = Path(args[1])
        self.counts["experiment.bundle_bytes"] += sum(
            f.stat().st_size for f in out.iterdir() if f.is_file()
        )

    def _sweep_pairs(self, report, args) -> None:
        self.counts["inequalities.pairs"] += report.n_pairs

    def _linear_solve(self, spsolve):
        timed = self._timed("solver.linear_solve", spsolve)

        def wrapper(M, rhs, *args, **kwargs):
            # aplab.solver retries a non-finite solve with a diagonal lift on
            # the same right-hand-side object; seen from here, that is a
            # second call with an identical ``rhs``.
            if rhs is self._last_rhs:
                self.counts["solver.linear_solve.retries"] += 1
            self._last_rhs = rhs
            return timed(M, rhs, *args, **kwargs)

        return wrapper

    def _root_search(self, brentq):
        timed = self._timed("oracle.brentq", brentq)

        def wrapper(f, *args, **kwargs):
            return timed(self._timed("oracle.endpoint", f), *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)``, if the name exists.

        A name the package no longer has is skipped, so a refactor of the
        package leaves its layer's metrics at 0 instead of breaking the run.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self) -> "Tracer":
        try:
            self._patch_all()
        except BaseException:
            self.restore()
            raise
        return self

    def _patch_all(self) -> None:
        import aplab.cli
        import aplab.experiment as experiment
        import aplab.inequalities as inequalities
        import aplab.oracle as oracle
        import aplab.solver as solver

        hooks = {
            "solver.minimize": self._solve_stats,
            "experiment.write_bundle": self._bundle_bytes,
            "inequalities.sweep_inequality": self._sweep_pairs,
        }
        wrappers: dict[int, object] = {}

        def timed(layer: str):
            def make(fn):
                # one wrapper per original, so a function bound in two
                # modules (solver.minimize, experiment.minimize) is one name
                if id(fn) not in wrappers:
                    name = f"{layer}.{fn.__name__}"
                    wrappers[id(fn)] = self._timed(name, fn, hooks.get(name))
                return wrappers[id(fn)]

            return make

        self._patch(aplab.cli, "main", timed("cli"))

        # experiment's own entry points, and every aplab function it imported
        for attr, obj in list(vars(experiment).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("aplab."):
                continue
            own = obj.__module__ == experiment.__name__
            if own and attr not in (
                "load_config", "build_problem", "run_experiment", "write_bundle"
            ):
                continue
            self._patch(experiment, attr, timed(obj.__module__.rpartition(".")[2]))

        self._patch(solver, "minimize", timed("solver"))
        self._patch(solver, "spsolve", self._linear_solve)
        self._patch(solver, "assemble_diffusion", timed("solver"))
        for attr in ("total_energy", "energy_gradient", "potential_curvature"):
            self._patch(solver, attr, timed("energy"))

        self._patch(oracle, "shoot_two_phase_1d", timed("oracle"))
        self._patch(oracle, "brentq", self._root_search)
        self._patch(inequalities, "sweep_inequality", timed("inequalities"))

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._last_rhs = None

    # -- summaries -------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _, _), child in zip(self.spans, covered):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
        return dict(sorted(table.items()))

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer: the module of ``src/aplab`` a span's name
        starts with, or ``bench`` for the harness's own case spans."""
        out: dict[str, float] = defaultdict(float)
        for name, row in self.by_name().items():
            out[_layer(name)] += row["self_s"]
        return dict(sorted(out.items()))
