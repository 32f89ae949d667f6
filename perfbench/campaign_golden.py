"""``campaign-golden``: cold-cache rounds of the golden figure campaign.

One round is what ``repro figures`` does for fig11 + fig12 + fig14 at
the golden-fixture scale, starting from a fresh in-memory compilation
cache.  One op is one simulation point: one workload under one
paradigm (50 fig11 points + 13 fig14 points per round).  The timed
inputs do not depend on the seed; the seed draws the validation inputs
of the reference-vs-interpreter check.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field

from repro import api
from repro.exec.cache import configure_cache
from repro.exec.pool import PointExecutor
from repro.sim import campaign

from perfbench import kernels, layers
from perfbench.measure import (
    OpTally,
    Patches,
    SpanRecorder,
    peak_rss_mb,
    percentile,
    setup_times,
)

SETUP_CODE = (
    "from repro.sim import campaign\n"
    "from repro.workloads.suite import paper_workloads\n"
    f"paper_workloads({kernels.SCALE})\n"
)
SETUP_REPEATS = 5


@dataclass
class _Collect(PointExecutor):
    """A serial executor that keeps every point's result."""

    points: list = field(default_factory=list)

    def map(self, fn, specs, section=None):
        out = super().map(fn, specs, section=section)
        self.points.extend(out)
        return out


def _round(executor=None):
    """One campaign round: (tables, fig11 results)."""
    h11, rows11, results = campaign.fig11_speedup(kernels.SCALE)
    h12, rows12 = campaign.fig12_noc_traffic(results)
    h14, rows14 = campaign.fig14_cycles(kernels.SCALE, executor=executor)
    tables = {"fig11": (h11, rows11), "fig12": (h12, rows12), "fig14": (h14, rows14)}
    return tables, results


def _window(seconds: float, rounds: int | None, traced: bool):
    """Timed rounds — until *seconds* have passed, or exactly *rounds* —
    each from a fresh compilation cache.

    Returns (recorder, wall seconds, rounds done, last tables, counters).
    """
    recorder = SpanRecorder()
    counters = layers.ProgramCounters() if traced else None
    with Patches(recorder) as patches:
        if traced:
            layers.wrap_layers(patches, counters)
        else:
            layers.wrap_ops(patches)
        done = 0
        start = time.perf_counter()
        while True:
            configure_cache(enabled=True)
            if counters is not None:
                counters.round_start()
            tables, _results = _round()
            if counters is not None:
                counters.round_end()
            done += 1
            elapsed = time.perf_counter() - start
            if (rounds is None and elapsed >= seconds) or done == rounds:
                break
    return recorder, elapsed, done, tables, counters


def _check_points(results, fig14_points, tables, problems: list[str]) -> None:
    points = [r for per in results.values() for r in per.values()] + fig14_points
    for res in points:
        cycles = res.total_cycles
        if not (math.isfinite(cycles) and cycles > 0):
            problems.append(f"{res.workload}/{res.paradigm}: cycles {cycles}")
    for row in tables["fig14"][1]:
        fractions, inmem = row[1:-1], row[-1]
        if not math.isclose(sum(fractions), 1.0, rel_tol=1e-9):
            problems.append(f"fig14 {row[0]}: cycle fractions sum to {sum(fractions)}")
        if not 0.0 <= inmem <= 1.0:
            problems.append(f"fig14 {row[0]}: in-memory fraction {inmem}")


def _check_reference(seed: int, problems: list[str]) -> None:
    """api.run reference mode against the golden interpreter."""
    for wl in kernels.table3_workloads():
        params = kernels.VALIDATION_PARAMS[wl.program.name]
        base = kernels.validation_arrays(wl.program, params, seed)
        golden = {k: v.copy() for k, v in base.items()}
        api.run(wl.program, params, golden, dataflow=wl.dataflow, mode="interpret")
        got = {k: v.copy() for k, v in base.items()}
        api.run(wl.program, params, got, dataflow=wl.dataflow, mode="reference")
        kernels.compare(wl.name, got, golden, problems)


def run(seed: int, seconds: float, traced: bool, env: dict) -> dict:
    setup = setup_times(SETUP_CODE, env, SETUP_REPEATS)

    # Untimed first round with the cache off: it warms lazy module state
    # and is the reference every cached round must reproduce exactly.
    configure_cache(enabled=False)
    collect = _Collect()
    uncached_tables, uncached_results = _round(executor=collect)

    recorder, wall, rounds, tables, _ = _window(seconds, None, traced=False)
    rss = peak_rss_mb()
    latencies = recorder.durations(layers.OP_SPANS)
    tally = OpTally(attempted=len(latencies))

    problems: list[str] = []
    if json.dumps(tables) != json.dumps(uncached_tables):
        problems.append("cached round differs from the cache-off round")
    _check_points(uncached_results, collect.points, uncached_tables, problems)
    _check_reference(seed, problems)

    out = {
        "tally": tally,
        "problems": problems,
        "log": f"{rounds} rounds, {len(latencies)} ops in {wall:.2f}s",
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": tally.succeeded / wall,
            "peak_rss_mb": rss,
            "op_p50_s": percentile(latencies, 0.50),
            "op_p90_s": percentile(latencies, 0.90),
            "opt_cost": kernels.first_region_cost(kernels.table3_workloads()),
            "opt_speedup": 1.0,
        },
    }
    if traced:
        t_recorder, t_wall, _, t_tables, counters = _window(seconds, rounds, traced=True)
        if json.dumps(t_tables) != json.dumps(uncached_tables):
            problems.append("traced round differs from the cache-off round")
        tally.attempted += len(t_recorder.durations(layers.OP_SPANS))
        extra = counters.metrics()
        extra["trace.overhead_ratio"] = t_wall / wall - 1.0
        out["trace"] = (t_recorder, t_wall, extra)
    configure_cache(enabled=True)
    return out
