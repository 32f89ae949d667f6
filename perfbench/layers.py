"""The program's layers as the traced run sees them.

The traced run wraps each layer's public entry point from here — no
file under ``src/`` changes — and reads the program's own counters
(compilation cache, JIT memo) before and after.  :data:`PER_LAYER`
lists every per-layer metric; a layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

from perfbench.measure import Patches, SpanRecorder, self_times, top_level_seconds

#: Span names whose outermost calls are campaign ops: one paradigm run
#: of one workload (a simulation point).
OP_SPANS = ("baselines.run", "sim.engine")

#: span name -> metric prefix; each gives ``<prefix>_s`` (self time)
#: and, where listed in PER_LAYER, ``<prefix>_calls``.
SPAN_METRICS = {
    "frontend.region_at": "frontend.region_at",
    "ir.format_tdfg": "ir.format_tdfg",
    "ir.fingerprint": "ir.fingerprint",
    "egraph.optimize": "egraph.optimize",
    "backend.fatbinary": "backend.fatbinary",
    "runtime.jit": "runtime.jit",
    "uarch.tc_execute": "uarch.tc_execute",
    "baselines.run": "baselines.run",
    "sim.engine": "sim.engine_self",
    "pipeline": "pipeline.self",
    "serve.submit": "serve.submit",
    "serve.status": "serve.status",
}

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("frontend.region_at_s", "s"),
    ("frontend.region_at_calls", "count"),
    ("ir.format_tdfg_s", "s"),
    ("ir.format_tdfg_calls", "count"),
    ("ir.fingerprint_s", "s"),
    ("ir.fingerprint_calls", "count"),
    ("egraph.optimize_s", "s"),
    ("egraph.optimize_calls", "count"),
    ("egraph.optimize_distinct", "count"),
    ("egraph.nodes", "count"),
    ("backend.fatbinary_s", "s"),
    ("backend.fatbinary_calls", "count"),
    ("runtime.jit_s", "s"),
    ("runtime.jit_memo_hits", "count"),
    ("runtime.jit_memo_misses", "count"),
    ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"),
    ("exec.cache_hit_ratio", "ratio"),
    ("uarch.tc_execute_s", "s"),
    ("uarch.tc_execute_calls", "count"),
    ("baselines.run_s", "s"),
    ("sim.engine_self_s", "s"),
    ("pipeline.self_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.status_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.executed", "count"),
    ("serve.coalesce_hits", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def wrap_ops(patches: Patches) -> None:
    """Record one span per paradigm run (the campaign's op boundary)."""
    from repro.baselines.core import BaseCoreModel
    from repro.baselines.nsc import NearStreamModel
    from repro.sim.engine import InfinityStreamRunner

    patches.method(BaseCoreModel, "run", "baselines.run")
    patches.method(NearStreamModel, "run", "baselines.run")
    patches.method(InfinityStreamRunner, "run", "sim.engine")


class ProgramCounters:
    """Deltas of the program's own counters over a traced window, plus
    what the e-graph wrapper observes (distinct inputs, e-nodes).

    The workloads replace the compilation cache every round, so cache
    counters are summed per round between :meth:`round_start` and
    :meth:`round_end`.
    """

    def __init__(self) -> None:
        from repro.exec import cache
        from repro.ir.tdfg import TensorDFG
        from repro.runtime import jit

        self._cache = cache
        self._jit = jit
        # The unwrapped method: identifying optimizer inputs must not
        # count as ir.fingerprint work.
        self._fingerprint = TensorDFG.fingerprint
        self.optimize_inputs: set[str] = set()
        self.egraph_nodes = 0
        self._cache_total = cache.CacheStats()
        self._cache_before = None
        self._jit_before = jit.global_stats_snapshot()

    def round_start(self) -> None:
        self._cache_before = self._cache.stats_snapshot()

    def round_end(self) -> None:
        self._cache_total.merge(
            self._cache.stats_snapshot().delta(self._cache_before)
        )

    def observe_optimize(self, args, result) -> None:
        self.optimize_inputs.add(self._fingerprint(args[0]))
        self.egraph_nodes += result[1].num_nodes

    def metrics(self) -> dict[str, float]:
        cache = self._cache_total
        jit = self._jit.global_stats_snapshot().delta(self._jit_before)
        lookups = cache.hits + cache.misses
        return {
            "egraph.optimize_distinct": float(len(self.optimize_inputs)),
            "egraph.nodes": float(self.egraph_nodes),
            "runtime.jit_memo_hits": float(jit.memo_hits),
            "runtime.jit_memo_misses": float(jit.lowered),
            "exec.cache_hits": float(cache.hits),
            "exec.cache_misses": float(cache.misses),
            "exec.cache_hit_ratio": cache.hits / lookups if lookups else 0.0,
        }


def wrap_layers(patches: Patches, counters: ProgramCounters) -> None:
    """Wrap every in-process layer entry point (ops included)."""
    from repro.backend.fatbinary import compile_fat_binary
    from repro.egraph import optimize_tdfg
    from repro.frontend.kernel import InstantiatedKernel
    from repro.ir.printer import format_tdfg
    from repro.ir.tdfg import TensorDFG
    from repro.pipeline.manager import PassManager
    from repro.runtime.jit import JITCompiler
    from repro.uarch.tensor_ctrl import TensorControllers

    wrap_ops(patches)
    patches.method(InstantiatedKernel, "region_at", "frontend.region_at")
    patches.method(TensorDFG, "fingerprint", "ir.fingerprint")
    patches.method(JITCompiler, "compile_region", "runtime.jit")
    patches.method(TensorControllers, "execute", "uarch.tc_execute")
    patches.method(PassManager, "run", "pipeline")
    patches.function(format_tdfg, "ir.format_tdfg")
    patches.function(compile_fat_binary, "backend.fatbinary")
    patches.function(
        optimize_tdfg, "egraph.optimize", observe=counters.observe_optimize
    )


def wrap_serve_client(patches: Patches) -> None:
    from repro.serve.client import ServeClient

    patches.method(ServeClient, "submit", "serve.submit")
    patches.method(ServeClient, "status", "serve.status")


def layer_metrics(
    recorder: SpanRecorder, wall_s: float, extra: dict[str, float]
) -> dict[str, float]:
    """Every PER_LAYER metric from one traced window.

    *wall_s* is the window's thread-seconds (wall time for one thread);
    ``trace.unattributed_s`` is the part of it no top-level span covers,
    so self times plus it sum to *wall_s*.
    """
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for span, (seconds, calls) in self_times(recorder.spans).items():
        prefix = SPAN_METRICS.get(span)
        if prefix is None:
            continue
        values[f"{prefix}_s"] = seconds
        if f"{prefix}_calls" in values:
            values[f"{prefix}_calls"] = float(calls)
    values["trace.wall_s"] = wall_s
    values["trace.unattributed_s"] = wall_s - top_level_seconds(recorder.spans)
    values.update(extra)
    unknown = set(values) - {name for name, _unit in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return values


def nesting_problems(recorder: SpanRecorder, unattributed_s: float) -> list[str]:
    """Self times and the unattributed rest sum to the traced wall by
    construction; they are all non-negative only if every span nests
    inside its parent and the top-level spans fit in the window."""
    problems = [
        f"{name}: negative self time {seconds}"
        for name, (seconds, _calls) in self_times(recorder.spans).items()
        if seconds < -1e-9
    ]
    if unattributed_s < -1e-9:
        problems.append(f"spans exceed the traced wall by {-unattributed_s}s")
    return problems


def format_layer_table(recorder: SpanRecorder, wall_s: float) -> str:
    rows = sorted(
        self_times(recorder.spans).items(), key=lambda kv: -kv[1][0]
    )
    unattributed = wall_s - top_level_seconds(recorder.spans)
    lines = [f"{'layer':<22} {'self s':>10} {'share':>7} {'calls':>9}"]
    for name, (seconds, calls) in rows:
        share = seconds / wall_s if wall_s else 0.0
        lines.append(f"{name:<22} {seconds:>10.4f} {share:>7.1%} {calls:>9}")
    share = unattributed / wall_s if wall_s else 0.0
    lines.append(f"{'unattributed':<22} {unattributed:>10.4f} {share:>7.1%}")
    lines.append(f"{'traced wall':<22} {wall_s:>10.4f}")
    return "\n".join(lines)
