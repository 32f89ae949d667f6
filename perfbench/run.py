#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-golden --seed 1 \
        --seconds 15 --trace 0

With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` every per-layer metric, taken from a second, traced window
of the same work, and the spans are written under ``.bench_run/``.
Human-readable detail goes to stderr (and the layer table to stdout);
the last stdout line is the result.  Exit 0 means the run completed —
``correct`` says whether its outputs passed their checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("campaign-golden", "compile-opt", "serve-fleet")

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("opt_cost", "cost"),
    ("opt_speedup", "x"),
]


def _metrics_json(values: dict, spec) -> dict:
    names = [name for name, _unit in spec]
    if sorted(values) != sorted(names):
        raise KeyError(
            f"metric set mismatch: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit} for name, unit in spec
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )

    from perfbench import RUN_DIR, layers

    module = importlib.import_module(
        "perfbench." + args.workload.replace("-", "_")
    )
    out = module.run(args.seed, args.seconds, bool(args.trace), env)
    tally, problems = out["tally"], out["problems"]

    print(f"{args.workload}: {out['log']}", file=sys.stderr)
    for name, kind, message in tally.failures:
        print(f"failed op {name}: {kind}: {message}", file=sys.stderr)

    if args.trace:
        recorder, wall, extra = out["trace"]
        values = layers.layer_metrics(recorder, wall, extra)
        problems += layers.nesting_problems(recorder, values["trace.unattributed_s"])
        metrics = _metrics_json(values, layers.PER_LAYER)
        RUN_DIR.mkdir(exist_ok=True)
        path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "metrics": values,
                    "spans": recorder.to_json(),
                }
            )
        )
        print(layers.format_layer_table(recorder, wall))
        print(
            f"tracing overhead {values['trace.overhead_ratio']:+.1%}; "
            f"{len(recorder.spans)} spans -> {path.relative_to(ROOT)}"
        )
    else:
        metrics = _metrics_json(out["metrics"], END_TO_END)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
