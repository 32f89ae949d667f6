"""The Table-3 kernels: the benchmark's compile inputs and the seeded
validation inputs its correctness checks run through the golden
interpreter.

Timed work uses the golden-fixture scale (``SCALE``); checks use
validation sizes — the smallest shapes at which every statement of a
kernel still runs a full stencil / filter / reduction, small enough for
the pure-Python golden interpreter.  Array contents come from
``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np

#: The golden-fixture scale of tests/test_golden_figures.py.
SCALE = 0.05

#: kernel program name -> parameters for validation runs.
VALIDATION_PARAMS = {
    "stencil1d": {"N": 64},
    "stencil2d": {"M": 16, "N": 16},
    "stencil3d": {"P": 4, "M": 12, "N": 12},
    "dwt2d": {"M": 8, "Nh": 16},
    "gauss_elim": {"N": 12},
    "conv2d": {"M": 16, "N": 16, "C0": 1, "C1": 2, "C2": 4},
    "conv3d": {"H": 8, "W": 8, "I": 4, "O": 4},
    "mm": {"M": 16, "N": 16, "K": 16},
    "kmeans": {"P": 16, "D": 8, "C": 8},
    "gather_mlp": {"M": 16, "N": 8, "K": 8, "PP": 32},
}

#: fp32 comparison tolerance for compiled paths against the interpreter.
RTOL = 3e-4
ATOL = 1e-4


def table3_workloads():
    """The ten Table-3 workloads at the golden scale (Fig 11's set)."""
    from repro.workloads.suite import paper_workloads

    return paper_workloads(SCALE)


def first_region_cost(workloads) -> float:
    """Summed e-graph cost of each workload's first region as built.

    For workloads that run with the optimizer off: the cost before any
    rewriting, which one saturation iteration already reports.
    """
    from repro import api

    total = 0.0
    for wl in workloads:
        _tdfg, report = api.optimize(
            wl.program, wl.params, dataflow=wl.dataflow, max_iterations=1
        )
        total += report.cost_before
    return total


def validation_arrays(program, params: dict, seed: int) -> dict:
    """Seeded fp32 inputs for *program*; index arrays draw valid rows.

    Gaussian elimination without pivoting is only stable on diagonally
    dominant matrices: on a plain uniform [1, 2) matrix some seeds grow
    entries to ~1e4, where the fp32 interpreter itself disagrees with
    fp64 by more than the tolerance.  Its ``A`` gets ``N`` added to the
    diagonal.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for name, dims in program.array_shapes:
        shape = tuple(params[d] if isinstance(d, str) else d for d in dims)
        if name == "idx":
            pool = params.get("PP", shape[0])
            out[name] = rng.integers(0, pool, size=shape).astype(np.float32)
        else:
            out[name] = rng.uniform(1.0, 2.0, size=shape).astype(np.float32)
    if program.name == "gauss_elim":
        out["A"] += np.float32(params["N"]) * np.eye(params["N"], dtype=np.float32)
    return out


def compare(name: str, got: dict, want: dict, problems: list[str]) -> None:
    """Append a line to *problems* for every array that diverges."""
    for array, expected in want.items():
        if not np.allclose(got[array], expected, rtol=RTOL, atol=ATOL):
            err = float(np.max(np.abs(got[array] - expected)))
            problems.append(f"{name}: array {array} diverges (max abs err {err:.3g})")
