"""End-to-end benchmark of the Infinity Stream reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the repository root and prints one JSON result
line; see ``perfbench/README.md``.
"""

from pathlib import Path

#: The checkout the benchmark runs in, and its scratch directory.
ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
