"""Measurement helpers shared by the workloads.

* :func:`percentile` — nearest-rank quantile with the sample-count rule
  (a quantile is reported only when enough samples lie beyond it);
* :class:`OpTally` — attempted / failed operation counting;
* :class:`SpanRecorder` + :class:`Patches` — in-memory spans around
  entry points the benchmark wraps from outside the program, and
  :func:`self_times` to turn nested spans into per-layer self time;
* :func:`setup_times`, :func:`peak_rss_mb` — set-up time and memory.

Everything here is plain Python with no dependency on ``repro``, so the
tests in ``test_measure.py`` run without the heavy workloads.
"""

from __future__ import annotations

import functools
import math
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: A quantile is reported only when at least this many samples of the
#: run lie beyond it; with fewer it would describe one or two ops, not
#: the tail.
MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank *q*-quantile of *samples* (0 < q < 1).

    Raises :class:`ValueError` when fewer than *min_beyond* samples lie
    strictly beyond the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))  # 1-based
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"{min_beyond} are required"
        )
    return ordered[rank - 1]


@dataclass
class OpTally:
    """Counts operations attempted and the ones that raised."""

    attempted: int = 0
    #: (op name, exception type name, message) per failed op
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @contextmanager
    def op(self, name: str):
        """Count one op; an exception inside is recorded and swallowed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 — a failed op is data
            self.failures.append((name, type(exc).__name__, str(exc)))

    def failure_kinds(self) -> set[tuple[str, str]]:
        return {(name, kind) for name, kind, _ in self.failures}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """Spans kept in memory until the run ends.

    Each span is ``[name, start, end, parent index, thread id]``; the
    parent is the innermost open span of the same thread (-1 at top
    level), so nested calls form a tree per thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """*fn* recording a span named *name* around every call."""
        spans, lock, clock = self.spans, self._lock, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            rec = [
                name,
                clock(),
                None,
                stack[-1] if stack else -1,
                threading.get_ident(),
            ]
            with lock:
                stack.append(len(spans))
                spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return spanned

    def durations(self, names) -> list[float]:
        """Durations of the spans named in *names* that have no ancestor
        named in *names* (the outermost calls: one per op)."""
        names = set(names)
        out = []
        for rec in self.spans:
            if rec[0] not in names:
                continue
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(rec[2] - rec[1])
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": thread,
            }
            for name, start, end, parent, thread in self.spans
        ]


def self_times(spans) -> dict[str, tuple[float, int]]:
    """name -> (self seconds, calls).

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap (they share its thread).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _thread in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _parent, _thread) in enumerate(spans):
        seconds, calls = out.get(name, (0.0, 0))
        out[name] = (seconds + (end - start) - child[index], calls + 1)
    return out


def top_level_seconds(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _n, start, end, parent, _t in spans if parent < 0)


class Patches:
    """Swap entry points for span-recording wrappers; :meth:`restore`
    (or leaving the ``with`` block) puts the originals back."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self.recorder.wrap(cls.__dict__[attr], name))

    def function(self, fn, name: str, observe=None) -> None:
        """Wrap module-level *fn* in every loaded module that binds it.

        ``observe(args, result)`` runs after the span closes, so work it
        does is not charged to the layer.
        """
        spanned = self.recorder.wrap(fn, name)
        if observe is None:
            wrapper = spanned
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = spanned(*args, **kwargs)
                observe(args, result)
                return result

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            if module.__dict__.get(fn.__name__) is fn:
                self._set(module, fn.__name__, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Set-up time and memory
# ----------------------------------------------------------------------
def setup_times(code: str, env: dict, repeats: int) -> list[float]:
    """Wall seconds for *repeats* fresh interpreters each running *code*."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
