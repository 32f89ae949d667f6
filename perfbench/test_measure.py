"""Tests of the benchmark's own helpers; none runs a workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from perfbench.measure import (
    OpTally,
    Patches,
    SpanRecorder,
    percentile,
    self_times,
    top_level_seconds,
)


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.90) == 90

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert percentile(samples, 0.5, min_beyond=0) == 3.0

    def test_p90_needs_ten_samples_beyond(self):
        assert percentile(range(100), 0.90) == 89  # rank 90, 10 beyond
        with pytest.raises(ValueError, match="9 beyond"):
            percentile(range(99), 0.90)  # rank 90 of 99: 9 beyond

    def test_p50_needs_twenty_samples(self):
        assert percentile(range(20), 0.50) == 9  # rank 10, 10 beyond
        with pytest.raises(ValueError):
            percentile(range(19), 0.50)

    def test_rule_can_be_waived_explicitly(self):
        assert percentile([0.3, 0.1, 0.2], 0.90, min_beyond=0) == 0.3

    def test_rejects_empty_and_bad_quantiles(self):
        with pytest.raises(ValueError):
            percentile([], 0.5, min_beyond=0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.0, min_beyond=0)


class TestOpTally:
    def test_counts_attempts_and_failures(self):
        tally = OpTally()
        for name in ("a", "b", "c"):
            with tally.op(name):
                if name == "b":
                    raise KeyError("boom")
        assert (tally.attempted, tally.failed, tally.succeeded) == (3, 1, 2)
        assert tally.failure_kinds() == {("b", "KeyError")}

    def test_failed_share_is_the_same_for_whole_rounds(self):
        shares = []
        for rounds in (1, 2, 5):
            tally = OpTally()
            for _ in range(rounds):
                for index in range(10):
                    with tally.op(f"k{index}"):
                        if index == 5:
                            raise RuntimeError
            shares.append(tally.failed / tally.attempted)
        assert shares == [0.1, 0.1, 0.1]

    def test_does_not_swallow_interrupts(self):
        tally = OpTally()
        with pytest.raises(KeyboardInterrupt):
            with tally.op("x"):
                raise KeyboardInterrupt
        assert tally.failed == 0


def _span(name, start, end, parent=-1, thread=0):
    return [name, start, end, parent, thread]


class TestSelfTimes:
    def test_nested_spans_subtract_children(self):
        spans = [
            _span("outer", 0.0, 10.0),
            _span("mid", 1.0, 6.0, parent=0),
            _span("leaf", 2.0, 3.0, parent=1),
            _span("leaf", 4.0, 5.5, parent=1),
            _span("mid", 7.0, 9.0, parent=0),
        ]
        times = self_times(spans)
        assert times["outer"] == pytest.approx((3.0, 1))
        assert times["mid"] == pytest.approx((4.5, 2))
        assert times["leaf"] == pytest.approx((2.5, 2))
        assert top_level_seconds(spans) == pytest.approx(10.0)
        total = sum(s for s, _ in times.values())
        assert total == pytest.approx(top_level_seconds(spans))

    def test_recorder_builds_the_tree_per_thread(self):
        recorder = SpanRecorder()
        inner = recorder.wrap(lambda: time.sleep(0.01), "inner")
        outer = recorder.wrap(lambda: inner() or inner(), "outer")

        threads = [threading.Thread(target=outer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        by_name = {}
        for rec in recorder.spans:
            by_name.setdefault(rec[0], []).append(rec)
        assert len(by_name["outer"]) == 2 and len(by_name["inner"]) == 4
        for rec in by_name["inner"]:
            parent = recorder.spans[rec[3]]
            assert parent[0] == "outer" and parent[4] == rec[4]
        assert len(recorder.durations(["outer", "inner"])) == 2

    def test_span_closes_on_exception(self):
        recorder = SpanRecorder()

        def fail():
            raise ValueError

        with pytest.raises(ValueError):
            recorder.wrap(fail, "f")()
        assert recorder.spans[0][2] is not None


class _Target:
    def work(self, x):
        return x + 1


class TestPatches:
    def test_wraps_and_restores_methods(self):
        original = _Target.__dict__["work"]
        recorder = SpanRecorder()
        with Patches(recorder) as patches:
            patches.method(_Target, "work", "target.work")
            assert _Target().work(1) == 2
        assert _Target.__dict__["work"] is original
        _Target().work(1)
        assert [rec[0] for rec in recorder.spans] == ["target.work"]

    def test_wraps_module_functions_wherever_the_program_binds_them(self):
        def target(x):
            return x * 2

        modules = {
            name: types.ModuleType(name)
            for name in ("repro.fake_a", "repro.fake_b", "elsewhere")
        }
        for module in modules.values():
            module.target = target
        sys.modules.update(modules)
        try:
            recorder = SpanRecorder()
            seen = []
            with Patches(recorder) as patches:
                patches.function(
                    target, "t", observe=lambda args, result: seen.append((args, result))
                )
                assert modules["repro.fake_a"].target(2) == 4
                assert modules["repro.fake_b"].target(3) == 6
                assert modules["elsewhere"].target is target
            assert all(m.target is target for m in modules.values())
            assert [rec[0] for rec in recorder.spans] == ["t", "t"]
            assert seen == [((2,), 4), ((3,), 6)]
        finally:
            for name in modules:
                sys.modules.pop(name, None)
