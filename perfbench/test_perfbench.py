"""Tests of the benchmark itself: the traced run leaves the program as
it found it and does not change its outputs, and the self-time
arithmetic is right.  Workloads run here at toy sizes."""

from __future__ import annotations

import sys
from array import array

import pytest

from perfbench import layers, run
from perfbench.tracing import Spans, Tracer, covered, self_times
from perfbench.workloads import (
    FaultGrid,
    LineSweep,
    ServiceMix,
    VerifyModel,
    digest,
    is_spanning_line,
)


class TinyLine(LineSweep):
    sizes = (10, 14)

    def trial_seconds(self, n):
        return 0.25


class TinyGrid(FaultGrid):
    loads = (0, 1)
    n = 12
    trials = 1
    max_steps = 200_000
    sequential_n = 6
    sequential_max_steps = 20_000


class TinyService(ServiceMix):
    sizes = ((6,), (8,))
    jobs_per_second = 4


class TinyVerify(VerifyModel):
    cells = (("global-star", 5),)


TINY = {
    "line-sweep": (TinyLine, 1.0),
    "fault-grid": (TinyGrid, 1.0),
    "service-mix": (TinyService, 1.5),
    "verify-model": (TinyVerify, 0.2),
}


def _snapshot() -> dict:
    """Identity of every attribute of every ``repro`` module and class,
    plus the job service's executor table."""
    from repro.service.jobs import JOB_KINDS

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = id(member)
    for kind, entry in JOB_KINDS.items():
        seen[("JOB_KINDS", kind)] = tuple(id(x) for x in entry)
    return seen


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_restores_wrappers_and_keeps_outputs(name, tmp_path):
    cls, seconds = TINY[name]
    ops = cls().plan(7, seconds)
    assert {op.kind for op in ops} == {"cold", "warm"}
    _, plain, _ = run.execute(cls, ops, tmp_path)
    before = _snapshot()
    tracer = Tracer()
    workload, traced, _ = run.execute(cls, ops, tmp_path, tracer)
    assert _snapshot() == before
    assert digest(traced) == digest(plain)
    failures, _ = workload.check(ops, traced)
    assert failures == []
    spans = tracer.spans()
    assert len(spans) > 0
    assert {layers.group_of(n) for n in spans.names} >= {"op.cold", "op.warm"}


def test_untraced_run_restores_the_engine_tap(tmp_path):
    before = _snapshot()
    run.execute(TinyLine, TinyLine().plan(3, 1.0), tmp_path)
    assert _snapshot() == before


def _spans(rows, names=("a:root", "b:kid", "b:kid2", "c:leaf")):
    """rows: (name id, parent, start, end)."""
    return Spans(
        list(names),
        array("i", [r[0] for r in rows]),
        array("q", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
        [0] * len(names),
    )


def test_self_time_subtracts_children_once():
    spans = _spans([
        (0, -1, 0.0, 10.0),   # root
        (1, 0, 1.0, 3.0),     # child
        (2, 0, 6.0, 7.0),     # child
        (3, 2, 6.5, 6.8),     # grandchild
    ])
    assert self_times(spans) == pytest.approx([7.0, 2.0, 0.7, 0.3])


def test_self_time_counts_overlapping_children_once():
    spans = _spans([
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 3.0),
        (1, 0, 2.0, 4.0),     # overlaps the previous child
        (2, 0, 3.5, 5.0),     # overlaps it too
        (3, 0, 9.0, 12.0),    # runs past the parent's end
        (0, -1, 20.0, 21.0),  # a second root, no children
    ])
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.5, 3.0, 1.0])
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)


def test_aggregate_counts_outermost_calls_and_folds_same_group():
    tracer = Tracer()

    def leaf(x):
        return x

    def inner(x):
        return leaf_traced(x) + 1

    leaf_traced = tracer.traced(leaf, "g:leaf")
    inner_traced = tracer.traced(inner, "g:inner")
    other = tracer.traced(lambda x: inner_traced(x), "h:outer")
    for i in range(3):
        other(i)
    inner_traced(0)
    spans = tracer.spans()
    agg = layers.aggregate(spans)
    assert agg["calls"]["g"] == 4
    assert agg["calls"]["h"] == 3
    assert agg["count"]["g:leaf"] == 4
    assert len(spans) == 7  # leaf calls fold into their g:inner span
    roots = sum(e - s for p, s, e in zip(spans.parent, spans.start, spans.end) if p < 0)
    assert agg["self_s"]["g"] + agg["self_s"]["h"] == pytest.approx(roots)


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 11)]) == (50.0, 5.5)
    assert run.tail([float(i) for i in range(1, 40)]) == (50.0, 20.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (75.0, 750.0)


def test_pooled_sums_walls_and_pools_latencies():
    outs = [
        {"wall_s": 2.0, "ops": 4, "effective": 100, "configs": 10,
         "latency_s": {"cold": [0.1, 0.3], "warm": [0.2]}, "peak_rss_mb": 50.0},
        {"wall_s": 3.0, "ops": 6, "effective": 400, "configs": 40,
         "latency_s": {"cold": [0.2], "warm": [0.4, 0.6]}, "peak_rss_mb": 70.0},
    ]
    metrics, notes = run.pooled(outs, [1.0, 3.0, 2.0])
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert metrics["setup_s"] == 2.0
    assert metrics["wall_s"] == 5.0
    assert metrics["eff_per_s"] == pytest.approx(100.0)
    assert metrics["configs_per_s"] == pytest.approx(10.0)
    assert metrics["jobs_per_s"] == pytest.approx(2.0)
    assert metrics["cold_p50_ms"] == pytest.approx(200.0)
    assert metrics["warm_p50_ms"] == pytest.approx(400.0)
    assert metrics["peak_rss_mb"] == 70.0
    assert notes["cold_p50_ms"] == "median of 3 ops"


def test_pin_to_one_core_returns_what_to_restore():
    import os

    before = os.sched_getaffinity(0)
    try:
        assert run.pin_to_one_core() == before
        assert len(os.sched_getaffinity(0)) == 1
    finally:
        os.sched_setaffinity(0, before)


def test_spanning_line_check():
    assert is_spanning_line([0, 1, 2, 3], [(0, 2), (2, 1), (1, 3)])
    assert not is_spanning_line([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)])  # a star
    assert not is_spanning_line([0, 1, 2, 3], [(0, 1), (2, 3)])  # too few edges
    assert not is_spanning_line([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0)])  # a cycle
