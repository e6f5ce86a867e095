"""Tracer bookkeeping, and BENCHMARK.json naming what run.py prints.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import Tracer, percentile_ms  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans[:] = [
        (1, 0, "outer", 0.0, 10.0),
        (2, 1, "child", 1.0, 4.0),
        (3, 1, "child", 3.0, 5.0),  # overlaps the first child
        (4, 1, "child", 8.0, 12.0),  # runs past the parent's end
        (5, 2, "grandchild", 1.5, 2.0),
    ]
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["s"] == 10.0
    assert summary["outer"]["self_s"] == 10.0 - 4.0 - 2.0
    assert summary["child"]["calls"] == 3
    assert summary["child"]["self_s"] == (3.0 - 0.5) + 2.0 + 4.0


def test_pool_threads_nest_under_the_main_thread_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: x, "leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(20)))

    root = tracer.wrap(fan_out, "root")
    assert root() == list(range(20))
    by_name = {}
    for span_id, parent, name, _, _ in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent))
    (root_id, root_parent), = by_name["root"]
    assert root_parent == 0
    assert {parent for _, parent in by_name["leaf"]} == {root_id}


def test_install_wraps_aliases_and_uninstall_restores_them():
    from conceptgraph import pipeline, query, recovery, textnorm

    before = (query.execute, pipeline.execute, textnorm.mentions_concept, recovery.mentions_concept)
    tracer = Tracer()
    tracer.install()
    try:
        assert pipeline.execute is query.execute is not before[0]
        assert recovery.mentions_concept is textnorm.mentions_concept is not before[2]
        assert textnorm.mentions_concept("a b c", "b c")
    finally:
        tracer.uninstall()
    assert (query.execute, pipeline.execute, textnorm.mentions_concept, recovery.mentions_concept) == before
    assert tracer.summary()["textnorm.mentions_concept"]["calls"] == 1


def test_percentile_ms():
    assert percentile_ms([0.001] * 99 + [1.0], 50) == 1.0
    assert percentile_ms([0.002], 98) == 2.0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better) in run.PER_LAYER.items()
    }


def test_counts_from_many_threads_add_up():
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(lambda: [tracer.add("n", 1) for _ in range(5000)]) for _ in range(8)]:
                future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.counts["n"] == 40000
