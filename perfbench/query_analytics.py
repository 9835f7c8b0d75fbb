"""``query-analytics``: four query algorithms through run_suite on a pool.

k-core, label propagation, triangle counting and Jaccard similarity on one
symmetrised, edge-sampled graph (800 vertices, 6,000 edges, 16x16 chip,
8-slot edge lists), run by ``run_suite(jobs=2)`` on an explicit
``WorkerPool(2)`` into a fresh result store.  It is the read side of the
simulator layers (query diffusion dominates; ingest is small) plus the batch
pool and one ``put_many``.  k-core's task is the critical path.

The graph is fixed (``DatasetSpec(seed=5)``, the graph whose summaries the
gate quotes: k-core 9/800, triangles 4,251, Jaccard 4,847 pairs, 20
communities).  Across block-model seeds this suite's cycle count spans more
than 4x, so ``--seed`` does not redraw it; the seed is recorded only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

from perfbench import gate
from perfbench.common import (
    OUT_DIR,
    ROOT,
    SRC,
    Result,
    Spans,
    layer_metrics,
    median,
    patched,
    peak_rss_mb,
    record_metrics,
)

NAME = "query-analytics"
ALGORITHMS = ("kcore", "labelprop", "triangles", "jaccard")
WORKERS = 2
SETUP_PROBES = 5

#: What every ``repro suite run`` pays before its first task: importing the
#: harness and starting the pool, in a fresh interpreter.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import repro.harness
from repro.harness.pool import WorkerPool
pool = WorkerPool({workers})
print(time.perf_counter() - t0)
pool.shutdown()
"""


def scenarios() -> List[Any]:
    from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

    dataset = DatasetSpec(vertices=800, edges=6_000, sampling="edge",
                          symmetric=True, num_increments=10, seed=5)
    chip = ChipSpec(side=16, edge_list_capacity=8)
    return [Scenario(name=f"query-{a}", dataset=dataset, chip=chip,
                     algorithm=a) for a in ALGORITHMS]


def setup_seconds() -> List[float]:
    code = _PROBE.format(src=SRC, workers=WORKERS)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.split()[0]))
    return times


def _fresh_store(tag: str):
    from repro.harness.store import ResultStore

    path = os.path.join(OUT_DIR, f"{NAME}-{tag}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    return ResultStore(path)


def _plain_rep(pool, suite, index: int) -> Dict[str, Any]:
    from repro.harness.runner import run_suite

    store = _fresh_store(f"plain{index}")
    t0 = time.perf_counter()
    report = run_suite(suite, jobs=WORKERS, pool=pool, store=store)
    return {"report": report, "suite_s": time.perf_counter() - t0}


def _traced_rep(pool, suite, index: int, spans: Spans) -> Dict[str, Any]:
    """run_suite with its own tracer and per-scenario simulator traces.

    Pool task spans come from ``run_suite(tracer=...)``; the simulator's
    per-diffusion spans (with phase timers) from ``trace_base``.  Both are
    re-based onto this process's clock under the suite's root span.
    """
    from repro.harness.runner import run_suite
    from repro.harness.store import ResultStore
    from repro.obs import Tracer, derive_trace_path

    w = spans.wrapper
    base = os.path.join(OUT_DIR, f"{NAME}-sim{index}.json")
    tracer = Tracer(process_name=NAME)
    with patched([
        (ResultStore, "__init__", w(ResultStore.__init__, "ResultStore", "harness.store")),
        (ResultStore, "put_many", w(ResultStore.put_many, "put_many", "harness.store")),
    ]):
        store = _fresh_store(f"traced{index}")
        t0 = time.perf_counter()
        with spans.span("run_suite", "harness.runner") as root:
            report = run_suite(suite, jobs=WORKERS, pool=pool, store=store,
                               tracer=tracer, trace_base=base)
        suite_s = time.perf_counter() - t0
    root_span = next(s for s in spans.spans if s.sid == root)
    events = tracer.to_dict()["traceEvents"]
    anchor = next(e for e in events if e.get("name") == "suite_run")
    for event in events:
        if event.get("name") != "pool_task":
            continue
        start = root_span.start_ns + int((event["ts"] - anchor["ts"]) * 1000)
        end = start + int(event["dur"] * 1000)
        task = spans.add("pool_task", "harness.pool", start, end, parent=root)
        sim_path = derive_trace_path(base, suite[event["args"]["task_id"]].name)
        _add_sim_spans(spans, sim_path, task, start)
    return {"report": report, "suite_s": suite_s, "store": store}


def _add_sim_spans(spans: Spans, path: str, parent: int, start: int) -> None:
    """A worker's simulator spans, laid end to end from its task's start.

    Only durations cross the process boundary.  Increment diffusions count
    to ``graph``, query diffusions to ``algorithms``, and the phase timers
    inside each to ``arch``.
    """
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    cursor = start
    for event in events:
        if event.get("ph") != "X" or event.get("cat") != "sim":
            continue
        layer = "graph" if event["name"].startswith("increment-") else "algorithms"
        end = cursor + int(event["dur"] * 1000)
        sid = spans.add(f"sim:{event['name']}", layer, cursor, end, parent=parent)
        phases = {k[:-3]: v * 1000 for k, v in event["args"].items()
                  if k.endswith("_us")}
        spans.add("Simulator.phases", "arch", cursor,
                  cursor + int(sum(phases.values())), parent=sid, **phases)
        cursor = end


def _check(result: Result, reps: List[Dict[str, Any]], suite) -> None:
    expected = {s.name: gate.expected_for(s) for s in suite}
    first = {r["name"]: r for r in reps[0]["report"].records}
    for i, rep in enumerate(reps):
        report = rep["report"]
        result.check([f"{o.scenario.name}: {o.status} {o.error or ''}"
                      for o in report.failures], f"{NAME} suite {i}")
        for record in report.records:
            result.check(gate.check_record(record, expected[record["name"]],
                                           first=first.get(record["name"])),
                         f"{NAME} suite {i} {record['name']}")


def run(seed: int, seconds: float, trace: bool, result: Result,
        spans: Spans) -> None:
    from repro.harness.pool import WorkerPool
    from repro.harness.runner import run_suite
    from repro.harness.scenario import DatasetSpec

    suite = scenarios()
    probes = [] if trace else setup_seconds()
    pool = WorkerPool(WORKERS)
    try:
        # Warm the workers' imports on a throwaway suite.
        small = DatasetSpec(vertices=60, edges=300, symmetric=True, seed=1)
        run_suite([s.with_(dataset=small) for s in suite], jobs=WORKERS,
                  pool=pool)
        plain: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        while (not plain or (trace and not traced)
               or time.perf_counter() < deadline):
            if trace and len(traced) < len(plain):
                traced.append(_traced_rep(pool, suite, len(traced), spans))
            else:
                plain.append(_plain_rep(pool, suite, len(plain)))
        rss = max(peak_rss_mb(pid) for pid in pool.worker_pids() + [os.getpid()])
    finally:
        pool.shutdown()
    _check(result, plain + traced, suite)

    records = plain[0]["report"].records
    edges = sum(sum(r["increment_sizes"]) for r in records)
    suite_s = [r["suite_s"] for r in plain]
    result.note("runs", len(plain))
    result.note("suite_s (median)", round(median(suite_s), 4), "s")
    if not trace:
        result.metric("setup_s", median(probes), "s")
        result.metric("edges_per_s", median([edges / s for s in suite_s]),
                      "edges/s")
        result.metric("update_p50_ms", median(suite_s) * 1e3, "ms")
        result.metric("jobs_per_s", len(records) * len(plain) / sum(suite_s),
                      "1/s")
        result.metric("sim_cycles", sum(r["total_cycles"] for r in records),
                      "cycles")
        result.metric("peak_rss_mb", rss, "MB")
        return

    n = len(traced)
    record_metrics(result, [r for rep in traced for r in rep["report"].records],
                   spans, runs=n)
    stream_s = sum(s.dur_s for s in spans.spans
                   if s.name.startswith("sim:increment-")) / n
    traced_suite_s = median([r["suite_s"] for r in traced])
    task_s = spans.total_s("pool_task") / n
    result.metric("graph.stream_s", stream_s, "s")
    result.metric("algorithms.query_s", sum(
        s.dur_s for s in spans.spans if s.layer == "algorithms") / n, "s")
    result.metric("pool.task_s", task_s, "s")
    result.metric("pool.idle_ratio",
                  1.0 - task_s / (WORKERS * traced_suite_s), "ratio")
    puts = spans.named("put_many")
    result.metric("store.put_ms", median([s.dur_s for s in puts]) * 1e3, "ms")
    result.metric("store.load_s", median(
        [s.dur_s for s in spans.named("ResultStore") if s.parent == 0]), "s")
    result.metric("store.rewrites", len(puts) / n, "count")
    result.metric("store.misses", median(
        [r["report"].cache_misses for r in traced]), "count")
    result.metric("store.bytes", os.path.getsize(traced[-1]["store"].path),
                  "bytes")
    result.metric("trace_overhead", traced_suite_s / median(suite_s), "ratio")
    layer_metrics(result, spans, n)
