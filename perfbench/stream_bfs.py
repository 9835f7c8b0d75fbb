"""``stream-bfs``: streaming incremental BFS, in process, through run_scenario.

The paper's headline workload: the 500K-class snowball stream at 1/250
scale (2,000 vertices, 40,800 edges, 10 increments) on the paper's 32x32
chip, with the BFS result updated on every increment.  Nearly all of its
time is in ``graph``/``runtime``/``arch``/``algorithms``; pool, store and
serve do no work here.

The stream is the fixed dataset ``DatasetSpec(seed=7)``.  ``--seed`` draws
the BFS roots: ``ROOTS`` vertices that the first increment already holds, as
the crawl's own start vertex is.  A run streams every root at least once,
and its figures are per-root medians, so every root weighs the same.  Drawing the
graph itself from the seed would make the workload's cost swing several-fold
from seed to seed (the degree-corrected block model's hubs decide the ghost
chains), which no bound could hold.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Any, Dict, List

from perfbench import gate
from perfbench.common import (
    Result,
    Spans,
    layer_metrics,
    median,
    patched,
    peak_rss_mb,
    record_metrics,
)

NAME = "stream-bfs"
#: BFS roots per round; ``sim_cycles`` is their mean.
ROOTS = 5


def scenarios(seed: int) -> List[Any]:
    """One scenario per BFS root the seed draws."""
    from repro.harness.runner import materialize_dataset
    from repro.harness.scenario import ChipSpec, DatasetSpec, RunOptions, Scenario

    dataset = DatasetSpec(vertices=2_000, edges=40_800, sampling="snowball",
                          num_increments=10, seed=7)
    first = sorted({v for edge in materialize_dataset(dataset).increments[0]
                    for v in (edge.src, edge.dst)})
    roots = random.Random(seed).sample(first, ROOTS)
    return [Scenario(name=NAME, dataset=dataset, chip=ChipSpec(side=32),
                     algorithm="bfs", options=RunOptions(root=root))
            for root in roots]


def _warm_up() -> None:
    """One small run on the same chip, so lazy set-up is not timed."""
    from repro.harness.runner import run_scenario
    from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

    run_scenario(Scenario(name="warm-up",
                          dataset=DatasetSpec(vertices=200, edges=1_000,
                                              sampling="snowball", seed=1),
                          chip=ChipSpec(side=32), algorithm="bfs"))


def _plain_rep(sc) -> Dict[str, Any]:
    """One untraced run: only stream_increment is timestamped."""
    from repro.graph.graph import DynamicGraph
    from repro.harness.runner import run_scenario

    stream_increment = DynamicGraph.stream_increment
    latencies: List[float] = []

    def timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return stream_increment(self, *args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)

    timings: Dict[str, float] = {}
    with patched([(DynamicGraph, "stream_increment", timed)]):
        t0 = time.perf_counter()
        record = run_scenario(sc, timings=timings)
        wall = time.perf_counter() - t0
    return {"record": record, "wall": wall, "latencies": latencies, **timings}


def _traced_rep(sc, spans: Spans) -> Dict[str, Any]:
    """One run with spans around every layer's public entry points."""
    from repro.algorithms.registry import get_algorithm
    from repro.graph.graph import DynamicGraph
    from repro.harness import runner
    from repro.runtime.device import AMCCADevice

    device_run = AMCCADevice.run

    def traced_device_run(self, *args, **kwargs):
        sim = self.simulator
        with spans.span("AMCCADevice.run", "runtime") as sid:
            before = dict(sim.phase_ns or {})
            start = time.perf_counter_ns()
            result = device_run(self, *args, **kwargs)
            delta = {p: ns - before.get(p, 0)
                     for p, ns in (sim.phase_ns or {}).items()}
            spans.add("Simulator.phases", "arch", start,
                      start + sum(delta.values()), parent=sid, **delta)
        return result

    algorithm_cls = get_algorithm(sc.algorithm).cls
    w = spans.wrapper
    targets = [
        (runner, "materialize_dataset",
         w(runner.materialize_dataset, "materialize_dataset", "datasets")),
        (AMCCADevice, "__init__",
         w(AMCCADevice.__init__, "AMCCADevice", "runtime")),
        (DynamicGraph, "__init__",
         w(DynamicGraph.__init__, "DynamicGraph", "graph")),
        (DynamicGraph, "stream_increment",
         w(DynamicGraph.stream_increment, "stream_increment", "graph")),
        (AMCCADevice, "run", traced_device_run),
        (algorithm_cls, "run", w(algorithm_cls.run, "Algorithm.run",
                                 "algorithms")),
        (AMCCADevice, "stats", w(AMCCADevice.stats, "finalize", "arch")),
        (AMCCADevice, "energy_report",
         w(AMCCADevice.energy_report, "finalize", "arch")),
        (DynamicGraph, "ghost_report",
         w(DynamicGraph.ghost_report, "finalize", "graph")),
    ]
    with patched(targets):
        t0 = time.perf_counter()
        with spans.span("run_scenario", "harness.runner"):
            record = runner.run_scenario(
                sc, device_setup=lambda d: d.simulator.enable_phase_timers())
        wall = time.perf_counter() - t0
    return {"record": record, "wall": wall}


def _check(result: Result, reps: List[Dict[str, Any]]) -> None:
    """Gate every record; repetitions of one root must be byte-identical."""
    expected: Dict[int, Dict[str, Any]] = {}
    first: Dict[int, Dict[str, Any]] = {}
    for i, rep in enumerate(reps):
        sc, record = rep["scenario"], rep["record"]
        root = sc.options.root
        if root not in expected:
            expected[root] = gate.expected_for(sc)
            first[root] = record
        result.check(gate.check_record(record, expected[root],
                                       first=first[root]),
                     f"{NAME} run {i} (root {root})")


def run(seed: int, seconds: float, trace: bool, result: Result,
        spans: Spans) -> None:
    suite = scenarios(seed)
    _warm_up()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    while (len(plain) < len(suite) or (trace and len(traced) < len(plain))
           or time.perf_counter() < deadline):
        # Each repetition starts without the previous one's garbage.
        gc.collect()
        if trace and len(traced) < len(plain):
            sc = suite[len(traced) % len(suite)]
            traced.append(dict(_traced_rep(sc, spans), scenario=sc))
        else:
            sc = suite[len(plain) % len(suite)]
            plain.append(dict(_plain_rep(sc), scenario=sc))
            if len(plain) == len(suite):
                # After one run per root, whatever the run count.
                rss = peak_rss_mb(os.getpid())
    _check(result, plain + traced)

    # Every root weighs the same: per-root medians over its repetitions.
    by_root: Dict[int, List[Dict[str, Any]]] = {}
    for rep in plain:
        by_root.setdefault(rep["scenario"].options.root, []).append(rep)

    def per_root(key: str) -> List[float]:
        return [median([r[key] for r in reps]) for reps in by_root.values()]

    increments = [median([r["latencies"][k] for r in reps])
                  for reps in by_root.values()
                  for k in range(len(reps[0]["latencies"]))]
    result.note("BFS roots", list(by_root))
    result.note("runs", len(plain))
    result.note("update_p50_ms (root x increment)", len(increments), "samples")
    if not trace:
        edges = sum(plain[0]["record"]["increment_sizes"])
        result.metric("setup_s", median([r["setup_s"] for r in plain]), "s")
        result.metric("edges_per_s", edges * len(by_root) / sum(per_root("sim_s")),
                      "edges/s")
        result.metric("update_p50_ms", median(increments) * 1e3, "ms")
        result.metric("jobs_per_s", len(by_root) / sum(per_root("wall")), "1/s")
        result.metric("sim_cycles", sum(reps[0]["record"]["total_cycles"]
                                        for reps in by_root.values())
                      / len(by_root), "cycles")
        result.metric("peak_rss_mb", rss, "MB")
        return

    n = len(traced)
    records = [r["record"] for r in traced]
    record_metrics(result, records, spans, runs=n)
    stream_s = spans.total_s("stream_increment") / n
    result.metric("datasets.generate_s",
                  spans.total_s("materialize_dataset") / n, "s")
    result.metric("runtime.device_build_s", spans.total_s("AMCCADevice") / n, "s")
    result.metric("graph.build_s", spans.total_s("DynamicGraph") / n, "s")
    result.metric("graph.stream_s", stream_s, "s")
    result.metric("graph.update_max_ms",
                  max(s.dur_s for s in spans.named("stream_increment")) * 1e3,
                  "ms")
    result.metric("graph.ns_per_message", stream_s * 1e9 * n / sum(
        r["stats"]["messages_delivered"] for r in records), "ns")
    result.metric("algorithms.query_s", spans.total_s("Algorithm.run") / n, "s")
    result.metric("runner.finalize_s", spans.total_s("finalize") / n, "s")
    result.metric("trace_overhead", median(
        [t["wall"] / p["wall"] for p, t in zip(plain, traced)]), "ratio")
    layer_metrics(result, spans, n)
    for p, t in zip(plain, traced):
        result.check(gate.check_bytes(gate.encode(t["record"]),
                                      gate.encode(p["record"])),
                     f"{NAME} traced record (root {t['scenario'].options.root})")
