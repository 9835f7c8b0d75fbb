#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-bfs [--seed 7] [--seconds 50] [--trace 0]

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs traced and untraced passes side by side and reports the
per-layer metrics, ``trace_overhead`` included, and writes the spans as a
Chrome trace under ``.perfbench_out/``.  A per-layer metric of a layer the
workload does not exercise (or cannot see from outside) reads 0.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness check passed.

``query-analytics`` runs by hand only; BENCHMARK.json gates ``stream-bfs``
and ``serve-mixed`` (perfbench/README.md says why).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import OUT_DIR, SRC, Result, Spans, provenance  # noqa: E402

WORKLOADS = ("stream-bfs", "query-analytics", "serve-mixed")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, not {SRC}")


def _complete(result: Result, trace: bool) -> None:
    """Fill the metric set BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    if trace:
        for entry in catalogue["per_layer"]:
            result.metrics.setdefault(
                entry["name"], {"value": 0, "unit": entry["unit"]})
    else:
        result.metric("success_rate", result.success_rate(), "ratio")
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    names = {e["name"] for e in wanted}
    for entry in wanted:
        got = result.metrics.get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            raise SystemExit(f"perfbench: metric {entry['name']} missing or "
                             f"not in {entry['unit']}: {got}")
    result.metrics = {k: v for k, v in result.metrics.items() if k in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    # Stores, checkpoint spills and traces stay inside the checkout.
    os.environ["TMPDIR"] = OUT_DIR
    tempfile.tempdir = OUT_DIR

    from perfbench import query_analytics, serve_mixed, stream_bfs

    module = {"stream-bfs": stream_bfs, "query-analytics": query_analytics,
              "serve-mixed": serve_mixed}[args.workload]
    meta = provenance(args.workload, args.seed)
    meta["trace"] = args.trace
    print("provenance " + json.dumps(meta, sort_keys=True), flush=True)

    result = Result()
    spans = Spans()
    started = time.perf_counter()
    try:
        module.run(args.seed, args.seconds, bool(args.trace), result, spans)
    except Exception as exc:  # report, count as a failed operation
        import traceback

        traceback.print_exc()
        result.check([f"{type(exc).__name__}: {exc}"], args.workload)
    elapsed = time.perf_counter() - started

    if result.correct:
        _complete(result, bool(args.trace))
    if args.trace and spans.spans:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        spans.save(path, meta)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    for name, (value, unit) in result.notes.items():
        print(f"  {name:<36} {value} {unit}")
    for name, metric in result.metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    for error in result.errors:
        print(f"FAIL {error}")
    print(f"{args.workload}: {result.attempted} checked, {result.failed} "
          f"failed, {elapsed:.1f} s", flush=True)

    out = {"correct": result.correct, "attempted": max(1, result.attempted),
           "failed": result.failed if result.attempted else 1,
           "metrics": result.metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": meta, **out}, fh, indent=1, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
