#!/usr/bin/env python3
"""Start ``repro serve`` with spans around its store and pool calls.

Usage: ``serve_launcher.py SPANS_OUT [repro serve options]``.  Wraps
``ResultStore.__init__``/``get``/``put_many`` and ``DispatchPool.run`` in
spans tagged with the job's spec hash, runs ``repro.serve.serve_forever``
until SIGINT, then writes the spans to ``SPANS_OUT`` as a JSON list.  Only
the traced serve-mixed pass uses it; the timed passes run the plain CLI.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench.common import Spans, patched  # noqa: E402


def main(argv) -> int:
    from repro.cli import main as cli_main
    from repro.harness.pool import DispatchPool
    from repro.harness.scenario import Scenario
    from repro.harness.store import ResultStore

    out, serve_args = argv[0], argv[1:]
    spans = Spans()
    store_init = ResultStore.__init__
    store_get = ResultStore.get
    store_put_many = ResultStore.put_many
    pool_run = DispatchPool.run

    def init(self, path):
        with spans.span("ResultStore", "harness.store"):
            store_init(self, path)

    def get(self, spec_hash):
        start = time.perf_counter_ns()
        record = store_get(self, spec_hash)
        spans.add("get", "harness.store", start, time.perf_counter_ns(),
                  job=spec_hash, hit=record is not None)
        return record

    def put_many(self, records):
        job = records[0]["spec_hash"] if len(records) == 1 else ""
        with spans.span("put_many", "harness.store", job=job):
            store_put_many(self, records)

    def run(self, fn, args=(), *, timeout=None):
        job = Scenario.from_dict(args[0]).spec_hash()
        with spans.span("DispatchPool.run", "harness.pool", job=job):
            return pool_run(self, fn, args, timeout=timeout)

    with patched([(ResultStore, "__init__", init), (ResultStore, "get", get),
                  (ResultStore, "put_many", put_many),
                  (DispatchPool, "run", run)]):
        code = cli_main(["serve", *serve_args])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump([{"sid": s.sid, "parent": s.parent, "name": s.name,
                    "layer": s.layer, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "args": s.args} for s in spans.spans],
                  fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
