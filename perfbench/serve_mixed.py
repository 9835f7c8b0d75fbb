"""``serve-mixed``: a closed loop of two clients against ``repro serve``.

A ``repro serve --jobs 2`` subprocess starts on a store prefilled with 300
records, the shape a long-lived service's store reaches.  Two client
threads (distinct ``X-Repro-Client``) each submit, wait for the job through
the events long-poll, then fetch ``GET /v1/records/<hash>``, and only then
submit again.  One submission in five, counted across both clients, is
fresh: a unique-seed 40-vertex / 200-edge / 4-increment snowball BFS spec on
a 4x4 chip.  The other four resubmit a prefilled spec and are cache hits.
With a count per client instead, the two clients' fresh jobs fell into step
for a whole run or out of it, and the fresh p50 moved by a third from pass
to pass.  HTTP, the queue, the ``DispatchPool``, snapshot spans and the
store do most of the work here; simulation does little.

The prefill and the fresh specs are derived from ``--seed`` and built with
the code under test (``run_scenario`` plus one ``ResultStore.put_many``),
because ``spec_hash`` includes the repro version.  Building them, and the
direct runs the fetched bytes are compared against, happen outside every
timed window.  ``sim_cycles`` is the modelled time of the 300 prefilled
records, which every cache hit must return byte for byte; a sum over 300
specs holds still from seed to seed where one over a run's ~130 fresh jobs
does not.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench import gate
from perfbench.common import (
    OUT_DIR,
    ROOT,
    SRC,
    Result,
    Spans,
    child_pids,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
)

NAME = "serve-mixed"
CLIENTS = 2
WORKERS = 2
PREFILL = 300
FRESH_EVERY = 5
LAUNCHES = 5
BANNER_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


#: Dataset-seed offsets that keep the three kinds of spec apart.
_OFFSETS = {"prefill": 0, "fresh": PREFILL, "warm-up": 90_000}


def spec(kind: str, seed: int, index: int):
    """Spec number ``index`` of one kind: prefill, fresh or warm-up."""
    from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

    return Scenario(
        name=f"{NAME}-{kind}-{index}",
        dataset=DatasetSpec(vertices=40, edges=200, num_increments=4,
                            sampling="snowball",
                            seed=seed * 100_000 + _OFFSETS[kind] + index),
        chip=ChipSpec(side=4),
        algorithm="bfs",
    )


def prefill(seed: int, path: str) -> List[Dict[str, Any]]:
    """Write the prefilled store; returns its records."""
    from repro.harness.runner import run_scenario
    from repro.harness.store import ResultStore

    if os.path.exists(path):
        os.remove(path)
    records = [run_scenario(spec("prefill", seed, i)) for i in range(PREFILL)]
    ResultStore(path).put_many(records)
    return records


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess, plain or through the span launcher."""

    def __init__(self, store: str, spans_out: Optional[str] = None) -> None:
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=OUT_DIR)
        serve_args = ["--port", "0", "--jobs", str(WORKERS), "--store", store]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench",
                                                "serve_launcher.py"),
                   spans_out, *serve_args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BANNER_TIMEOUT_S)
        banner = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - t0
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not come up: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return max(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One submission as a client saw it (seconds, perf_counter clock)."""

    fresh: bool
    job: str
    status: str = "ok"
    latency: float = 0.0
    post: float = 0.0
    events: float = 0.0
    get: float = 0.0
    body: bytes = b""
    error: str = ""


@dataclass
class Loop:
    """Shared state of one closed-loop pass."""

    seed: int
    host: str
    port: int
    #: The prefilled specs, in prefill order.
    cached: List[Any]
    spans: Optional[Spans] = None
    samples: List[Sample] = field(default_factory=list)
    fresh_specs: List[Any] = field(default_factory=list)
    submitted: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def next_submission(self) -> Tuple[Any, bool]:
        """The loop's next spec, whichever client asks: every
        ``FRESH_EVERY``-th is fresh, the rest walk the prefill in order."""
        with self.lock:
            count, self.submitted = self.submitted, self.submitted + 1
            if count % FRESH_EVERY == 0:
                scenario = spec("fresh", self.seed, len(self.fresh_specs))
                self.fresh_specs.append(scenario)
                return scenario, True
            walked = count - len(self.fresh_specs)
            return self.cached[walked % len(self.cached)], False


class _Client:
    def __init__(self, loop: Loop, index: int) -> None:
        self.loop = loop
        self.headers = {"X-Repro-Client": f"client-{index}",
                        "Content-Type": "application/json"}
        self.conn = http.client.HTTPConnection(loop.host, loop.port,
                                               timeout=120)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body, self.headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                self.conn.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _span(self, name: str, job: str):
        spans = self.loop.spans
        if spans is None:
            return nullcontext()
        return spans.span(name, "serve", job=job)

    def submit(self, scenario, fresh: bool) -> Sample:
        job = scenario.spec_hash()
        sample = Sample(fresh=fresh, job=job)
        payload = json.dumps(scenario.spec_dict()).encode("utf-8")
        t0 = time.perf_counter()
        with self._span("submission", job):
            with self._span("POST /v1/jobs", job):
                status, body = self.request("POST", "/v1/jobs", payload)
            t1 = time.perf_counter()
            if status not in (200, 201):
                sample.status = "rejected" if status == 429 else "error"
                sample.error = f"POST /v1/jobs -> {status} {body[:200]!r}"
                return sample
            state = ""
            with self._span("events", job):
                since, done = 0, False
                while not done:
                    status, body = self.request(
                        "GET", f"/v1/jobs/{job}/events?since={since}&timeout=30")
                    if status != 200:
                        sample.status = "error"
                        sample.error = f"events -> {status}"
                        return sample
                    payload_ = json.loads(body)
                    since, done, state = (payload_["next"], payload_["done"],
                                          payload_["state"])
            t2 = time.perf_counter()
            if state != "done":
                sample.status = "error"
                sample.error = f"job ended {state}"
                return sample
            with self._span("GET /v1/records", job):
                status, body = self.request("GET", f"/v1/records/{job}")
            t3 = time.perf_counter()
        if status != 200:
            sample.status = "error"
            sample.error = f"GET record -> {status}"
            return sample
        sample.latency, sample.post = t3 - t0, t1 - t0
        sample.events, sample.get, sample.body = t2 - t1, t3 - t2, body
        return sample

    def run(self, deadline: float) -> None:
        loop = self.loop
        try:
            while time.perf_counter() < deadline:
                scenario, fresh = loop.next_submission()
                try:
                    sample = self.submit(scenario, fresh)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    self.conn.close()
                    sample = Sample(fresh, scenario.spec_hash(), "error",
                                    error=f"{type(exc).__name__}: {exc}")
                with loop.lock:
                    loop.samples.append(sample)
        finally:
            self.conn.close()


def warm_up(loop: Loop) -> None:
    """One fresh job per worker before timing, so lazy imports in the
    server and its workers are not timed (a long-lived server pays them
    once)."""
    samples: List[Sample] = []

    def one(index: int) -> None:
        client = _Client(loop, index)
        try:
            samples.append(client.submit(spec("warm-up", loop.seed, index),
                                         fresh=True))
        finally:
            client.conn.close()

    threads = [threading.Thread(target=one, args=(i,)) for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    failed = [s.error for s in samples if s.status != "ok"]
    if len(samples) != WORKERS or failed:
        raise RuntimeError(f"warm-up submissions failed: {failed}")


def closed_loop(loop: Loop, seconds: float) -> float:
    """Run the clients for ``seconds``; returns the loop's wall time."""
    clients = [_Client(loop, i) for i in range(CLIENTS)]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    threads = [threading.Thread(target=c.run, args=(deadline,))
               for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


def scrape(server: Server) -> Dict[str, float]:
    """``GET /metrics`` summed per sample name (``name`` or
    ``name{label="value"}``)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        base = key.split("{", 1)[0]
        for name in {key, base}:
            values[name] = values.get(name, 0.0) + float(value)
    return values


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_samples(result: Result, loop: Loop,
                  expected: Dict[str, bytes]) -> None:
    """Every fetched record must equal the bytes of a direct run."""
    for sample in loop.samples:
        problems = [sample.error] if sample.status != "ok" else \
            gate.check_bytes(sample.body, expected[sample.job])
        kind = "fresh" if sample.fresh else "cached"
        result.check(problems, f"{NAME} {kind} {sample.job[:12]}")


def expected_fresh(loop: Loop) -> Dict[str, bytes]:
    from repro.harness.runner import run_scenario

    return {s.spec_hash(): gate.encode(run_scenario(s)) for s in loop.fresh_specs}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _pass(seed: int, seconds: float, store: str, cached: List[Any],
          spans: Optional[Spans] = None, spans_out: Optional[str] = None,
          launches: int = 1) -> Dict[str, Any]:
    """Start the server (``launches`` times, keeping the last), run the
    closed loop, scrape ``/metrics`` and stop it."""
    setups = []
    for _ in range(launches - 1):
        server = Server(store)
        setups.append(server.setup_s)
        server.stop()
    server = Server(store, spans_out)
    setups.append(server.setup_s)
    try:
        warm_up(Loop(seed, server.host, server.port, []))
        loop = Loop(seed, server.host, server.port, cached, spans)
        start_ns = time.perf_counter_ns()
        wall = closed_loop(loop, seconds)
        window = (start_ns, time.perf_counter_ns())
        metrics = scrape(server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"loop": loop, "wall": wall, "window": window,
            "metrics": metrics, "rss": rss,
            "setups": setups, "store_bytes": os.path.getsize(store)}


def _copy_store(source: str, tag: str) -> str:
    path = os.path.join(OUT_DIR, f"{NAME}-{tag}.jsonl")
    shutil.copyfile(source, path)
    return path


def _ms(values: List[float], q: float = 50) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def run(seed: int, seconds: float, trace: bool, result: Result,
        spans: Spans) -> None:
    base = os.path.join(OUT_DIR, f"{NAME}-prefill.jsonl")
    records = prefill(seed, base)
    expected = {r["spec_hash"]: gate.encode(r) for r in records}
    cached = [spec("prefill", seed, i) for i in range(PREFILL)]

    if not trace:
        rep = _pass(seed, seconds, _copy_store(base, "timed"), cached,
                    launches=LAUNCHES)
        reps = [rep]
    else:
        spans_out = os.path.join(OUT_DIR, f"{NAME}-server-spans.json")
        plain = _pass(seed, seconds / 2, _copy_store(base, "plain"), cached)
        traced = _pass(seed, seconds / 2, _copy_store(base, "traced"), cached,
                       spans=spans, spans_out=spans_out)
        reps = [plain, traced]
    for rep in reps:
        expected.update(expected_fresh(rep["loop"]))
        check_samples(result, rep["loop"], expected)

    rep = reps[0]
    ok = [s for s in rep["loop"].samples if s.status == "ok"]
    fresh = [s.latency for s in ok if s.fresh]
    cached_lat = [s.latency for s in ok if not s.fresh]
    rejected = sum(1 for s in rep["loop"].samples if s.status == "rejected")
    result.note("submissions", len(rep["loop"].samples))
    result.note("fresh_p50_ms", round(_ms(fresh), 3), f"ms (n={len(fresh)})")
    result.note("fresh_p90_ms", round(_ms(fresh, 90), 3), f"ms (n={len(fresh)})")
    result.note("cached_p50_ms", round(_ms(cached_lat), 3),
                f"ms (n={len(cached_lat)})")
    if not trace:
        edges = sum(sum(json.loads(s.body)["increment_sizes"])
                    for s in ok if s.fresh)
        result.metric("setup_s", median(rep["setups"]), "s")
        result.metric("edges_per_s", edges / rep["wall"], "edges/s")
        result.metric("update_p50_ms", _ms(fresh), "ms")
        result.metric("jobs_per_s", len(ok) / rep["wall"], "1/s")
        result.metric("sim_cycles", sum(r["total_cycles"] for r in records),
                      "cycles")
        result.metric("peak_rss_mb", rep["rss"], "MB")
        return

    m = rep["metrics"]
    jobs_done = m.get('serve_jobs_total{outcome="done"}', 0.0)
    job_s = m.get("serve_job_seconds_sum", 0.0) / max(1.0, m.get(
        "serve_job_seconds_count", 0.0))
    result.metric("serve.post_jobs_ms", _ms([s.post for s in ok]), "ms")
    result.metric("serve.events_wait_ms",
                  _ms([s.events for s in ok if s.fresh]), "ms")
    result.metric("serve.get_record_ms", _ms([s.get for s in ok]), "ms")
    result.metric("serve.cached_p50_ms", _ms(cached_lat), "ms")
    result.metric("serve.cached_p90_ms", _ms(cached_lat, 90), "ms")
    result.metric("serve.fresh_p90_ms", _ms(fresh, 90), "ms")
    result.metric("serve.job_s", job_s, "s")
    result.metric("serve.queue_wait_ms", _ms(fresh) - job_s * 1e3, "ms")
    result.metric("serve.spans_per_job",
                  m.get("serve_spans_total", 0.0) / max(1.0, jobs_done), "count")
    result.metric("serve.rejected", rejected, "count")
    result.metric("pool.respawns", m.get("serve_pool_respawns", 0.0), "count")
    result.metric("store.bytes", rep["store_bytes"], "bytes")

    traced = reps[1]
    with open(spans_out, encoding="utf-8") as fh:
        raw = json.load(fh)
    loads = [r for r in raw if r["name"] == "ResultStore" and r["parent"] == 0]
    load = min(loads, key=lambda r: r["start_ns"]) if loads else None
    server_spans = _merge_server_spans(spans, raw, traced["window"])
    puts = [s for s in server_spans if s.name == "put_many"]
    gets = [s for s in server_spans if s.name == "get"]
    tasks = [s for s in server_spans if s.name == "DispatchPool.run"]
    task_s = sum(s.dur_s for s in tasks)
    traced_fresh = [s.latency for s in traced["loop"].samples
                    if s.fresh and s.status == "ok"]
    result.metric("store.load_s", (load["end_ns"] - load["start_ns"]) / 1e9
                  if load else 0.0, "s")
    result.metric("store.put_ms", median([s.dur_s for s in puts]) * 1e3
                  if puts else 0.0, "ms")
    result.metric("store.rewrites", len(puts), "count")
    result.metric("store.hits", sum(1 for s in gets if s.args["hit"]), "count")
    result.metric("store.misses", sum(1 for s in gets if not s.args["hit"]),
                  "count")
    result.metric("pool.task_s", task_s, "s")
    result.metric("pool.idle_ratio", 1.0 - task_s / (WORKERS * traced["wall"]),
                  "ratio")
    result.metric("trace_overhead", _ms(traced_fresh) / _ms(fresh), "ratio")
    layer_metrics(result, spans)


def _merge_server_spans(spans: Spans, raw: List[Dict[str, Any]],
                        window: Tuple[int, int]) -> List[Any]:
    """Adopt the launcher's spans that start inside the closed loop's
    ``window``, each under the innermost client span of the same job that
    contains its start (both sides use the system's monotonic clock)."""
    raw = [r for r in raw if window[0] <= r["start_ns"] < window[1]]
    client = {}
    for s in spans.spans:
        if "job" in s.args:
            client.setdefault(s.args["job"], []).append(s)
    new_ids: Dict[int, int] = {}
    for item in sorted(raw, key=lambda r: (r["start_ns"], -r["end_ns"])):
        parent = new_ids.get(item["parent"], 0)
        if not parent and item["args"].get("job"):
            holders = [s for s in client.get(item["args"]["job"], [])
                       if s.start_ns <= item["start_ns"] <= s.end_ns]
            if holders:
                parent = max(holders, key=lambda s: s.start_ns).sid
        sid = spans.add(item["name"], item["layer"], item["start_ns"],
                        item["end_ns"], parent=parent, **item["args"])
        new_ids[item["sid"]] = sid
    adopted = set(new_ids.values())
    return [s for s in spans.spans if s.sid in adopted]
