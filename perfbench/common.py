"""Shared pieces of the benchmark: results, statistics, provenance, memory
and the span recorder the traced runs use.

Everything here observes the program from outside: spans are recorded by
wrapping public callables for the duration of one traced pass, and
removed again before anything else runs in the process.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, spill files and traces (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Layers, named after the repository's modules.
LAYERS = ("datasets", "graph", "runtime", "arch", "algorithms",
          "harness.runner", "harness.pool", "harness.store", "serve")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one benchmark invocation measured and checked.

    ``metrics`` go into the final JSON line; ``notes`` are extra
    human-readable figures (sample counts, aliases) printed above it.
    """

    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: Dict[str, Tuple[Any, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, name: str, value: Any, unit: str = "") -> None:
        self.notes[name] = (value, unit)

    def check(self, problems: Sequence[str], what: str) -> None:
        """Count one checked operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(workload: str, seed: int) -> Dict[str, Any]:
    """Where a figure came from: code version, kernel, host and seed."""
    import repro
    from repro.arch.config import ChipConfig
    from repro.arch.kernels import HAVE_NATIVE, resolve_kernel

    return {
        "workload": workload,
        "seed": seed,
        "repro_version": repro.__version__,
        "kernel": resolve_kernel(ChipConfig()),
        "have_native": bool(HAVE_NATIVE),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(parent: int) -> List[int]:
    """PIDs whose parent is ``parent`` (e.g. a server's pool workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces: fields resume after ')'.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    sid: int
    parent: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    tid: int
    args: Dict[str, Any]

    @property
    def dur_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _covered_ns(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Spans:
    """In-memory span recorder: name, layer, start, end, parent.

    Parents come from a per-thread stack, so spans opened inside another
    span on the same thread nest under it.  Spans measured elsewhere (pool
    tasks seen through ``repro.obs``'s tracer, phase timers) are added with
    :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def add(self, name: str, layer: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None, **args: Any) -> int:
        sid = self._new_id()
        span = Span(sid, self.current() if parent is None else parent, name,
                    layer, start_ns, end_ns, threading.get_ident(), args)
        with self._lock:
            self.spans.append(span)
        return sid

    @contextmanager
    def span(self, name: str, layer: str, **args: Any) -> Iterator[int]:
        sid = self._new_id()
        parent = self.current()
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, name, layer, start, end,
                                       threading.get_ident(), args))

    # -- wrapping public callables ------------------------------------
    def wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn``, with each call recorded as a span."""
        def wrapped(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return wrapped

    # -- reductions ---------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.dur_s for s in self.named(name))

    def self_times_s(self) -> Dict[str, float]:
        """Per-layer self time: each span minus what its children cover."""
        children: Dict[int, List[Tuple[int, int]]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            inner = [(max(a, s.start_ns), min(b, s.end_ns))
                     for a, b in children.get(s.sid, [])]
            inner = [(a, b) for a, b in inner if b > a]
            own = (s.end_ns - s.start_ns) - _covered_ns(inner)
            totals[s.layer] = totals.get(s.layer, 0.0) + own / 1e9
        return totals

    def chrome(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (Perfetto-viewable)."""
        base = min((s.start_ns for s in self.spans), default=0)
        events = [{
            "ph": "X", "name": s.name, "cat": s.layer, "pid": os.getpid(),
            "tid": s.tid, "ts": (s.start_ns - base) / 1000.0,
            "dur": (s.end_ns - s.start_ns) / 1000.0,
            "args": dict(s.args, id=s.sid, parent=s.parent),
        } for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}

    def save(self, path: str, meta: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome(meta), fh)


@contextmanager
def patched(targets: Sequence[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Temporarily replace ``owner.attr`` for each ``(owner, attr, new)``.

    An attribute ``owner`` only inherits is deleted again afterwards.
    """
    missing = object()
    saved = [(owner, attr, owner.__dict__.get(attr, missing))
             for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def layer_metrics(result: Result, spans: Spans, runs: int = 1) -> None:
    """Emit ``<layer>.self_s`` per layer, averaged over ``runs`` passes."""
    for layer, seconds in spans.self_times_s().items():
        result.metric(f"{layer}.self_s", seconds / max(1, runs), "s")


def record_metrics(result: Result, records: Sequence[Dict[str, Any]],
                   spans: Spans, runs: int = 1) -> None:
    """``arch.*`` per-layer metrics: exact counts from record ``stats``,
    modelled figures from the records, and phase time per count.

    ``records`` are those of ``runs`` runs of the workload; sums are given
    per run.  Phase times come from the ``Simulator.phases`` spans, whose
    args hold the simulator's phase timers in nanoseconds.
    """
    def total(key: str) -> float:
        return sum(r["stats"][key] for r in records) / runs

    phases_s: Dict[str, float] = {}
    for span in spans.named("Simulator.phases"):
        for phase, ns in span.args.items():
            phases_s[phase] = phases_s.get(phase, 0.0) + ns / 1e9 / runs

    counts = {
        "messages": total("messages_delivered"),
        "hops": total("hops"),
        "tasks": total("tasks_executed"),
        "instructions": total("instructions"),
        "io_injections": total("io_injections"),
        "allocations": total("allocations"),
    }
    for name, value in counts.items():
        result.metric(f"arch.{name}", value, "count")
    for phase in ("io", "noc", "dispatch", "cells", "account"):
        result.metric(f"arch.{phase}_s", phases_s.get(phase, 0.0), "s")
    for name, phase, count in (("noc_ns_per_hop", "noc", "hops"),
                               ("cells_ns_per_task", "cells", "tasks"),
                               ("io_ns_per_injection", "io", "io_injections")):
        per = phases_s.get(phase, 0.0) * 1e9 / counts[count] if counts[count] else 0.0
        result.metric(f"arch.{name}", per, "ns")
    increments = sum(len(r["increment_cycles"]) for r in records)
    result.metric("arch.cycles_per_increment",
                  sum(sum(r["increment_cycles"]) for r in records) / increments,
                  "cycles")
    result.metric("arch.mean_activation",
                  sum(r["stats"]["mean_activation"] for r in records) / len(records),
                  "ratio")
    result.metric("arch.energy_uj",
                  sum(r["energy"]["total_uj"] for r in records) / runs, "uJ")
    result.metric("algorithms.query_cycles",
                  sum(r["query_cycles"] for r in records) / runs, "cycles")
