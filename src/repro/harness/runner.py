"""Scenario execution: serial, pooled, sharded and timeout-guarded.

:func:`run_scenario` materialises one :class:`~repro.harness.scenario.Scenario`
into a dataset + device + graph + algorithm, streams every increment, runs
the query diffusion when the algorithm has one, and returns a flat,
JSON-serialisable **record** containing only deterministic fields (no
timestamps, hostnames or wall-clock), so the same scenario produces a
byte-identical record whether it runs in-process, in a worker, or sharded.

:func:`run_suite` fans a suite out over a persistent
:class:`~repro.harness.pool.WorkerPool` as one batch: every task is
submitted to the pool's FIFO dispatcher (the one ``repro serve`` also
uses) and the batch waits for all of them.  Each worker rebuilds its own
:class:`~repro.runtime.device.AMCCADevice` from the declarative spec — a
mid-run simulator is full of closures and is not picklable, but a
:class:`Scenario` is a frozen dataclass of plain values, so only specs cross
the process boundary (records come back as plain dicts).  Scenarios already
present in the :class:`~repro.harness.store.ResultStore` are skipped as
cache hits unless ``force`` is set.

Increment sharding
------------------
``shard_increments=N`` splits one scenario's increment stream into up to N
contiguous spans, each executed as its own pool task
(:func:`run_scenario_sharded`).  The chip's state is sequential — increment
``i`` runs against the graph that increments ``0..i-1`` built — so span K
starts from the :mod:`repro.snapshot` checkpoint span K-1 captured at its
boundary, handed over through a temporary spill directory.  Every
increment is simulated exactly once, so total CPU is one pass over the
stream whatever the shard count; the bit-identical-schedule guarantee of
restored snapshots (see docs/snapshot.md) makes the merged record
**byte-identical to a serial run**.  :func:`plan_spans` decides the span
boundaries for sharded suites and for ``repro serve`` alike; a scenario
with a truncation budget runs as one span.

Every path — whole runs, spans, resumes, snapshot capture — streams its
increments through one executor, :func:`_stream_span`.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.algorithms.registry import get_algorithm
from repro.datasets.streaming import StreamingDataset, make_streaming_dataset
from repro.graph.graph import DynamicGraph
from repro.graph.rpvo import Edge
from repro.harness.pool import TaskResult, WorkerPool, get_pool
from repro.harness.scenario import DatasetSpec, RunOptions, Scenario
from repro.harness.store import ResultStore
from repro.obs import MetricsRegistry, Tracer, derive_trace_path, record_metrics
from repro.runtime.device import AMCCADevice


# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------
def materialize_dataset(spec: DatasetSpec) -> StreamingDataset:
    """Generate the streaming dataset a :class:`DatasetSpec` describes."""
    dataset = make_streaming_dataset(
        spec.vertices,
        spec.edges,
        sampling=spec.sampling,
        num_increments=spec.num_increments,
        symmetric=spec.symmetric,
        seed=spec.seed,
        name=spec.name,
        generator=spec.generator,
    )
    if spec.weighted:
        rng = random.Random(spec.seed)
        dataset.increments = [
            [Edge(e.src, e.dst, rng.randint(1, 9)) for e in chunk]
            for chunk in dataset.increments
        ]
    return dataset


def make_algorithm(scenario: Scenario):
    """Instantiate the algorithm object a scenario names (None for ingest)."""
    return get_algorithm(scenario.algorithm).instantiate(root=scenario.options.root)


# ----------------------------------------------------------------------
# Materialisation / finalisation (shared by every span, fresh or restored)
# ----------------------------------------------------------------------
def _materialize(
    scenario: Scenario,
    kernel: Optional[str] = None,
    *,
    seed_algorithm: bool = True,
    frames_every: int = 0,
) -> Tuple[StreamingDataset, AMCCADevice, DynamicGraph, Any]:
    """Build the dataset + device + graph + algorithm a scenario describes.

    ``seed_algorithm=False`` skips the algorithm's host-side seeding (e.g.
    BFS's root injection): a snapshot restore overlays the seeded state, so
    re-seeding would double-inject.  ``frames_every`` enables the device's
    activity-frame recorder (:class:`~repro.arch.trace.TraceRecorder`) at
    that cadence — a visualisation knob with no effect on the record.
    """
    opts: RunOptions = scenario.options
    dataset = materialize_dataset(scenario.dataset)
    chip = scenario.chip.to_chip_config()
    if kernel is not None:
        chip = chip.with_(kernel=kernel)
    device = AMCCADevice(chip, trace_every=frames_every)
    graph = DynamicGraph(
        device,
        dataset.num_vertices,
        placement=opts.placement,
        ghost_allocator=opts.ghost_allocator,
        seed=scenario.graph_seed(),
        ingest_only=scenario.algorithm == "ingest",
    )
    algorithm = make_algorithm(scenario)
    if algorithm is not None:
        graph.attach(algorithm)
        if seed_algorithm:
            algorithm.seed(graph, root=opts.root)
    return dataset, device, graph, algorithm


def _final_payload(
    scenario: Scenario,
    dataset: StreamingDataset,
    device: AMCCADevice,
    graph: DynamicGraph,
    algorithm,
) -> Dict[str, Any]:
    """End-of-run payload: query phase + statistics extraction."""
    # Query algorithms (triangles, jaccard, kcore, ...) diffuse over the
    # ingested graph after streaming quiesces; the base contract's ``run``
    # is a no-op returning ``None`` for purely streaming algorithms.
    query_cycles = 0
    if algorithm is not None:
        query_result = algorithm.run(graph)
        if query_result is not None:
            query_cycles = query_result.cycles
    stats = device.stats()
    energy = device.energy_report()
    ghosts = graph.ghost_report()
    return {
        "increment_sizes": dataset.increment_sizes(),
        "query_cycles": query_cycles,
        "energy": energy.as_dict(),
        "stats": stats.summary(),
        # Deterministic metrics snapshot (repro.obs): derived from SimStats
        # only, computed *unconditionally* — every record carries it, so
        # instrumented and plain runs stay byte-identical.
        "metrics": record_metrics(stats),
        "edges_stored": graph.total_edges_stored(),
        "ghost_blocks": ghosts["ghost_blocks"],
        "ghost_distance": ghosts["mean_ghost_distance"],
        "ghost_max_depth": ghosts["max_depth"],
        "algo_metrics": (algorithm.summarize(algorithm.results(graph))
                         if algorithm is not None else {}),
    }


def _snapshot_path(directory: str, scenario: Scenario, increment: int) -> str:
    """Canonical checkpoint filename for a scenario at a boundary."""
    return os.path.join(directory, f"{scenario.name}-inc{increment:04d}.snap")


def _checkpoint(graph: DynamicGraph, scenario: Scenario, increment: int,
                tracer: Optional[Tracer] = None):
    """Capture one increment-boundary checkpoint of a scenario's run."""
    from repro.snapshot import capture

    span = (tracer.span("snapshot_capture", "snapshot", increment=increment)
            if tracer is not None else nullcontext())
    with span:
        return capture(graph, extra_meta={
            "spec_hash": scenario.spec_hash(),
            "scenario": scenario.name,
            "increment": increment,
        })


def _require_same_spec(scenario: Scenario, snapshot) -> None:
    """Refuse a snapshot captured from a different spec (or version)."""
    from repro.snapshot.format import SnapshotError

    expected = scenario.spec_hash()
    recorded = snapshot.meta.get("spec_hash")
    if recorded is not None and recorded != expected:
        raise SnapshotError(
            f"snapshot was captured from scenario "
            f"{snapshot.meta.get('scenario')!r} (spec {recorded[:12]}…), "
            f"not from {scenario.name!r} (spec {expected[:12]}…)")


# ----------------------------------------------------------------------
# The span executor: the one place increments are streamed
# ----------------------------------------------------------------------
def _stream_span(
    scenario: Scenario,
    stop: Optional[int] = None,
    *,
    checkpoint=None,
    kernel: Optional[str] = None,
    snapshot_every: int = 0,
    snapshot_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
    timings: Optional[Dict[str, float]] = None,
    frames_every: int = 0,
    env_out: Optional[Dict[str, Any]] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Tuple[Dict[str, Any], Any]:
    """Stream increments ``[start, stop)`` and return ``(part, boundary)``.

    The run starts from a fresh build (``start = 0``) or, given
    ``checkpoint``, from that restored snapshot (``start`` = its cursor).
    ``stop`` defaults to the last increment.  ``part`` carries the span and
    its per-increment cycles; when ``stop`` is the last increment it also
    carries the ``final`` payload (query phase + statistics) and
    ``boundary`` is ``None``, otherwise ``boundary`` is the checkpoint at
    ``stop`` that the next span starts from.

    ``timings``, when given, receives wall-clock phase durations
    (``setup_s``, ``sim_s``) for the benchmark driver; they never enter the
    payload, which stays fully deterministic.  ``kernel`` overrides the
    scenario's NoC kernel pin (a speed knob only: records are bit-identical
    across kernels).  ``snapshot_every``/``snapshot_dir`` save a checkpoint
    at every Nth increment boundary (resumable runs).  ``trace_path``
    attaches a :class:`repro.obs.Tracer` and writes the Chrome trace JSON
    there at the end.  ``frames_every`` enables activity-frame capture;
    ``env_out``, when given, receives the live ``dataset``/``device``/
    ``graph``/``algorithm`` after the run.  ``device_setup``, when given,
    is called with the built (and restored) device before any increment
    streams — a test/fuzz hook (e.g. the fuzz oracle disables cycle
    skipping through it); contract-pinned knobs flipped here must leave
    the record byte-identical, which is exactly what the oracle asserts.
    None of these knobs changes the payload.
    """
    t0 = time.perf_counter()
    if checkpoint is not None:
        _require_same_spec(scenario, checkpoint)
    dataset, device, graph, algorithm = _materialize(
        scenario, kernel, seed_algorithm=checkpoint is None,
        frames_every=frames_every)
    if checkpoint is not None:
        from repro.snapshot import restore_into

        restore_into(graph, checkpoint)
    if device_setup is not None:
        device_setup(device)
    tracer = None
    if trace_path is not None:
        tracer = Tracer(process_name=f"repro:{scenario.name}")
        device.attach_tracer(tracer)
    t1 = time.perf_counter()

    total = len(dataset.increments)
    start = graph.increments_streamed
    stop = total if stop is None else stop
    if not start <= stop <= total:
        raise ValueError(f"invalid span [{start}, {stop}) of {total} increments")
    every = snapshot_every if snapshot_dir else 0
    max_cycles = scenario.options.max_cycles_per_increment
    measured: List[int] = []
    for i in range(start, stop):
        result = graph.stream_increment(
            dataset.increments[i],
            phase=f"increment-{i + 1}",
            max_cycles=max_cycles,
        )
        measured.append(result.cycles)
        if every > 0 and (i + 1) % every == 0:
            _checkpoint(graph, scenario, i + 1, tracer).save(
                _snapshot_path(snapshot_dir, scenario, i + 1))

    part: Dict[str, Any] = {
        "spec_hash": scenario.spec_hash(),
        "span": [start, stop],
        "increment_cycles": measured,
    }
    boundary = None
    if stop == total:
        part["final"] = _final_payload(scenario, dataset, device, graph,
                                       algorithm)
    else:
        boundary = _checkpoint(graph, scenario, stop, tracer)
    if timings is not None:
        timings["setup_s"] = t1 - t0
        timings["sim_s"] = time.perf_counter() - t1
    if tracer is not None:
        tracer.save(trace_path)
    if env_out is not None:
        env_out.update(dataset=dataset, device=device, graph=graph,
                       algorithm=algorithm)
    return part, boundary


def _assemble_record(
    scenario: Scenario,
    increment_cycles: List[int],
    final: Dict[str, Any],
) -> Dict[str, Any]:
    """The canonical result record: one code path for serial and sharded runs."""
    return {
        "spec_hash": scenario.spec_hash(),
        "name": scenario.name,
        "repro_version": __version__,
        "scenario": scenario.spec_dict(),
        "increment_sizes": final["increment_sizes"],
        "increment_cycles": increment_cycles,
        "query_cycles": final["query_cycles"],
        "total_cycles": sum(increment_cycles) + final["query_cycles"],
        "energy": final["energy"],
        "stats": final["stats"],
        "metrics": final["metrics"],
        "edges_stored": final["edges_stored"],
        "ghost_blocks": final["ghost_blocks"],
        "ghost_distance": final["ghost_distance"],
        "ghost_max_depth": final["ghost_max_depth"],
        "algo_metrics": final["algo_metrics"],
    }


# ----------------------------------------------------------------------
# Single-scenario execution
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, *, timings: Optional[Dict[str, float]] = None,
    kernel: Optional[str] = None,
    device_setup: Optional[Callable[[AMCCADevice], None]] = None,
) -> Dict[str, Any]:
    """Execute one scenario end to end and return its result record.

    ``device_setup`` (test/fuzz hook) receives the freshly built device
    before streaming starts; see :func:`_stream_span`.
    """
    opts = scenario.options
    part, _ = _stream_span(scenario, kernel=kernel, timings=timings,
                           snapshot_every=opts.snapshot_every,
                           snapshot_dir=opts.snapshot_dir,
                           trace_path=opts.trace_path,
                           device_setup=device_setup)
    return _assemble_record(scenario, part["increment_cycles"], part["final"])


def run_scenario_traced(
    scenario: Scenario, *, frames_every: int = 0,
    kernel: Optional[str] = None, trace_path: Optional[str] = None,
) -> Tuple[Dict[str, Any], AMCCADevice]:
    """Run one scenario instrumented, returning ``(record, device)``.

    The thin harness wrapper behind ``examples/chip_animation.py`` and any
    caller that wants the live device after the run (activity frames,
    phase timers, per-cell occupancy).  ``frames_every > 0`` captures an
    activity frame every that many cycles; ``trace_path`` additionally
    writes a Chrome trace of the run.  The record is byte-identical to
    :func:`run_scenario`'s — instrumentation is observer-only.
    """
    env: Dict[str, Any] = {}
    part, _ = _stream_span(
        scenario, kernel=kernel, trace_path=trace_path,
        frames_every=frames_every, env_out=env,
        device_setup=lambda device: device.simulator.enable_phase_timers())
    record = _assemble_record(scenario, part["increment_cycles"],
                              part["final"])
    return record, env["device"]


# ----------------------------------------------------------------------
# Snapshot restore / resume
# ----------------------------------------------------------------------
def restore_scenario(
    scenario: Scenario, snapshot, *, kernel: Optional[str] = None,
) -> Tuple[StreamingDataset, AMCCADevice, DynamicGraph, Any]:
    """Rebuild a scenario's run mid-stream from a snapshot.

    Reconstructs the code side (device, registry, graph skeleton,
    algorithm — *without* re-seeding) from the declarative spec and
    overlays the snapshot's state.  The snapshot must have been captured
    from the same spec: the embedded ``spec_hash`` (which folds in
    :data:`repro.__version__`) is checked before anything is touched.
    """
    from repro.snapshot import restore_into

    _require_same_spec(scenario, snapshot)
    dataset, device, graph, algorithm = _materialize(
        scenario, kernel, seed_algorithm=False)
    restore_into(graph, snapshot)
    return dataset, device, graph, algorithm


def snapshot_at(
    scenario: Scenario, increment: int, *, kernel: Optional[str] = None,
):
    """Run a scenario up to an increment boundary and capture a snapshot.

    ``increment`` counts streamed increments (1-based boundaries): ``K``
    means "after increment K".  Used by ``repro snapshot save``.
    """
    from repro.snapshot import Snapshot

    total = scenario.dataset.num_increments
    if not (1 <= increment <= total):
        raise ValueError(
            f"increment boundary {increment} out of range 1..{total} "
            f"for {scenario.name!r}")
    if increment < total:
        return _stream_span(scenario, increment, kernel=kernel)[1]
    # A span through the last increment ends in the record payload, not a
    # checkpoint: take the one the snapshot cadence saves at that boundary.
    with tempfile.TemporaryDirectory(prefix="repro-snapshot-") as directory:
        _stream_span(scenario, kernel=kernel, snapshot_every=total,
                     snapshot_dir=directory)
        return Snapshot.load(_snapshot_path(directory, scenario, total))


def resume_scenario(
    scenario: Scenario, snapshot, *, kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """Restore from a snapshot, run to completion, return the full record.

    The record is **byte-identical** to an uninterrupted
    :func:`run_scenario` of the same scenario: per-increment cycles of the
    already-streamed prefix come from the snapshot's cursor, the remaining
    increments are simulated, and the final statistics follow from the
    restored state.
    """
    env: Dict[str, Any] = {}
    part, _ = _stream_span(scenario, checkpoint=snapshot, kernel=kernel,
                           env_out=env)
    return _assemble_record(scenario, env["graph"].per_increment_cycles(),
                            part["final"])


# ----------------------------------------------------------------------
# Split runs: span planning, the span pool task, merge
# ----------------------------------------------------------------------
def plan_spans(scenario: Scenario, *, shards: int = 1,
               cadence: int = 0) -> List[Tuple[int, int]]:
    """The contiguous ``[start, stop)`` spans a split run of a scenario uses.

    ``cadence > 0`` cuts spans of at most that many increments (the
    progress/pause granularity of ``repro serve``); otherwise the stream
    splits into up to ``shards`` near-equal spans (``repro suite run
    --shard-increments``).  A scenario with a truncation budget
    (``max_cycles_per_increment``) always gets one whole span: a truncated
    increment can leave continuations in flight, and a boundary checkpoint
    refuses to capture those.  A one-span run is the plain serial run.
    """
    total = scenario.dataset.num_increments
    if scenario.options.max_cycles_per_increment is not None:
        return [(0, total)]
    if cadence > 0:
        return [(a, min(a + cadence, total))
                for a in range(0, total, cadence)]
    shards = max(1, min(shards, total))
    bounds = [round(i * total / shards) for i in range(shards + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


#: Default ceiling (seconds) a span waits for its upstream checkpoint
#: before giving up (used when no --timeout guards the task).
SPAN_WAIT_S = 600.0


def _await_snapshot(path: str, timeout_s: float) -> None:
    """Block until an upstream span's checkpoint appears (or fails).

    Checkpoints are written atomically (temp + rename), so existence
    implies completeness.  A ``<path>.failed`` marker — written by a span
    that raised — aborts the wait immediately instead of timing out.
    """
    deadline = time.monotonic() + timeout_s
    marker = path + ".failed"
    while not os.path.exists(path):
        if os.path.exists(marker):
            raise RuntimeError(
                f"upstream shard failed (marker {marker}); "
                "see its error for the cause")
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"shard waited {timeout_s:.0f}s for upstream "
                f"checkpoint {path}; upstream shard lost or stalled")
        time.sleep(0.02)


def _span_task(
    spec: Dict[str, Any],
    start: int,
    stop: int,
    kernel: Optional[str] = None,
    snap_in: Optional[str] = None,
    snap_out: Optional[str] = None,
    wait_s: float = SPAN_WAIT_S,
    snap_opts: Tuple = (0, None, None),
) -> Dict[str, Any]:
    """Pool task: one span of one scenario (module-level, picklable).

    The first span builds fresh; a later one waits for the checkpoint its
    predecessor wrote to ``snap_in`` at boundary ``start``, restores it
    and streams exactly ``[start, stop)``.  A span that does not reach the
    last increment writes its boundary checkpoint to ``snap_out``; the last
    one returns the ``final`` payload instead.  On failure a ``.failed``
    marker next to ``snap_out`` unblocks a waiting successor.

    ``kernel`` and ``snap_opts`` (``snapshot_every``, ``snapshot_dir``,
    ``trace_path``) ride alongside the spec because
    :meth:`Scenario.spec_dict` strips these identity-free knobs.  A span
    shorter than the whole stream traces to a per-span filename derived
    from the scenario's trace path, so parallel spans never share a file.
    """
    from repro.snapshot import Snapshot

    every, directory, trace = snap_opts
    scenario = Scenario.from_dict(spec)
    if trace is not None and (start, stop) != (0, scenario.dataset.num_increments):
        trace = derive_trace_path(trace, f"span{start}-{stop}")
    try:
        checkpoint = None
        if snap_in is not None:
            _await_snapshot(snap_in, wait_s)
            checkpoint = Snapshot.load(snap_in)
        part, boundary = _stream_span(
            scenario, stop, checkpoint=checkpoint, kernel=kernel,
            snapshot_every=every, snapshot_dir=directory, trace_path=trace)
        if boundary is not None:
            boundary.save(snap_out)
        return part
    except BaseException:
        if snap_out is not None:
            try:
                Path(snap_out + ".failed").touch()
            except OSError:  # pragma: no cover - spill dir already gone
                pass
        raise


def _spill_path(spill_dir: str, scenario: Scenario, boundary: int) -> str:
    """Where a split run hands off its checkpoint at ``boundary``."""
    return os.path.join(spill_dir,
                        f"{scenario.spec_hash()[:16]}-inc{boundary:05d}.snap")


def _run_options(scenario: Scenario) -> Tuple:
    """The scenario's own ``(snapshot_every, snapshot_dir, trace_path)``."""
    opts = scenario.options
    return opts.snapshot_every, opts.snapshot_dir, opts.trace_path


def _span_tasks(
    scenario: Scenario,
    spans: List[Tuple[int, int]],
    spill_dir: str,
    kernel: Optional[str],
    timeout: Optional[float],
    snap_opts: Tuple = (0, None, None),
) -> List[Tuple[Callable[..., Dict[str, Any]], Tuple]]:
    """One ``(_span_task, args)`` per span; checkpoints hand off through
    ``spill_dir``.

    ``snap_opts`` defaults to writing no snapshot or trace files; the suite
    passes :func:`_run_options`, while ``repro serve`` keeps the default so
    a client's spec never chooses paths the server writes to.
    """
    spec = scenario.spec_dict()
    total = scenario.dataset.num_increments
    return [
        (_span_task,
         (spec, a, b, kernel,
          _spill_path(spill_dir, scenario, a) if a > 0 else None,
          _spill_path(spill_dir, scenario, b) if b < total else None,
          _span_wait_s(timeout, index), snap_opts))
        for index, (a, b) in enumerate(spans)
    ]


def _span_wait_s(timeout: Optional[float], span_index: int) -> float:
    """Checkpoint-wait budget for span ``span_index``.

    The wait legitimately spans the *cumulative* runtime of every upstream
    span (span K cannot see its input before spans 0..K-1 have all run),
    so the unguarded default scales with the span index instead of
    applying one flat cap that long runs would trip spuriously.  An
    explicit ``--timeout`` takes over outright — the pool kills overdue
    waiters anyway, so a tighter in-task deadline would only race it.
    """
    if timeout is not None:
        return timeout
    return SPAN_WAIT_S * max(1, span_index)


def _merge_shard_parts(
    scenario: Scenario, parts: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Deterministic merge of span payloads into one canonical record."""
    parts = sorted(parts, key=lambda p: p["span"][0])
    cycles: List[int] = []
    final: Optional[Dict[str, Any]] = None
    expected = 0
    for part in parts:
        start, stop = part["span"]
        if start != expected:
            raise ValueError(f"shard spans of {scenario.name!r} are not contiguous")
        cycles.extend(part["increment_cycles"])
        expected = stop
        if "final" in part:
            final = part["final"]
    if final is None:
        raise ValueError(f"no final shard for {scenario.name!r}")
    return _assemble_record(scenario, cycles, final)


def _spill_dir() -> tempfile.TemporaryDirectory:
    """A temporary checkpoint hand-off directory, removed on exit."""
    return tempfile.TemporaryDirectory(prefix="repro-shards-",
                                       ignore_cleanup_errors=True)


def run_scenario_sharded(
    scenario: Scenario,
    shards: int,
    *,
    pool: Optional[WorkerPool] = None,
    timeout: Optional[float] = None,
    kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one scenario as checkpoint-linked spans and merge them.

    Span K restores the checkpoint span K-1 captured at its boundary and
    streams only its own increments, so every increment is simulated once
    and the merged record is byte-identical to :func:`run_scenario`'s.
    Checkpoints hand off through a temporary spill directory.  With
    ``pool`` the spans run as pool tasks (each guarded by ``timeout``, if
    set); without one they run in order in-process.  Raises
    ``TimeoutError`` or ``RuntimeError`` when a span fails.
    """
    effective = kernel if kernel is not None else scenario.chip.kernel
    spans = plan_spans(scenario, shards=shards)
    with _spill_dir() as spill_dir:
        tasks = _span_tasks(scenario, spans, spill_dir, effective, timeout,
                            _run_options(scenario))
        if pool is None:
            parts = [fn(*args) for fn, args in tasks]
        else:
            outcomes = pool.run_tasks(tasks, timeout=timeout)
            _raise_on_shard_failure(scenario, outcomes, timeout)
            parts = [o.value for o in outcomes]
    return _merge_shard_parts(scenario, parts)


def _raise_on_shard_failure(scenario: Scenario, outcomes, timeout) -> None:
    for outcome in outcomes:
        if outcome.status == "timeout":
            raise TimeoutError(
                f"shard of {scenario.name!r} exceeded {timeout}s")
        if outcome.status != "ok":
            raise RuntimeError(
                f"shard of {scenario.name!r} failed:\n{outcome.error}")


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
@dataclass
class ScenarioOutcome:
    """One scenario's result plus how it was obtained.

    ``status`` is one of ``"ok"`` (record present, fresh or cached),
    ``"timeout"`` (exceeded the per-task budget), ``"error"`` (raised or
    the worker died) or ``"uncached"`` (``expect_cached`` found no stored
    record and refused to compute).  Only ``"ok"`` outcomes carry a record.
    """

    scenario: Scenario
    record: Optional[Dict[str, Any]]
    cached: bool
    status: str = "ok"
    error: Optional[str] = None


@dataclass
class SuiteReport:
    """Everything :func:`run_suite` did, in suite order."""

    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    jobs: int = 1

    @property
    def records(self) -> List[Dict[str, Any]]:
        return [o.record for o in self.outcomes if o.record is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached and o.status == "ok")

    @property
    def failures(self) -> List[ScenarioOutcome]:
        """Outcomes that produced no record (timeout / error / uncached)."""
        return [o for o in self.outcomes if o.status != "ok"]


_STATUS_TAGS = {
    "timeout": "[timeout   ]",
    "error": "[error     ]",
    "uncached": "[uncached  ]",
}


def run_suite(
    scenarios: List[Scenario],
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    shard_increments: int = 1,
    timeout: Optional[float] = None,
    expect_cached: bool = False,
    pool: Optional[WorkerPool] = None,
    kernel: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace_base: Optional[str] = None,
) -> SuiteReport:
    """Run a suite of scenarios, consulting and filling the result store.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs serially in-process (unless ``timeout``
        is set, which needs process isolation); results are identical either
        way because every scenario derives its seeds from its own spec.
    store:
        Optional :class:`ResultStore`.  Scenarios whose spec hash is already
        stored are reported as cache hits and not re-run.
    force:
        Re-run every scenario even on a cache hit, replacing stored records.
    progress:
        Optional callback receiving one human-readable line per scenario.
    shard_increments:
        Split each pending scenario's increment stream into up to this many
        spans, each its own pool task, handing chip state between them as
        :mod:`repro.snapshot` checkpoints (see the module docstring).  ``1``
        disables sharding.
    timeout:
        Per-task wall-clock budget in seconds.  An overdue task's worker is
        killed; the scenario records a ``timeout`` outcome and the rest of
        the suite keeps running.  With sharding the budget guards each span.
    expect_cached:
        Assert-only mode: scenarios missing from the store are *not* run but
        reported with status ``"uncached"`` (in ``report.failures``), so CI
        can verify a warm cache without grep-ing log text.
    pool:
        Explicit :class:`WorkerPool` to run on; defaults to the process-wide
        shared pool (:func:`~repro.harness.pool.get_pool`), which persists
        between calls so repeated suites reuse warm workers.
    kernel:
        Override every scenario's NoC kernel pin (one of
        :data:`repro.arch.config.KERNELS`).  A speed knob only: records,
        spec hashes and cache behaviour are identical across kernels, so
        this composes freely with the store.
    tracer:
        Optional :class:`repro.obs.Tracer` observing the harness side of
        the run: cache hits/outcomes, pool task spans, store writes.  The
        caller owns saving it.  Observer-only by contract — attaching it
        never changes a record byte.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` accumulating runtime
        metrics (suite outcomes, pool task latency/timeouts, store
        rewrites).  These are wall-clock/operational values and are never
        embedded in records (records carry their own deterministic
        ``metrics`` key, always).
    trace_base:
        Base path for per-scenario simulator traces: each freshly computed
        scenario writes a Chrome trace to
        ``derive_trace_path(trace_base, name)`` (per-span files when
        sharded).  Works with every execution mode, including pooled
        workers.
    """
    say = progress or (lambda _msg: None)
    started = time.perf_counter()
    report = SuiteReport(jobs=jobs)

    if trace_base is not None:
        # trace_path is identity-free (stripped from spec_dict), so this
        # rewrite changes no spec hash and no cache decision.
        scenarios = [
            s.with_(options=replace(
                s.options,
                trace_path=derive_trace_path(trace_base, s.name)))
            for s in scenarios
        ]
    suite_start_ns = tracer.now_ns() if tracer is not None else 0

    observed_pool: Optional[WorkerPool] = None
    if store is not None:
        store.tracer = tracer
        store.metrics = metrics
    try:
        hashes = [s.spec_hash() for s in scenarios]
        pending: List[int] = []  # indices into `scenarios` that must actually run
        slots: List[Optional[ScenarioOutcome]] = [None] * len(scenarios)
        seen_this_run: Dict[str, int] = {}
        for i, (scenario, spec_hash) in enumerate(zip(scenarios, hashes)):
            cached = store.get(spec_hash) if (store is not None and not force) else None
            if cached is not None:
                slots[i] = ScenarioOutcome(scenario, cached, cached=True)
                say(f"[cache hit ] {scenario.name}")
                if tracer is not None:
                    tracer.instant("cache_hit", "suite", scenario=scenario.name)
            elif spec_hash in seen_this_run:
                # Duplicate spec inside one suite: run once, reuse the record.
                pass
            else:
                seen_this_run[spec_hash] = i
                pending.append(i)

        if pending and expect_cached:
            for i in pending:
                slots[i] = ScenarioOutcome(scenarios[i], None, cached=False,
                                           status="uncached")
                say(f"{_STATUS_TAGS['uncached']} {scenarios[i].name}")
            pending = []

        if pending:
            workers = max(1, min(jobs, len(pending) * max(1, shard_increments)))
            if workers > 1 or timeout is not None:
                observed_pool = pool or get_pool(workers)
                observed_pool.tracer = tracer
                observed_pool.metrics = metrics
                outcomes = _run_pending_pooled(
                    scenarios, pending, observed_pool,
                    shard_increments=shard_increments, timeout=timeout,
                    max_workers=workers, kernel=kernel,
                )
            else:
                # Serial in-process path.  Sharding still executes span-by-span
                # (exercising the capture/restore/merge path) so the flag
                # never silently no-ops just because jobs defaulted to 1.
                outcomes = []
                for i in pending:
                    if shard_increments > 1:
                        record = run_scenario_sharded(scenarios[i], shard_increments,
                                                      kernel=kernel)
                    else:
                        record = run_scenario(scenarios[i], kernel=kernel)
                    outcomes.append(
                        ScenarioOutcome(scenarios[i], record, cached=False))
            fresh_records = []
            for i, outcome in zip(pending, outcomes):
                slots[i] = outcome
                if outcome.status == "ok":
                    say(f"[computed  ] {outcome.scenario.name}")
                    fresh_records.append(outcome.record)
                else:
                    say(f"{_STATUS_TAGS[outcome.status]} {outcome.scenario.name}")
                if tracer is not None:
                    tracer.instant(f"scenario_{outcome.status}", "suite",
                                   scenario=outcome.scenario.name)
            if store is not None and fresh_records:
                store.put_many(fresh_records)

        # Fill outcomes for intra-suite duplicates from the scenario that ran.
        by_hash = {hashes[i]: s for i, s in enumerate(slots) if s is not None}
        for i, slot in enumerate(slots):
            if slot is None:
                twin = by_hash[hashes[i]]
                slots[i] = ScenarioOutcome(
                    scenarios[i], twin.record, cached=twin.status == "ok",
                    status=twin.status, error=twin.error,
                )
    finally:
        if store is not None:
            store.tracer = None
            store.metrics = None
        if observed_pool is not None:
            observed_pool.tracer = None
            observed_pool.metrics = None

    report.outcomes = [s for s in slots if s is not None]
    report.elapsed_s = time.perf_counter() - started
    if metrics is not None:
        outcomes_total = metrics.counter(
            "suite_scenarios_total", "Suite scenario outcomes by status",
            ("status",))
        for outcome in report.outcomes:
            status = "cached" if outcome.cached and outcome.status == "ok" \
                else outcome.status
            outcomes_total.inc(status=status)
        metrics.gauge("suite_elapsed_seconds",
                      "Wall time of the last suite run").set(report.elapsed_s)
    if tracer is not None:
        tracer.complete(
            "suite_run", "harness", start_ns=suite_start_ns,
            dur_ns=tracer.now_ns() - suite_start_ns,
            scenarios=len(scenarios), jobs=jobs,
            cache_hits=report.cache_hits, cache_misses=report.cache_misses,
            failures=len(report.failures))
    return report


def _run_pending_pooled(
    scenarios: List[Scenario],
    pending: List[int],
    pool: WorkerPool,
    *,
    shard_increments: int,
    timeout: Optional[float],
    max_workers: Optional[int] = None,
    kernel: Optional[str] = None,
) -> List[ScenarioOutcome]:
    """Run pending scenarios on a pool, sharding each when asked to.

    All span tasks (of every pending scenario) go into one batch so spans
    of a long scenario interleave with other scenarios across the workers.
    Returns one outcome per pending index, in ``pending`` order.

    Every scenario's spans stay contiguous and in span order within the
    batch.  The batch submits tasks in that order and the pool dispatches
    them first-in first-out, which guarantees progress: the earliest
    unfinished span of any scenario always has a finished predecessor, so a
    worker blocked on an upstream checkpoint can never deadlock the batch.
    """
    with _spill_dir() as spill_dir:
        tasks = []
        task_owner: List[int] = []  # task index -> position in `pending`
        for pos, i in enumerate(pending):
            scenario = scenarios[i]
            effective = kernel if kernel is not None else scenario.chip.kernel
            spans = plan_spans(scenario, shards=shard_increments)
            tasks += _span_tasks(scenario, spans, spill_dir, effective,
                                 timeout, _run_options(scenario))
            task_owner += [pos] * len(spans)
        results = pool.run_tasks(tasks, timeout=timeout,
                                 max_workers=max_workers)

    grouped: Dict[int, List[TaskResult]] = {}
    for task_id, result in enumerate(results):
        grouped.setdefault(task_owner[task_id], []).append(result)

    outcomes: List[ScenarioOutcome] = []
    for pos, i in enumerate(pending):
        scenario = scenarios[i]
        parts = grouped[pos]
        bad = [r for r in parts if r.status != "ok"]
        if bad:
            status = ("timeout" if any(r.status == "timeout" for r in bad)
                      else "error")
            error = next((r.error for r in bad if r.error), None)
            outcomes.append(ScenarioOutcome(scenario, None, cached=False,
                                            status=status, error=error))
        else:
            record = _merge_shard_parts(scenario, [r.value for r in parts])
            outcomes.append(ScenarioOutcome(scenario, record, cached=False))
    return outcomes
