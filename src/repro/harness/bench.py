"""Machine-readable performance benchmarking: the ``repro bench`` pipeline.

The simulator's throughput story so far (~3.8K → ~4.6K → ~9K cycles/sec on
the Fig 8 tiny workload across PRs) lived only in prose.  This module makes
the trajectory a tracked artifact, in the spirit of the GAP / GBBS
benchmark drivers: every run emits one **schema-versioned JSON report**
(``BENCH_<tag>.json``) that CI uploads and compares against a committed
baseline with a tolerance.

Methodology
-----------
* Workloads are ordinary registered suites (default: ``perf``), so the
  benchmarked scenarios are exactly the ones the harness and the paper
  reproduction run.
* Repetitions are **interleaved** (rep-major order: every workload once,
  then every workload again, ...), so slow machine drift — thermal
  throttling, a noisy CI neighbour — spreads across all workloads instead
  of biasing whichever ran last.
* The timed region is the simulation only (streaming + query); dataset
  generation and device construction are excluded, so ``cycles/sec``
  tracks the simulator hot loop the ROADMAP numbers refer to.
* Cycle counts are deterministic: if two repetitions of one workload
  disagree, the run itself is broken and :func:`run_bench` raises rather
  than reporting garbage.  The same property powers the baseline check —
  when the repro version matches, differing cycles mean an unversioned
  behaviour change, which :func:`compare_bench` flags as a hard failure
  regardless of tolerance.
"""

from __future__ import annotations

import json
import platform
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.harness.runner import run_scenario
from repro.harness.scenario import Scenario
from repro.obs import derive_trace_path

#: Schema identifier stamped into (and required from) every bench JSON.
BENCH_SCHEMA = "repro-bench/v1"

#: Suite benchmarked by default (registered in :mod:`repro.harness.registry`).
DEFAULT_SUITE = "perf"

#: Interleaved repetitions per workload.
DEFAULT_REPS = 3

#: Relative cycles/sec regression tolerated by :func:`compare_bench`.
DEFAULT_TOLERANCE = 0.25


@dataclass
class WorkloadResult:
    """Measured performance of one benchmark workload."""

    name: str
    spec_hash: str
    total_cycles: int
    sim_wall_s: List[float] = field(default_factory=list)

    @property
    def cycles_per_sec(self) -> List[float]:
        return [self.total_cycles / s for s in self.sim_wall_s if s > 0]

    @property
    def median_cycles_per_sec(self) -> float:
        return statistics.median(self.cycles_per_sec)


def run_bench(
    scenarios: Sequence[Scenario],
    *,
    reps: int = DEFAULT_REPS,
    progress: Optional[Callable[[str], None]] = None,
    kernel: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> List[WorkloadResult]:
    """Benchmark each scenario ``reps`` times in interleaved order.

    ``kernel`` pins the NoC kernel for every workload (the point of
    benching both: kernels are schedule-identical, so any cycles/sec delta
    is pure implementation speed).  ``trace_path`` runs **one extra,
    untimed** traced repetition per workload after the timed ones — the
    timed medians stay honest (no instrumentation overhead in them), the
    trace shows where the time went, and the traced rep's cycle count is
    checked against the timed reps' as a live observer-only assertion.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    say = progress or (lambda _msg: None)
    results: Dict[str, WorkloadResult] = {}
    for rep in range(reps):
        for scenario in scenarios:
            timings: Dict[str, float] = {}
            record = run_scenario(scenario, timings=timings, kernel=kernel)
            cycles = record["total_cycles"]
            current = results.get(scenario.name)
            if current is None:
                current = WorkloadResult(
                    name=scenario.name,
                    spec_hash=record["spec_hash"],
                    total_cycles=cycles,
                )
                results[scenario.name] = current
            elif current.total_cycles != cycles:
                raise RuntimeError(
                    f"nondeterministic workload {scenario.name!r}: "
                    f"{current.total_cycles} vs {cycles} cycles across reps"
                )
            current.sim_wall_s.append(timings["sim_s"])
            say(f"[rep {rep + 1}/{reps}] {scenario.name}: "
                f"{cycles / timings['sim_s']:,.0f} cycles/sec")
    if trace_path is not None:
        for scenario in scenarios:
            path = derive_trace_path(trace_path, scenario.name)
            traced = scenario.with_(options=replace(scenario.options,
                                                    trace_path=path))
            record = run_scenario(traced, kernel=kernel)
            if record["total_cycles"] != results[scenario.name].total_cycles:
                raise RuntimeError(
                    f"traced rep of {scenario.name!r} diverged: "
                    f"{record['total_cycles']} vs "
                    f"{results[scenario.name].total_cycles} cycles — "
                    "instrumentation broke the observer-only contract")
            say(f"[trace    ] {scenario.name}: {path}")
    return [results[s.name] for s in scenarios if s.name in results]


#: Schema identifier of the A/B (kernel-comparison) bench JSON.
BENCH_AB_SCHEMA = "repro-bench-ab/v1"


def run_bench_ab(
    scenarios: Sequence[Scenario],
    kernels: Sequence[str],
    *,
    reps: int = DEFAULT_REPS,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, List[WorkloadResult]]:
    """Honest in-process A/B: bench each workload under every kernel.

    The inner loop interleaves *kernels* inside each (rep, workload) pair —
    python then native back to back, on the same warm process — so machine
    drift lands on both sides of the comparison instead of biasing
    whichever kernel ran in a separate invocation.  (Separate-process
    comparisons on the perf suite show ±15% rep-to-rep spread from
    scheduler noise alone; interleaving is what makes a ~1.2x delta
    measurable at all.)

    Beyond timing, the A/B is a live contract check: every kernel must
    report the identical deterministic cycle count for a workload, so a
    schedule divergence fails the bench rather than poisoning a speedup
    number.  Returns ``{kernel: [WorkloadResult, ...]}`` in scenario order.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if len(kernels) < 2:
        raise ValueError("A/B comparison needs at least two kernels")
    if len(set(kernels)) != len(kernels):
        raise ValueError(f"duplicate kernels in A/B list: {list(kernels)}")
    say = progress or (lambda _msg: None)
    results: Dict[str, Dict[str, WorkloadResult]] = {k: {} for k in kernels}
    for rep in range(reps):
        for scenario in scenarios:
            for kernel in kernels:
                timings: Dict[str, float] = {}
                record = run_scenario(scenario, timings=timings, kernel=kernel)
                cycles = record["total_cycles"]
                current = results[kernel].get(scenario.name)
                if current is None:
                    current = WorkloadResult(
                        name=scenario.name,
                        spec_hash=record["spec_hash"],
                        total_cycles=cycles,
                    )
                    results[kernel][scenario.name] = current
                elif current.total_cycles != cycles:
                    raise RuntimeError(
                        f"nondeterministic workload {scenario.name!r} under "
                        f"kernel {kernel!r}: {current.total_cycles} vs "
                        f"{cycles} cycles across reps")
                current.sim_wall_s.append(timings["sim_s"])
                say(f"[rep {rep + 1}/{reps}] {scenario.name} ({kernel}): "
                    f"{cycles / timings['sim_s']:,.0f} cycles/sec")
    for scenario in scenarios:
        cycles = {k: results[k][scenario.name].total_cycles for k in kernels}
        if len(set(cycles.values())) != 1:
            raise RuntimeError(
                f"kernel schedules diverged on {scenario.name!r}: {cycles} "
                "— the bit-identical-schedule contract is broken")
    return {k: [results[k][s.name] for s in scenarios] for k in kernels}


def ab_payload(
    results_by_kernel: Dict[str, List[WorkloadResult]],
    *,
    tag: str,
    suite: str,
    reps: int,
) -> Dict[str, Any]:
    """The schema-versioned JSON document an A/B bench run emits.

    Speedups are medians relative to the **first** kernel in the list (the
    baseline side of the comparison, conventionally ``python``).
    """
    kernels = list(results_by_kernel)
    base = kernels[0]
    workloads = []
    for i, base_result in enumerate(results_by_kernel[base]):
        per_kernel = {
            k: {
                "sim_wall_s": [round(s, 6)
                               for s in results_by_kernel[k][i].sim_wall_s],
                "median_cycles_per_sec":
                    round(results_by_kernel[k][i].median_cycles_per_sec, 1),
            }
            for k in kernels
        }
        base_cps = per_kernel[base]["median_cycles_per_sec"]
        workloads.append({
            "name": base_result.name,
            "spec_hash": base_result.spec_hash,
            "total_cycles": base_result.total_cycles,
            "kernels": per_kernel,
            "speedup_vs_first": {
                k: round(per_kernel[k]["median_cycles_per_sec"] / base_cps, 3)
                for k in kernels
            },
        })
    return {
        "schema": BENCH_AB_SCHEMA,
        "tag": tag,
        "suite": suite,
        "reps": reps,
        "kernels": kernels,
        "repro_version": __version__,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }


def bench_payload(
    results: Sequence[WorkloadResult],
    *,
    tag: str,
    suite: str,
    reps: int,
    kernel: Optional[str] = None,
) -> Dict[str, Any]:
    """The schema-versioned JSON document a bench run emits.

    ``kernel`` records which NoC kernel the run was pinned to (``"auto"``
    when unpinned); informational, so older readers of the schema are
    unaffected.
    """
    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "suite": suite,
        "reps": reps,
        "kernel": kernel or "auto",
        "repro_version": __version__,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": [
            {
                "name": r.name,
                "spec_hash": r.spec_hash,
                "total_cycles": r.total_cycles,
                "sim_wall_s": [round(s, 6) for s in r.sim_wall_s],
                "cycles_per_sec": [round(c, 1) for c in r.cycles_per_sec],
                "median_cycles_per_sec": round(r.median_cycles_per_sec, 1),
            }
            for r in results
        ],
    }


def write_bench(path: str | Path, payload: Dict[str, Any]) -> Path:
    """Write a bench payload as pretty-printed JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: str | Path) -> Dict[str, Any]:
    """Load and schema-check a bench JSON document."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    return payload


def update_baseline(source: str | Path,
                    dest: str | Path = "benchmarks/BENCH_baseline.json") -> Dict[str, Any]:
    """Promote a downloaded ``BENCH_ci.json`` artifact to the committed baseline.

    The CI perf gate compares against ``benchmarks/BENCH_baseline.json``;
    measuring that baseline on a dev machine makes the gate compare across
    hardware.  This tool (``repro bench --update-baseline``) closes the
    loop: download the ``bench-report`` artifact from a green CI run on the
    target hardware and promote it, re-tagged ``baseline``, schema checked,
    with the provenance tag it was measured under preserved in
    ``source_tag``.  Returns the written payload.
    """
    payload = load_bench(source)
    if not payload.get("workloads"):
        raise ValueError(f"{source}: bench report has no workloads; refusing "
                         "to install an empty baseline")
    payload["source_tag"] = payload.get("tag", "?")
    payload["tag"] = "baseline"
    write_bench(dest, payload)
    return payload


@dataclass
class ComparisonRow:
    """One workload's current-vs-baseline verdict."""

    name: str
    status: str  # "ok" | "regression" | "cycles-changed" | "new" | "missing"
    baseline_cps: Optional[float] = None
    current_cps: Optional[float] = None
    detail: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline_cps or self.current_cps is None:
            return None
        return self.current_cps / self.baseline_cps


@dataclass
class BenchComparison:
    """Verdicts for every workload in current ∪ baseline."""

    rows: List[ComparisonRow] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    #: Report lines about checks that did not run (e.g. the cycle check
    #: across a version mismatch); informational, never failures.
    notes: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[ComparisonRow]:
        return [r for r in self.rows
                if r.status in ("regression", "cycles-changed", "missing")]

    @property
    def passed(self) -> bool:
        return not self.failures


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchComparison:
    """Compare a bench payload against a baseline payload.

    A workload **regresses** when its median cycles/sec falls below
    ``(1 - tolerance)`` of the baseline median; running faster never fails.
    When both payloads were produced by the same repro version, deterministic
    cycle counts must match exactly — a mismatch means simulator behaviour
    changed without a version bump and fails the comparison outright.
    Workloads missing from the current run fail too (a silently shrunk
    benchmark must not look like a pass); new workloads are reported as
    informational.  A version mismatch leaves a note saying the cycle check
    was skipped, so a stale baseline cannot disarm it silently.
    """
    comparison = BenchComparison(tolerance=tolerance)
    current_by_name = {w["name"]: w for w in current.get("workloads", [])}
    baseline_by_name = {w["name"]: w for w in baseline.get("workloads", [])}
    same_version = (current.get("repro_version") == baseline.get("repro_version"))
    if not same_version:
        comparison.notes.append(
            f"cycle check skipped: current repro "
            f"{current.get('repro_version')!r} != baseline "
            f"{baseline.get('repro_version')!r} (re-tag or re-promote the "
            f"baseline at this version to re-arm it)")

    for name, base in baseline_by_name.items():
        cur = current_by_name.get(name)
        base_cps = base.get("median_cycles_per_sec")
        if cur is None:
            comparison.rows.append(ComparisonRow(
                name=name, status="missing", baseline_cps=base_cps,
                detail="workload present in baseline but not in this run",
            ))
            continue
        cur_cps = cur.get("median_cycles_per_sec")
        row = ComparisonRow(name=name, status="ok",
                            baseline_cps=base_cps, current_cps=cur_cps)
        if same_version and cur.get("total_cycles") != base.get("total_cycles"):
            row.status = "cycles-changed"
            row.detail = (
                f"cycles {base.get('total_cycles')} -> {cur.get('total_cycles')} "
                f"at the same repro version {current.get('repro_version')!r}"
            )
        elif base_cps and cur_cps is not None and \
                cur_cps < (1.0 - tolerance) * base_cps:
            row.status = "regression"
            row.detail = (
                f"{cur_cps:,.0f} cycles/sec is "
                f"{100 * (1 - cur_cps / base_cps):.1f}% below baseline "
                f"{base_cps:,.0f} (tolerance {100 * tolerance:.0f}%)"
            )
        comparison.rows.append(row)

    for name, cur in current_by_name.items():
        if name not in baseline_by_name:
            comparison.rows.append(ComparisonRow(
                name=name, status="new",
                current_cps=cur.get("median_cycles_per_sec"),
                detail="workload not present in baseline",
            ))
    return comparison
