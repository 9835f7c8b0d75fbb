"""Harness v2 tests: worker pool, sharding, timeouts, store lifecycle, bench.

Covers the PR-3 acceptance surface: sharded-parallel records byte-identical
to serial ones, per-task timeouts that record an outcome without killing
sibling scenarios, `suite diff` on before/after stores, compaction/GC that
preserves latest-version records, crash-safe store rewrites, and the
`repro bench` report/compare pipeline.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import __version__
from repro.arch._native import HAVE_NATIVE
from repro.harness import (
    ChipSpec,
    DatasetSpec,
    ResultStore,
    RunOptions,
    Scenario,
    WorkerPool,
    diff_stores,
    get_pool,
    plan_spans,
    record_identity,
    render_store_diff,
    run_bench,
    run_scenario,
    run_scenario_sharded,
    run_suite,
    shutdown_pool,
)
from repro.harness.bench import (
    BENCH_AB_SCHEMA,
    BENCH_SCHEMA,
    ab_payload,
    bench_payload,
    compare_bench,
    load_bench,
    run_bench_ab,
    write_bench,
)

from helpers import requires_numpy


def tiny_scenario(name="t", algorithm="ingest", **dataset_kwargs) -> Scenario:
    """A scenario small enough that running it takes well under a second."""
    defaults = dict(vertices=64, edges=256, sampling="edge", seed=3)
    defaults.update(dataset_kwargs)
    return Scenario(
        name=name,
        dataset=DatasetSpec(**defaults),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
    )


# Module-level task functions: pool tasks are pickled by reference.
def _double(x):
    return x * 2


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _boom():
    raise RuntimeError("task exploded")


def _die():
    os._exit(17)


@pytest.fixture()
def pool2():
    pool = WorkerPool(2)
    yield pool
    pool.shutdown()


# The two entry points of the one dispatcher.  The error, crash, timeout
# and idle-death contract is checked through both.
def _batch(pool, tasks, timeout=None):
    """``repro suite run``'s path: one run_tasks batch."""
    return pool.run_tasks(tasks, timeout=timeout)


def _each(pool, tasks, timeout=None):
    """``repro serve``'s path: one thread per task, each blocking in run()."""
    with ThreadPoolExecutor(max_workers=len(tasks)) as threads:
        return list(threads.map(
            lambda task: pool.run(*task, timeout=timeout), tasks))


def _check_task_error_is_contained(pool, execute):
    results = execute(pool, [(_boom, ()), (_double, (5,))])
    assert results[0].status == "error"
    assert "task exploded" in results[0].error
    assert results[1].ok and results[1].value == 10


def _check_worker_crash_is_contained(pool, execute):
    results = execute(pool, [(_die, ()), (_double, (3,))])
    statuses = [r.status for r in results]
    assert statuses[0] == "error" and statuses[1] == "ok"
    # The pool replaced the dead worker and stays usable.
    again = execute(pool, [(_double, (4,))])
    assert again[0].value == 8 and pool.size == 2


def _check_timeout_kills_only_the_overdue_task(pool, execute):
    results = execute(
        pool,
        [(_sleep_then, (10.0, "slow")), (_double, (6,)), (_double, (7,))],
        timeout=0.5,
    )
    assert results[0].status == "timeout"
    assert results[1].value == 12 and results[2].value == 14
    assert pool.size == 2  # replacement spawned
    assert pool.respawns == 1


def _check_worker_dying_while_idle_is_replaced(pool, execute):
    import signal

    execute(pool, [(_double, (1,))])
    # Kill one worker between tasks (simulates an external OOM kill); the
    # next dispatch must replace it instead of crashing on send.
    victim_pid = pool.worker_pids()[0]
    os.kill(victim_pid, signal.SIGKILL)
    time.sleep(0.2)  # let the SIGKILL land; is_alive() reaps the zombie
    results = execute(pool, [(_double, (i,)) for i in range(4)])
    assert [r.value for r in results] == [0, 2, 4, 6]
    assert pool.size == 2


class TestWorkerPool:
    def test_results_in_submission_order(self, pool2):
        results = pool2.run_tasks([(_double, (i,)) for i in range(7)])
        assert [r.value for r in results] == [0, 2, 4, 6, 8, 10, 12]
        assert all(r.ok for r in results)

    def test_task_error_is_contained(self, pool2):
        _check_task_error_is_contained(pool2, _batch)

    def test_task_error_is_contained_via_run(self, pool2):
        _check_task_error_is_contained(pool2, _each)

    def test_worker_crash_is_contained_and_pool_recovers(self, pool2):
        _check_worker_crash_is_contained(pool2, _batch)

    def test_worker_crash_is_contained_via_run(self, pool2):
        _check_worker_crash_is_contained(pool2, _each)

    def test_timeout_kills_only_the_overdue_task(self, pool2):
        _check_timeout_kills_only_the_overdue_task(pool2, _batch)

    def test_timeout_kills_only_the_overdue_task_via_run(self, pool2):
        _check_timeout_kills_only_the_overdue_task(pool2, _each)

    def test_worker_dying_while_idle_is_replaced(self, pool2):
        _check_worker_dying_while_idle_is_replaced(pool2, _batch)

    def test_worker_dying_while_idle_is_replaced_via_run(self, pool2):
        _check_worker_dying_while_idle_is_replaced(pool2, _each)

    def test_concurrent_run_from_four_threads(self, pool2):
        def client(k):
            return [pool2.run(_double, (100 * k + i,)).value
                    for i in range(25)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave submitters aggressively
        try:
            with ThreadPoolExecutor(max_workers=4) as threads:
                got = list(threads.map(client, range(4), timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert got == [[2 * (100 * k + i) for i in range(25)]
                       for k in range(4)]
        assert pool2.respawns == 0

    def test_observers_see_tasks_timeouts_and_respawns(self, pool2):
        from repro.obs import MetricsRegistry, Tracer, validate_trace

        pool2.tracer, pool2.metrics = Tracer(), MetricsRegistry()
        pool2.run_tasks([(_sleep_then, (10.0, "slow")), (_double, (1,))],
                        timeout=0.5)
        events = pool2.tracer.events
        assert validate_trace(pool2.tracer.to_dict()) == []
        spans = sorted((e["args"]["task_id"], e["args"]["status"])
                       for e in events if e["name"] == "pool_task")
        assert spans == [(0, "timeout"), (1, "ok")]
        names = [e["name"] for e in events]
        assert names.count("task_timeout") == 1
        assert names.count("worker_respawn") == 1
        snap = pool2.metrics.snapshot()
        assert snap["pool_respawns_total"]["series"][0]["value"] == 1
        assert snap["pool_task_seconds"]["series"][0]["value"]["count"] == 2

    def test_dispatcher_failure_fails_tasks_instead_of_hanging(
            self, pool2, monkeypatch):
        import repro.harness.pool as pool_module

        def cannot_fork(ctx):
            raise OSError("no more processes")

        monkeypatch.setattr(pool_module, "_Worker", cannot_fork)
        # The crash needs a respawn, which fails: every task still resolves.
        results = pool2.run_tasks(
            [(_die, ()), (_sleep_then, (0.5, 1)), (_double, (2,))])
        assert [r.status for r in results] == ["error"] * 3
        assert "no more processes" in results[2].error
        assert not pool2.alive and pool2.worker_pids() == []

    def test_shutdown_fails_queued_tasks_and_finishes_in_flight(self):
        pool = WorkerPool(1)
        in_flight = pool.submit(_sleep_then, (1.0, "done"))
        time.sleep(0.3)  # the dispatcher hands the task to the one worker
        queued = pool.submit(_double, (1,))
        pool.shutdown()
        assert in_flight.result(timeout=0).value == "done"
        assert queued.result(timeout=0).status == "error"
        assert queued.result(timeout=0).error == "pool shut down before dispatch"
        with pytest.raises(RuntimeError):
            pool.submit(_double, (1,))

    def test_workers_persist_across_batches(self, pool2):
        pool2.run_tasks([(_double, (1,))])
        pids_first = sorted(pool2.worker_pids())
        pool2.run_tasks([(_double, (2,)) for _ in range(4)])
        assert sorted(pool2.worker_pids()) == pids_first

    def test_shared_pool_reused_and_resized(self):
        shutdown_pool()  # earlier suites may have left a larger shared pool
        try:
            a = get_pool(2)
            assert get_pool(2) is a
            b = get_pool(3)  # growing rebuilds
            assert b is not a and b.size == 3
            # A smaller request reuses the warm larger pool (callers cap
            # per-batch concurrency via run_tasks(max_workers=...)).
            assert get_pool(2) is b
        finally:
            shutdown_pool()

    def test_max_workers_caps_concurrency(self):
        pool = WorkerPool(4)
        try:
            started = time.monotonic()
            results = pool.run_tasks(
                [(_sleep_then, (0.2, i)) for i in range(4)], max_workers=1)
            elapsed = time.monotonic() - started
        finally:
            pool.shutdown()
        assert [r.value for r in results] == [0, 1, 2, 3]
        # Serialised: 4 x 0.2s tasks cannot finish in parallel time.
        assert elapsed >= 0.75


@requires_numpy
class TestSharding:
    def test_shard_spans_cover_contiguously(self):
        def spans(n, **kwargs):
            return plan_spans(tiny_scenario(num_increments=n), **kwargs)

        assert spans(10, shards=3) == [(0, 3), (3, 7), (7, 10)]
        assert spans(2, shards=8) == [(0, 1), (1, 2)]
        assert spans(5, shards=1) == [(0, 5)]
        assert spans(10, cadence=4) == [(0, 4), (4, 8), (8, 10)]
        # A cycle budget can leave continuations in flight at a boundary,
        # which a checkpoint refuses, so shard and serve plans alike keep
        # the whole stream in one span.
        truncated = tiny_scenario(num_increments=10).with_(
            options=RunOptions(max_cycles_per_increment=32))
        assert plan_spans(truncated, shards=4) == [(0, 10)]
        assert plan_spans(truncated, cadence=1) == [(0, 10)]

    def test_sharded_record_byte_identical_to_serial(self):
        scenario = tiny_scenario("shard", "bfs")
        serial = run_scenario(scenario)
        sharded = run_scenario_sharded(scenario, 4)
        assert json.dumps(serial, sort_keys=True) == \
               json.dumps(sharded, sort_keys=True)

    def test_sharded_pooled_suite_store_byte_identical(self, tmp_path):
        suite = [tiny_scenario("s1", "ingest"), tiny_scenario("s2", "bfs")]
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        sharded_store = ResultStore(tmp_path / "sharded.jsonl")
        run_suite(suite, jobs=1, store=serial_store)
        pool = WorkerPool(3)
        try:
            run_suite(suite, jobs=3, store=sharded_store, shard_increments=3,
                      pool=pool)
        finally:
            pool.shutdown()
        assert (tmp_path / "serial.jsonl").read_bytes() == \
               (tmp_path / "sharded.jsonl").read_bytes()

    def test_serial_jobs_still_shard_in_process(self, tmp_path, monkeypatch):
        # --shard-increments must not silently no-op at jobs=1: the serial
        # path routes through run_scenario_sharded (replay/merge exercised).
        from repro.harness import runner as runner_mod

        calls = []
        real = runner_mod.run_scenario_sharded

        def spy(scenario, shards, **kwargs):
            calls.append((scenario.name, shards))
            return real(scenario, shards, **kwargs)

        monkeypatch.setattr(runner_mod, "run_scenario_sharded", spy)
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_suite([tiny_scenario("serial-shard", "bfs")],
                           jobs=1, store=store, shard_increments=3)
        assert calls == [("serial-shard", 3)]
        assert report.cache_misses == 1
        # Record equals the unsharded serial one.
        assert store.get(tiny_scenario("serial-shard", "bfs").spec_hash()) == \
               run_scenario(tiny_scenario("serial-shard", "bfs"))

    def test_sharded_runs_hit_the_same_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        scenario = tiny_scenario("cacheable", "bfs")
        pool = WorkerPool(2)
        try:
            first = run_suite([scenario], jobs=2, store=store,
                              shard_increments=2, pool=pool)
        finally:
            pool.shutdown()
        assert first.cache_misses == 1
        second = run_suite([scenario], jobs=1, store=store)
        assert second.cache_hits == 1


@requires_numpy
class TestSuiteTimeouts:
    def test_timeout_recorded_without_killing_siblings(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        slow = tiny_scenario("slow", "bfs", vertices=1200, edges=12000)
        fast = tiny_scenario("fast", "ingest")
        pool = WorkerPool(2)
        try:
            report = run_suite([slow, fast], jobs=2, store=store,
                               timeout=0.1, pool=pool)
        finally:
            pool.shutdown()
        by_name = {o.scenario.name: o for o in report.outcomes}
        assert by_name["slow"].status == "timeout"
        assert by_name["slow"].record is None
        assert by_name["fast"].status == "ok"
        # Only the completed scenario lands in the store.
        assert len(store) == 1
        assert store.get(fast.spec_hash()) is not None
        assert [o.scenario.name for o in report.failures] == ["slow"]

    def test_timeout_applies_with_serial_jobs(self, tmp_path):
        # timeout forces process isolation even at jobs=1.
        slow = tiny_scenario("slow", "bfs", vertices=1200, edges=12000)
        pool = WorkerPool(1)
        try:
            report = run_suite([slow], jobs=1, timeout=0.1, pool=pool)
        finally:
            pool.shutdown()
        assert report.outcomes[0].status == "timeout"

    def test_expect_cached_refuses_to_compute(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        scenario = tiny_scenario("cold")
        report = run_suite([scenario], store=store, expect_cached=True)
        assert report.outcomes[0].status == "uncached"
        assert len(store) == 0 and report.failures
        # Warm the cache, then expect_cached passes.
        run_suite([scenario], store=store)
        warm = run_suite([scenario], store=store, expect_cached=True)
        assert warm.cache_hits == 1 and not warm.failures


class TestStoreLifecycle:
    def _record(self, name, version, *, cycles=100, seed=3):
        scenario = tiny_scenario(name, seed=seed)
        record = {
            "spec_hash": f"{name}-{version}",
            "name": name,
            "repro_version": version,
            "scenario": scenario.spec_dict(),
            "total_cycles": cycles,
            "energy": {"total_uj": 1.0, "time_us": 2.0},
        }
        return record

    def test_atomic_rewrite_survives_failed_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put({"spec_hash": "keep", "value": 1})
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk detached mid-replace")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            store.put({"spec_hash": "lost", "value": 2})
        monkeypatch.undo()
        # The original file is untouched and no temp litter remains.
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert ResultStore(path).get("keep") == {"spec_hash": "keep", "value": 1}

    def test_put_many_preserves_concurrent_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ours = ResultStore(path)
        ours.put({"spec_hash": "ours-1", "value": 1})
        # A second process (fresh handle) appends its own record.
        theirs = ResultStore(path)
        theirs.put({"spec_hash": "theirs-1", "value": 2})
        # Our stale handle writes again: their record must survive.
        ours.put({"spec_hash": "ours-2", "value": 3})
        final = ResultStore(path)
        assert {r["spec_hash"] for r in final} == \
               {"ours-1", "ours-2", "theirs-1"}

    def test_compact_keeps_latest_version_per_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("exp", "1.1.0", cycles=90),
            self._record("exp", "1.2.0", cycles=100),
            self._record("other", "1.2.0"),
        ])
        dropped = store.compact()
        assert [r["repro_version"] for r in dropped] == ["1.1.0"]
        assert len(store) == 2
        assert store.get("exp-1.2.0")["total_cycles"] == 100
        # On-disk form was rewritten too.
        assert len((tmp_path / "store.jsonl").read_text().splitlines()) == 2
        # Idempotent.
        assert store.compact() == []

    def test_gc_drops_all_non_current_versions(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("old-only", "1.1.0"),
            self._record("current", __version__),
        ])
        dropped = store.gc()
        assert [r["name"] for r in dropped] == ["old-only"]
        assert [r["name"] for r in store] == ["current"]

    def test_stale_records_report(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_many([
            self._record("old", "0.9.0"),
            self._record("new", __version__),
        ])
        assert [r["name"] for r in store.stale_records()] == ["old"]

    def test_record_identity_ignores_version(self):
        a = self._record("same", "1.1.0", cycles=1)
        b = self._record("same", "1.2.0", cycles=2)
        assert a["spec_hash"] != b["spec_hash"]
        assert record_identity(a) == record_identity(b)


class TestStoreDiff:
    def test_diff_matches_across_versions_and_reports_deltas(self, tmp_path):
        mk = TestStoreLifecycle()._record
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        store_a.put_many([
            mk("shared", "0.1.0", cycles=100),
            mk("gone", "0.1.0"),
        ])
        store_b.put_many([
            mk("shared", "0.2.0", cycles=140),
            mk("added", "0.2.0"),
        ])
        diff = diff_stores(store_a, store_b)
        assert not diff.identical
        assert [e.name for e in diff.changed] == ["shared"]
        (delta,) = [d for d in diff.changed[0].deltas
                    if d.metric == "total_cycles"]
        assert (delta.before, delta.after, delta.delta) == (100, 140, 40)
        assert delta.pct == pytest.approx(40.0)
        assert [r["name"] for r in diff.only_a] == ["gone"]
        assert [r["name"] for r in diff.only_b] == ["added"]
        # Both stores hold non-current versions -> everything is stale.
        assert len(diff.stale_a) == 2 and len(diff.stale_b) == 2
        rendered = render_store_diff(diff, label_a="before", label_b="after")
        assert "total_cycles" in rendered and "+40.0%" in rendered
        assert "only in before" in rendered and "only in after" in rendered

    @requires_numpy
    def test_diff_of_identical_stores_is_clean(self, tmp_path):
        scenario = tiny_scenario("same", "ingest")
        store_a = ResultStore(tmp_path / "a.jsonl")
        store_b = ResultStore(tmp_path / "b.jsonl")
        run_suite([scenario], store=store_a)
        run_suite([scenario], store=store_b)
        diff = diff_stores(store_a, store_b)
        assert diff.identical and not diff.changed
        assert "agree" in render_store_diff(diff)


class TestBench:
    @requires_numpy
    def test_run_bench_interleaves_and_reports_medians(self):
        scenarios = [tiny_scenario("w1", "ingest"), tiny_scenario("w2", "bfs")]
        results = run_bench(scenarios, reps=2)
        assert [r.name for r in results] == ["w1", "w2"]
        for result in results:
            assert len(result.sim_wall_s) == 2
            assert result.median_cycles_per_sec > 0
            assert result.total_cycles > 0

    @requires_numpy
    def test_payload_schema_and_round_trip(self, tmp_path):
        results = run_bench([tiny_scenario("w", "ingest")], reps=1)
        payload = bench_payload(results, tag="test", suite="custom", reps=1)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["repro_version"] == __version__
        path = write_bench(tmp_path / "BENCH_test.json", payload)
        assert load_bench(path) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "workloads": []}')
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_bench(path)

    def _payload(self, medians, *, version=__version__, cycles=None):
        cycles = cycles or {name: 1000 for name in medians}
        return {
            "schema": BENCH_SCHEMA,
            "repro_version": version,
            "workloads": [
                {"name": name, "median_cycles_per_sec": median,
                 "total_cycles": cycles[name]}
                for name, median in medians.items()
            ],
        }

    def test_compare_flags_regression_beyond_tolerance(self):
        baseline = self._payload({"w": 1000.0})
        ok = compare_bench(self._payload({"w": 800.0}), baseline,
                           tolerance=0.25)
        assert ok.passed
        bad = compare_bench(self._payload({"w": 700.0}), baseline,
                            tolerance=0.25)
        assert not bad.passed
        assert bad.failures[0].status == "regression"
        # Speedups never fail.
        fast = compare_bench(self._payload({"w": 5000.0}), baseline)
        assert fast.passed

    def test_compare_flags_cycle_drift_at_same_version(self):
        baseline = self._payload({"w": 1000.0}, cycles={"w": 1000})
        drift = compare_bench(
            self._payload({"w": 1000.0}, cycles={"w": 1001}), baseline)
        assert [r.status for r in drift.failures] == ["cycles-changed"]
        assert drift.notes == []
        # A version bump legitimises changed cycles, and says so.
        bumped = compare_bench(
            self._payload({"w": 1000.0}, version="9.9.9",
                          cycles={"w": 1001}),
            baseline)
        assert bumped.passed
        assert bumped.notes == [
            f"cycle check skipped: current repro '9.9.9' != baseline "
            f"{__version__!r} (re-tag or re-promote the baseline at this "
            f"version to re-arm it)"]

    def test_compare_flags_missing_and_new_workloads(self):
        baseline = self._payload({"kept": 1000.0, "dropped": 1000.0})
        current = self._payload({"kept": 1000.0, "added": 1000.0})
        comparison = compare_bench(current, baseline)
        statuses = {r.name: r.status for r in comparison.rows}
        assert statuses["dropped"] == "missing"
        assert statuses["added"] == "new"
        assert not comparison.passed  # missing fails, new does not


def _ab_kernels():
    """Python against native where it is built, else against the default
    kernel (``auto``, which then resolves to python as well)."""
    return ["python", "native" if HAVE_NATIVE else "auto"]


class TestBenchAb:
    @requires_numpy
    def test_run_bench_ab_reports_per_kernel_medians(self):
        kernels = _ab_kernels()
        scenarios = [tiny_scenario("w1", "ingest"), tiny_scenario("w2", "bfs")]
        results = run_bench_ab(scenarios, kernels, reps=2)
        assert sorted(results) == sorted(kernels)
        for kernel in kernels:
            assert [r.name for r in results[kernel]] == ["w1", "w2"]
            for result in results[kernel]:
                assert len(result.sim_wall_s) == 2
                assert result.median_cycles_per_sec > 0
        # The A/B doubles as a schedule-contract check: identical cycles.
        for i in range(2):
            assert len({results[k][i].total_cycles for k in kernels}) == 1

    def test_run_bench_ab_validates_kernel_list(self):
        with pytest.raises(ValueError, match="at least two"):
            run_bench_ab([tiny_scenario()], ["python"], reps=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_bench_ab([tiny_scenario()], ["python", "python"], reps=1)

    @requires_numpy
    def test_ab_payload_schema_and_speedups(self, tmp_path):
        kernels = _ab_kernels()
        results = run_bench_ab([tiny_scenario("w", "ingest")], kernels, reps=1)
        payload = ab_payload(results, tag="test", suite="custom", reps=1)
        assert payload["schema"] == BENCH_AB_SCHEMA
        assert payload["kernels"] == kernels
        (workload,) = payload["workloads"]
        assert workload["speedup_vs_first"][kernels[0]] == 1.0
        assert set(workload["kernels"]) == set(kernels)
        # write_bench round-trips, but load_bench guards the plain schema.
        path = write_bench(tmp_path / "BENCH_ab.json", payload)
        assert json.loads(path.read_text()) == payload

    @requires_numpy
    def test_cli_bench_ab(self, tmp_path, capsys):
        from repro.cli import main

        kernels = _ab_kernels()
        out_json = tmp_path / "BENCH_ab.json"
        assert main(["bench", "--suite", "tiny", "--reps", "1",
                     "--ab", ",".join(kernels), "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert f"{kernels[1]} speedup" in out
        assert json.loads(out_json.read_text())["schema"] == BENCH_AB_SCHEMA

    def test_cli_bench_ab_rejects_bad_flag_combinations(self, capsys):
        from repro.cli import main

        assert main(["bench", "--ab", "python",
                     "--suite", "tiny"]) == 2
        assert ">= 2 comma-separated kernels" in capsys.readouterr().err
        assert main(["bench", "--ab", "python,numpy",
                     "--suite", "tiny"]) == 2
        assert ">= 2 comma-separated kernels" in capsys.readouterr().err
        assert main(["bench", "--ab", "python,native", "--suite", "tiny",
                     "--baseline", "whatever.json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestCliIntegration:
    @requires_numpy
    def test_suite_run_shard_flags_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "serial.jsonl"
        store_b = tmp_path / "sharded.jsonl"
        assert main(["suite", "run", "--preset", "tiny", "--serial",
                     "--store", str(store_a)]) == 0
        assert main(["suite", "run", "--preset", "tiny", "-j", "2",
                     "--shard-increments", "2", "--store", str(store_b)]) == 0
        capsys.readouterr()
        assert store_a.read_bytes() == store_b.read_bytes()
        shutdown_pool()

    @requires_numpy
    def test_suite_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        store_a = tmp_path / "a.jsonl"
        store_b = tmp_path / "b.jsonl"
        run_suite([tiny_scenario("d")], store=ResultStore(store_a))
        run_suite([tiny_scenario("d")], store=ResultStore(store_b))
        assert main(["suite", "diff", str(store_a), str(store_b)]) == 0
        record = json.loads(store_b.read_text())
        record["total_cycles"] += 7
        store_b.write_text(json.dumps(record) + "\n")
        assert main(["suite", "diff", str(store_a), str(store_b)]) == 1
        out = capsys.readouterr().out
        assert "total_cycles" in out

    def test_diff_and_store_commands_reject_missing_paths(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.jsonl")
        assert main(["suite", "diff", missing, missing]) == 2
        assert main(["store", "compact", missing]) == 2
        assert main(["store", "gc", missing]) == 2
        err = capsys.readouterr().err
        assert "no such result store" in err

    def test_store_compact_and_gc_commands(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store.jsonl"
        mk = TestStoreLifecycle()._record
        ResultStore(path).put_many([
            mk("exp", "1.1.0"),
            mk("exp", __version__),
            mk("old-only", "1.0.0"),
        ])
        assert main(["store", "compact", str(path)]) == 0
        assert len(ResultStore(path)) == 2
        assert main(["store", "gc", str(path)]) == 0
        survivors = [r["name"] for r in ResultStore(path)]
        assert survivors == ["exp"]
        capsys.readouterr()

    @requires_numpy
    def test_bench_command_writes_and_compares(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        from repro.harness import registry

        report = tmp_path / "BENCH_test.json"
        assert main(["bench", "--suite", "tiny", "--reps", "1",
                     "--tag", "test", "--json", str(report)]) == 0
        payload = load_bench(report)
        assert payload["tag"] == "test"
        assert {w["name"] for w in payload["workloads"]} == \
               {"tiny-ingest", "tiny-bfs"}
        # Wide tolerance: this asserts the compare wiring and exit code, not
        # perf stability (1-rep wall times of a ~50 ms workload are noisy).
        assert main(["bench", "--suite", "tiny", "--reps", "1",
                     "--baseline", str(report), "--tolerance", "0.9"]) == 0
        capsys.readouterr()
        # The table prints workload names in full, not cut at 14 chars.
        long_name = "graphchallenge-50k-edge-ingest"
        monkeypatch.setitem(registry._SUITES, "long-names", registry.SuiteDef(
            "long-names", "", lambda: [tiny_scenario(long_name)]))
        assert main(["bench", "--suite", "long-names", "--reps", "1"]) == 0
        assert long_name in capsys.readouterr().out
