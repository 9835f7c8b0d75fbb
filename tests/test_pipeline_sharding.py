"""Increment sharding: checkpoint hand-off, byte-identical to serial.

The acceptance contract: ``--shard-increments N`` produces a store
byte-identical to the serial run while every increment streams exactly
once — span K starts from the checkpoint span K-1 captured, it never
replays the prefix.  A scenario with a truncation budget runs as one span
and still matches serial on every path.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from helpers import requires_numpy

from repro.graph.graph import DynamicGraph
from repro.harness import ResultStore, run_suite
from repro.harness.pool import WorkerPool
from repro.harness.runner import run_scenario, run_scenario_sharded
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def eight_increment_scenario(name="pipe-bfs", algorithm="bfs") -> Scenario:
    return Scenario(
        name=name,
        dataset=DatasetSpec(vertices=60, edges=480, num_increments=8, seed=5),
        chip=ChipSpec(side=8, edge_list_capacity=4),
        algorithm=algorithm,
    )


@pytest.fixture
def streamed(monkeypatch):
    """Phase names of every in-process ``DynamicGraph.stream_increment``."""
    phases = []
    real = DynamicGraph.stream_increment

    def spy(self, edges, **kwargs):
        phases.append(kwargs["phase"])
        return real(self, edges, **kwargs)

    monkeypatch.setattr(DynamicGraph, "stream_increment", spy)
    return phases


@requires_numpy
class TestInProcess:
    def test_pipeline_record_identical_to_serial(self):
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        sharded = run_scenario_sharded(scenario, 4)
        assert json.dumps(sharded, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_no_prefix_replay_cpu_proof(self, streamed):
        """Every shard streams only its own span: one pass in order."""
        scenario = eight_increment_scenario()
        run_scenario_sharded(scenario, 4)
        total = scenario.dataset.num_increments
        assert streamed == [f"increment-{i}" for i in range(1, total + 1)]

    def test_every_shard_count_at_every_boundary(self, streamed):
        """Across shard counts: identical records, each increment streamed
        exactly once."""
        scenario = eight_increment_scenario(name="pipe-ingest",
                                            algorithm="ingest")
        serial = json.dumps(run_scenario(scenario), sort_keys=True)
        total = scenario.dataset.num_increments
        for shards in (2, 3, 8):
            streamed.clear()
            sharded = run_scenario_sharded(scenario, shards)
            assert json.dumps(sharded, sort_keys=True) == serial, shards
            assert Counter(streamed) == Counter(
                f"increment-{i}" for i in range(1, total + 1)), shards


@requires_numpy
class TestPooled:
    def test_pooled_pipeline_identical_with_fewer_workers_than_shards(self):
        """5 shards on 2 workers: exercises the in-order dispatch argument
        that makes checkpoint waiting deadlock-free."""
        scenario = eight_increment_scenario()
        serial = run_scenario(scenario)
        pool = WorkerPool(2)
        try:
            sharded = run_scenario_sharded(scenario, 5, pool=pool,
                                           timeout=120)
        finally:
            pool.shutdown()
        assert json.dumps(sharded, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)

    def test_suite_pipeline_store_byte_identical(self, tmp_path):
        scenarios = [
            eight_increment_scenario(),
            eight_increment_scenario(name="pipe-ingest", algorithm="ingest"),
        ]
        serial_store = ResultStore(tmp_path / "serial.jsonl")
        report = run_suite(list(scenarios), jobs=1, store=serial_store)
        assert not report.failures
        pool = WorkerPool(2)
        try:
            sharded_store = ResultStore(tmp_path / "sharded.jsonl")
            report = run_suite(list(scenarios), jobs=2, store=sharded_store,
                               shard_increments=4, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        assert not report.failures
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "sharded.jsonl").read_bytes()

    def test_spill_dir_is_cleaned_up(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scenario = eight_increment_scenario()
        run_scenario_sharded(scenario, 3)
        pool = WorkerPool(2)
        try:
            run_scenario_sharded(scenario, 3, pool=pool, timeout=120)
        finally:
            pool.shutdown()
        assert os.listdir(tmp_path) == []


class TestTruncated:
    """A truncated increment can leave continuations in flight that a
    boundary checkpoint refuses, so such a scenario runs as one span —
    and every sharded path still reproduces the serial bytes."""

    def test_truncated_scenario_shards_byte_identical(self, tmp_path):
        with open(os.path.join(CORPUS_DIR, "fuzz-truncation-carry.json"),
                  encoding="utf-8") as fh:
            scenario = Scenario.from_dict(json.load(fh)["scenario"])
        assert scenario.options.max_cycles_per_increment is not None
        serial = run_scenario(scenario)
        ResultStore(tmp_path / "serial.jsonl").put(serial)
        expected = (tmp_path / "serial.jsonl").read_bytes()

        report = run_suite([scenario], jobs=1, shard_increments=2,
                           store=ResultStore(tmp_path / "inprocess.jsonl"))
        assert not report.failures
        assert (tmp_path / "inprocess.jsonl").read_bytes() == expected

        pool = WorkerPool(2)
        try:
            report = run_suite([scenario], jobs=2, shard_increments=2,
                               pool=pool, timeout=120,
                               store=ResultStore(tmp_path / "pooled.jsonl"))
        finally:
            pool.shutdown()
        assert not report.failures
        assert (tmp_path / "pooled.jsonl").read_bytes() == expected

        sharded = run_scenario_sharded(scenario, 2)
        assert json.dumps(sharded, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)


class TestFailurePropagation:
    def test_upstream_failure_marker_unblocks_waiters(self, tmp_path):
        from repro.harness.runner import _await_snapshot

        path = str(tmp_path / "x.snap")
        open(path + ".failed", "w").close()
        with pytest.raises(RuntimeError, match="upstream shard failed"):
            _await_snapshot(path, timeout_s=5)

    def test_wait_timeout_is_actionable(self, tmp_path):
        from repro.harness.runner import _await_snapshot

        with pytest.raises(TimeoutError, match="waited"):
            _await_snapshot(str(tmp_path / "never.snap"), timeout_s=0.05)
