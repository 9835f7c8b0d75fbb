"""The correctness gate must be armed: tampered outputs must fail it.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import tempfile

import pytest

from perfbench import gate, query_analytics, run, serve_mixed, stream_bfs
from perfbench.common import ROOT, Result
from repro.harness.runner import SuiteReport, ScenarioOutcome, run_scenario
from repro.harness.scenario import ChipSpec, DatasetSpec, Scenario


def _scenario(algorithm="bfs"):
    return Scenario(
        name=f"gate-{algorithm}",
        dataset=DatasetSpec(vertices=40, edges=200, num_increments=4,
                            sampling="snowball", symmetric=algorithm != "bfs",
                            seed=3),
        chip=ChipSpec(side=4),
        algorithm=algorithm,
    )


@pytest.fixture(scope="module")
def bfs():
    scenario = _scenario()
    return scenario, run_scenario(scenario), gate.expected_for(scenario)


def test_true_records_pass(bfs):
    _, record, expected = bfs
    assert gate.check_record(record, expected, first=record) == []
    assert gate.check_record(copy.deepcopy(record), expected,
                             first=record) == []


def test_altered_increment_cycles_fail(bfs):
    _, record, expected = bfs
    tampered = copy.deepcopy(record)
    tampered["increment_cycles"][1] += 1
    assert gate.check_record(tampered, expected)  # sum no longer matches
    assert gate.check_record(tampered, expected, first=record)


def test_altered_total_cycles_fail(bfs):
    _, record, expected = bfs
    tampered = copy.deepcopy(record)
    tampered["total_cycles"] -= 1
    assert gate.check_record(tampered, expected)


def test_consistently_altered_cycles_fail_against_the_first_run(bfs):
    _, record, expected = bfs
    tampered = copy.deepcopy(record)
    tampered["increment_cycles"][0] += 5
    tampered["total_cycles"] += 5
    assert gate.check_record(tampered, expected) == []
    assert gate.check_record(tampered, expected, first=record)


def test_altered_algo_metrics_fail(bfs):
    _, record, expected = bfs
    tampered = copy.deepcopy(record)
    tampered["algo_metrics"]["reached"] -= 1
    assert gate.check_record(tampered, expected)


def test_altered_edges_stored_fail(bfs):
    _, record, expected = bfs
    tampered = copy.deepcopy(record)
    tampered["edges_stored"] += 1
    assert gate.check_record(tampered, expected)


def test_labelprop_compares_communities_only():
    scenario = _scenario("labelprop")
    record = run_scenario(scenario)
    expected = gate.expected_for(scenario)
    assert gate.check_record(record, expected) == []
    tampered = copy.deepcopy(record)
    tampered["algo_metrics"]["rounds"] += 1
    assert gate.check_record(tampered, expected) == []
    tampered["algo_metrics"]["communities"] += 1
    assert gate.check_record(tampered, expected)


def test_one_altered_http_byte_fails(bfs):
    _, record, _ = bfs
    body = gate.encode(record)
    assert gate.check_bytes(body, body) == []
    for at in (0, len(body) // 2, len(body) - 2):
        tampered = bytearray(body)
        tampered[at] ^= 0x01
        assert gate.check_bytes(bytes(tampered), body)
    assert gate.check_bytes(body[:-1], body)


def test_stream_bfs_check_counts_a_tampered_repetition(bfs, monkeypatch):
    scenario, record, expected = bfs
    monkeypatch.setattr(gate, "expected_for", lambda _s: expected)
    tampered = copy.deepcopy(record)
    tampered["increment_cycles"][2] += 1
    tampered["total_cycles"] += 1
    result = Result()
    stream_bfs._check(result, [{"scenario": scenario, "record": r}
                               for r in (record, record, tampered)])
    assert (result.attempted, result.failed, result.correct) == (3, 1, False)


def test_query_analytics_check_counts_a_tampered_record(bfs, monkeypatch):
    scenario, record, expected = bfs
    monkeypatch.setattr(gate, "expected_for", lambda _s: expected)
    tampered = copy.deepcopy(record)
    tampered["algo_metrics"]["reached"] += 1

    def rep(r):
        return {"report": SuiteReport(outcomes=[
            ScenarioOutcome(scenario, r, cached=False)])}

    result = Result()
    query_analytics._check(result, [rep(record), rep(tampered)], [scenario])
    assert (result.failed, result.correct) == (1, False)


def test_serve_mixed_check_counts_a_tampered_body(bfs):
    _, record, _ = bfs
    body = gate.encode(record)
    job = record["spec_hash"]
    loop = serve_mixed.Loop(seed=1, host="", port=0, cached=[])
    loop.samples = [serve_mixed.Sample(fresh=True, job=job, body=body),
                    serve_mixed.Sample(fresh=False, job=job,
                                       body=body.replace(b'"bfs"', b'"bfz"')),
                    serve_mixed.Sample(fresh=False, job=job, status="rejected",
                                       error="POST /v1/jobs -> 429")]
    result = Result()
    serve_mixed.check_samples(result, loop, {job: body})
    assert (result.attempted, result.failed) == (3, 2)


def test_failed_gate_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)

    def failing(seed, seconds, trace, result, spans):
        result.check(["record differs"], "tampered")

    monkeypatch.setattr(stream_bfs, "run", failing)
    assert run.main(["--workload", "stream-bfs", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_benchmark_json_is_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    gated = [w["name"] for w in bench["workloads"]]
    assert gated and set(gated) <= set(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
