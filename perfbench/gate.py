"""The correctness gate every workload runs on its outputs.

* A simulated record must agree with an independent host reference:
  ``algo_metrics`` equals ``summarize(reference(build_networkx(all edges)))``
  for its algorithm (label propagation compares ``communities`` only;
  ``rounds`` is a count of the chip run), and ``edges_stored`` equals the
  number of streamed edges.
* Cycle counts are deterministic: a record's ``total_cycles`` is the sum of
  its increment and query cycles, and every repetition of one scenario in a
  run produces the byte-identical record.
* A record fetched over HTTP is byte-identical to the store encoding of a
  direct ``run_scenario`` of the same spec.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

Record = Dict[str, Any]


def comparable(algorithm: str, summary: Dict[str, Any]) -> Dict[str, Any]:
    """The part of an ``algo_metrics`` summary a host reference can check."""
    if algorithm == "labelprop":
        return {"communities": summary["communities"]}
    return dict(summary)


def expected_for(scenario) -> Dict[str, Any]:
    """Reference ``algo_metrics`` and edge count for one scenario."""
    from repro.algorithms.registry import get_algorithm
    from repro.baselines.networkx_ref import build_networkx
    from repro.harness.runner import materialize_dataset

    dataset = materialize_dataset(scenario.dataset)
    edges = [edge for increment in dataset.increments for edge in increment]
    info = get_algorithm(scenario.algorithm)
    algorithm = info.instantiate(root=scenario.options.root)
    kwargs = {"root": scenario.options.root} if info.caps.needs_root else {}
    reference = algorithm.reference(
        build_networkx(edges, dataset.num_vertices), **kwargs)
    return {
        "algo_metrics": comparable(scenario.algorithm,
                                   algorithm.summarize(reference)),
        "edges": len(edges),
    }


def check_record(record: Record, expected: Dict[str, Any],
                 first: Optional[Record] = None) -> List[str]:
    """Problems with one simulated record (see the module docstring)."""
    problems = []
    algorithm = record["scenario"]["algorithm"]
    got = comparable(algorithm, record["algo_metrics"])
    if got != expected["algo_metrics"]:
        problems.append(f"{algorithm} algo_metrics {got} != reference "
                        f"{expected['algo_metrics']}")
    if record["edges_stored"] != expected["edges"]:
        problems.append(f"edges_stored {record['edges_stored']} != "
                        f"{expected['edges']} streamed")
    cycles = sum(record["increment_cycles"]) + record["query_cycles"]
    if record["total_cycles"] != cycles:
        problems.append(f"total_cycles {record['total_cycles']} != "
                        f"increments + query = {cycles}")
    if first is not None and encode(record) != encode(first):
        changed = sorted(k for k in set(record) | set(first)
                         if record.get(k) != first.get(k))
        problems.append(f"record differs from the first repetition in {changed}")
    return problems


def encode(record: Record) -> bytes:
    """A record as the store's canonical line, the bytes serve returns."""
    from repro.harness.store import ResultStore

    return (ResultStore.encode(record) + "\n").encode("utf-8")


def check_bytes(got: bytes, expected: bytes) -> List[str]:
    """Problems with record bytes fetched over HTTP."""
    if got == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    return [f"record bytes differ from a direct run at byte {at} "
            f"({len(got)} vs {len(expected)} bytes)"]
