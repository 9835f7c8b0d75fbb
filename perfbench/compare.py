#!/usr/bin/env python3
"""Compare two saved benchmark results, marking runs that differ in origin.

Usage: ``python3 perfbench/compare.py A.json B.json`` with two files that
``perfbench/run.py`` wrote under ``.perfbench_out/`` (``result-*.json``).
Prints each metric of A and B with B/A.  When the two runs differ in
workload, seed, repro version, resolved kernel, native build, Python or CPU
count, a ``NOT LIKE FOR LIKE`` line names each difference first; the exit
code is then 2, so scripts cannot mistake such a pair for an A/B.
"""

import json
import sys

PROVENANCE = ("workload", "trace", "seed", "repro_version", "kernel",
              "have_native", "python", "nproc")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    differs = [key for key in PROVENANCE
               if a["provenance"].get(key) != b["provenance"].get(key)]
    for key in differs:
        print(f"NOT LIKE FOR LIKE: {key} {a['provenance'].get(key)!r} "
              f"vs {b['provenance'].get(key)!r}")
    print(f"correct: {a['correct']} vs {b['correct']}")
    for name, metric in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            print(f"  {name:<36} {metric['value']:.6g} vs (missing)")
            continue
        ratio = other["value"] / metric["value"] if metric["value"] else float("nan")
        print(f"  {name:<36} {metric['value']:.6g} vs {other['value']:.6g} "
              f"{metric['unit']}  (B/A {ratio:.3f})")
    return 2 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
