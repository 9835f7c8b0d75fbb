"""End-to-end and per-layer benchmark of the AM-CCA reproduction.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
see perfbench/README.md for the workloads, the metrics and the layer map.
"""
