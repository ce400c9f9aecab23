"""iqbench: one reproducible benchmark for the IQ-tree.

Four workloads, end-to-end wall-clock and simulated-I/O metrics, and a
separate traced pass that times each layer from outside the program.
See ``README.md`` in this directory; run with
``python3 benchmarks/iqbench/run.py --workload NAME``.
"""
