"""Benchmark of ``e2fock verify``: seeded workloads, an output gate and a binding tracer.

Run it from the repository root with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
