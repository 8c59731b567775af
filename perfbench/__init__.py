"""End-to-end, layer-by-layer benchmark of the repro characterization stack.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` declares the
workloads and metrics.  ``python3 perfbench/steady.py`` repeats runs and
reports each metric's median, quartiles and spread against its bound.
"""
