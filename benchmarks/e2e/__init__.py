"""The repo benchmark: measured time-to-solution on five workloads.

``BENCHMARK.json`` at the repo root names this package; see ``README.md``
next to this file for the workloads, the metric glossary and how to run.
Only the public ``repro.*`` API is imported here — never
``benchmarks/_common.py`` or a ``bench_*.py`` script — so those can be
deleted without touching the yardstick.
"""
