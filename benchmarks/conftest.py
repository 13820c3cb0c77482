"""Pytest hooks for the benchmark suite.

The experiments live in plain ``run(recorder, profile)`` functions
(see ``_experiments.py``); each ``bench_eN_*.py`` carries a thin
``test_eN`` wrapper, so ``pytest benchmarks/`` — the one way to run
them — regenerates ``results/eN.txt`` and asserts every declared paper
shape.  Set ``REPRO_BENCH_PROFILE=short`` for the trimmed CI sweeps.
"""
