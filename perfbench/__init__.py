"""Benchmark of the seqconvex package; run it with ``python3 perfbench/run.py``."""
