"""Benchmark of the synthesis pipeline; the entry point is ``perfbench/run.py``."""
