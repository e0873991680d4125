"""Whole-stack benchmark: six workloads, end-to-end and per-layer metrics.

See ``bench/README.md``; the entry point is ``bench/run.py``.
"""
