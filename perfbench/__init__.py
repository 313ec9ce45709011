"""Benchmark of the pdf_toolkit_ray engine; entry point is ``perfbench/run.py``."""
