"""The benchmark's own modules: workloads, correctness checks and the tracer.

Nothing here is imported by the program under test; ``perfbench/run.py`` is
the entry point.
"""
