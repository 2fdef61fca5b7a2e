"""Benchmark harness package.

A package, so its ``conftest`` imports as ``benchmarks.conftest`` and never
collides with the ``conftest`` module of ``tests/``.
"""
