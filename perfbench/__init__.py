"""Benchmark of fountain-lab; see README.md."""
