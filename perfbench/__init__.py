"""Benchmark of the fasthebb program: see README.md in this directory."""
