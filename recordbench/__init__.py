"""Benchmark of record for the collective library (see README.md)."""
