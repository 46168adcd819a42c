"""Benchmark of the punctuated-join reproduction (see README.md)."""
