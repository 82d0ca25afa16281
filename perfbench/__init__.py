"""Layered benchmark of reproducible GROUP BY SUM (see perfbench/README.md)."""
