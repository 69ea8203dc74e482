"""Small shared helpers: the candidate map and float formatting."""

from __future__ import annotations


def parallel_map(fn, items):
    """Evaluate ``fn`` on each item in order and return the results as a list.

    Batches of independent candidate evaluations go through this function.
    It runs serially: the evaluations are small cached solves, and worker
    threads only added contention.
    """
    return [fn(x) for x in items]


def sci17(x: float) -> str:
    """Full-precision scientific notation (17 significant digits)."""
    return f"{x:.16e}"
