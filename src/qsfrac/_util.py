"""Small shared helpers: the candidate map, the LRU of the per-crack-set
caches and float formatting."""

from __future__ import annotations

import math
from collections import OrderedDict


def parallel_map(fn, items):
    """Evaluate ``fn`` on each item in order and return the results as a list.

    Batches of independent candidate evaluations go through this function.
    It runs serially: the evaluations are small cached solves, and worker
    threads only added contention.
    """
    return [fn(x) for x in items]


class LRU:
    """A map keeping the entries used last: at most ``size`` of them, whose
    ``weight`` summed (``held``) is at most ``budget``.

    ``get(key, make)`` returns the value of ``key`` and marks it used last;
    a missing value is ``make()``, stored unless ``make`` raises.  Storing
    drops the entries used longest ago while a bound is exceeded, the new
    one too where its weight alone exceeds ``budget``.  The bounds are fixed
    at construction."""

    __slots__ = ("size", "budget", "held", "_weight", "_entries")

    def __init__(self, size: int, budget: float = math.inf, weight=lambda value: 0):
        self.size, self.budget, self.held = size, budget, 0
        self._weight = weight
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, key, make):
        entries = self._entries
        try:
            entries.move_to_end(key)
            return entries[key]
        except KeyError:
            pass
        value = entries[key] = make()
        self.held += self._weight(value)
        while len(entries) > self.size or self.held > self.budget:
            self.held -= self._weight(entries.popitem(last=False)[1])
        return value


def sci17(x: float) -> str:
    """Full-precision scientific notation (17 significant digits)."""
    return f"{x:.16e}"
