"""Spans and counters around the library's functions, kept in memory.

``Tracer.install`` replaces each traced function at every name a ``qsfrac``
module holds it under (``qsfrac.minimize.build_topology``,
``qsfrac.evolution.parallel_map``, ...), and ``ElasticSolver.solve`` on its
class.  ``Tracer.restore`` puts the originals back and reports whether every
name holds its original again.  The benchmark opens its own spans around the
calls it makes into the library (``Tracer.span``); ``NULL`` is the tracer of
an untraced pass and records nothing.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top); ``start`` and ``end`` are read from the clock
the tracer is given, in the benchmark the reference-seconds clock of
calibration.py.  The benchmark runs qsfrac with one thread
(``QSFRAC_THREADS=1``), so every span nests on one stack.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import weakref
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

# (home module, attribute, span name); each is replaced wherever imported
FUNCTIONS = (
    ("qsfrac.mesh", "crackable_edges", "mesh.crackable_edges"),
    ("qsfrac.broken", "build_topology", "broken.build_topology"),
    ("qsfrac.broken", "_corner_structure", "broken.corner_structure"),
    ("qsfrac.energy", "elastic_energy", "energy.elastic_energy"),
    ("qsfrac.energy", "surface_energy", "energy.surface_energy"),
    ("qsfrac.minimize", "assemble_gradient", "minimize.assemble_gradient"),
    ("qsfrac.evolution", "check_initial_minimality", "evolution.initial_minimality"),
    ("qsfrac.evolution", "sample_power_terms", "evolution.sample_power_terms"),
)

SOLVE = "minimize.solve"
PARALLEL_MAP = "util.parallel_map"


class _NullTracer:
    """Tracer of an untraced pass: spans and counters cost nothing."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def count(self, name) -> int:
        return 0


NULL = _NullTracer()


class Tracer:
    enabled = True

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.max_residual = 0.0
        self.solve_ms: list[float] = []
        self._stack: list[int] = []
        self._seen = weakref.WeakKeyDictionary()   # ElasticSolver -> crack sets solved
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> float:
        end = self._clock()
        self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        return end - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def count(self, name: str) -> int:
        return self.counts[name]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return traced

    def _wrap_solve(self, solve):
        @functools.wraps(solve)
        def traced(solver, crack, *args, **kwargs):
            seen = self._seen.setdefault(solver, set())
            cold = crack.edge_ids not in seen
            seen.add(crack.edge_ids)
            idx = self._begin(SOLVE)
            try:
                result = solve(solver, crack, *args, **kwargs)
            finally:
                dur = self._end(idx)
            report = result[1]
            self.counts[SOLVE] += 1
            self.counts["cold" if cold else "warm"] += 1
            self.sums["cold_s" if cold else "warm_s"] += dur
            self.counts[f"method.{report.method}"] += 1
            self.sums["iterations"] += report.iterations
            self.max_residual = max(self.max_residual, float(report.residual))
            self.solve_ms.append(dur * 1e3)
            return result
        return traced

    def _wrap_parallel_map(self, pmap):
        @functools.wraps(pmap)
        def traced(fn, items):
            items = list(items)
            self.counts["parallel_map_items"] += len(items)
            idx = self._begin(PARALLEL_MAP)
            try:
                return pmap(fn, items)
            finally:
                self._end(idx)
        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qsfrac" or mod_name.startswith("qsfrac.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import qsfrac._util
        import qsfrac.minimize

        for home, attr, name in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            self._replace_everywhere(original, self._wrap(original, name))
        original = qsfrac._util.parallel_map
        self._replace_everywhere(original, self._wrap_parallel_map(original))
        cls = qsfrac.minimize.ElasticSolver
        original = cls.__dict__["solve"]
        self._patches.append((cls, "solve", original))
        cls.solve = self._wrap_solve(original)

    def restore(self) -> bool:
        """Put every original back; True when each name holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- reduction --------------------------------------------------------

    def snapshot(self) -> dict:
        return {"spans": len(self.spans), "counts": Counter(self.counts),
                "sums": Counter(self.sums)}

    def span_totals(self, since: int = 0) -> tuple[Counter, Counter, Counter]:
        """Calls and inclusive seconds per span name, and self seconds per
        layer (the first part of the span name), over spans from ``since``.

        Spans nest on one stack, so children never overlap: a span's self
        time is its duration minus its children's durations."""
        spans = self.spans[since:]
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        in_children: Counter = Counter()
        for name, start, end, parent in spans:
            calls[name] += 1
            inclusive[name] += end - start
            in_children[parent] += end - start
        self_s: Counter = Counter()
        for k, (name, start, end, _) in enumerate(spans, start=since):
            self_s[name.split(".", 1)[0]] += (end - start) - in_children[k]
        return calls, inclusive, self_s

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``, by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
