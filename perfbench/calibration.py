"""How fast the machine is while the benchmark measures, from a fixed reference
computation.

On a shared host the same code runs 20-40 % slower or faster from one second
to the next and from one minute to the next, in CPU time as in wall time, so
raw times of two runs minutes apart differ by more than most changes to the
program.  ``SpeedProbe`` times a short sample of a fixed computation every
``interval_s`` seconds from a timer signal while the measured code runs, in
the same thread, and keeps a clock of reference seconds: each stretch of wall
time between two samples counts as much as it would have taken on a machine
where the sample takes its reference time, and the samples themselves do not
count.  A sample calls nothing of qsfrac, so a change to the program cannot
move it.

Two samples: ``mixed_sample`` mixes interpreter work (dicts, generators,
sorting) with small LAPACK solves, as qsfrac's hot paths do, and times the
passes; ``interpreter_sample`` is the interpreter part alone and times the
set-up processes, which must not import numpy before their clock starts.
This module imports numpy only when ``mixed_sample`` first runs.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from time import perf_counter

# seconds of one sample on the machine of the README's baseline: about the
# tenth percentile of samples run back to back for 30 s
MIXED_REFERENCE_S = 0.004
INTERPRETER_REFERENCE_S = 0.003

_ROUNDS = 200
_lapack: tuple = ()


def _interpreter_rounds(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        squares = {j: j * j for j in range(40)}
        acc += sum(squares.values())
        acc += sum(sorted((j * 7919) % 101 for j in range(40)))
    return acc


def interpreter_sample() -> float:
    """Wall seconds of the interpreter-only sample."""
    start = perf_counter()
    _interpreter_rounds(2 * _ROUNDS)
    return perf_counter() - start


def mixed_sample() -> float:
    """Wall seconds of the sample that mixes LAPACK solves and interpreter work."""
    global _lapack
    if not _lapack:
        import numpy as np

        rng = np.random.default_rng(0)
        _lapack = (np.linalg.solve, rng.random((24, 24)) + 24.0 * np.eye(24), rng.random(24))
    solve, a, b = _lapack
    start = perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        acc += float(solve(a, b)[i % 24])
        acc += _interpreter_rounds(1) * 1e-9
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("calibration sample produced a non-finite value")
    return elapsed


class SpeedProbe:
    """A clock of reference seconds, driven by samples taken from SIGALRM
    while ``running``.

    A sample runs in the main thread between two bytecodes of the measured
    code and touches none of its state.  The clock's state is one tuple,
    replaced whole, so that a sample landing inside ``clock`` shifts the
    reading by at most the sample's own duration."""

    def __init__(self, sample=mixed_sample, reference_s: float = MIXED_REFERENCE_S,
                 interval_s: float = 0.1):
        self.sample = sample
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._armed = False
        # reference seconds at the last sample, wall time it ended, rate since
        self._state = (0.0, perf_counter(), 1.0)

    def clock(self) -> float:
        now = perf_counter()
        ref, since, rate = self._state
        return ref + (now - since) * rate

    def _tick(self) -> None:
        start = perf_counter()
        ref, since, rate = self._state
        seconds = self.sample()
        self.samples.append(seconds)
        self._state = (ref + (start - since) * rate, perf_counter(), self.reference_s / seconds)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._tick()
            # one-shot timer, armed again after the sample: samples never nest
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    @contextmanager
    def running(self):
        """Sample once now, then every ``interval_s`` while the block runs."""
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        try:
            yield
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
