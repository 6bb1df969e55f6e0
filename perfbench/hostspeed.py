"""Host-speed correction for wall times measured on a shared machine.

On a shared host the same CPU-bound Python loop can take 30% longer for
tens of seconds at a time, because of other tenants.  While a
:class:`HostSpeed` is active, a ``SIGALRM`` handler runs a fixed reference
loop every PERIOD_S seconds on the main thread, between two bytecodes of
whatever runs there, and records how long it took.  The reference is
built like the program's hot path: a random mini-batch and a few small
numpy products per step.

:meth:`HostSpeed.corrected` turns a measured interval into seconds at the
nominal host speed: the interval minus the reference's own time inside it,
multiplied by the mean of NOMINAL_S / (reference time) over the samples
taken inside it.  Faster-than-nominal periods stretch, slower ones shrink.
The program's outputs are untouched: the reference uses its own generator
and arrays.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
STEPS = 150
NOMINAL_S = 0.004  # median reference time on the 2-core host used for the bounds


class HostSpeed:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((250, 30))
        self.samples: list = []  # (start, end) of each reference run
        self._previous = None

    def _reference(self) -> None:
        rng = np.random.default_rng(1)
        a = self._a
        v = np.zeros(30)
        for _ in range(STEPS):
            b = a[rng.choice(250, 30, replace=False)]
            v = v - 1e-3 * (b.T @ np.tanh(b @ v))

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self._reference()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "HostSpeed":
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at the nominal host speed."""
        inside = [(s, e) for s, e in self.samples if start <= s and e <= end]
        own = sum(e - s for s, e in inside)
        if not inside:  # shorter than PERIOD_S: use the nearest sample
            middle = 0.5 * (start + end)
            inside = [min(self.samples, key=lambda se: abs(se[0] - middle))]
        speed = sum(NOMINAL_S / (e - s) for s, e in inside) / len(inside)
        return (end - start - own) * speed
