"""A speed reference timed alongside the jobs, to put times on one CPU speed.

On a shared host the speed of a vCPU drifts: a fixed pure-Python loop runs up
to 1.8 times slower for seconds to minutes at a time, with the same load on
every code path.  Times taken in different such phases differ by more than any
change a benchmark wants to see.  So while the jobs run, a ``Meter`` runs
``unit`` (a fixed mix of Fraction arithmetic, dict, tuple and list work, about
0.5 ms) on a timer every ``PERIOD`` seconds and keeps the time it takes.  The
benchmark subtracts that time from the jobs and multiplies their time by the
mean of ``REF_UNIT_S / (time of one unit)`` over the same stretch: the host's
mean speed over the stretch, since the ticks are evenly spaced in time.  The
result is the job's time at the speed at which one unit takes ``REF_UNIT_S``.
A change to the library moves it as it moves the raw time; a slower phase of
the host moves both the jobs and the unit and cancels out.

A fresh interpreter spends its time in the kernel and in unmarshalling and
running module code rather than in a loop like ``unit``, and it follows the
host's phases less closely than the unit does.  Set-up spawns are therefore put
on the reference speed by a spawn of the same kind instead: a fresh, isolated
interpreter importing a fixed set of standard-library modules
(``REF_SPAWN_CODE``), which takes ``REF_SPAWN_S`` at the reference speed.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

PERIOD = 0.01
REF_UNIT_S = 0.0005
REF_SPAWN_CODE = (
    "import argparse, csv, decimal, email.message, fractions, http.client, json,"
    " statistics, unittest, xml.dom.minidom"
)
REF_SPAWN_S = 0.125


def unit() -> int:
    acc = Fraction(0)
    table: dict = {}
    size = 0
    for i in range(120):
        acc += Fraction(i % 13 + 1, i % 7 + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + 1
        size += len([j * i for j in range(4)])
    return size + len(table) + acc.denominator


class Meter:
    """Runs ``unit`` every ``PERIOD`` seconds while ``running``."""

    def __init__(self) -> None:
        self.spent = 0.0  # seconds inside ``unit``, to subtract from the jobs
        self.units = 0
        self.speed = 0.0  # sum over the units of REF_UNIT_S / (time of the unit)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        unit()
        seconds = time.perf_counter() - start
        self.spent += seconds
        self.units += 1
        self.speed += REF_UNIT_S / seconds

    @contextmanager
    def running(self) -> Iterator["Meter"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        if not self.units:  # a stretch shorter than one period
            self._tick(signal.SIGALRM, None)
        return self.speed / self.units
