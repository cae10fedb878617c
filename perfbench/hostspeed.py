"""How fast the host runs right now, from fixed pieces of reference work.

On a host whose CPUs are shared with other machines, the same code runs up
to 1.8 times slower for minutes at a time, and the guest cannot see why:
its CPU time stretches with the wall clock and no steal time is reported.
The two CPUs of such a guest also speed up and slow down independently, and
not every kind of work slows down alike.  Raw times then spread across runs
by far more than any change worth measuring.

The reference work does not call tenseg.  There are two kinds, one for
each kind of work the benchmark's workloads do:

``CALLS``   short numpy calls driven from Python, like the scalar analyses
            of the ``designs`` workload;
``ARRAYS``  whole-array arithmetic, like the batched integrals of the sweep.

Run on the same CPU as the workload and interleaved with it, the matching
reference work's time tracked the workload's to within a few per cent while
both moved by tens of per cent.

A time *adjusted* to the reference speed is ``t * reference_s / k``, where
``k`` is the reference work's time measured next to ``t``: the time a host
on which the reference work takes ``reference_s`` would show.  A program
that gets twice as fast halves its adjusted times, as it halves its raw
ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_QUARTIC = np.array([1.0, -2.0, 0.5, 0.3, -0.1])
_NODES = np.linspace(0.0, 1.0, 101)
_GRID = np.linspace(0.1, 2.0, 3000)[:, None] * np.linspace(-1.0, 1.0, 64)


def _calls() -> float:
    total = 0.0
    for i in range(600):
        roots = np.roots(_QUARTIC + i * 1e-6)
        total += float(np.sum(np.cos(_NODES * roots.real[0])))
    return total


def _arrays() -> float:
    total = 0.0
    for _ in range(6):
        total += float(np.sum(np.sqrt(1.3 + np.cos(_GRID) ** 2)
                              * np.exp(-_GRID)))
    return total


@dataclass(frozen=True)
class Reference:
    """One kind of reference work and the time that defines its speed."""

    work: Callable[[], float]
    reference_s: float

    def run(self) -> float:
        """Do the work once; the CPU time of this thread it took."""
        start = time.thread_time()
        if not np.isfinite(self.work()):
            raise ArithmeticError("reference work gave a non-finite sum")
        return time.thread_time() - start

    def adjust(self, seconds: float, kernel_s: float) -> float:
        """``seconds`` measured next to a ``kernel_s`` run, at reference speed."""
        return seconds * self.reference_s / kernel_s


CALLS = Reference(_calls, 0.03)
ARRAYS = Reference(_arrays, 0.025)
