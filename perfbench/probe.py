"""Speed probe: rescale wall time by how fast the machine ran at that moment.

On a shared machine the same work takes up to twice as long in some
stretches of seconds as in others, and CPU time moves with wall time, so
medians of multi-second samples spread by 15-40% from run to run.  A
``Probe`` runs a fixed kernel of about 50 us (small-array numpy calls,
``bincount`` as in the jet products, which tracked the program's slowdown
best of the kernels tried) every 20 ms of CPU time (``SIGPROF``), between
bytecodes of the measured code.  It records the wall time since
the previous probe together with the kernel's duration.

``Segment.normalized()`` rescales each stretch by ``REF_PROBE_S / probe``:
the wall time the segment would have taken at the speed where the kernel
takes ``REF_PROBE_S``.  That constant is the kernel's time in the fast
state of a 2-vCPU Intel Xeon sandbox, so there normalized time is close
to wall time when the machine is quiet.  On other hardware the figures
are in the same units and compare with each other, not with wall time.
Probe time itself is left out.

A fresh process probes itself with ``start_child(path)`` and writes its
segment to ``path`` when it exits; see ``child_prefix``.
"""

from __future__ import annotations

import atexit
import json
import signal
import time
from typing import NamedTuple

import numpy as np

PERIOD_S = 0.02
REF_PROBE_S = 50e-6

_INDEX = np.array([0, 3, 1, 4, 2, 0, 5, 1])
_WEIGHTS = np.linspace(0.1, 0.8, 8)
_SCALES = np.linspace(1.0, 2.0, 6)


def _kernel() -> float:
    s = 0.0
    for i in range(12):
        c = np.bincount(_INDEX, weights=_WEIGHTS * _SCALES[i % 6], minlength=6)
        s += float(c.sum()) + float(np.sqrt(c[2] + 1.0))
    return s


class Segment(NamedTuple):
    """``marks``: (wall seconds since the previous probe, probe seconds);
    ``tail``: wall seconds after the last probe."""

    marks: list
    tail: float

    def normalized(self) -> float:
        total = 0.0
        factor = 1.0
        for interval, probe_s in self.marks:
            factor = REF_PROBE_S / probe_s
            total += interval * factor
        return total + self.tail * factor

    def rescaled(self, wall: float) -> float:
        """``wall`` with the probed stretch replaced by its normalized time."""
        covered = sum(i + d for i, d in self.marks) + self.tail
        return wall - covered + self.normalized()


class Probe:
    """``start()`` before the measured code, ``stop()`` after it.

    The handler stays installed after ``stop()`` and ignores ticks, so a
    tick already pending when the timer is disarmed does nothing.
    """

    def __init__(self):
        self._marks: list[tuple[float, float]] | None = None
        self._last = 0.0

    def _on_tick(self, signum, frame) -> None:
        if self._marks is None:
            return
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self._marks.append((t0 - self._last, t1 - t0))
        self._last = t1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        self._marks = []
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> Segment:
        signal.setitimer(signal.ITIMER_PROF, 0)
        segment = Segment(self._marks, time.perf_counter() - self._last)
        self._marks = None
        return segment


def start_child(path: str) -> None:
    """Probe this whole process and write the segment to ``path`` at exit."""
    probe = Probe()

    def dump() -> None:
        segment = probe.stop()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"marks": segment.marks, "tail": segment.tail}, fh)

    atexit.register(dump)
    probe.start()


def load_child(path: str) -> Segment:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return Segment([tuple(m) for m in data["marks"]], data["tail"])


def child_prefix(path: str) -> str:
    """Python source that a child snippet starts with to probe itself."""
    return (f"from perfbench import probe as _probe; "
            f"_probe.start_child({path!r}); ")
