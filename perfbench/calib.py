"""Calibration: the host's current speed, timed next to every request.

On a shared host the speed of one core swings by up to 2x, for seconds to
minutes at a time, as other tenants load its hyperthread sibling; process
CPU time swings with it.  No statistic over a 30 s run removes swings that
last minutes.  So the benchmark pins itself and its children to one core
and times a fixed kernel of the benchmark's own exact arithmetic
(``rebase.rebase`` of the so(2,2) table: ``Fraction`` products and sums,
dict and list traffic, as in lieembed's ``exactlin``) between requests and,
inside a long request, every ``TICK_S`` of CPU time.  Each stretch of a
request is scaled to the speed at which the kernel takes ``REF_MS``:

    scaled_ms = stretch_ms * REF_MS / kernel_ms

where ``kernel_ms`` is the mean of the kernel timed at the two ends of the
stretch on the same core; the kernel's own time is not counted.  The kernel
runs no lieembed code, so a change to lieembed moves the scaled time as it
moves the measured one.
"""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import contextmanager

import rebase

# The kernel's time on a 2-vCPU shared x86-64 VM (Intel Xeon, 2.1 GHz,
# Python 3.11) when its core ran at full speed; scaled times are then close
# to the measured times of such a core.
REF_MS = 7.0
REPEATS = 3
TICK_S = 0.2

_NAMES, _TABLE = rebase.so_pq(2, 2)
_P = rebase.unimodular(len(_NAMES), random.Random("calibration"))
_PINV = rebase.inverse(_P)


def kernel_ms() -> float:
    t = time.perf_counter()
    for _ in range(REPEATS):
        rebase.rebase(_TABLE, _P, _PINV)
    return (time.perf_counter() - t) * 1000


def pin_one_core() -> None:
    """Run this process, and the processes it starts, on one core: the
    kernel and the request it calibrates then share the core's speed."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Scaler:
    """Scaled times of consecutive requests: the kernel that ends one
    request's last stretch also starts the next request's first."""

    def __init__(self) -> None:
        self.speed = kernel_ms()

    def _stretch(self, timing: dict) -> None:
        ms = (time.perf_counter() - timing["mark"]) * 1000
        k = kernel_ms()
        timing["ms"] += ms
        timing["scaled_ms"] += ms * 2 * REF_MS / (self.speed + k)
        self.speed = k
        timing["mark"] = time.perf_counter()

    @contextmanager
    def timing(self, tick: bool = False):
        """Times the body into ``{"ms", "scaled_ms"}``.  With ``tick`` the
        kernel also runs from a SIGPROF handler every ``TICK_S`` of CPU
        time, for requests long enough to outlast a speed swing."""
        timing = {"ms": 0.0, "scaled_ms": 0.0, "active": True}

        def on_tick(_signum, _frame):
            if timing["active"]:
                self._stretch(timing)

        if tick:
            previous = signal.signal(signal.SIGPROF, on_tick)
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        timing["mark"] = time.perf_counter()
        try:
            yield timing
        finally:
            timing["active"] = False
            if tick:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
            self._stretch(timing)
