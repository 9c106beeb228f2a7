"""The host-speed reference: a fixed pure-Python loop timed next to the measured work.

The CPU speed this benchmark gets from its host is not steady. A plain
Python loop, pinned to one CPU or not, runs at either of two speeds about
1.7x apart, and the host switches between them within tens of milliseconds;
the share of time spent at the slow one drifts over minutes. Process CPU time
swings with wall time, so it is not time stolen by the hypervisor. Medians
over a run do not remove that drift: one set of runs can be 25% slower than
the next.

So the CPU-bound times the benchmark reports are scaled to a nominal host
speed: each is multiplied by a nominal reference time over the reference
time measured with it (``at_nominal``). The worker times ``reference_work``
in its own process next to each interval it measures, outside every timed
interval: a short interval (a generation, a resume, a report) is paired with
the reference timed right next to it, a whole run with the mean of those.
Set-up is mostly interpreter start and imports, which follow the host's
speed less than the loop does, so its reference is ``time_interpreter_start``
timed right before and right after it. A set-up of 1 s then reads: 1 s on a
host where starting the interpreter takes ``NOMINAL_START_S``. A change to
the program moves a scaled time as it moves the measured one; a change in
the host's speed moves the time and its reference together, and mostly
cancels.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from time import perf_counter

# About the mean reference times on a 2-vCPU host, so that scaled times read
# close to the measured ones there.
NOMINAL_S = 0.0025
NOMINAL_START_S = 0.06


def reference_work() -> int:
    """Dictionary updates, tuple and string building and a sort: the kinds of
    interpreter work the program does, without touching its code."""
    counts: dict[int, int] = {}
    pairs = []
    for i in range(6000):
        key = (i * 7919) % 1013
        counts[key] = counts.get(key, 0) + i
        if i % 3 == 0:
            pairs.append((key, str(i)))
    pairs.sort()
    return len(pairs) + len(counts)


def time_reference() -> float:
    """Seconds that one ``reference_work`` call takes now.

    The garbage collector is off during the call: whether a collection of the
    program's heap falls inside it depends on the program, not on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_interpreter_start() -> float:
    """Seconds that starting this interpreter on an empty program takes now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


def at_nominal(seconds: float, reference_s: list[float], nominal_s: float = NOMINAL_S) -> float:
    """``seconds`` measured while a reference took ``reference_s`` on average,
    scaled to a host on which it takes ``nominal_s``."""
    return seconds * nominal_s / statistics.fmean(reference_s)
