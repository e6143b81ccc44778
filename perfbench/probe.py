"""Host-speed references: a fixed pure-Python kernel and a fixed process
start.  Their times move with the host, not the code.

The development host is shared.  Its two cores slow down by up to about
2x for seconds to minutes at a time, each on its own, which
moves a round's wall time more than the bound a change is held to.  So
every command the benchmark times samples this kernel while it runs, in
its own process (launch.py --probe): three times before its work, every
PERIOD_S seconds during it and three times after.  The benchmark
rescales the command's wall time, less the kernel's, by REFERENCE_S over
the mean of the samples.

The kernel is interval-shaped, like the program's hot loops: float
products, min/max, ``math.nextafter`` and a small object made per step.
Over 190 s of alternating samples, the mean of such a kernel tracked the
slowdown of staircase rungs and 2.15b derivative enclosures to a
quartile spread of 5%, where an integer loop left 9% and the fastest
sample instead of the mean 11-15%.  Samples are thread CPU seconds, so
that a ``verify all`` worker holding the interpreter lock does not
count; the host's slowdowns show in them, since they come from tenants
sharing the core, not from time taken off it.

A process start is slowed less than the kernel: its page faults, file
reads and C-extension loads wait on the host less than pure-Python code
does (a 2.1x slower kernel came with a 1.3x slower ``wrightbound
--help``).  So set-up time is rescaled by a process start of the same
kind instead, START: the interpreter importing a fixed set of
standard-library modules, C extensions among them, which the program
cannot change.
"""

import math
import signal
import sys
import time

# The kernel's time on the 2-core development host when no other tenant
# slows it (unslowed samples read 3.3-3.6 ms).
REFERENCE_S = 0.0035
PERIOD_S = 0.1

START = [sys.executable, "-c",
         "import argparse, asyncio, decimal, email.parser, fractions, "
         "http.client, json, unittest, xml.dom.minidom"]
# START's wall time on the development host when nothing slows it.
START_REFERENCE_S = 0.11


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def mul(self, o):
        a, b = self.lo * o.lo, self.lo * o.hi
        c, d = self.hi * o.lo, self.hi * o.hi
        return _Box(math.nextafter(min(a, b, c, d), -math.inf),
                    math.nextafter(max(a, b, c, d), math.inf))

    def add(self, o):
        return _Box(math.nextafter(self.lo + o.lo, -math.inf),
                    math.nextafter(self.hi + o.hi, math.inf))


def loop_seconds():
    """Thread CPU seconds of one run of the kernel."""
    start = time.thread_time()
    x, y, half = _Box(0.999, 1.001), _Box(1e-3, 2e-3), _Box(0.5, 0.5)
    acc = _Box(0.0, 0.0)
    for _ in range(2_000):
        acc = acc.add(x.mul(y)).mul(half)
    return time.thread_time() - start


class Sampler:
    """Samples of the kernel around and during a command, in its
    process: ``start`` before the work, ``stop`` after it."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        self.samples.append(loop_seconds())

    def start(self):
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._sample()
        return {"samples": self.samples, "spent": sum(self.samples)}


def rescale(wall_s, seen):
    """Wall seconds at the reference speed, from a command's measured
    wall time and what its Sampler returned."""
    host_s = sum(seen["samples"]) / len(seen["samples"])
    return (wall_s - seen["spent"]) * REFERENCE_S / host_s
