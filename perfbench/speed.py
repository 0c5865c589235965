"""CPU-time clock and machine-speed reference: the benchmark's times use both.

The benchmark runs on shared virtual machines.  On a 2-vCPU one (Python
3.11, numpy 2.4), the host took the virtual CPU away for up to half of the wall
time (steal time), and while the CPU ran, the same connection evaluation
still took anywhere from 1x to 1.75x its best time, in episodes lasting a
second to minutes.  Both move every timed figure of a run together.

So times are CPU seconds of the calling thread (`clock`), which leave out
stolen time; the workloads run in one thread, with BLAS pinned to one.  The
thread clock, unlike the process clock, stays exact while a CPU-time timer
is armed.  That timer runs a fixed kernel, which shares no code with the
package, every PERIOD_S of CPU time.  Each time is then reported in seconds
at reference speed: CPU seconds x REFERENCE_S / (mean kernel time over the
interval).  Kernel runs are taken out of the intervals they interrupt.  A
faster program still shows as faster; a busier machine does not.
"""

import bisect
import gc
import math
import signal
from array import array
from time import thread_time as clock

import numpy as np

REFERENCE_S = 2e-4     # the kernel's time at reference speed (near its best time here)
PERIOD_S = 0.02

_GAUSS = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0), (math.sqrt(0.6), 5.0 / 9.0))


def _wrench(a1, a2, L=0.05, k_long=1.0, k_lat=2.0):
    """Drag wrench sums of a 3-link swimmer by 3-point quadrature: the shape
    of the package's hot loop, frozen here so that it never changes with it."""
    c1, s1, c2, s2 = math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2)
    w1 = [0.0] * 6
    w2 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    for ax, off, c, s, spin in ((-L, -L, c1, s1, 1.0), (0.0, 0.0, 1.0, 0.0, 0.0),
                                (L, L, c2, -s2, -1.0)):
        m11 = k_long * c * c + k_lat * s * s
        m12 = (k_long - k_lat) * c * s
        m22 = k_long * s * s + k_lat * c * c
        col = 0 if spin > 0 else 1
        for node, weight in _GAUSS:
            wt = weight * L
            rho = node * L + off
            rx, ry = c * rho, s * rho
            px, py = ax + rx, ry
            u1, u2 = -py * m11 + px * m12, -py * m12 + px * m22
            w1[0] -= wt * m11
            w1[1] -= wt * m12
            w1[2] -= wt * u1
            w1[3] -= wt * m22
            w1[4] -= wt * u2
            w1[5] -= wt * (-py * u1 + px * u2)
            if spin != 0.0:
                f1 = -spin * (m11 * ry - m12 * rx)
                f2 = -spin * (m12 * ry - m22 * rx)
                w2[0][col] -= wt * f1
                w2[1][col] -= wt * f2
                w2[2][col] -= wt * (-py * f1 + px * f2)
    return w1, w2


def kernel():
    """Work shaped like the package's: the wrench loop, small numpy arrays,
    and number formatting.  Of the kernels tried, one shaped like the
    workloads tracked their slowdowns best (a plain float loop, or one with
    small numpy solves, did markedly worse)."""
    acc = 0.0
    for i in range(20):
        w1, w2 = _wrench(0.05 * i, -0.1 * i)
        acc += w1[0] + w2[2][1]
    for i in range(12):
        v = np.array([1.0, i * 0.1, 0.5, w1[1], w1[2]])
        acc += float(np.column_stack([v, v * 2.0]).sum())
    return acc + len(",".join(format(x, ".15g") for x in w1))


class Sampler:
    """Kernel times sampled from SIGPROF every PERIOD_S of CPU time while entered.

    Main thread only.  `busy` is the CPU time spent in samples, so that
    callers can take it out of the intervals they time.  The collector is
    off during a sample: a collection left pending by the interrupted code
    must not be charged to the kernel.
    """

    def __init__(self):
        self.at = array("d")       # midpoint of each sample on `clock`
        self.took = array("d")     # its kernel time
        self.busy = 0.0
        self._previous = None

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        kernel()
        t1 = clock()
        if enabled:
            gc.enable()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.busy += t1 - t0

    def __enter__(self):
        t0 = clock()
        kernel()  # once unrecorded: first calls pay one-off numpy set-up
        self.busy += clock() - t0
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def kernel_over(self, t0, t1):
        """Mean kernel time over [t0, t1] on `clock`: the samples inside it
        and the nearest one on either side."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.at, t1) + 1, len(self.at))
        if hi <= lo:
            raise ValueError("no kernel sample near the interval")
        return math.fsum(self.took[lo:hi]) / (hi - lo)


def at_reference(cpu_s, kernel_s):
    """CPU seconds rescaled to reference speed, given the kernel time over them."""
    return cpu_s * REFERENCE_S / kernel_s
