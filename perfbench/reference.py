"""A reference computation timed alongside the workload.

The benchmark shares a few cores of a host with other jobs, and the speed
of those cores drifts: the same magflow classification took from 0.32 to
0.92 s within minutes, and CPU time drifts with it. A fixed reference
computation timed next to the workload slows down with it, so the
workload's time divided by the reference's time stays steady where either
time alone does not (4.1 to 4.8 times the reference over the same minutes).

The reference runs three kernels of about 15 ms each: pure-Python dict,
str and sort churn, for the interpreter and allocator; numpy sorts and FFTs
of arrays larger than the L2 cache, for memory traffic; and an mpmath
Taylor integration of a Riccati equation at 20 digits, for pure-Python
arithmetic. magflow spends its time in Python-level right-hand sides,
Fourier evaluations and mpmath, and this mix follows it best of the kernels
tried: over the 20 s windows of three noisy minutes, the median time of one
magflow classification ranged over 43% of its middle value in seconds, over
8% in multiples of this reference, and over 17% in multiples of a scipy
``solve_ivp`` kernel added in place of the mpmath one; for a short magflow
mpmath integration the figures were 39% in seconds and 12% against the
mpmath kernel alone. A small kernel alone ran up to 1.8x faster in quiet
spells that sped magflow up by 1.3x. The reference uses no magflow code,
so no change to magflow can move it.

The two or so cores given to the benchmark need not run at the same speed:
on a 2-vCPU host one ran the reference steadily while the other ran it up
to 1.8x faster or about as slow, and a process that migrates between them mixes
the two. ``pin_fastest_cpu`` keeps the benchmark on the core that runs the
reference fastest when it starts, so the reference and the workload share
one core.

A ``Ruler`` runs the reference at even intervals through each pass, about
``SHARE`` of the time, and the benchmark subtracts that time from every
wall-clock interval it reports. Reference runs only at chosen calls into
magflow missed the host's changes of speed between those calls: in
``invariance`` the calls came 3 to 7 s apart.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

SHARE = 0.2  # reference time per second of workload time


def _interpreter():
    d = {}
    for i in range(30_000):
        d[i] = str(i * 7919)
    return len(sorted(d.values(), reverse=True)[0])


def _memory():
    import numpy as np

    a = np.random.default_rng(0).random(200_000)
    for _ in range(2):
        a = np.sort(a)[::-1].copy()
        np.fft.rfft(a)
    return a.size


def _mpmath():
    import mpmath as mp

    with mp.workdps(20):
        u = mp.odefun(lambda s, u: 1 - u * u - mp.mpf("0.3") * mp.sin(s),
                      0, mp.mpf("0.5"), tol=mp.mpf(10) ** -18)
        return mp.nstr(u(mp.mpf("0.1")), 15)


KERNELS = (_interpreter, _memory, _mpmath)


def reference_work():
    """One reference computation; returns a fingerprint of the work done,
    the same on every call."""
    return tuple(k() for k in KERNELS)


def pin_fastest_cpu(runs: int = 5):
    """Pin this process to the allowed CPU with the lowest median reference
    time over ``runs`` runs each. Returns (cpu, {cpu: median seconds}),
    or (None, {}) where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None, {}
    cpus = sorted(os.sched_getaffinity(0))
    medians = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        xs = []
        for _ in range(runs):
            t0 = time.perf_counter()
            reference_work()
            xs.append(time.perf_counter() - t0)
        medians[cpu] = statistics.median(xs)
    best = min(cpus, key=medians.get)
    os.sched_setaffinity(0, {best})
    return best, medians


class Ruler:
    """Runs the reference at even intervals while a pass runs, from a
    SIGALRM handler, and records every run.

    The handler runs between two bytecodes of the workload, so the
    reference samples the host's speed throughout a pass, not only at
    chosen calls. After a run of ``dt`` seconds the next is due
    ``dt / share`` seconds later, which keeps the reference at about
    ``share`` of the time.
    """

    def __init__(self, share: float = SHARE):
        self.share = share
        self.spent = 0.0          # seconds spent on the reference
        self.samples = []         # (start, seconds) of each reference run
        self.fingerprint = None
        self._previous = None

    def _run(self):
        # With the collector on, a reference run could pay for a full
        # collection of the workload's heap. Objects the reference frees
        # give back their allocation count, so switching it off here leaves
        # the workload's own collections where they were.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fingerprint = reference_work()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            raise RuntimeError("reference work changed: %r != %r"
                               % (fingerprint, self.fingerprint))
        self.samples.append((t0, dt))
        self.spent += dt
        return dt

    def _on_alarm(self, signum, frame):
        dt = self._run()
        signal.setitimer(signal.ITIMER_REAL, dt / self.share)

    def start(self):
        """Run the reference once, then every so often until ``stop``."""
        dt = self._run()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, dt / self.share)

    def stop(self):
        """Stop the timer and run the reference once more."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._run()

    def median_between(self, t0: float, t1: float) -> float:
        """Median seconds of the reference runs started in [t0, t1]."""
        xs = [dt for s, dt in self.samples if t0 <= s <= t1]
        return statistics.median(xs)

    def median_near(self, t0: float, t1: float, k: int = 9) -> float:
        """Median seconds of the reference runs started in [t0, t1], or of
        the ``k`` started nearest to it when fewer than ``k`` fall inside."""
        inside = [dt for s, dt in self.samples if t0 <= s <= t1]
        if len(inside) >= k:
            return statistics.median(inside)
        near = sorted(self.samples, key=lambda x: max(t0 - x[0], x[0] - t1))
        return statistics.median(dt for _, dt in near[:k])
