"""Wall times corrected for the speed of the host.

The benchmark runs on a few cores of a shared host whose speed changes
under it: a fixed piece of pure-Python code takes up to twice as long for
stretches of seconds to minutes, whatever the program does.  The benchmark
therefore times a fixed calibration kernel next to the work and scales
every time it reports to the reference speed, at which the kernel takes
its reference time:

    reference time = measured time x kernel reference time / kernel time

A :class:`HostMeter` cuts a pass into segments of about ``SEGMENT_S`` at
calls into hebsim (``BlockStore.append`` and the MDP entry points), runs
the interpreter kernel between segments, and scales each segment by the
mean of the kernel times on either side of it.  The kernel's own time is
not part of any segment.  Set-up is mostly imports, which slow down less
than interpreted code on a slow host, so it is scaled by a compile kernel,
which slows down about as much.  A faster program gives a shorter
reference time on a fast and on a slow host alike; the speed of the host,
which the program does not control, largely cancels out.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy

from tracing import patched

clock = time.perf_counter

# the kernels' fastest times on a 2-vCPU Xeon (Emerald Rapids) KVM guest,
# Python 3.11; they only set the scale of the reported times
CAL_REF_S = 0.0014
COMPILE_REF_S = 0.0118
SEGMENT_S = 0.1
_RNG = numpy.random.default_rng(0)
# a fixed module text for the compile kernel
_SOURCE = "".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    d = {{'k': a, 'v': [b, {i}]}}\n"
    f"    for j in range(a):\n"
    f"        d[j] = j * {i} + len(b)\n"
    f"    return d\n"
    for i in range(250)
)


def _kernel() -> float:
    """Calls, tuple-keyed dict look-ups, float and str work and numpy scalar
    draws: the kind of work the interpreter spends hebsim's time on.  About
    a millisecond and a half."""
    rng = _RNG

    def mix(a: int, b: int) -> int:
        return (a * 31 + b) % 1009

    memo: dict = {}
    total = 0.0
    for i in range(1500):
        key = (i % 97, i % 89, i & 1)
        memo[key] = memo.get(key, 0.0) + mix(i, key[0]) * 0.5
        total += len(str(i)) + rng.random()
    return total


def _fastest(fn: Callable, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def kernel_s(repeat: int = 1) -> float:
    """Fastest of ``repeat`` timings of the interpreter kernel."""
    return _fastest(_kernel, repeat)


def compile_s(repeat: int = 5) -> float:
    """Fastest of ``repeat`` timings of compiling a fixed module text."""
    return _fastest(lambda: compile(_SOURCE, "<hostspeed>", "exec"), repeat)


def to_reference(seconds: float, kernel: float, reference: float = CAL_REF_S) -> float:
    return seconds * reference / kernel


class HostMeter:
    """Times one call of a function in reference seconds."""

    def __init__(self):
        self.reference_s = 0.0
        self.kernel_s: list[float] = []
        self._start = 0.0

    def _tick(self) -> None:
        now = clock()
        if now - self._start >= SEGMENT_S:
            self._close(now)

    def _close(self, now: float) -> None:
        seconds = now - self._start
        kernel = kernel_s()
        self.reference_s += to_reference(seconds, (self.kernel_s[-1] + kernel) / 2)
        self.kernel_s.append(kernel)
        self._start = clock()

    def _ticking(self, fn: Callable) -> Callable:
        tick = self._tick

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tick()
            return out

        return wrapper

    def patches(self) -> list[tuple[object, str, Callable]]:
        """Segment boundaries: every block appended, every MDP solve and
        policy evaluation, and every rollout game (each starts from
        ``initial_state``).  A pool worker's calls tick a copy of the meter
        that this process never sees, so a meter times jobs=1 passes only."""
        from hebsim import chain, mdp

        out = [(chain.BlockStore, "append", self._ticking(chain.BlockStore.append))]
        for name in ("solve", "policy_value", "initial_state"):
            out.append((mdp, name, self._ticking(getattr(mdp, name))))
        return out

    def run(self, fn: Callable):
        """Call ``fn()`` with the segment boundaries in place; return its value."""
        with patched(self.patches()):
            self.kernel_s.append(kernel_s(repeat=3))  # the first call warms it
            self._start = clock()
            try:
                return fn()
            finally:
                self._close(clock())
