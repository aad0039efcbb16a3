"""The host's speed, sampled between chunks of timed work.

On a shared host the same pure-Python work takes 20-30% longer or
shorter from one minute to the next, and a whole run can fall into a
slow stretch; no run length averages that away.  So every batch times a
fixed reference kernel -- small objects allocated, stored in a dict
and read back, like the program's messages and log entries -- between
chunks of its timed work, and reports each chunk's timings at the reference speed::

    reported = measured * REFERENCE_S / kernel time around the chunk

where the kernel time around a chunk is the mean of the samples taken
right before and right after it.  The host switches between faster and
slower stretches within seconds, so a chunk is scaled by the samples
that bracket it, not by the batch's average.

The kernel lives in the benchmark, not the program, so a change to the
program moves the reported numbers exactly as it moves the measured
ones; only the host's drift is divided out.  Kernel time is never part
of a timed region, and the collector is paused while it runs so that
the program's heap size cannot change the kernel's time.
"""

from __future__ import annotations

import gc
from time import perf_counter

__all__ = ["REFERENCE_S", "ChunkClock", "HostSpeed", "reference_kernel_s"]

#: nominal time of one reference kernel call (about its time on a 2-core
#: x86 host in a quiet stretch); reported timings are scaled to this speed
REFERENCE_S = 0.0012

_ROUNDS = 2000


class _Record:
    """A small heap object, like a message or a log entry."""

    def __init__(self, key: int, seq: int) -> None:
        self.key = key
        self.deps = [key, seq]


def _kernel() -> int:
    table: dict[int, _Record] = {}
    acc = 0
    for i in range(_ROUNDS):
        rec = _Record(i & 127, i)
        table[rec.key] = rec
        acc += len(rec.deps)
    return acc


def reference_kernel_s() -> float:
    """Seconds one run of the reference kernel takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-kernel samples of one batch, and the factor they give.

    A disabled one (traced batches, whose spans must not contain kernel
    time) never runs the kernel and reads as the reference speed.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        for _ in range(5 if enabled else 0):  # let the interpreter specialise it
            reference_kernel_s()
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        dt = reference_kernel_s() if self.enabled else REFERENCE_S
        self.samples.append(dt)
        return dt

    def factor(self) -> float:
        """The batch's mean speed: reference / measured kernel time."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def timed(self, fn):
        """Run ``fn()`` between two samples; returns (its result, seconds
        as measured, seconds at reference speed)."""
        before = self.sample()
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0
        after = self.sample()
        return result, elapsed, elapsed * 2 * REFERENCE_S / (before + after)


class ChunkClock:
    """Times a phase cut into chunks, sampling the host's speed at every cut.

    ``series`` are the latency lists (ms) the phase appends to; a sample
    falls into the chunk during which it was appended.  Call
    :meth:`start`, then :meth:`cut` between chunks and at the end; the
    time the cuts take is not part of the phase.
    """

    def __init__(self, speed: HostSpeed, *series: list[float]) -> None:
        self.speed = speed
        self.series = series
        self.paused_s = 0.0
        self._kernel_s: list[float] = []
        self._chunk_s: list[float] = []
        self._lens: list[tuple[int, ...]] = []
        self._t0 = self._last = 0.0

    def start(self) -> None:
        self._kernel_s.append(self.speed.sample())
        self._lens.append(tuple(len(xs) for xs in self.series))
        self._t0 = self._last = perf_counter()

    def cut(self) -> None:
        t = perf_counter()
        self._chunk_s.append(t - self._last)
        self._kernel_s.append(self.speed.sample())
        self._lens.append(tuple(len(xs) for xs in self.series))
        self._last = perf_counter()
        self.paused_s += self._last - t

    def _scales(self) -> list[float]:
        k = self._kernel_s
        return [2 * REFERENCE_S / (k[i] + k[i + 1]) for i in range(len(k) - 1)]

    def wall_s(self) -> float:
        """The phase's wall time as measured, cuts excluded."""
        return sum(self._chunk_s)

    def wall_at_reference_s(self) -> float:
        return sum(c * f for c, f in zip(self._chunk_s, self._scales()))

    def series_at_reference(self, index: int) -> list[float]:
        """Series ``index`` with every sample scaled by its chunk's speed."""
        xs = self.series[index]
        out: list[float] = []
        for i, f in enumerate(self._scales()):
            out += [x * f for x in xs[self._lens[i][index]:self._lens[i + 1][index]]]
        return out
