"""Deterministic, seeded open-loop arrival processes.

An always-on service is driven *open loop*: requests arrive on a clock
the clients own, whether or not the machine has kept up — that is what
makes queueing, admission control, and tail latency measurable at all
(a closed loop self-throttles and hides saturation).  Every process here
is a pure function of its constructor arguments: the k-th arrival time
is reproducible bit-for-bit across runs, shard counts, and platforms,
which is what lets chaos-soak SLO verdicts be compared byte-wise.

Randomness (the Poisson process) comes from the same splitmix64 mixing
the fault plans use — counter-keyed draws, no shared RNG stream whose
consumption order could differ between configurations.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import List

import numpy as np

_MASK64 = (1 << 64) - 1
#: 2^-53 — maps the top 53 bits of a mix to a uniform in (0, 1].
_INV_2_53 = 1.0 / (1 << 53)
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix_counters(seed: int, a: int, n: int) -> np.ndarray:
    """splitmix64-style avalanche of ``(seed, a, b)`` for ``b`` in
    ``range(n)`` — the recipe of ``repro.faults.plan``, one draw per
    counter, as a ``uint64`` array.

    The prefix ``(seed ^ a * golden) & MASK64`` is folded in Python ints
    (``seed`` may be negative); after it every operand is a 64-bit word,
    and ``uint64`` wraparound is exactly the scalar recipe's ``& MASK64``.
    """
    x = np.arange(n, dtype=np.uint64) * _M1
    x ^= np.uint64((seed ^ (a * _GOLDEN)) & _MASK64)
    x += np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


class ArrivalProcess:
    """Base class: ``times(n)`` returns the first ``n`` arrival ticks."""

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival times in cycles, non-decreasing."""
        raise NotImplementedError


class SteadyArrivals(ArrivalProcess):
    """Constant-rate traffic: one request every ``gap_cycles``.

    The "steady QPS" scenario — offered load is
    ``clock_hz / gap_cycles`` requests per second.
    """

    def __init__(self, gap_cycles: float, start_cycles: float = 0.0) -> None:
        if gap_cycles <= 0:
            raise ValueError("gap_cycles must be positive")
        self.gap_cycles = float(gap_cycles)
        self.start_cycles = float(start_cycles)

    def times(self, n: int) -> List[float]:
        gap = self.gap_cycles
        start = self.start_cycles
        return [start + k * gap for k in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Memoryless traffic: exponential gaps with mean ``mean_gap_cycles``.

    Gap ``k`` is ``-mean * ln(u_k)`` with ``u_k`` drawn by counter-keyed
    splitmix64 — the k-th gap never depends on how many gaps anyone else
    drew, so the process is trivially reproducible.

    ``times(n)`` draws all ``n`` uniforms as one ``uint64`` array.  The
    logarithms stay scalar (libm's ``math.log``: NumPy's vector ``log``
    may differ in the last ulp, which would shift every later arrival)
    and the running sum stays sequential, so the times are bit-identical
    to drawing one gap at a time.
    """

    def __init__(
        self, mean_gap_cycles: float, seed: int = 0, start_cycles: float = 0.0
    ) -> None:
        if mean_gap_cycles <= 0:
            raise ValueError("mean_gap_cycles must be positive")
        self.mean_gap_cycles = float(mean_gap_cycles)
        self.seed = int(seed)
        self.start_cycles = float(start_cycles)

    def times(self, n: int) -> List[float]:
        bits = _mix_counters(self.seed, 0x706F6973, n) >> np.uint64(11)
        u = (bits + 1) * _INV_2_53
        neg_mean = -self.mean_gap_cycles
        gaps = (neg_mean * log_u for log_u in map(math.log, u.tolist()))
        out = list(accumulate(gaps, initial=self.start_cycles))
        del out[0]
        return out


class BurstyArrivals(ArrivalProcess):
    """On/off traffic: bursts of back-to-back requests, then silence.

    ``burst_size`` requests spaced ``gap_cycles`` apart, then an
    ``idle_gap_cycles`` pause before the next burst — the pattern that
    used to false-trip the absolute-time quiescence watchdog (the
    machine is *intentionally* idle between bursts; see
    ``Simulator.inject``'s rearm-on-injection semantics).
    """

    def __init__(
        self,
        burst_size: int,
        gap_cycles: float,
        idle_gap_cycles: float,
        start_cycles: float = 0.0,
    ) -> None:
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if gap_cycles <= 0 or idle_gap_cycles < 0:
            raise ValueError("gaps must be positive")
        self.burst_size = int(burst_size)
        self.gap_cycles = float(gap_cycles)
        self.idle_gap_cycles = float(idle_gap_cycles)
        self.start_cycles = float(start_cycles)

    def times(self, n: int) -> List[float]:
        out: List[float] = []
        t = self.start_cycles
        k = 0
        while len(out) < n:
            out.append(t)
            k += 1
            if k % self.burst_size == 0:
                t += self.idle_gap_cycles
            else:
                t += self.gap_cycles
        return out


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated rate — the day/night traffic curve.

    Instantaneous rate is ``(1 + amplitude * sin(2*pi*t / day_cycles))``
    times the base rate ``1 / base_gap_cycles``; the next gap is the
    reciprocal of the rate at the current tick.  ``amplitude`` is capped
    below 1 so the rate never reaches zero.
    """

    def __init__(
        self,
        base_gap_cycles: float,
        amplitude: float,
        day_cycles: float,
        start_cycles: float = 0.0,
    ) -> None:
        if base_gap_cycles <= 0 or day_cycles <= 0:
            raise ValueError("base_gap_cycles and day_cycles must be positive")
        if not 0.0 <= amplitude <= 0.95:
            raise ValueError("amplitude must be in [0, 0.95]")
        self.base_gap_cycles = float(base_gap_cycles)
        self.amplitude = float(amplitude)
        self.day_cycles = float(day_cycles)
        self.start_cycles = float(start_cycles)

    def times(self, n: int) -> List[float]:
        base_rate = 1.0 / self.base_gap_cycles
        amp = self.amplitude
        omega = 2.0 * math.pi / self.day_cycles
        t = self.start_cycles
        out: List[float] = []
        for _ in range(n):
            out.append(t)
            rate = base_rate * (1.0 + amp * math.sin(omega * t))
            t += 1.0 / rate
        return out
