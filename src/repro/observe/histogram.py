"""Power-of-two-bucketed histograms for telemetry samples.

Latency and occupancy samples span several orders of magnitude (a local
message is ~100 cycles, a queued remote DRAM access can be tens of
thousands), so the recorder buckets by ``floor(log2(value))`` — constant
memory, one ``bit_length`` per sample, and enough resolution to tell "the
channel is idle" from "the channel is the bottleneck".
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class LogHistogram:
    """Histogram of nonnegative samples in power-of-two buckets.

    Bucket ``b`` holds samples in ``[2**(b-1), 2**b)`` (bucket 0 holds
    samples below 1.0, i.e. sub-cycle).  Alongside the buckets the exact
    count / sum / max are kept so means are not quantized.
    """

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count: int = 0
        self.total: float = 0.0
        self.max: float = 0.0

    def add(self, value: float) -> None:
        """Record one sample (negative values are clamped to zero)."""
        if value < 0.0:
            value = 0.0
        b = int(value).bit_length()
        buckets = self.buckets
        buckets[b] = buckets.get(b, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_bound(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q`` quantile.

        Coarse by construction (a power of two), but monotone and stable —
        good enough for "p90 queue wait jumped 8x" diagnostics.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= target:
                return float(2 ** b) if b > 0 else 1.0
        return float(self.max)

    def rows(self) -> List[Tuple[float, int]]:
        """(bucket upper bound, count) rows, ascending — for exporters."""
        return [
            (float(2 ** b) if b > 0 else 1.0, self.buckets[b])
            for b in sorted(self.buckets)
        ]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(n={self.count}, mean={self.mean:.1f}, "
            f"max={self.max:.1f})"
        )
