"""Fixed-bucket latency histograms (log-spaced, HDR-style).

Reservoir sampling answers "what was the p99" with a *random* subset of
the stream, which makes cross-client aggregation statistically delicate:
concatenating two saturated reservoirs weighs both clients equally no
matter how much traffic each saw. A fixed-bucket histogram trades a
bounded relative error (one bucket width) for *exact* mergeability —
adding two histograms with identical bounds loses nothing, which is why
every serious latency pipeline (HdrHistogram, Prometheus, Ditto's online
collectors) is bucket-based.

Every histogram shares one bucket layout, :data:`BOUNDS`, built once at
import: log-spaced, ``BOUNDS[i] = LOWEST * growth**i`` with
``BUCKETS_PER_DECADE`` buckets per decade, so relative error is constant
across the whole dynamic range (microsecond front-end hits and
second-scale storage fallbacks share one histogram) and any two
histograms merge. Values below ``LOWEST`` land in the first bucket;
values at or above ``HIGHEST`` land in a final overflow bucket whose
percentile estimate is the observed maximum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator

__all__ = ["BOUNDS", "LatencyHistogram"]

#: Dynamic range: 1 µs .. 100 s covers everything from a local cache hit
#: to a pathological retry storm.
LOWEST = 1e-6
HIGHEST = 100.0
#: 10 buckets per decade → ~26% bucket growth → percentile estimates
#: within ~13% of the true value (half a bucket) anywhere in range.
BUCKETS_PER_DECADE = 10


def _build_bounds() -> tuple[float, ...]:
    """Upper bucket bounds from ``LOWEST`` up to and including ``HIGHEST``."""
    decades = math.log10(HIGHEST / LOWEST)
    count = int(math.ceil(decades * BUCKETS_PER_DECADE)) + 1
    growth = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
    bounds = [LOWEST * growth**i for i in range(count)]
    # Pin the final bound exactly at ``HIGHEST``, whatever the rounding
    # of ``growth**i``.
    bounds[-1] = HIGHEST
    return tuple(bounds)


#: Upper bounds of the finite buckets — the Prometheus ``le`` set.
BOUNDS = _build_bounds()


class LatencyHistogram:
    """Log-spaced fixed-bucket histogram with exact merging.

    ``record`` is O(log buckets) (one bisect); ``merge`` is exact, since
    every histogram has the bounds :data:`BOUNDS`; ``percentile``
    interpolates inside the containing bucket so the error is bounded by
    one bucket width.
    """

    __slots__ = ("_counts", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        # One slot per bound plus an overflow slot for values >= HIGHEST.
        self._counts = [0] * (len(BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    # ---------------------------------------------------------------- record

    def record(self, value: float) -> None:
        """Add one observation (seconds)."""
        self._counts[bisect_right(BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def record_many(self, values: Iterable[float]) -> None:
        """Add a batch of observations."""
        for value in values:
            self.record(value)

    # ----------------------------------------------------------------- merge

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram — exact, no sampling loss."""
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min_value = min(self.min_value, other.min_value)
            self.max_value = max(self.max_value, other.max_value)

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A fresh histogram holding the exact sum of ``histograms``."""
        result: LatencyHistogram | None = None
        for histogram in histograms:
            if result is None:
                result = histogram.copy()
            else:
                result.merge(histogram)
        return result if result is not None else cls()

    def copy(self) -> "LatencyHistogram":
        """An independent deep copy (snapshot freezing)."""
        clone = object.__new__(LatencyHistogram)
        clone._counts = list(self._counts)
        clone.count = self.count
        clone.total = self.total
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    # ------------------------------------------------------------- summaries

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of all observations."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (within one bucket width).

        Finds the bucket containing the target rank and interpolates
        linearly between its bounds; ranks in the overflow bucket return
        the observed maximum, ranks in the first bucket interpolate from
        the observed minimum.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self.count:
            raise ValueError("percentile of empty histogram")
        target = (q / 100.0) * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if i >= len(BOUNDS):  # overflow bucket
                    return self.max_value
                upper = BOUNDS[i]
                lower = BOUNDS[i - 1] if i else max(self.min_value, 0.0)
                lower = min(lower, upper)
                frac = 1.0 - (cumulative - target) / bucket_count
                estimate = lower + (upper - lower) * frac
                # Never report outside the observed range.
                return min(max(estimate, self.min_value), self.max_value)
        return self.max_value

    def cumulative_buckets(self) -> Iterator[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style.

        Yields one pair per finite bucket plus a final ``(inf, count)``
        pair — exactly the ``_bucket{le=...}`` series of the text format.
        """
        cumulative = 0
        for bound, bucket_count in zip(BOUNDS, self._counts):
            cumulative += bucket_count
            yield bound, cumulative
        yield math.inf, self.count

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` for buckets that saw traffic."""
        out: list[tuple[float, int]] = []
        for i, bucket_count in enumerate(self._counts):
            if bucket_count:
                bound = BOUNDS[i] if i < len(BOUNDS) else math.inf
                out.append((bound, bucket_count))
        return out

    def summary(self) -> dict[str, float]:
        """Mean/p50/p99/max bundle (all zero while empty)."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.max_value,
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"buckets={len(self._counts)}, mean={self.mean:.6g})"
        )
