"""The tail-percentile rule of the benchmark report."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

# The tail percentile is the highest one with at least this many samples
# strictly above its rank.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    percentile: float  # share of samples at or below the reported rank, in %
    value: float
    samples: int
    beyond: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Optional[Tail]:
    """Highest percentile that still has `beyond` samples above it.

    With n samples sorted ascending, that is the value at 0-based rank
    n - 1 - beyond, i.e. the (beyond+1)-th largest sample; its percentile is
    the share of samples at or below that rank.  None when n <= beyond.
    """
    s = sorted(values)
    n = len(s)
    if n <= beyond:
        return None
    rank = n - 1 - beyond
    return Tail(100.0 * (rank + 1) / n, s[rank], n, beyond)


def percentile_label(t: Tail) -> str:
    return f"p{t.percentile:.1f} of {t.samples} samples, {t.beyond} beyond"
