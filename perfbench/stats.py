"""Order statistics and output digests shared by the benchmark runner."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from numbers import Rational

#: Percentiles tried for the tail metric, highest first, in tenths of a
#: percent so that ranks are computed in exact integer arithmetic.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(sorted_xs, permille: int):
    """Nearest-rank percentile (given in tenths of a percent) of an ascending
    list, with the number of samples ranked above it."""
    n = len(sorted_xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-permille * n // 1000))
    return sorted_xs[rank - 1], n - rank


def tail(samples):
    """The highest percentile on TAIL_LADDER that still has at least
    TAIL_BEYOND samples beyond it, as (percentile, value, samples beyond).

    Raises ValueError with fewer than 2 * TAIL_BEYOND samples, where not
    even the median has TAIL_BEYOND samples beyond it.
    """
    xs = sorted(samples)
    if len(xs) < 2 * TAIL_BEYOND:
        raise ValueError(
            f"{len(xs)} samples: the tail needs at least {2 * TAIL_BEYOND}")
    for permille in TAIL_LADDER:
        value, beyond = nearest_rank(xs, permille)
        # With 2 * TAIL_BEYOND samples or more the median always qualifies.
        if beyond >= TAIL_BEYOND or permille == TAIL_LADDER[-1]:
            return permille / 10, value, beyond


def median(samples):
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def plain(obj):
    """JSON-ready copy of an output: exact rationals as "p/q", infinities as
    "inf"/"-inf", tuples as lists, dict keys as strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Rational):
        q = Fraction(obj.numerator, obj.denominator)
        return f"{q.numerator}/{q.denominator}"
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        raise TypeError(f"inexact float in an output: {obj!r}")
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def canonical(obj) -> str:
    """Canonical JSON text of an output (sorted keys, compact separators)."""
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()
