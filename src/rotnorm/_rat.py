"""Exact rational arithmetic helpers.

Everything downstream (lattice cosets, circle lifts, bound formulas) works with
exact rationals.  gmpy2's mpq is used when available because its arithmetic
is faster than fractions.Fraction; Fraction is the fallback.  The circle
layer does its own work on integer numerators and builds rationals only for
the values it returns, so the randomized defect experiment makes a few
rationals per trial on either type.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q  # type: ignore[import-untyped]

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Q = Fraction
    HAVE_GMPY2 = False

#: Positive infinity sentinel used for norm values and upper bounds.
INF = float("inf")


def rat(value) -> "Q":
    """Build an exact rational from an int, rational, or 'p/q' string."""
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Q(int(num), int(den))
        return Q(int(text))
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass 'p/q' strings or ints")
    return Q(value)


def rat_str(value) -> str:
    """Serialize a rational (or int) as 'p/q' or a plain integer string."""
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    q = Q(value)
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(int(num))
    return f"{int(num)}/{int(den)}"


def floor_q(value) -> int:
    """Floor of a rational as a Python int."""
    q = Q(value)
    return int(q.numerator // q.denominator)

