"""Exact rationals and their integer encoding.

``Q`` is ``fractions.Fraction``, the one rational type of the package.  The
engines compute on integers: a list of rationals becomes its numerators
over their least common denominator (``common``), and a rational is built
only for a value that is returned.  ``rat`` parses user input; a string
that is not 'p/q' with integer parts and q != 0 is a ``ValidationError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from rotnorm.errors import ValidationError

Q = Fraction

#: There is no second rational type; kept because benchmark reports read it.
HAVE_GMPY2 = False

#: Positive infinity sentinel used for norm values and upper bounds.
INF = float("inf")


def rat(value) -> Q:
    """Build an exact rational from an int, rational, or 'p/q' string."""
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            return Q(int(num), int(den)) if slash else Q(int(num))
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"not a rational 'p/q' with q != 0: {value!r}") from None
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
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def floor_q(value) -> int:
    """Floor of a rational as a Python int."""
    q = Q(value)
    return q.numerator // q.denominator


def common(pairs):
    """Rationals given as (num, den) pairs, den > 0, as numerators over
    their least common denominator: returns (den, numerators)."""
    reduced = []
    L = 1
    for n, d in pairs:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if L % d:
            L = lcm(L, d)
        reduced.append((n, d))
    return L, [n * (L // d) for n, d in reduced]
