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

from rotnorm.errors import ValidationError, quoted

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
                f"not a rational 'p/q' with q != 0: {quoted(value)}") from None
    if isinstance(value, (bool, float)):
        raise TypeError(f"{type(value).__name__} values are not accepted; "
                        "pass 'p/q' strings or ints")
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


def more_digits(n: int, digits: int) -> bool:
    """Whether the positive int n has more than ``digits`` decimal digits.

    2^(3d) < 10^d, so n of at most 3d bits has at most d digits and needs
    no power of 10."""
    return n.bit_length() > 3 * digits and n >= 10 ** digits


def common(pairs, cap=None):
    """Rationals given as (num, den) pairs, den > 0, as numerators over
    their least common denominator: returns (den, numerators).

    ``cap``, a (name, digits) pair, bounds that denominator: as soon as it
    grows past ``digits`` digits, a ValidationError names the cap, before
    the rest of the pairs are read and before any numerator is scaled."""
    reduced = []
    L = 1
    for n, d in pairs:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if L % d:
            L = lcm(L, d)
            if cap and more_digits(L, cap[1]):
                raise ValidationError(
                    "a common denominator has more digits than the cap "
                    f"{cap[0]} = {cap[1]}")
        reduced.append((n, d))
    return L, [n * (L // d) for n, d in reduced]
