from fractions import Fraction

import pytest

from rotnorm._rat import HAVE_GMPY2, Q, common, floor_q, rat, rat_str
from rotnorm.errors import ValidationError


def test_one_rational_type():
    assert Q is Fraction and HAVE_GMPY2 is False


def test_rat_parses_exact_rationals():
    assert rat(" 3/6 ") == Q(1, 2)
    assert rat("-4") == -4 and rat(7) == 7 and rat(Q(2, 3)) == Q(2, 3)
    assert rat("2/-4") == Q(-1, 2)


@pytest.mark.parametrize("text", ["1/0", "abc", "0.5", "", "1/2/3", "1/x"])
def test_rat_rejects_malformed_strings(text):
    with pytest.raises(ValidationError):
        rat(text)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_str_and_floor():
    assert rat_str(Q(-6, 4)) == "-3/2" and rat_str(5) == "5"
    assert rat_str(float("inf")) == "inf" and rat_str(-float("inf")) == "-inf"
    assert floor_q(Q(-3, 2)) == -2 and floor_q(Q(3, 2)) == 1


def test_common_reduces_to_the_least_denominator():
    assert common([(1, 2), (2, 6), (4, 4)]) == (6, [3, 2, 6])
    assert common([(0, 5), (-3, 9)]) == (3, [0, -1])
    assert common([]) == (1, [])
    assert common(iter([(2, 1)])) == (1, [2])
