from fractions import Fraction

import pytest

from perfbench import stats


@pytest.mark.parametrize("n, percentile, beyond", [
    (20, 50, 10),
    (39, 50, 19),
    (40, 75, 10),
    (99, 75, 24),
    (100, 90, 10),
    (199, 90, 19),
    (200, 95, 10),
    (999, 95, 49),
    (1000, 99, 10),
    (10000, 99.9, 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    p, value, got_beyond = stats.tail(samples)
    assert (p, got_beyond) == (percentile, beyond)
    # nearest rank: exactly `beyond` samples are larger than the value
    assert value == n - beyond
    assert sum(1 for x in samples if x > value) == beyond


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_tail_refuses_fewer_than_twenty_samples(n):
    with pytest.raises(ValueError):
        stats.tail([1.0] * n)


def test_nearest_rank_and_median():
    xs = [1, 2, 3, 4]
    assert stats.nearest_rank(xs, 500) == (2, 2)
    assert stats.nearest_rank(xs, 1000) == (4, 0)
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


def test_digest_is_canonical():
    a = {"theta": Fraction(3, 2), "pts": ((1, 2),), 7: float("inf")}
    b = {7: float("inf"), "pts": [[1, 2]], "theta": Fraction(6, 4)}
    assert stats.canonical(a) == '{"7":"inf","pts":[[1,2]],"theta":"3/2"}'
    assert stats.digest(a) == stats.digest(b)
    assert stats.digest({"theta": Fraction(1, 2)}) != stats.digest(a)


def test_digest_refuses_inexact_floats():
    with pytest.raises(TypeError):
        stats.digest({"x": 0.5})
