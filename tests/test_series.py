import numpy as np
import pytest

from reflectwalk import TruncatedSeries


def test_geometric_evaluation_with_tail_bound():
    ones = TruncatedSeries(np.ones(11))
    value = ones.evaluate(0.5)
    tail = ones.tail_bound(0.5)
    # the bound is exact for a geometric series: value + tail = 1 / (1 - s)
    assert value + tail == pytest.approx(2.0, abs=1e-15)
    assert value < 2.0


def test_tail_bound_domain():
    ones = TruncatedSeries(np.ones(3))
    with pytest.raises(ValueError):
        ones.tail_bound(1.0)


def test_partial_sums():
    s = TruncatedSeries(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(s.partial_sums(), np.array([1.0, 3.0, 6.0]))
