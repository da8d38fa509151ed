import pytest

from stats import tail_percentile


def test_p90_needs_a_hundred_samples():
    assert tail_percentile(list(range(1, 100)), 0.9) is None
    assert tail_percentile([], 0.9) is None


def test_p90_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # order must not matter
    p90 = tail_percentile(samples, 0.9)
    assert p90 == 90
    assert sum(1 for s in samples if s > p90) == 10


def test_p50_needs_far_fewer_samples():
    assert tail_percentile([3, 1, 2] + list(range(10, 27)), 0.5) == 16


def test_quantile_must_be_inside_the_unit_interval():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 200, 1.0)
