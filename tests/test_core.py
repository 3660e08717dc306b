import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconvex import (
    Sequence,
    TooShortError,
    ValidationError,
    deltas,
    is_convex,
    mediant_bounds,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
value_lists = st.lists(finite, min_size=2, max_size=40)


def test_deltas_squares():
    assert list(deltas([0, 1, 4, 9])) == [1.0, 3.0, 5.0]


def test_deltas_constant():
    assert list(deltas([7.5, 7.5, 7.5])) == [0.0, 0.0]


def test_deltas_peak():
    assert list(deltas([0, 1, 0])) == [1.0, -1.0]


def test_deltas_too_short():
    with pytest.raises(TooShortError, match="too short"):
        deltas([3.0])


def test_deltas_overflow_names_the_entry():
    with pytest.raises(ValidationError, match="difference at entry 2 overflows"):
        deltas([0, 1.7e308, -1.7e308, 0])
    assert list(deltas([1.7e308, 0.0, -1.7e308])) == [-1.7e308, -1.7e308]


@given(value_lists)
def test_deltas_reconstruction(values):
    u = Sequence(values)
    d = deltas(u)
    acc = u[0]
    for n, step in enumerate(d, start=1):
        acc = acc + step
        assert acc == pytest.approx(u[n], rel=1e-9, abs=1e-9)


def test_sequence_rejects_nan_and_inf():
    with pytest.raises(ValidationError):
        Sequence([0.0, float("nan")])
    with pytest.raises(ValidationError):
        Sequence([float("inf"), 1.0])
    with pytest.raises(ValidationError):
        Sequence([])
    with pytest.raises(ValidationError):
        Sequence(["not-a-number"])


def test_sequence_is_immutable():
    u = Sequence([1, 2, 3])
    with pytest.raises(AttributeError):
        u.values = (0.0,)
    assert isinstance(u.values, tuple)
    assert len(u) == 3
    assert u[1] == 2.0
    assert list(-u) == [-1.0, -2.0, -3.0]


def test_sequence_array_is_read_only_and_shared():
    source = np.array([1.0, 2.0, 3.0])
    u = Sequence(source)
    source[0] = 9.0  # the sequence keeps its own copy
    arr = u.as_array()
    assert arr is u.as_array()
    assert arr.dtype == np.float64 and arr.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        arr[0] = 5.0


@pytest.mark.parametrize(
    "values, message",
    [
        ([[1, 2]], "entry 0 is not a real number"),
        ([1, None], "entry 1 is not a real number"),
        ([1, 2, float("inf")], "entry 2 is not finite"),
        ([1, 10**400], "entry 1 is not a real number"),
    ],
)
def test_sequence_error_names_the_entry(values, message):
    with pytest.raises(ValidationError, match=message):
        Sequence(values)


def test_sequence_equality_and_hash():
    a, b = Sequence([1, 2]), Sequence((1.0, 2.0))
    assert a == b and hash(a) == hash(b)
    zero, minus_zero = Sequence([0.0]), Sequence([-0.0])
    assert zero == minus_zero and hash(zero) == hash(minus_zero)
    assert a != Sequence([1, 3]) and a != Sequence([1, 2, 3])
    assert a != (1.0, 2.0)
    assert len({a, b}) == 1


def test_mediant_single_term():
    assert mediant_bounds([1], [2]) == (0.5, 0.5)


def test_mediant_equal_denominators():
    low, high = mediant_bounds([1, 3], [1, 1])
    assert (low, high) == (1.0, 3.0)
    assert low <= 4 / 2 <= high


def test_mediant_mixed_signs():
    low, high = mediant_bounds([-1, 2, 4], [2, 1, 4])
    assert (low, high) == (-0.5, 2.0)
    assert low <= 5 / 7 <= high


def test_mediant_errors():
    with pytest.raises(ValidationError, match="at least one"):
        mediant_bounds([], [])
    with pytest.raises(ValidationError, match="length"):
        mediant_bounds([1, 2], [1])
    with pytest.raises(ValidationError, match="positive"):
        mediant_bounds([1, 2], [1, 0])
    with pytest.raises(ValidationError, match="positive"):
        mediant_bounds([1], [-2])


@given(
    st.lists(
        st.tuples(finite, st.floats(min_value=1e-3, max_value=1e3)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200)
def test_mediant_sandwich(terms):
    a = [t[0] for t in terms]
    b = [t[1] for t in terms]
    low, high = mediant_bounds(a, b)
    combined = sum(a) / sum(b)
    assert low - 1e-12 <= combined <= high + 1e-12


@given(value_lists)
def test_convexity_bridge(values):
    # nondecreasing differences and zero-tolerance convexity coincide exactly
    u = Sequence(values)
    assert bool(np.all(np.diff(deltas(u)) >= 0)) == is_convex(u, tol=0.0).holds
