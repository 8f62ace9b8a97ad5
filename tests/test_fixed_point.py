import pytest
from hypothesis import given
from hypothesis import strategies as st

from scpsim.fixed_point import (
    check_coefficient,
    clamp_u8,
    div256_trunc,
    div256_trunc_np,
    mul_acc3,
)

import numpy as np


@pytest.mark.parametrize(
    "coeffs,samples,expected",
    [
        ((77, 150, 29), (100, 50, 25), 15925),
        ((77, 150, 29), (0, 0, 0), 0),
        ((153, -70, -82), (255, 255, 255), 255),
    ],
)
def test_mul_acc3_examples(coeffs, samples, expected):
    assert mul_acc3(coeffs, samples) == expected


@pytest.mark.parametrize(
    "x,expected",
    [
        (15925, 62),
        (0, 0),
        (-20910, -81),  # toward zero; floor would give -82
        (255, 0),
        (-255, 0),
        (256, 1),
        (-256, -1),
    ],
)
def test_div256_trunc_examples(x, expected):
    assert div256_trunc(x) == expected


@pytest.mark.parametrize("x,expected", [(300, 255), (-5, 0), (128, 128), (0, 0), (255, 255)])
def test_clamp_u8_examples(x, expected):
    assert clamp_u8(x) == expected


@given(st.integers(min_value=-(2**24), max_value=2**24))
def test_div256_trunc_toward_zero_symmetry(x):
    assert div256_trunc(x) == -div256_trunc(-x)


@given(st.integers(min_value=0, max_value=2**20 - 1))
def test_div256_trunc_matches_shift_on_nonnegative(x):
    assert div256_trunc(x) == x >> 8


@given(st.integers(min_value=-(2**24), max_value=2**24))
def test_div256_trunc_matches_float_truncation(x):
    assert div256_trunc(x) == int(x / 256)


@given(
    st.tuples(*(st.integers(-512, 512),) * 3),
    st.tuples(*(st.integers(-300, 300),) * 3),
    st.tuples(*(st.integers(-300, 300),) * 3),
)
def test_mul_acc3_linear(coeffs, a, b):
    summed = tuple(x + y for x, y in zip(a, b))
    assert mul_acc3(coeffs, summed) == mul_acc3(coeffs, a) + mul_acc3(coeffs, b)


INT32 = np.iinfo(np.int32)
INT64 = np.iinfo(np.int64)


@given(st.lists(st.integers(-(2**22), 2**22), min_size=1, max_size=64))
def test_div256_trunc_np_matches_scalar(values):
    int32_extremes = [INT32.max, -INT32.max, INT32.min, -255, -256, -257, 255, 256]
    int64_extremes = [INT64.max, -INT64.max, INT64.min]
    for dtype, extremes in ((np.int32, int32_extremes), (np.int64, int32_extremes + int64_extremes)):
        arr = np.array(values + extremes, dtype=dtype)
        got = div256_trunc_np(arr)
        assert got.dtype == dtype
        assert got.tolist() == [div256_trunc(v) for v in values + extremes], dtype


def test_coefficient_limit():
    assert check_coefficient(436) == 436
    assert check_coefficient(-512) == -512
    with pytest.raises(ValueError):
        check_coefficient(513)
