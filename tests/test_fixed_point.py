import pytest
from hypothesis import given
from hypothesis import strategies as st

from scpsim.fixed_point import (
    check_coefficient,
    clamp_u8,
    clamp_u8_np,
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
        want = [div256_trunc(v) for v in values + extremes]
        got = div256_trunc_np(arr)
        assert got.dtype == dtype
        assert got.tolist() == want, dtype
        assert arr.tolist() == values + extremes


@given(st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=64))
def test_clamp_u8_np_matches_scalar(values):
    values = values + [-1, 0, 255, 256]
    want = [clamp_u8(v) for v in values]
    for dtype in (np.int32, np.int64):
        arr = np.array(values, dtype=dtype)
        got = clamp_u8_np(arr)
        assert got.dtype == dtype and got.tolist() == want
        assert arr.tolist() == values
        assert clamp_u8_np(arr, out=arr) is arr
        assert arr.tolist() == want


@pytest.fixture(scope="module")
def near_zero():
    # Every accumulator in [-2^21, 2^21), its quotient as an exact float32,
    # and the scalar oracle's truncated and clamped quotients.
    acc = range(-(2**21), 2**21)
    oracle = list(map(div256_trunc, acc))
    quotients = np.arange(acc.start, acc.stop, dtype=np.int32).astype(np.float32) / 256
    assert quotients.dtype == np.float32
    np.testing.assert_array_equal(quotients * 256, acc)
    return quotients, np.array(oracle), np.array(list(map(clamp_u8, oracle)))


def test_float_quotients_truncate_as_the_scalar_oracle_divides(near_zero):
    # The sweep's forward rows: one np.trunc, kept signed on I and Q and
    # clipped on Y.
    quotients, truncated, clamped = near_zero
    np.testing.assert_array_equal(np.trunc(quotients).astype(np.int32), truncated)
    np.testing.assert_array_equal(np.trunc(quotients).clip(0, 255).astype(np.int32), clamped)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8], ids=lambda dtype: dtype.__name__)
def test_float_quotients_clip_and_cast_as_the_scalar_oracle_clamps(near_zero, dtype):
    # A clip before the cast, which truncates, is the clamp after the
    # divide: clamp_u8(trunc(x)) == trunc(clip(x, 0, 255)) for every real
    # x.  The sweep's reverse rows cast into int32, to_gray into uint8.
    quotients, _, clamped = near_zero
    np.testing.assert_array_equal(quotients.clip(0, 255).astype(dtype), clamped)


def test_an_offset_before_the_clamp_needs_truncation():
    # With +128 added after the divide, as on the chroma rows of an
    # offset-128 encoding, a negative quotient survives the clamp and the
    # floor shift is one too low wherever it differs from truncation.
    x = np.arange(-(2**21), 2**21, dtype=np.int32)
    truncated = clamp_u8_np(div256_trunc_np(x) + 128)
    floored = clamp_u8_np((x >> 8) + 128)
    differ = np.flatnonzero(truncated != floored)
    assert len(differ) == 32640
    assert x[differ[0]] == -32767
    assert (truncated[differ] - floored[differ] == 1).all()


def test_coefficient_limit():
    assert check_coefficient(436) == 436
    assert check_coefficient(-512) == -512
    with pytest.raises(ValueError):
        check_coefficient(513)
