"""The numpy formatter of table cells against CPython's '%.17g'."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnlw import _digits
from vnlw._digits import WIDTH, magnitude_strings


def strings(values: np.ndarray) -> list:
    """The kernel's rows with their NUL bytes dropped, as the report writer drops them."""
    rows = magnitude_strings(values)
    assert rows.shape == (len(values), WIDTH)
    return [row.tobytes().replace(b"\0", b"") for row in rows]


def reference(values: np.ndarray) -> list:
    return [b"%.17g" % x for x in values.tolist()]


def assert_formats(values: np.ndarray) -> None:
    got, want = strings(values), reference(values)
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


BITS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bits=BITS, ordered=st.booleans())
def test_every_float64_bit_pattern(bits, ordered):
    """|x| of any 64 bits, nan and inf included, in any order or sorted as the writer sorts them."""
    x = np.abs(np.array(bits, dtype=np.uint64).view(np.float64))
    assert_formats(np.sort(x) if ordered else x)


def powers_of_ten() -> np.ndarray:
    """The double nearest each power of ten from 1e-323 to 1e308 and both its neighbours."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.sort(np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]))


def test_powers_of_ten_and_their_neighbours():
    assert_formats(powers_of_ten())


def test_rounding_that_carries_into_the_next_decade():
    """The double nearest 1e-14 lies below it, yet its 17 digits round up to 1e-14; so do a
    dozen other powers of ten."""
    x = powers_of_ten()
    carried = [v for v, s in zip(x.tolist(), reference(x))
               if s.split(b"e")[0].replace(b".", b"").strip(b"0") == b"1" and Fraction(s.decode()) > Fraction(v)]
    assert 1e-14 in carried and len(carried) >= 10
    assert_formats(np.array(carried))


@pytest.mark.parametrize("values", [
    np.array([0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-310, 4.9e-324 * 3]),
    np.ldexp(np.arange(1.0, 2.0, 1 / 64), -1060),  # subnormals of several digit counts
    np.array([2.0**53 + k for k in range(-8, 9)] + [2.0**57 + 16 * k for k in range(-4, 5)]),
    np.array([1e16, 1e17, np.nextafter(1e16, 0), np.nextafter(1e17, np.inf), 1e15, 1e-4, 1e-5, 9.999999999999999e-5]),
    np.array([0.1, 0.5, 1.0, 1.5, 123.0, 1234567890123456.0, 12345678901234567.0, 1.7976931348623157e308]),
    np.array([np.inf, np.nan, 0.0]),
    np.arange(26215, 26415, 2) / 2.0**18,  # 18 digits that end in 5: ties at 17, rounded to even
], ids=["tiny", "subnormal", "2^53", "decades", "plain", "special", "ties"])
def test_fixed_values(values):
    assert_formats(values)


def test_exact_fallback_is_rare():
    """Few doubles lie within 1e-6 of a tie or a decade boundary: of 10^5 random bit patterns,
    0.07% do, all of them between 10^12 and 10^16, where ties are exact."""
    rng = np.random.default_rng(2024)
    x = np.abs(rng.integers(0, 2**64 - 1, 10**5, dtype=np.uint64, endpoint=True).view(np.float64))
    x = x[np.isfinite(x) & (x > 0)]
    _, _, exact = _digits._decimal(x)
    assert exact.mean() < 1e-3, exact.sum()
    assert_formats(np.sort(x))


def test_no_values():
    rows = magnitude_strings(np.array([], dtype=float))
    assert rows.shape == (0, WIDTH) and rows.dtype == np.uint8
