"""The decimal strings of float64 magnitudes, formatted by numpy.

`magnitude_strings` gives, for an array of magnitudes, one NUL-padded byte
row per value: the bytes of `'%.17g' % x` for a float64 x >= 0.  CPython
formats one value per call, and 17 significant digits always take its bignum
path; here a block of values takes a few dozen numpy operations.

A float x = m 2^e is printed in the manner of Adams's Ryu-printf (PLDI 2019):
with X = floor(log10 x), y = x 10^(16 - X) lies in [10^16, 10^17), and its
nearest integer D holds the 17 significant digits.  10^s comes from a table
of double-doubles (hi + lo) 2^t, built exactly with Python ints, and m hi is
formed exactly by Dekker's two-product (Numer. Math. 18, 224 (1971)), as
numpy has no fused multiply-add.  So y, below 2^57, is known to better than
2^-48.  A value whose y lies within 1e-6 of a rounding tie or of 10^16 or
10^17, and 0, nan and inf, take one exact `'%.17g' %` each.

Digits are written four at a time from a table of 4-digit strings.  The
layout of a string depends only on its exponent, and sorted magnitudes hold
each exponent in one run of rows, so each run is laid out by one gather of
columns.
"""

from __future__ import annotations

import numpy as np

WIDTH = 23  # the longest string: '2.2250738585072014e-308'
_TIE = 1e-6  # a y this close to a tie or to 10^16 or 10^17 is formatted exactly
_SPLIT = 134217729.0  # Veltkamp's 2^27 + 1: halves of 26 bits, whose products are exact

# Column s + _S0 of the powers table holds hi, hi's halves, lo and t of
# 10^s = (hi + lo) 2^t, hi in [1, 2), for s = 16 - X from -293 to 341: X
# from -325, below the least subnormal, to 309, above the largest float.
_S0 = 293
_X0 = 325  # the exponent suffixes below are indexed by X + _X0

# A float's source row, 32 bytes: its digits 1-16 (bytes 0-15), its first
# digit (16), the point or NUL (17), unused bytes (18-23) and the 8 bytes of
# its exponent's suffix, 'e+XX' or 'e-XXX' padded with NUL, or for fixed
# notation '0' padded with NUL (24-31).
_DIGIT = [16, *range(16)]
_POINT, _SUFFIX, _ZERO, _NUL = 17, 24, 24, 31


def _layout(key: int) -> list:
    """Source columns of the '%.17g' string of layout key: X for -4 <= X <= 16, 17 for the e notation."""
    if key < 0:  # 0.000ddd
        cols = [_ZERO, _POINT] + [_ZERO] * (-key - 1) + _DIGIT
    elif key <= 16:  # ddd.ddd; at X = 16 the point is always NUL
        cols = _DIGIT[:key + 1] + [_POINT] + _DIGIT[key + 1:]
    else:  # d.ddde+XX or d.ddde-XXX
        cols = [_DIGIT[0], _POINT] + _DIGIT[1:] + list(range(_SUFFIX, _SUFFIX + 5))
    return cols + [_NUL] * (WIDTH - len(cols))


_LAYOUTS = np.array([_layout(key) for key in range(-4, 18)])

# _MASKS[k] keeps the first k bytes of a uint32 of four digits, and zeros the rest.
_MASKS = np.array([[255] * k + [0] * (4 - k) for k in range(5)], dtype=np.uint8).view(np.uint32).ravel()

_tables = {}  # 4-digit strings, their trailing zeros, exponent suffixes, powers of ten; built on first use


def _table(name: str) -> np.ndarray:
    if not _tables:
        q = np.arange(10**4, dtype=np.int16)
        chars = np.empty((10**4, 4), dtype=np.uint8)
        zeros = np.zeros(10**4, dtype=np.int8)  # 4 for q = 0
        for i in range(4):
            chars[:, i] = q // 10 ** (3 - i) % 10 + ord("0")
            zeros += q % 10 ** (i + 1) == 0
        suffixes = [(b"0" if -4 <= X <= 16 else b"e%+03d" % X).ljust(8, b"\0") for X in range(-_X0, 310)]
        _tables.update(quads=chars.view(np.uint32).ravel(), zeros=zeros,
                       suffix=np.frombuffer(b"".join(suffixes), dtype=np.uint64),
                       powers=np.array([_power(s) for s in range(-_S0, _S0 + 56)]).T)
    return _tables[name]


def magnitude_strings(values: np.ndarray) -> np.ndarray:
    """The '%.17g' strings of float64 magnitudes as (len, WIDTH) NUL-padded uint8 rows.

    A row holds the bytes of '%.17g' % x with NUL in place of the spaces
    between them: the zeros '%g' strips from the fraction, the point when
    nothing follows it, and the padding.  Sorted values are laid out fastest.
    """
    x = np.asarray(values, dtype=np.float64)
    D, X, exact = _decimal(x)
    first = D // 10**16
    quads = _quads(D - first * 10**16)
    zeros = _table("zeros")
    last = np.zeros(len(D), dtype=np.intp)  # the last digit that is not 0; the first never is
    for j, q in enumerate(quads, 1):  # digits 4j - 3 to 4j
        last = np.where(q != 0, 4 * j - zeros.take(q), last)
    fixed = (X >= -4) & (X <= 16)
    whole = np.where(fixed & (X > 0), X, 0)  # the last digit before the point
    cut = np.maximum(last, whole)  # the last digit written
    source = np.empty((len(D), 4), dtype=np.uint64)
    words = source.view(np.uint32)
    for j, q in enumerate(quads, 1):
        words[:, j - 1] = _table("quads").take(q) & _MASKS.take(np.clip(cut - 4 * (j - 1), 0, 4))
    chars = source.view(np.uint8)
    chars[:, _DIGIT[0]] = first + ord("0")
    chars[:, _POINT] = ((cut > whole) | (fixed & (X < 0))) * ord(".")
    source[:, _SUFFIX // 8] = _table("suffix").take(X + _X0)
    rows = _gather(chars, np.where(fixed, X, 17) + 4)
    for i in np.flatnonzero(exact):
        text = b"%.17g" % x[i]
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return rows


def _decimal(x: np.ndarray):
    """D, X and where they cannot be trusted, for float64 magnitudes x.

    D, in [10^16, 10^17), is the nearest integer to x 10^(16 - X), so its
    digits are the 17 significant ones of x and X the exponent of the first.
    They cannot be trusted (and '%.17g' % x is used instead) for 0, nan and
    inf, and where y = x 10^(16 - X) lies within _TIE of a rounding tie or
    of 10^16 or 10^17, so that its error below 2^-48 could change D or X.
    """
    special = ~((x > 0) & (x < np.inf))  # 0, nan, inf
    finite = np.where(special, 1.0, x)
    m, e = np.frexp(finite)
    X = np.floor(np.log10(finite)).astype(np.intp)  # may be one off next to a power of ten
    yh, yl = _scaled(m, e, X)
    low = (yh - 1e16) + yl < 0
    off = np.flatnonzero(low | ((yh - 1e17) + yl >= 0))
    if len(off):
        X[off] += np.where(low[off], -1, 1)
        yh[off], yl[off] = _scaled(m[off], e[off], X[off])
    nearest = np.rint(yl)  # yh, above 2^53, is an integer
    exact = special | (np.abs(np.abs(yl - nearest) - 0.5) < _TIE)
    exact |= (np.abs((yh - 1e16) + yl) < _TIE) | (np.abs((yh - 1e17) + yl) < _TIE)
    D = yh.astype(np.int64) + nearest.astype(np.int64)
    carry = D == 10**17  # the nearest double below 10^(X+1) can round up to it, as 1e-14 does
    D[carry] = 10**16
    X += carry
    return D, X, exact


def _quads(rest: np.ndarray) -> list:
    """The four 4-digit groups of each int64 rest < 10^16, the most significant first."""
    high = rest // 10**8
    low = rest - high * 10**8
    quads = []
    for part in (high, low):
        upper = part // 10**4
        quads += [upper, part - upper * 10**4]
    return quads


def _power(s: int) -> tuple:
    """hi, hi's Veltkamp halves, lo and t with 10^s = (hi + lo) 2^t to a relative 2^-105."""
    ten = 10 ** abs(s)
    if s >= 0:
        k = 107 - ten.bit_length()
        q = ten << k if k >= 0 else ten >> -k
    else:
        k = ten.bit_length() + 106
        q = (1 << k) // ten
    hi = float(q >> 54) * 2.0**-52  # q has 107 bits: the 53 of hi, then the 54 of lo
    c = hi * _SPLIT
    upper = c - (c - hi)
    return hi, upper, hi - upper, float(q & (2**54 - 1)) * 2.0**-106, float(106 - k)


def _scaled(m: np.ndarray, e: np.ndarray, X: np.ndarray):
    """y = m 2^e 10^(16 - X) as a double-double yh + yl, for m in [0.5, 1)."""
    hi, upper, lower, lo, t = _table("powers").take(16 - X + _S0, axis=1)
    c = m * _SPLIT
    mu = c - (c - m)
    ml = m - mu
    p = m * hi
    q = ((mu * upper - p) + mu * lower + ml * upper) + ml * lower  # m hi - p, exactly
    q += m * lo
    yh = p + q
    # 2^(e + t), near 2^55, from its bits: np.ldexp costs ten multiplications
    scale = ((e + t.astype(np.int64) + 1023) << 52).view(np.float64)
    return yh * scale, (q - (yh - p)) * scale


def _gather(source: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rows of the source columns that the layout of each row's key names, one gather per run of keys."""
    rows = np.empty((len(source), WIDTH), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()  # keys are >= 0; none for no rows
    for start, stop in zip(starts, starts[1:] + [len(source)]):
        rows[start:stop] = source[start:stop, _LAYOUTS[keys[start]]]
    return rows
