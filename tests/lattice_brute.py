"""Brute-force lattice counts for the tests: comparisons only, no isqrt
on a boundary and no division in the divisor sum, so they share nothing
with the kernels in primelattice.lattice."""

from fractions import Fraction
from math import isqrt

import numpy as np


def _floor_sq(R) -> int:
    """floor(R^2), exact for int, float and Fraction radii."""
    q = Fraction(R) ** 2
    return q.numerator // q.denominator


def disk_brute(R) -> int:
    """#{(a, b) in Z^2 : a^2 + b^2 <= R^2}, row by row."""
    m = _floor_sq(R)
    r = isqrt(m)
    bs = np.arange(-r, r + 1, dtype=np.int64) ** 2
    return sum(int(np.count_nonzero(bs <= m - a * a)) for a in range(-r, r + 1))


def divisor_brute(x: int) -> int:
    """sum_{n <= x} d(n): tally the multiples of every a <= x."""
    tally = np.zeros(x + 1, dtype=np.int64)
    for a in range(1, x + 1):
        tally[a::a] += 1
    return int(np.sum(tally))


def ball_brute(R) -> int:
    """#{(a, b, c) in Z^3 : a^2 + b^2 + c^2 <= R^2}, column by column."""
    m = _floor_sq(R)
    r = isqrt(m)
    cs = np.arange(-r, r + 1, dtype=np.int64) ** 2
    count = 0
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            rem = m - a * a - b * b
            if rem >= 0:
                count += int(np.count_nonzero(cs <= rem))
    return count
