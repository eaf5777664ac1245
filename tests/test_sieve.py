from fractions import Fraction
from math import isqrt, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelattice import sieve
from primelattice.sieve import (
    ArithTable,
    build_table,
    capital_pi_exact,
    factor_sorted,
    iroot,
    isqrt_array,
    j_exact,
    mu,
    pi_exact,
    von_mangoldt,
)

LIMIT = 20_000


@pytest.fixture(scope="module")
def table() -> ArithTable:
    return build_table(LIMIT)


# ---------------------------------------------------------------------------
# reference implementations (independent of the sieve)


def spf_ref(n: int) -> int:
    """Smallest prime factor of a composite n; 0 for a prime, as the table stores it."""
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return 0


def mu_ref(n: int) -> int:
    sign = 1
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
    return sign if n == 1 else -sign


def factor_ref(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# spf correctness


def test_spf_matches_trial_division_exhaustive(table):
    for n in range(2, 3000):
        assert int(table.spf[n]) == spf_ref(n), n


def test_spf_matches_trial_division_sampled(table):
    rng = np.random.default_rng(7)
    for n in rng.integers(2, LIMIT + 1, size=400):
        assert int(table.spf[n]) == spf_ref(int(n))


def test_segment_size_does_not_change_result():
    base = build_table(5000)
    for seg in (16, 97, 1024, 5001, 10**6):
        alt = build_table(5000, segment_size=seg)
        assert np.array_equal(alt.spf, base.spf)


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(2.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        build_table(100, segment_size=4)
    with pytest.raises(ValueError, match=r"2\*\*16"):
        build_table(1 << 32)


def bitmap_bits(bits: np.ndarray) -> np.ndarray:
    """The bitmap's bits in order: entry i is bit i % 64 of word i // 64."""
    return np.array([(int(w) >> j) & 1 for w in bits for j in range(64)], dtype=np.uint8)


def test_primes_list(table):
    ps = table.primes()
    assert ps[:10].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in range(2, 500):
        assert table.is_prime(n) == all(n % d for d in range(2, n))
    assert not table.is_prime(1)


@pytest.mark.parametrize("limit", [2, 3, 127, 128, 129, 255, 256, 257, LIMIT])
def test_prime_bitmap_layout(limit):
    # bit i is set iff 2i + 1 is prime; the odd primes are primes() without 2
    small = build_table(limit)
    bits = small.is_prime_array()
    assert small._primes is None  # packed from spf, not from the prime list
    last_word = (limit - 1) // 2 // 64  # the word holding the last odd n <= limit
    assert bits.dtype == np.dtype("<u8") and len(bits) == last_word + 2
    assert bits[-1] == 0  # the spare word
    flags = bitmap_bits(bits)
    assert np.array_equal(2 * np.flatnonzero(flags) + 1, small.primes()[1:])
    assert small.is_prime_array() is bits  # built once


def test_table_arrays_are_read_only(table):
    for arr in (table.spf, table.primes(), table.is_prime_array()):
        with pytest.raises(ValueError):
            arr[2] = 0


# ---------------------------------------------------------------------------
# mu, Lambda, prime powers


def test_mu_exhaustive(table):
    assert mu(table, 1) == 1
    for n in range(2, 2000):
        assert mu(table, n) == mu_ref(n), n


def test_mu_mertens_partial_sums(table):
    # frozen Mertens values M(n) = sum_{m<=n} mu(m)
    acc = 0
    known = {10: -1, 100: 1, 1000: 2, 10000: -23}
    for n in range(1, 10001):
        acc += mu(table, n)
        if n in known:
            assert acc == known[n]


def test_von_mangoldt(table):
    assert von_mangoldt(table, 1) == 0.0
    assert von_mangoldt(table, 12) == 0.0
    assert von_mangoldt(table, 8) == pytest.approx(np.log(2))
    assert von_mangoldt(table, 9) == pytest.approx(np.log(3))
    # Chebyshev psi(100) = sum Lambda(n), frozen from a direct high-precision sum
    psi = sum(von_mangoldt(table, n) for n in range(1, 101))
    assert psi == pytest.approx(94.04531122935739, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, LIMIT))
def test_factorisation_functions_match_trial_division(table, n):
    fac = factor_ref(n)
    pa = next(iter(fac.items())) if len(fac) == 1 else None
    assert mu(table, n) == mu_ref(n)
    assert von_mangoldt(table, n) == (log(pa[0]) if pa else 0.0)
    if n >= 2:
        assert factor_sorted(table, n) == (sorted(fac), [fac[p] for p in sorted(fac)])


# ---------------------------------------------------------------------------
# counting functions


def test_pi_known_values(table):
    for x, want in [(1, 0), (2, 1), (10, 4), (100, 25), (1000, 168), (10000, 1229)]:
        assert pi_exact(table, x) == want
    # real arguments floor
    assert pi_exact(table, 10.99) == 4
    assert pi_exact(table, 2.0) == 1


def test_pi_against_running_count(table):
    count = 0
    for n in range(1, 5001):
        if n >= 2 and table.is_prime(n):
            count += 1
        assert pi_exact(table, n) == count


def test_pi_rejects_out_of_range(table):
    with pytest.raises(ValueError):
        pi_exact(table, LIMIT + 1)


def test_capital_pi_known_values(table):
    assert capital_pi_exact(table, 1) == 0
    assert capital_pi_exact(table, 2) == 1
    assert capital_pi_exact(table, 100) == 35
    # direct count oracle
    for x in (10, 30, 100, 1000, 7919):
        direct = sum(1 for n in range(2, x + 1) if len(factor_ref(n)) == 1)
        assert capital_pi_exact(table, x) == direct


def test_j_exact_values(table):
    assert j_exact(table, 1) == 0
    assert j_exact(table, 10) == Fraction(16, 3)
    # direct weighted-count oracle
    for x in (2, 20, 100, 1000):
        direct = Fraction(0)
        for n in range(2, x + 1):
            fac = factor_ref(n)
            if len(fac) == 1:
                direct += Fraction(1, *fac.values())
        assert j_exact(table, x) == direct
    # J(x) - Pi(x) difference only comes from exponents >= 2
    assert j_exact(table, 100) == Fraction(25, 1) + Fraction(4, 2) + Fraction(
        2, 3
    ) + Fraction(2, 4) + Fraction(1, 5) + Fraction(1, 6)


# ---------------------------------------------------------------------------
# integer roots


def test_iroot_small_exhaustive():
    for x in range(0, 200):
        for n in range(1, 8):
            r = iroot(x, n)
            assert r ** n <= x and (r + 1) ** n > x, (x, n)


def test_iroot_large_edges():
    assert iroot(10 ** 18, 3) == 10 ** 6
    assert iroot(10 ** 18 - 1, 3) == 10 ** 6 - 1
    for n in (2, 3, 5, 17):
        big = 12345678901234567 ** n
        assert iroot(big, n) == 12345678901234567
        assert iroot(big - 1, n) == 12345678901234566
        assert iroot(big + 1, n) == 12345678901234567
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(10, 0)


def test_isqrt_array_exact():
    m = np.array([0, 1, 2, 3, 4, 8, 9, 10 ** 12, 10 ** 12 + 1, 2 ** 61], dtype=np.int64)
    v = isqrt_array(m)
    for mi, vi in zip(m.tolist(), v.tolist()):
        assert vi == isqrt(mi)
    rng = np.random.default_rng(11)
    m = rng.integers(0, 2 ** 61, size=2000)
    v = isqrt_array(m)
    assert np.all(v.astype(object) ** 2 <= m.astype(object))
    assert np.all((v.astype(object) + 1) ** 2 > m.astype(object))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2 ** 26), min_size=1, max_size=20))
def test_isqrt_array_at_squares(ks):
    # k^2 - 1, k^2 and k^2 + 1 are where a float floor would slip; below
    # k = 2^26 the whole array stays under 2^52 and takes the float floor
    m = np.array([k * k + d for k in ks for d in (-1, 0, 1)], dtype=np.int64)
    want = [k + min(d, 0) for k in ks for d in (-1, 0, 1)]
    assert isqrt_array(m).tolist() == want


def test_isqrt_array_float_floor_top():
    # the smallest gaps k - sqrt(k^2 - 1) below 2^52, all in one float-floor pass
    k = np.arange(2 ** 26 - 2 ** 16, 2 ** 26, dtype=np.int64)
    assert np.array_equal(isqrt_array(k * k - 1), k - 1)
    assert np.array_equal(isqrt_array(k * k), k)


def test_isqrt_array_seam_and_empty():
    seam = [2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1]
    # one value alone: float floor below 2^52, corrected above, where the
    # int64 -> float64 conversion itself starts to round
    above = [k * k + d for k in (2 ** 26 + 1, 2 ** 27 - 2, 2 ** 27 - 1, 2 ** 29 + 3,
                                 2 ** 31 - 1) for d in (-1, 0, 1)]
    for m in seam + above:
        assert isqrt_array(np.array([m])).tolist() == [isqrt(m)]
    assert isqrt_array(np.array(seam)).tolist() == [isqrt(m) for m in seam]
    empty = isqrt_array(np.array([], dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_isqrt_array_rejects_negative():
    for m in ([-1, 5], [-1, 2 ** 60], [4, -(2 ** 62)]):
        with pytest.raises(ValueError, match="nonnegative"):
            isqrt_array(np.array(m, dtype=np.int64))
