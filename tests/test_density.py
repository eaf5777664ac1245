"""Tests for the singular series and density averages."""

import math

import numpy as np
import pytest

from primelattice import density
from primelattice.density import (
    MAX_PRIME_LIMIT,
    average_capital_pi_k,
    singular_series,
)
from primelattice.quadrature import integrate
from primelattice.sieve import build_table
from primelattice.special import li
from primelattice.tuples import OffsetSet, pi_k

# Twin-prime constant 2 * prod_{p>2} (1 - (p-1)^-2), precomputed once at high
# precision; the truncated product at 10^6 should land within its own tail.
TWIN_CONSTANT = 1.3203236316932693


def _primes_below(n):
    flags = [True] * n
    flags[0] = flags[1] = False
    for p in range(2, int(math.isqrt(n - 1)) + 1):
        if flags[p]:
            for q in range(p * p, n, p):
                flags[q] = False
    return [p for p in range(n) if flags[p]]


def _series_direct(offsets, prime_limit):
    # plain float product, no log accumulation: independent of the module route
    k = len(offsets)
    value = 1.0
    for p in _primes_below(prime_limit + 1):
        nu = len({h % p for h in offsets})
        if nu == p:
            return 0.0
        value *= (1.0 - nu / p) / (1.0 - 1.0 / p) ** k
    return value


def test_twin_constant():
    got = singular_series(OffsetSet((0, 2)))
    assert abs(got.value - TWIN_CONSTANT) < 1e-4
    assert abs(got.value - TWIN_CONSTANT) < got.tail_estimate
    assert got.prime_limit == 10 ** 6


def test_single_offset_is_one():
    got = singular_series(OffsetSet((0,)))
    assert got.value == 1.0
    assert got.tail_estimate == 0.0


def test_inadmissible_patterns_vanish():
    for offsets in [(0, 1), (0, 3), (0, 1, 2), (0, 2, 4), (0, 5)]:
        assert singular_series(OffsetSet(offsets)).value == 0.0


def test_admissible_patterns_positive():
    for offsets in [(0, 2), (0, 4), (0, 2, 6), (0, 4, 6), (0, 2, 6, 8)]:
        assert singular_series(OffsetSet(offsets)).value > 0.0


def test_against_direct_product():
    for offsets in [(0, 2), (0, 2, 6), (0, 6), (0, 4, 6), (0, 1)]:
        want = _series_direct(offsets, 3000)
        got = singular_series(OffsetSet(offsets), 3000).value
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_residue_counts_translation_invariant():
    # nu_p is what the product sees; shifting every offset cannot change it
    for offsets in [(0, 2), (0, 2, 6), (0, 4, 6, 10)]:
        for p in _primes_below(50):
            base = len({h % p for h in offsets})
            for t in (1, 2, 17, p - 1, 5 * p + 3):
                assert len({(h + t) % p for h in offsets}) == base


def test_tail_estimate_covers_refinement():
    for offsets in [(0, 2), (0, 2, 6)]:
        coarse = singular_series(OffsetSet(offsets), 10 ** 4)
        fine = singular_series(OffsetSet(offsets), 10 ** 6)
        assert abs(fine.value - coarse.value) < coarse.tail_estimate


def test_prime_limit_validation(monkeypatch):
    with pytest.raises(ValueError):
        singular_series(OffsetSet((0, 2)), 99)

    def no_sieve(n):
        raise AssertionError(f"sieve to {n} allocated before the cap check")

    monkeypatch.setattr(density, "_simple_prime_list", no_sieve)
    for H in (OffsetSet((0, 2)), OffsetSet((0,))):
        with pytest.raises(ValueError, match="prime_limit must be <= 100000000"):
            singular_series(H, MAX_PRIME_LIMIT + 1)


def test_average_at_lower_endpoint():
    assert average_capital_pi_k(2, OffsetSet((0, 2)), 1.3) == 0.0
    with pytest.raises(ValueError):
        average_capital_pi_k(1.5, OffsetSet((0, 2)), 1.3)


def test_average_k1_matches_li():
    got = average_capital_pi_k(10 ** 6, OffsetSet((0,)), 1.0)
    want = li(10 ** 6) - li(2)
    assert got == pytest.approx(want, abs=1e-6)


def test_average_interval_splitting():
    H = OffsetSet((0, 2))
    whole = average_capital_pi_k(10 ** 5, H, 1.0)
    left = average_capital_pi_k(1000, H, 1.0)
    right = integrate(lambda rs: 1.0 / (np.log(rs) * np.log(rs + 2)),
                      1000.0, 1e5, abs_tol=1e-9)
    assert whole == pytest.approx(left + right, abs=1e-7)


def test_average_tracks_twin_count():
    # conjectured density against the exact count at desk scale
    table = build_table(10 ** 5 + 2)
    H = OffsetSet((0, 2))
    exact = pi_k(table, 10 ** 5, H)
    c = singular_series(H).value
    avg = average_capital_pi_k(10 ** 5, H, c)
    assert 0.94 < exact / avg < 1.06
