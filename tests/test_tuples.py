import io
from math import isqrt, log, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primelattice.sieve import (
    ArithTable,
    build_table,
    capital_pi_exact,
    mu,
    pi_exact,
    von_mangoldt,
)
from primelattice import tuples
from primelattice.tuples import (
    ExponentVector,
    OffsetSet,
    RayPoint,
    capital_pi_k,
    enumerate_rays,
    localization_report,
    localization_sum,
    max_base_for_cutoff,
    pi_k,
    pi_k_power,
    ray_from_integer,
    ray_product,
    write_ray_csv,
    _verify_ray_products,
)

LIMIT = 110_000


@pytest.fixture(scope="module")
def table():
    return build_table(LIMIT)


def is_prime_ref(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


# trial-division flags for the property tests' bases and entries
REF_MAX = 12_000
PRIME_REF = [is_prime_ref(n) for n in range(REF_MAX + 1)]


def pi_k_ref(r: int, offs) -> int:
    return sum(all(PRIME_REF[n + h] for h in offs) for n in range(2, r + 1))


def vectors_ref(entries, x: int) -> int:
    """Number of exponent vectors m >= 1 with prod entries[i]^m_i <= x."""
    if not entries:
        return 1
    count, p = 0, entries[0]
    while p <= x:
        count += vectors_ref(entries[1:], x // p)
        p *= entries[0]
    return count


def capital_pi_k_ref(x: int, offs) -> int:
    """Prime-power tuples with product <= x <= REF_MAX, base by base."""
    total, n = 0, 2
    while prod(n + h for h in offs) <= x:
        entries = [n + h for h in offs]
        if all(PRIME_REF[e] for e in entries):
            total += vectors_ref(entries, x)
        n += 1
    return total


# ---------------------------------------------------------------------------
# pattern and exponent types


def test_offset_set_validation():
    assert OffsetSet((0, 2, 6)).k == 3
    assert OffsetSet((0,)).max_offset == 0
    for bad in [(), (1, 2), (0, 2, 2), (0, 5, 3), (0, -1)]:
        with pytest.raises(ValueError):
            OffsetSet(tuple(bad))
    assert OffsetSet.parse("0, 2, 6") == OffsetSet((0, 2, 6))
    assert str(OffsetSet((0, 4))) == "{0,4}"
    with pytest.raises(ValueError):
        OffsetSet.parse("")


def test_exponent_vector_validation():
    assert ExponentVector((1, 3)).total == 4
    for bad in [(), (0,), (1, 0), (-2,)]:
        with pytest.raises(ValueError):
            ExponentVector(tuple(bad))
    assert ExponentVector.parse("2,1") == ExponentVector((2, 1))


def test_ray_point_product_consistency():
    H = OffsetSet((0, 2))
    m = ExponentVector((2, 1))
    rp = RayPoint(base=3, offset_set=H, exponents=m, product=45)
    assert rp.recompute_product() == 45
    assert rp.entries() == (3, 5)
    assert ray_product(3, H, m) == 9 * 5
    with pytest.raises(ValueError):
        ray_product(3, H, ExponentVector((1,)))


# ---------------------------------------------------------------------------
# pi_k


def test_pi_k_twin_examples(table):
    H = OffsetSet((0, 2))
    assert pi_k(table, 100, H) == 8
    # explicit list oracle
    twins = [n for n in range(2, 101) if is_prime_ref(n) and is_prime_ref(n + 2)]
    assert twins == [3, 5, 11, 17, 29, 41, 59, 71]
    assert pi_k(table, 100, H) == len(twins)


def test_pi_k_reduces_to_pi_exact(table):
    H1 = OffsetSet((0,))
    for r in (1, 2, 10, 100, 5000, 99_000):
        assert pi_k(table, r, H1) == pi_exact(table, r)


def test_pi_k_consecutive_pattern(table):
    assert pi_k(table, 10, OffsetSet((0, 1))) == 1  # only (2,3)
    assert pi_k(table, 10 ** 5, OffsetSet((0, 1))) == 1


def test_pi_k_equals_weight_sum(table):
    # the tuple weight (-1)^k prod_h mu(n+h) Lambda(n+h) / log(n+h), in
    # floats from the raw arithmetic functions, is 1 on prime tuples and 0
    # otherwise (mu kills prime powers, Lambda everything else)
    for H in [OffsetSet((0,)), OffsetSet((0, 2)), OffsetSet((0, 2, 6)),
              OffsetSet((0, 4)), OffsetSet((0, 1))]:
        for r in (2, 50, 300):
            s = 0.0
            for n in range(2, r + 1):
                w = (-1.0) ** H.k
                for h in H.offsets:
                    w *= mu(table, n + h) * von_mangoldt(table, n + h) / log(n + h)
                s += w
            assert pi_k(table, r, H) == pytest.approx(s, abs=1e-9), (H, r)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 15), min_size=1, max_size=3, unique=True),
    st.integers(2, 5000),
)
def test_pi_k_admissible_patterns_match_trial_division(table, halves, r):
    offs = (0, *sorted(2 * v for v in halves))
    # admissible: no prime p <= k has every residue class covered
    assume(all(len({h % p for h in offs}) < p for p in (2, 3, 5)))
    want = sum(all(is_prime_ref(n + h) for h in offs) for n in range(2, r + 1))
    assert pi_k(table, r, OffsetSet(offs)) == want


# any parity: admissible, inadmissible, k = 1 (no extra offsets) and odd offsets
patterns = st.lists(st.integers(1, 30), max_size=3, unique=True).map(
    lambda extra: (0, *sorted(extra))
)


@settings(max_examples=50, deadline=None)
@given(patterns, st.integers(0, 10_000))
def test_pi_k_any_pattern_matches_trial_division(table, offs, r):
    assert pi_k(table, r, OffsetSet(offs)) == pi_k_ref(r, offs)


@settings(max_examples=50, deadline=None)
@given(patterns, st.integers(1, REF_MAX))
def test_capital_pi_k_any_pattern_matches_trial_division(table, offs, x):
    assert capital_pi_k(table, x, OffsetSet(offs)) == capital_pi_k_ref(x, offs)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(0,), (0, 2), (0, 2, 6), (0, 4, 6, 10)]),
    st.integers(1, 90),
    st.sampled_from([64, 128]),
    st.integers(-1, 1),
)
def test_pi_k_at_word_edges(table, offs, j, width, d):
    # bit i of the bitmap is n = 2i + 1, so words turn over at n = 128j + 1
    r = width * j + d
    assert pi_k(table, r, OffsetSet(offs)) == pi_k_ref(r, offs)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(0, 128), (0, 256), (0, 2, 128), (0, 128, 384), (0, 6, 256, 258),
                     (0, 126), (0, 2, 126, 254), (0, 100, 226)]),
    st.integers(2, 11_000),
)
def test_pi_k_word_shift_edges(table, offs, r):
    # h / 2 mod 64 in {0, 1, 3, 49, 50, 63}: whole-word reads, and shifts
    # at both ends of a word
    assume(r + offs[-1] <= REF_MAX)
    assert pi_k(table, r, OffsetSet(offs)) == pi_k_ref(r, offs)


def test_pi_k_real_argument_and_bounds(table):
    H = OffsetSet((0, 2))
    assert pi_k(table, 100.9, H) == pi_k(table, 100, H)
    assert pi_k(table, 1, H) == 0
    with pytest.raises(ValueError):
        pi_k(table, LIMIT - 1, H)


# ---------------------------------------------------------------------------
# pi_k_power and capital_pi_k


def test_pi_k_power_examples(table):
    assert pi_k_power(table, 100, OffsetSet((0,)), ExponentVector((2,))) == 4
    assert pi_k_power(table, 15, OffsetSet((0, 2)), ExponentVector((1, 1))) == 1
    assert pi_k_power(table, 1, OffsetSet((0, 2)), ExponentVector((1, 1))) == 0


def test_pi_k_power_brute_force(table):
    # direct enumeration over bases
    cases = [
        (OffsetSet((0,)), ExponentVector((3,)), 5000),
        (OffsetSet((0, 2)), ExponentVector((1, 1)), 5000),
        (OffsetSet((0, 2)), ExponentVector((2, 1)), 5000),
        (OffsetSet((0, 4)), ExponentVector((1, 2)), 20000),
    ]
    for H, m, x in cases:
        count = 0
        n = 2
        while ray_product(n, H, m) <= x:
            if all(is_prime_ref(n + h) for h in H.offsets):
                count += 1
            n += 1
        assert pi_k_power(table, x, H, m) == count, (H, m, x)


def test_max_base_for_cutoff_boundary(table):
    H = OffsetSet((0, 2))
    m = ExponentVector((1, 1))
    for x in range(1, 400):
        nb = max_base_for_cutoff(x, H, m)
        if nb:
            assert ray_product(nb, H, m) <= x
        assert ray_product(nb + 1, H, m) > x


def test_pi_k_power_cutoff_tightness(table):
    H = OffsetSet((0, 2))
    m = ExponentVector((1, 1))
    prev = 0
    for x in range(2, 2000):
        cur = pi_k_power(table, x, H, m)
        assert cur - prev in (0, 1)
        prev = cur


def test_capital_pi_k_reduces_to_prime_power_count(table):
    H1 = OffsetSet((0,))
    for x in (1, 2, 10, 100, 1000, 10 ** 5):
        assert capital_pi_k(table, x, H1) == capital_pi_exact(table, x)


def test_capital_pi_k_twin_example(table):
    # exhaustive oracle at x=100: products n^a (n+2)^b with n, n+2 prime
    H = OffsetSet((0, 2))
    found = []
    for n in range(2, 101):
        if not (is_prime_ref(n) and is_prime_ref(n + 2)):
            continue
        for a in range(1, 8):
            for b in range(1, 8):
                prod = n ** a * (n + 2) ** b
                if prod <= 100:
                    found.append(prod)
    assert sorted(found) == [15, 35, 45, 75]
    assert capital_pi_k(table, 100, H) == 4


def test_capital_pi_k_checks_range_before_listing_vectors(table, monkeypatch):
    def no_listing(bases, x):
        raise AssertionError("exponent vectors listed before the range check")

    monkeypatch.setattr(tuples, "_exponent_vectors", no_listing)
    with pytest.raises(ValueError, match="exceeds table limit"):
        capital_pi_k(table, 10 ** 40, OffsetSet((0, 2, 6)))


def test_capital_pi_k_caps_exponent_vectors(table, monkeypatch):
    H = OffsetSet((0, 2))
    x = 10 ** 4
    vectors = vectors_ref([2, 4], x)  # the DFS lists m with 2^a 4^b <= x
    want = capital_pi_k_ref(x, H.offsets)
    monkeypatch.setattr(tuples, "EXPONENT_VECTORS_MAX", vectors)
    assert capital_pi_k(table, x, H) == want
    monkeypatch.setattr(tuples, "EXPONENT_VECTORS_MAX", vectors - 1)
    with pytest.raises(ValueError, match=f"more than {vectors - 1} exponent vectors"):
        capital_pi_k(table, x, H)


def test_capital_pi_k_monotone(table):
    H = OffsetSet((0, 2))
    prev = 0
    for x in range(2, 500, 7):
        cur = capital_pi_k(table, x, H)
        assert cur >= prev
        prev = cur


# ---------------------------------------------------------------------------
# ray enumeration


def test_enumerate_rays_small(table):
    rays = enumerate_rays(table, 6)
    as_tuples = {(r.offset_set.offsets, r.exponents.exponents, r.base) for r in rays}
    assert as_tuples == {
        ((0,), (1,), 2),
        ((0,), (1,), 3),
        ((0,), (2,), 2),
        ((0,), (1,), 5),
        ((0, 1), (1, 1), 2),
    }
    assert len(enumerate_rays(table, 2)) == 1
    assert len(enumerate_rays(table, 30)) == 29
    assert enumerate_rays(table, 1.5) == []


def test_enumerate_rays_bijection(table):
    # product multiset is exactly {2..x}
    for x in (2, 17, 500, 5000):
        rays = enumerate_rays(table, x)
        assert sorted(r.product for r in rays) == list(range(2, x + 1))
        for r in rays:
            assert r.recompute_product() == r.product
            assert r.base >= 2


def test_enumerate_rays_prime_entries(table):
    for r in enumerate_rays(table, 2000):
        for entry in r.entries():
            assert is_prime_ref(entry), r


def rays_combinatorial(x: int) -> set:
    """Independent ray generator: choose increasing primes (trial division),
    then every exponent vector whose product stays <= x."""
    primes = [p for p in range(2, x + 1) if is_prime_ref(p)]
    rays = set()

    def exponents(chosen, prod, exps):
        i = len(exps)
        if i == len(chosen):
            base = chosen[0]
            rays.add((tuple(p - base for p in chosen), tuple(exps), base, prod))
            return
        rest = 1
        for p in chosen[i + 1:]:
            rest *= p
        e, q = 1, prod * chosen[i]
        while q * rest <= x:
            exponents(chosen, q, exps + [e])
            e, q = e + 1, q * chosen[i]

    def extend(start, chosen, min_prod):
        if chosen:
            exponents(chosen, 1, [])
        for idx in range(start, len(primes)):
            p = primes[idx]
            if min_prod * p > x:
                break
            extend(idx + 1, chosen + [p], min_prod * p)

    extend(0, [], 1)
    return rays


def test_enumerate_rays_matches_combinatorial(table):
    for x in (2, 6, 100, 1500):
        via_factoring = {
            (r.offset_set.offsets, r.exponents.exponents, r.base, r.product)
            for r in enumerate_rays(table, x)
        }
        assert via_factoring == rays_combinatorial(x)


def test_enumerate_rays_bound(table):
    with pytest.raises(ValueError):
        enumerate_rays(table, 10 ** 7)
    with pytest.raises(ValueError):
        enumerate_rays(table, 50, max_x=10)


def test_ray_from_integer(table):
    r = ray_from_integer(table, 360)  # 2^3 3^2 5
    assert r.base == 2
    assert r.offset_set == OffsetSet((0, 1, 3))
    assert r.exponents == ExponentVector((3, 2, 1))
    assert r.product == 360


# ---------------------------------------------------------------------------
# localization


def test_localization_examples(table):
    assert localization_sum(table, 10) == 9
    assert localization_sum(table, 2) == 1
    assert localization_sum(table, 1000) == 999
    assert localization_sum(table, 1) == 0


def test_localization_matches_ray_count(table):
    for x in (2, 3, 10, 99, 777, 5000):
        assert localization_sum(table, x) == len(enumerate_rays(table, x))


def test_localization_sits_one_below_floor(table):
    for x in (2.0, 9.99, 100.5, 4321):
        rep = localization_report(table, x)
        assert rep.ray_count == rep.floor_x - 1
        assert rep.offset_from_floor == 1


@pytest.mark.parametrize("n, bad", [(12, 1), (12, 4), (15, 5), (13, 13)])
def test_localization_rejects_corrupt_spf(table, n, bad):
    spf = table.spf[:1001].copy()
    spf[n] = bad
    with pytest.raises(AssertionError, match=f"n={n}$"):
        localization_sum(ArithTable(1000, spf), 1000)


def test_localization_cannot_see_a_composite_stored_as_prime(table):
    # a zero entry claims n is prime, which no local check can refute
    spf = table.spf[:1001].copy()
    spf[12] = 0
    assert localization_sum(ArithTable(1000, spf), 1000) == 999
    assert "spf[12] = 0" in " ".join(_verify_ray_products.__doc__.split())


def test_localization_monotone_and_bounds(table):
    prev = 0
    for x in range(2, 300):
        cur = localization_sum(table, x)
        assert cur >= prev
        prev = cur
    with pytest.raises(ValueError):
        localization_sum(table, 10 ** 7)


def test_localization_sum_via_capital_pi_k(table):
    # direct route: sum capital_pi_k over every pattern H that can appear;
    # for products <= x the patterns are exactly those of ray points
    for x in (30, 100):
        patterns = {r.offset_set for r in enumerate_rays(table, x)}
        total = sum(capital_pi_k(table, x, H) for H in patterns)
        assert total == localization_sum(table, x)


# ---------------------------------------------------------------------------
# CSV dump


def test_ray_csv_format(table):
    buf = io.StringIO()
    write_ray_csv(enumerate_rays(table, 6), buf)
    assert buf.getvalue() == (
        "k,offsets,exponents,base,product\n"
        "1,0,1,2,2\n"
        "1,0,1,3,3\n"
        "1,0,2,2,4\n"
        "1,0,1,5,5\n"
        "2,0;1,1;1,2,6\n"
    )
