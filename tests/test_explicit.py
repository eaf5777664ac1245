import io
import tracemalloc
from math import exp, floor, log

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primelattice import special
from primelattice.cli import run
from primelattice.explicit import (
    ExplicitEval,
    ZeroTable,
    capital_pi_explicit,
    default_zero_table,
    ei_k,
    load_zero_table,
    perron_truncated,
    prime_zeta,
    riemann_pi_explicit,
    verify_zero_table,
)
from primelattice.sieve import build_table, capital_pi_exact, mu, pi_exact, von_mangoldt
from primelattice.special import li
from primelattice.tuples import OffsetSet

LIMIT = 10 ** 6


@pytest.fixture(scope="module")
def table():
    return build_table(LIMIT)


# ---------------------------------------------------------------------------
# zero table plumbing


def test_default_zero_table():
    zt = default_zero_table()
    assert len(zt) == 100
    assert abs(float(zt.ordinates[0]) - 14.134725142) < 1e-9
    assert np.all(np.diff(zt.ordinates) > 0)


def test_default_zero_table_verifies_against_z_oracle():
    assert verify_zero_table(default_zero_table()) == 100


def test_load_zero_table_roundtrip(tmp_path):
    zt = default_zero_table()
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{g:.12f}\n" for g in zt.ordinates))
    back = load_zero_table(str(path))
    assert np.allclose(back.ordinates, zt.ordinates, atol=1e-12)


def test_load_zero_table_format_errors():
    with pytest.raises(ValueError, match="empty"):
        load_zero_table(io.StringIO(""))
    with pytest.raises(ValueError, match="line 2"):
        load_zero_table(io.StringIO("14.134725\npotato\n"))
    # shuffled: not increasing
    with pytest.raises(ValueError, match="line 3"):
        load_zero_table(io.StringIO("14.134725\n25.010858\n21.022040\n"))
    # too few entries for the default contract
    with pytest.raises(ValueError, match="need 100"):
        load_zero_table(io.StringIO("14.134725\n21.022040\n"))
    # wrong first ordinate: 100 entries, every one shifted by 2e-6
    shifted = "".join(f"{g + 2e-6:.12f}\n" for g in default_zero_table().ordinates)
    with pytest.raises(ValueError, match="first ordinate .* within 1e-06"):
        load_zero_table(io.StringIO(shifted))


def test_zero_table_validate_catches_bad_order():
    g = default_zero_table().ordinates.copy()
    g[[50, 51]] = g[[51, 50]]
    with pytest.raises(ValueError, match="strictly increasing"):
        ZeroTable(g).validate()


# ---------------------------------------------------------------------------
# explicit formula


def test_explicit_pi_close_to_exact(table):
    for x in (10, 50, 100, 500, 1000):
        ev = riemann_pi_explicit(x)
        assert abs(ev.value - pi_exact(table, x)) <= 1.0, x


def test_explicit_eval_breakdown_consistent():
    ev = riemann_pi_explicit(100)
    parts = ev.main_term - ev.zero_sum - ev.log2_term - ev.trivial_zero_sum
    assert ev.value == pytest.approx(parts, abs=1e-12)
    assert ev.zeros_used == 100
    assert ev.truncation_m == 6  # floor(log2 100)
    assert ev.log2_term != 0.0
    # small but nonzero; sign varies with the alternating Mobius weights
    assert 0.0 < abs(ev.trivial_zero_sum) < 0.01


def test_explicit_pi_zero_count_trend(table):
    xs = list(range(50, 1001, 50))
    means = []
    for zc in (10, 100):
        errs = [
            abs(riemann_pi_explicit(x, zero_count=zc).value - pi_exact(table, x))
            for x in xs
        ]
        means.append(sum(errs) / len(errs))
    assert means[1] < means[0]


def test_explicit_pi_argument_errors():
    with pytest.raises(ValueError):
        riemann_pi_explicit(1.5)
    with pytest.raises(ValueError):
        riemann_pi_explicit(100, zero_count=0)


def test_explicit_truncation_at_the_largest_float():
    # the truncation is always floor(log2 x): 1023 rows at the largest finite x
    assert riemann_pi_explicit(1.7e308).truncation_m == 1023
    assert capital_pi_explicit(1.7e308).truncation_m == 1023


def test_capital_pi_explicit_values(table):
    assert abs(capital_pi_explicit(100).value - 35) <= 1.5
    assert abs(capital_pi_explicit(8).value - 6) <= 1.0
    assert abs(capital_pi_explicit(3).value - 2) <= 1.0
    ev = capital_pi_explicit(100)
    parts = ev.main_term - ev.zero_sum - ev.log2_term - ev.trivial_zero_sum
    assert ev.value == pytest.approx(parts, abs=1e-12)
    # exact side oracle for the x=8 example
    assert capital_pi_exact(table, 8) == 6


# `explicit pi ... --format json` as printed before the Ei grid was
# vectorized; the grid must reproduce every digit
EXPLICIT_GOLDEN = [
    ("2", '{"value":0.5074072542437699,"main_term":1.0451637801174927,'
     '"zero_sum":-0.01538055354293777,"log2_term":0.6931471805599453,'
     '"trivial_zero_sum":-0.1400101011432846,"zeros_used":100}'),
    ("3.5 --zeros 1", '{"value":2.1148675195019453,"main_term":2.588765078750509,'
     '"zero_sum":-0.193312974839486,"log2_term":0.6931471805599453,'
     '"trivial_zero_sum":-0.025936646471895267,"zeros_used":1}'),
    ("10", '{"value":4.0113916562268965,"main_term":4.592790491482409,'
     '"zero_sum":0.41417016364708853,"log2_term":0.11552453009332422,'
     '"trivial_zero_sum":0.05170414151509974,"zeros_used":100}'),
    ("100", '{"value":24.914743834722614,"main_term":25.78118955694412,'
     '"zero_sum":0.7737661361472231,"log2_term":0.09241962407465938,'
     '"trivial_zero_sum":0.0002599619996250767,"zeros_used":100}'),
    ("12345.678 --zeros 37", '{"value":1474.9015627985734,"main_term":1477.1712687825925,'
     '"zero_sum":2.3103783168652394,"log2_term":-0.05361907760375467,'
     '"trivial_zero_sum":0.012946744757793477,"zeros_used":37}'),
    ("1e6 --zeros 10", '{"value":78516.81923630991,"main_term":78527.34662052737,'
     '"zero_sum":10.55454437583854,"log2_term":-0.03515354678742236,'
     '"trivial_zero_sum":0.007993388408603284,"zeros_used":10}'),
    ("99999989 --zeros 64", '{"value":5761442.446900546,"main_term":5761551.308400968,'
     '"zero_sum":108.84041630372332,"log2_term":0.02588282484334669,'
     '"trivial_zero_sum":-0.004798706244764126,"zeros_used":64}'),
    ("1e8", '{"value":5761408.034562889,"main_term":5761551.90552508,'
     '"zero_sum":143.84987807309946,"log2_term":0.02588282484334669,'
     '"trivial_zero_sum":-0.004798706178620424,"zeros_used":100}'),
]


@pytest.mark.parametrize("args, want", EXPLICIT_GOLDEN)
def test_explicit_pi_golden(capsys, args, want):
    assert run(["explicit", "pi", *args.split(), "--format", "json"]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_explicit_grid_block_size_invariant(monkeypatch):
    # 20,000 synthetic ordinates x 5 squarefree m at x = 100: the grid has
    # 100,000 points, but a 1,000-point block keeps the traced peak to the
    # block's temporaries plus one row of the fold
    zeros = ZeroTable(10.0 + 0.37 * np.arange(20000))
    whole = riemann_pi_explicit(100.0, zeros)
    monkeypatch.setattr(special, "EI_BLOCK", 1000)
    tracemalloc.start()
    try:
        blocked = riemann_pi_explicit(100.0, zeros)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked == whole
    assert whole.zeros_used == 20000
    assert peak < 2_000_000, peak


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 1e8), st.integers(1, 100))
def test_capital_pi_explicit_is_the_per_root_sum(x, zero_count):
    # the batched roots keep the bits of a separate evaluation at each root
    value = main = zsum = l2 = triv = 0.0
    n_max = int(floor(log(x) / log(2.0)))
    for n in range(1, n_max + 1):
        root = x ** (1.0 / n)
        if root < 2.0:
            break
        ev = riemann_pi_explicit(root, zero_count=zero_count)
        value += ev.value
        main += ev.main_term
        zsum += ev.zero_sum
        l2 += ev.log2_term
        triv += ev.trivial_zero_sum
    got = capital_pi_explicit(x, zero_count=zero_count)
    assert (got.value, got.main_term, got.zero_sum, got.log2_term,
            got.trivial_zero_sum) == (value, main, zsum, l2, triv)
    assert got.zeros_used == min(zero_count, 100) and got.truncation_m == n_max


# ---------------------------------------------------------------------------
# Perron


def test_perron_examples():
    r = perron_truncated(2.0, 2.0, 1000.0)
    assert r.bound == pytest.approx(4.0 / (np.pi * 1000.0 * log(2.0)), rel=1e-12)
    assert abs(r.approx - 1.0) <= 0.0019
    r = perron_truncated(0.5, 2.0, 1000.0)
    assert r.bound == pytest.approx(0.25 / (np.pi * 1000.0 * log(2.0)), rel=1e-12)
    assert abs(r.approx) <= 0.00012


def test_perron_bound_grid():
    for x in (0.5, 2.0, 10.0, 100.0):
        for c in (1.5, 2.0):
            for t in (100.0, 1000.0, 10000.0):
                r = perron_truncated(x, c, t)
                assert abs(r.approx - r.indicator) <= r.bound, (x, c, t)
                assert r.within_bound
                assert r.panels == 0


def _perron_mpmath(x, c, t):
    """[x > 1] + Im(-E1(-z)) / pi at z = (c + iT) log x, 30 digits."""
    with mpmath.workdps(30):
        z = mpmath.mpc(c, t) * mpmath.log(mpmath.mpf(x))
        return (1 if x > 1 else 0) + mpmath.im(-mpmath.e1(-z)) / mpmath.pi


@settings(max_examples=50, deadline=None)
@given(
    st.floats(log(1e-8), log(1e4)),
    st.floats(0.2, 3.0),
    st.floats(log(0.1), log(1e7)),
)
def test_perron_matches_mpmath_ei(log_x, c, log_t):
    x, t = exp(log_x), exp(log_t)
    assume(x != 1.0)
    r = perron_truncated(x, c, t)
    assert abs(r.approx - float(_perron_mpmath(x, c, t))) <= 1e-6 * r.bound, (x, c, t)


@pytest.mark.parametrize("x, c, t", [(2.0, 1.5, 5.0), (0.5, 2.0, 10.0),
                                     (10.0, 1.2, 3.0), (0.1, 1.0, 8.0)])
def test_perron_matches_segment_quadrature(x, c, t):
    # the integral itself, (1/2 pi) int_{-T}^{T} x^(c+it) / (c+it) dt, by
    # mpmath quadrature: the closed form is not checked only against Ei
    with mpmath.workdps(30):
        f = lambda u: mpmath.re(mpmath.power(x, mpmath.mpc(c, u)) / mpmath.mpc(c, u))
        want = mpmath.quad(f, mpmath.linspace(-t, t, 9)) / (2 * mpmath.pi)
    assert perron_truncated(x, c, t).approx == pytest.approx(float(want), abs=1e-13)


def test_perron_overflow_raises():
    with pytest.raises(ValueError, match=r"x\^c overflows float64 at x=1e\+300, c=3.0"):
        perron_truncated(1e300, 3.0, 10.0)  # x^c itself overflows
    # x^c fits, but e^z / z overflows inside the complex division
    with pytest.raises(ValueError, match="overflows"):
        perron_truncated(1e308, 1.0008269985707352, 10.0)


def test_perron_domain_errors():
    with pytest.raises(ValueError):
        perron_truncated(1.0, 2.0, 100.0)
    with pytest.raises(ValueError):
        perron_truncated(-2.0, 2.0, 100.0)
    with pytest.raises(ValueError):
        perron_truncated(2.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        perron_truncated(2.0, 2.0, -5.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_perron_rejects_non_finite(slot, bad):
    args = [10.0, 1.5, 100.0]
    args[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        perron_truncated(*args)


# ---------------------------------------------------------------------------
# prime zeta


def test_prime_zeta_reference_value(table):
    pz = prime_zeta(2.0, table)
    assert pz.value == pytest.approx(0.45224742004106549, abs=1e-9)
    assert abs(pz.direct_value - 0.45224742) < 1e-6


def test_prime_zeta_methods_agree(table):
    for s in (1.5, 2.0, 3.0, 4.0, 6.0):
        pz = prime_zeta(s, table)
        assert pz.methods_agree, s
        assert pz.direct_tail > 0 and pz.mobius_tail > 0


def test_prime_zeta_direct_formula_equivalence(table):
    # the mu*Lambda/log summand over all n equals the prime-only sum
    s = 2.0
    n_max = 2000
    full = 0.0
    for n in range(2, n_max + 1):
        full -= mu(table, n) * von_mangoldt(table, n) / (log(n) * n ** s)
    pz = prime_zeta(s, table, n_limit=n_max)
    assert pz.direct_value == pytest.approx(full, abs=1e-13)


def test_prime_zeta_decay(table):
    values = [prime_zeta(s, table, n_limit=10 ** 5).value for s in (2, 3, 4, 6, 10)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 2.0 ** -9 * 1.01  # s=10 dominated by the 2^{-s} term


def test_prime_zeta_domain(table):
    with pytest.raises(ValueError):
        prime_zeta(1.0, table)
    with pytest.raises(ValueError):
        prime_zeta(2.0, table, n_limit=LIMIT + 1)
    with pytest.raises(ValueError):
        prime_zeta(2.0, None)


# ---------------------------------------------------------------------------
# tuple exponential integral


def test_ei_k_reduces_to_li():
    H1 = OffsetSet((0,))
    for r in (10, 100, 1000):
        assert abs(ei_k(r, H1) - (li(r) - li(2))) < 1e-9, r


def test_ei_k_edges():
    assert ei_k(2, OffsetSet((0, 2))) == 0.0
    with pytest.raises(ValueError):
        ei_k(1.5, OffsetSet((0,)))


def test_ei_k_twin_kernel_bounds():
    v = ei_k(1000, OffsetSet((0, 2)))
    assert 0.0 < v < 1000.0
    # integrand <= 1/log(2)^2 gives a crude upper bound as well
    assert v <= 998.0 / log(2.0) ** 2


def test_ei_k_additive_over_splits():
    H = OffsetSet((0, 2, 6))
    whole = ei_k(500, H)
    left = ei_k(100, H)
    # manual quadrature of the remaining stretch via the same kernel
    from primelattice.quadrature import integrate

    def f(xs):
        logs = np.stack([np.log(xs + h) for h in (0.0, 2.0, 6.0)])
        return (np.sum(logs, axis=0) / 3.0) ** 2 / np.prod(logs, axis=0)

    right = integrate(f, 100.0, 500.0)
    assert whole == pytest.approx(left + right, abs=1e-10)
