"""Acceptance run: the ten headline criteria, one pass/fail line each.

Each criterion lives in a crit_N(threads) function returning (ok, detail)
with a fully deterministic detail string; criterion 10 replays criteria 1-9
at 8 threads and demands byte-identical details.  Runtime budgets are part
of ok but never of the detail, so timing noise cannot break determinism.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_LINES
from lattice_brute import ball_brute, disk_brute

from primelattice.density import average_capital_pi_k, singular_series
from primelattice.explicit import perron_truncated, prime_zeta, riemann_pi_explicit
from primelattice.lattice import (
    ball3_count,
    divisor_hyperbola_count,
    error_exponent_fit,
    gauss_circle_count,
    geometric_sizes,
)
from primelattice.sieve import build_table, capital_pi_exact, j_exact, pi_exact
from primelattice.tuples import (
    OffsetSet,
    enumerate_rays,
    localization_sum,
    pi_k,
)

TWINS = OffsetSet((0, 2))


def _finish(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def crit_1(threads: int):
    t0 = time.monotonic()
    table = build_table(5002)
    floor_minus_one = 0
    floor_alone = 0
    for x in range(2, 5001):
        s = localization_sum(table, x)
        if s == x - 1:
            floor_minus_one += 1
        if s == x:
            floor_alone += 1
    at_5000 = localization_sum(table, 5000)
    elapsed = time.monotonic() - t0
    ok = floor_minus_one == 4999 and floor_alone == 0 and elapsed < 60.0
    detail = (f"sum=floor-1 at {floor_minus_one}/4999 integers in [2,5000], "
              f"sum=floor at {floor_alone}; x=5000 report: sum={at_5000} "
              f"floor=5000 offset={5000 - at_5000}")
    return ok, detail


def crit_2(threads: int):
    table = build_table(5002)
    parts = []
    ok = True
    for x in (100, 1000, 5000):
        products = sorted(r.product for r in enumerate_rays(table, x))
        good = products == list(range(2, x + 1))
        ok = ok and good
        parts.append(f"x={x}:{'ok' if good else 'MISMATCH'}")
    return ok, "ray products equal {2..x} at " + " ".join(parts)


def crit_3(threads: int):
    t0 = time.monotonic()
    table = build_table(10 ** 6 + 4)
    pi6 = pi_exact(table, 10 ** 6)
    # the bitmap's bits for odd n <= 10^6 (bit i is n = 2i + 1), plus one for 2
    odd_bits = np.unpackbits(table.is_prime_array().view(np.uint8), bitorder="little")
    flag_oracle = 1 + int(odd_bits[: (10 ** 6 + 1) // 2].sum())
    cap100 = capital_pi_exact(table, 100)
    j10 = j_exact(table, 10)
    twins6 = pi_k(table, 10 ** 6, TWINS)
    elapsed = time.monotonic() - t0
    ok = (pi6 == 78498 and flag_oracle == 78498 and cap100 == 35
          and j10 == Fraction(16, 3) and twins6 == 8169 and elapsed < 30.0)
    detail = (f"pi(10^6)={pi6} (flag oracle {flag_oracle}), Pi(100)={cap100}, "
              f"J(10)={j10}, twin count(10^6)={twins6}")
    return ok, detail


def crit_4(threads: int):
    # The trend clause is averaged over the x in {50,...,1000} window (the
    # convergence invariant); the four listed points carry the <= 1.0 bound.
    # Their own 4-point mean, taken from the same window calls, happens to
    # tick up as zeros 10 -> 100; it is reported alongside, see the
    # decisions ledger.
    t0 = time.monotonic()
    table = build_table(1024)
    probes = (50, 100, 500, 1000)
    probe_errs = [abs(riemann_pi_explicit(x).value - pi_exact(table, x)) for x in probes]
    window = list(range(50, 1001, 50))
    means = {}
    probe_means = {}
    for zc in (10, 100):
        errs = {x: abs(riemann_pi_explicit(x, zero_count=zc).value - pi_exact(table, x))
                for x in window}
        means[zc] = sum(errs.values()) / len(errs)
        probe_means[zc] = sum(errs[x] for x in probes) / len(probes)
    elapsed = time.monotonic() - t0
    ok = max(probe_errs) <= 1.0 and means[100] < means[10] and elapsed < 10.0
    trend = "non-monotone" if probe_means[100] > probe_means[10] else "monotone"
    detail = (f"|error| at x=50,100,500,1000: "
              + ",".join(f"{e:.4f}" for e in probe_errs)
              + f" (max {max(probe_errs):.4f} <= 1.0); mean over x=50..1000 "
              f"{means[10]:.4f} -> {means[100]:.4f} as zeros 10 -> 100 "
              f"(4-point mean alone: {probe_means[10]:.4f} -> {probe_means[100]:.4f}, "
              f"{trend})")
    return ok, detail


def crit_5(threads: int):
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for x in (0.5, 2.0, 10.0, 100.0):
        for c in (1.5, 2.0):
            for t_height in (10 ** 2, 10 ** 3, 10 ** 4):
                got = perron_truncated(x, c, t_height)
                err = abs(got.approx - got.indicator)
                worst = max(worst, err / got.bound)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and checked == 24 and elapsed < 5.0
    return ok, f"{checked}/24 grid points within bound; worst error/bound {worst:.4f}"


def crit_6(threads: int):
    table = build_table(10 ** 6)
    worst = 0.0
    for s in (1.5, 2.0, 3.0, 4.0, 6.0):
        got = prime_zeta(s, table)
        gap = abs(got.direct_value - got.mobius_value)
        worst = max(worst, gap / got.combined_tail)
    p2 = prime_zeta(2.0, table).value
    ok = worst <= 1.0 and abs(p2 - 0.45224742) <= 1e-6
    detail = (f"method gap/tail worst {worst:.4f} over s=1.5,2,3,4,6; "
              f"P(2)={p2:.10f} within 1e-6 of 0.45224742")
    return ok, detail


def crit_7(threads: int):
    c_twin = singular_series(TWINS)
    c_bad = singular_series(OffsetSet((0, 1)))
    table = build_table(10 ** 6 + 4)
    exact = pi_k(table, 10 ** 6, TWINS)
    avg = average_capital_pi_k(10 ** 6, TWINS, c_twin.value)
    ratio = exact / avg
    ok = (abs(c_twin.value - 1.3203236) <= 1e-4 and c_bad.value == 0.0
          and 0.94 <= ratio <= 1.06)
    detail = (f"C(0,2)={c_twin.value:.7f}, C(0,1)={c_bad.value}, "
              f"count/average={ratio:.4f} in [0.94,1.06]")
    return ok, detail


def crit_8(threads: int):
    t0 = time.monotonic()
    radii = list(range(40, 2001, 40))  # 50 values
    circle_hits = sum(
        gauss_circle_count(R, threads=threads).count
        == disk_brute(R)
        for R in radii)
    div100 = divisor_hyperbola_count(100, threads=threads).count
    ball_radii = (1, 2, 50, 100)
    ball_hits = sum(
        ball3_count(R, threads=threads).count == ball_brute(R)
        for R in ball_radii)
    elapsed = time.monotonic() - t0
    ok = (circle_hits == 50 and div100 == 482 and ball_hits == len(ball_radii)
          and elapsed < 60.0)
    detail = (f"circle==brute at {circle_hits}/50 radii <= 2000; "
              f"divisor(100)={div100}; ball3==brute at {ball_hits}/4 radii <= 100")
    return ok, detail


def crit_9(threads: int):
    t0 = time.monotonic()
    circle = error_exponent_fit(
        "circle", geometric_sizes(100, 10 ** 5, 64), threads=threads)
    divisor = error_exponent_fit(
        "divisor", geometric_sizes(10 ** 3, 10 ** 8, 16), threads=threads)
    elapsed = time.monotonic() - t0
    ok = (0.3 <= circle.fitted_exponent <= 0.7
          and divisor.fitted_exponent <= 0.6 and elapsed < 300.0)
    detail = (f"circle exponent {circle.fitted_exponent!r} in [0.3,0.7] over "
              f"R in [1e2,1e5]; divisor exponent {divisor.fitted_exponent!r} "
              f"<= 0.6 over x in [1e3,1e8]")
    return ok, detail


CRITERIA = (crit_1, crit_2, crit_3, crit_4, crit_5, crit_6, crit_7, crit_8, crit_9)


def test_criterion_1():
    _finish(1, *crit_1(1))


def test_criterion_2():
    _finish(2, *crit_2(1))


def test_criterion_3():
    _finish(3, *crit_3(1))


def test_criterion_4():
    _finish(4, *crit_4(1))


def test_criterion_5():
    _finish(5, *crit_5(1))


def test_criterion_6():
    _finish(6, *crit_6(1))


def test_criterion_7():
    _finish(7, *crit_7(1))


def test_criterion_8():
    _finish(8, *crit_8(1))


def test_criterion_9():
    _finish(9, *crit_9(1))


def test_criterion_10():
    mismatches = []
    for num, crit in enumerate(CRITERIA, start=1):
        ok1, d1 = crit(1)
        ok8, d8 = crit(8)
        if not (ok1 and ok8 and d1 == d8):
            mismatches.append(num)
    ok = not mismatches
    detail = ("criteria 1-9 byte-identical at threads 1 and 8" if ok
              else f"thread mismatch in criteria {mismatches}")
    _finish(10, ok, detail)
