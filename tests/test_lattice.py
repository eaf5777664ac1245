"""Tests for lattice-point counting and error-exponent fits."""

import math
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_brute import ball_brute, disk_brute, divisor_brute

from primelattice.lattice import (
    CountResult,
    ball3_count,
    count_under_graph,
    divisor_count_split,
    divisor_hyperbola_count,
    error_exponent_fit,
    error_series_summary,
    fit_error_samples,
    gauss_circle_count,
    geometric_sizes,
    strict_quadrant_count,
    write_error_series_csv,
)


def _quadrant_brute(R):
    # positive-pair oracle, comparisons only
    r2 = R * R
    total = 0
    for a in range(1, R + 1):
        for b in range(1, R + 1):
            if a * a + b * b <= r2:
                total += 1
    return total


# ---------------------------------------------------------------------------
# circles


def test_circle_examples():
    got = gauss_circle_count(5)
    assert got.count == 81
    assert got.main_term == pytest.approx(25 * math.pi)
    assert got.error == got.main_term - 81
    assert gauss_circle_count(1).count == 5


def test_circle_brute_force_agreement():
    for R in [2, 3, 7, 10, 33, 100, 250, 999, 2000]:
        assert gauss_circle_count(R).count == disk_brute(R)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2000))
def test_circle_matches_brute_integer_radius(R):
    assert gauss_circle_count(R).count == disk_brute(R)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 2000.0, allow_nan=False, allow_infinity=False))
def test_circle_matches_brute_fractional_radius(R):
    assert gauss_circle_count(R).count == disk_brute(R)


def test_circle_non_integer_radius():
    for R in [2.5, 5.5, 7.25, 99.9]:
        direct = gauss_circle_count(R).count
        assert direct == disk_brute(R)
        # enlarging R within the same integer shell changes nothing
        assert gauss_circle_count(math.floor(R)).count <= direct


def test_circle_monotone_in_R():
    prev = 0
    for R in range(1, 60):
        cur = gauss_circle_count(R).count
        assert cur >= prev
        prev = cur


def test_circle_boundary_floors_exact():
    for R in [7, 50, 123]:
        m = R * R
        for n in range(1, R + 1):
            v = isqrt(m - n * n)
            assert v * v <= m - n * n < (v + 1) * (v + 1)


def test_circle_symmetry_assembly():
    for R in [5, 10, 50, 777, 7.5]:
        full = gauss_circle_count(R).count
        strict = strict_quadrant_count(R)
        assert full == 4 * strict + 4 * math.floor(R) + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 150))
def test_quadrant_split_reproduces(R):
    assert strict_quadrant_count(R) == _quadrant_brute(R)


def test_circle_range_guards():
    with pytest.raises(ValueError):
        gauss_circle_count(0)
    with pytest.raises(ValueError):
        gauss_circle_count(10 ** 7 + 1)


def test_circle_threads_identical():
    # the wing spans 0.29 R ~ 2.9e6 terms, three chunks, so the pool runs;
    # the integer merge must not depend on it
    a = gauss_circle_count(10 ** 7, threads=1)
    b = gauss_circle_count(10 ** 7, threads=4)
    assert a == b


# ---------------------------------------------------------------------------
# graphs


def test_graph_examples():
    f = lambda n: math.sqrt(max(0.0, 25.0 - n * n))
    assert count_under_graph(f, 5).count == 20
    assert count_under_graph(lambda n: 0.0, 7).count == 0
    assert count_under_graph(lambda n: 10 - n, 10).count == 55


def test_graph_per_term_floors():
    # spell the R=5 circle row out term by term
    f = lambda n: math.sqrt(max(0.0, 25.0 - n * n))
    floors = [math.floor(f(n)) for n in range(6)]
    assert floors == [5, 4, 4, 4, 3, 0]
    assert sum(floors) == count_under_graph(f, 5).count


def test_graph_methods_agree():
    # the quarter-disk graph: each floor is an exact integer square root
    f = lambda n: math.sqrt(max(0.0, 5000.0 ** 2 - n * n))
    want = sum(isqrt(5000 ** 2 - n * n) for n in range(5001))
    assert count_under_graph(f, 5000).count == want


def test_graph_main_term_is_integral():
    got = count_under_graph(lambda n: 10 - n, 10)
    assert got.main_term == pytest.approx(50.0, abs=1e-9)
    assert got.error == pytest.approx(50.0 - 55.0, abs=1e-9)


def test_graph_non_finite_names_index():
    f = lambda n: float("inf") if n == 3 else 1.0
    with pytest.raises(ValueError, match="index 3"):
        count_under_graph(f, 5)


# ---------------------------------------------------------------------------
# divisor hyperbola


def test_divisor_examples():
    assert divisor_hyperbola_count(100).count == 482
    assert divisor_hyperbola_count(1).count == 1


def _divisor_brute(x):
    # sum of d(m) over m <= x, each d(m) by trial division up to sqrt(m)
    total = 0
    for m in range(1, x + 1):
        for a in range(1, isqrt(m) + 1):
            if m % a == 0:
                total += 1 if a * a == m else 2
    return total


def test_divisor_split_agreement():
    for x in [1, 2, 10, 99, 10 ** 4]:
        assert divisor_count_split(x) == _divisor_brute(x)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10 ** 5))
def test_divisor_matches_brute(x):
    assert divisor_hyperbola_count(x).count == divisor_brute(x)


def test_divisor_brute_agreement():
    for x in [1, 7, 100, 10 ** 4]:
        assert divisor_hyperbola_count(x).count == divisor_brute(x)


def test_divisor_main_term():
    import numpy as np

    got = divisor_hyperbola_count(100)
    assert got.main_term == pytest.approx(
        100 * math.log(100) + (2 * np.euler_gamma - 1) * 100, rel=1e-15)


def test_divisor_monotone():
    prev = 0
    for x in range(1, 200):
        cur = divisor_count_split(x)
        assert cur >= prev
        prev = cur


def test_divisor_guards():
    with pytest.raises(ValueError):
        divisor_hyperbola_count(0)
    with pytest.raises(ValueError):
        divisor_hyperbola_count(10.5)
    with pytest.raises(ValueError):
        divisor_hyperbola_count(10 ** 16 + 1)
    with pytest.raises(ValueError):
        divisor_count_split(0)


def test_divisor_threads_identical():
    a = divisor_hyperbola_count(3_000_000, threads=1)
    b = divisor_hyperbola_count(3_000_000, threads=4)
    assert a == b


# ---------------------------------------------------------------------------
# 3-ball


def test_ball3_examples():
    assert ball3_count(1).count == 7
    assert ball3_count(2).count == 33


def test_ball3_brute_agreement():
    for R in [1, 2, 5, 33, 100]:
        assert ball3_count(R).count == ball_brute(R)


def test_ball3_main_term():
    got = ball3_count(10)
    assert got.main_term == pytest.approx(4000.0 * math.pi / 3.0)


def test_ball3_guards():
    with pytest.raises(ValueError):
        ball3_count(3001)
    with pytest.raises(ValueError):
        ball3_count(0)


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.integers(1, 60), st.floats(0.5, 60.0, allow_nan=False)))
def test_ball3_matches_brute(R):
    assert ball3_count(R).count == ball_brute(R)


def test_ball3_threads_identical():
    assert ball3_count(200, threads=4).count == ball3_count(200, threads=1).count


# ---------------------------------------------------------------------------
# fits


def test_fit_circle_binary_powers():
    series = error_exponent_fit("circle", [2 ** k for k in range(7, 18)])
    assert 0.3 <= series.fitted_exponent <= 0.7
    assert series.fit_window == (128.0, 131072.0)
    assert len(series.samples) == 11


def test_fit_divisor_band():
    series = error_exponent_fit("divisor", geometric_sizes(10 ** 3, 10 ** 8, 16))
    assert series.fitted_exponent <= 0.6
    assert math.isfinite(series.residual)


def test_fit_ball3_runs():
    series = error_exponent_fit("ball3", geometric_sizes(10, 1200, 10))
    assert math.isfinite(series.fitted_exponent)


def test_fit_sample_validation():
    with pytest.raises(ValueError, match=">= 8"):
        error_exponent_fit("circle", [100, 200, 400, 100000])
    with pytest.raises(ValueError, match="decades"):
        error_exponent_fit("circle", list(range(100, 108)))
    for kind in ("blob", "full_circle", "hyperbola"):
        with pytest.raises(ValueError, match="kind"):
            error_exponent_fit(kind, [2 ** k for k in range(7, 18)])


def test_fit_rejects_zero_errors():
    rows = [(float(r), r, float(r), 0.0) for r in [1, 10, 100, 1000, 10 ** 4,
                                                   10 ** 5, 10 ** 6, 10 ** 7]]
    with pytest.raises(ValueError, match="nonzero"):
        fit_error_samples(rows)


def test_fit_recovers_planted_slope():
    rows = [(r, 0, 0.0, r ** 0.5) for r in [10.0 * 2 ** k for k in range(12)]]
    series = fit_error_samples(rows)
    assert series.fitted_exponent == pytest.approx(0.5, abs=1e-12)
    assert series.residual == pytest.approx(0.0, abs=1e-12)


def test_geometric_sizes():
    sizes = geometric_sizes(100, 10 ** 5, 16)
    assert sizes[0] == 100 and sizes[-1] == 10 ** 5
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert all(isinstance(s, int) for s in sizes)
    with pytest.raises(ValueError):
        geometric_sizes(100, 10, 5)
    with pytest.raises(ValueError, match="cap"):
        geometric_sizes(100, 10 ** 5, 10 ** 4 + 1)


def test_error_series_emission():
    import io

    series = error_exponent_fit("circle", [2 ** k for k in range(7, 18)])
    buf = io.StringIO()
    write_error_series_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "R,count,main_term,error"
    assert len(lines) == 12
    r, c, mt, e = lines[1].split(",")
    assert float(r) == 128.0 and int(c) == gauss_circle_count(128).count
    assert float(mt) - int(c) == float(e)  # repr round-trips exactly

    summary = error_series_summary(series)
    assert set(summary) == {"fitted_exponent", "residual", "window"}
    assert summary["window"] == [128.0, 131072.0]


# ---------------------------------------------------------------------------
# types


def test_count_result_assemble():
    got = CountResult.assemble(81, 25 * math.pi)
    assert got.error == 25 * math.pi - 81
    assert got.count == 81
