"""Tests of the quartic kernel's real roots on hand-picked and random
polynomials of degree <= 4, fed as zero-padded ascending rows, and of the
half-angle quartic itself."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (UNIT, oracle_real_roots, random_geometry,
                      singularity_condition)
from tenseg import DegenerateInput, SegmentGeometry
from tenseg.singularity import (_cauchy_bound, quartic_coefficients,
                                quartic_real_roots)


def solve(coeffs):
    """Roots, multiplicities and degree of one ascending row of <= 5 terms."""
    row = np.zeros(5)
    row[:len(coeffs)] = coeffs
    roots, mults, degree, _ = quartic_real_roots(row[None, :])
    real = mults[0] > 0
    return tuple(roots[0][real]), tuple(mults[0][real].tolist()), int(degree[0])


def coeffs_from_roots(roots, leading=1.0, complex_pairs=()):
    """Ascending coefficients from real roots and (b, c) complex factors."""
    coeffs = np.array([leading])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -r])
    for b, c in complex_pairs:
        coeffs = np.convolve(coeffs, [1.0, b, c])
    return coeffs[::-1]


def residual(coeffs, t):
    return abs(np.polynomial.polynomial.polyval(t, coeffs))


# ---------------------------------------------------------------------------
# hand-picked rows


def test_degree_trims_negligible_leading_coefficients():
    # Only exact zeros lower the degree: a small leading coefficient keeps
    # its huge root, here -2e20.
    assert solve([1.0, 2.0, 0.0, 0.0])[2] == 1
    assert solve([3.0])[2] == 0
    roots, _, degree = solve([1.0, 2.0, 1e-20])
    assert degree == 2 and roots == pytest.approx((-2e20, -0.5), rel=1e-12)
    assert solve([1.0, 0.0, 1.0, 0.0, 1e-13])[2] == 4
    # Below 2**-256 of the largest the root lies beyond 2**64, out of the
    # fallback's reach: -5e300 here.
    assert solve([5.0, 1e-300]) == ((), (), 0)


def test_quadratic_roots():
    roots, mults, degree = solve([-1.0, 0.0, 1.0])
    assert roots == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert mults == (1, 1) and degree == 2
    assert all(residual([-1.0, 0.0, 1.0], r) < 1e-12 for r in roots)


def test_double_root_collapsed():
    roots, mults, _ = solve([0.25, -1.0, 1.0])  # (t - 1/2)^2
    assert roots == pytest.approx((0.5,), abs=1e-7)
    assert mults == (2,)


def test_triple_root_with_simple_neighbour():
    # (t - 1)^3 (t + 1)
    roots, mults, _ = solve([-1.0, 2.0, 0.0, -2.0, 1.0])
    assert roots == pytest.approx((-1.0, 1.0), abs=1e-6)
    assert mults == (1, 3)


def test_quadruple_root_of_t4():
    # Parity alone would call t^4 a double root; q'' vanishes there too.
    assert solve([0.0, 0.0, 0.0, 0.0, 1.0]) == ((0.0,), (4,), 4)
    roots, mults, _ = solve(coeffs_from_roots([0.7] * 4))
    assert roots == pytest.approx((0.7,), abs=1e-12) and mults == (4,)


def test_double_root_where_the_third_derivative_vanishes():
    # y^4 - 4y + 3 = (y - 1)^2 (y^2 + 2y + 3): q'' = 0 at the root of q''',
    # which is no root of q, so the double root at 1 stays double.
    roots, mults, _ = solve([3.0, -4.0, 0.0, 0.0, 1.0])
    assert roots == pytest.approx((1.0,), abs=1e-7) and mults == (2,)


def test_simple_root_at_the_real_part_of_complex_critical_points():
    # t^3 + t vanishes at 0, the real part of the critical points +-i/sqrt(3).
    assert solve([0.0, 1.0, 0.0, 1.0]) == ((0.0,), (1,), 3)


def test_no_real_roots():
    assert solve([1.0, 0.0, 1.0]) == ((), (), 2)


def test_constant_polynomial_has_no_roots():
    assert solve([3.0]) == ((), (), 0)


def test_zero_polynomial_rejected():
    with pytest.raises(DegenerateInput):
        solve([0.0, 0.0, 0.0])


def test_oracle_count_matches_enumeration():
    cases = [
        [-1.0, 0.0, 1.0],
        coeffs_from_roots([-3.0, -1.0, 2.0, 4.0]),
        [1.0, 0.0, 1.0],
        coeffs_from_roots([0.5, 0.5, -1.0]),  # the double root counted once
    ]
    for coeffs in cases:
        distinct = np.unique(np.round(oracle_real_roots(coeffs), 9))
        roots, mults, _ = solve(coeffs)
        assert len(distinct) == len(roots)
        assert sum(mults) == len(oracle_real_roots(coeffs))


def test_cauchy_bound_contains_all_roots():
    rng = np.random.default_rng(23)
    for _ in range(50):
        roots = rng.uniform(-10.0, 10.0, size=rng.integers(1, 5))
        coeffs = coeffs_from_roots(roots, leading=rng.uniform(0.2, 5.0))
        assert np.all(np.abs(roots) < _cauchy_bound(coeffs))


def test_forced_multiple_roots_recover_their_multiplicities():
    # A double or triple root beside simple ones at least 0.3 away.
    rng = np.random.default_rng(19)
    for k in range(300):
        while True:
            r = rng.uniform(-3.0, 3.0, 3)
            if min(abs(r[0] - r[1]), abs(r[0] - r[2]), abs(r[1] - r[2])) > 0.3:
                break
        multiple = 2 + k % 2
        given_roots = [r[0]] * multiple + list(r[1:5 - multiple])
        coeffs = coeffs_from_roots(given_roots, leading=rng.uniform(0.5, 2.0))
        roots, mults, _ = solve(coeffs)
        expected = sorted(set(given_roots))
        assert roots == pytest.approx(expected, abs=1e-6)
        assert mults == tuple(given_roots.count(e) for e in expected)


# ---------------------------------------------------------------------------
# synthetic completeness sweep


def _synthetic_case(rng):
    """Random row of degree <= 4 with known well-separated real roots."""
    while True:
        n_real = int(rng.integers(1, 5))
        roots = np.sort(rng.uniform(-10.0, 10.0, size=n_real))
        if n_real == 1 or np.diff(roots).min() > 1e-3:
            break
    pairs = []
    for _ in range(int(rng.integers(0, (4 - n_real) // 2 + 1))):
        # t^2 + bt + c with complex roots kept away from the real axis.
        re, im = rng.uniform(-5.0, 5.0), rng.uniform(0.5, 3.0)
        pairs.append((-2.0 * re, re * re + im * im))
    leading = float(rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]))
    return coeffs_from_roots(roots, leading=leading, complex_pairs=pairs), roots


def test_synthetic_roots_all_found_no_spurious():
    rng = np.random.default_rng(29)
    for _ in range(200):
        coeffs, expected = _synthetic_case(rng)
        roots, mults, _ = solve(coeffs)
        assert roots == pytest.approx(tuple(expected), abs=1e-6)
        assert set(mults) == {1}


def test_round_trip_residual_bound():
    rng = np.random.default_rng(31)
    for _ in range(200):
        coeffs, _ = _synthetic_case(rng)
        scale = np.abs(coeffs).max()
        degree = len(coeffs) - 1
        for root in solve(coeffs)[0]:
            assert residual(coeffs, root) <= (
                1e-10 * (1.0 + abs(root)) ** degree * scale)


def test_oracle_count_agrees_with_synthetic_roots():
    rng = np.random.default_rng(37)
    for _ in range(50):
        coeffs, expected = _synthetic_case(rng)
        assert oracle_real_roots(coeffs) == pytest.approx(
            tuple(expected), abs=1e-12)


@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5))
# A double root at 0 beside a root near 2e10.
@example([0.0, 0.0, 1.0, -2.0, 9.091551855158278e-11])
@example([-8.375169292530228e-195, 0.0, 1.0])
# Newton steps from the closed-form seeds overflowed on these.
@example([7.499580834001492e-156, 9.462115098948803e-260, 0.0, 1.0, 1.0])
@example([7.499580834001492e-156, 9.462115098948803e-260, 0.0, 0.0, 1.0])
@settings(max_examples=80, deadline=None)
def test_random_coefficients_roots_are_certified(coeffs):
    if not any(coeffs):
        with pytest.raises(DegenerateInput):
            solve(coeffs)
        return
    roots, mults, degree = solve(coeffs)
    scale = max(abs(c) for c in coeffs)
    # Distinct and ascending; no merging: t^2 - 8e-195 has two roots 2e-97
    # apart, and the signs of q certify both.
    assert all(a < b for a, b in zip(roots, roots[1:]))
    for root in roots:
        assert residual(coeffs, root) <= (
            1e-8 * (1.0 + abs(root)) ** max(degree, 1) * scale)
    if coeffs == [0.0, 0.0, 1.0, -2.0, 9.091551855158278e-11]:
        assert roots == pytest.approx((0.0, 0.5, 2.0 / 9.091551855158278e-11),
                                      rel=1e-9)
        assert mults == (2, 1, 1)


# ---------------------------------------------------------------------------
# half-angle quartic


def half_angle_quartic(g) -> np.ndarray:
    return quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)


def test_half_angle_polynomial_degree_and_known_root():
    coeffs = half_angle_quartic(UNIT)
    assert solve(coeffs)[2] == 4
    assert residual(coeffs, math.tan(-math.pi / 8)) < 1e-9 * np.abs(coeffs).max()


def test_half_angle_polynomial_matches_condition():
    # q(tan(a/2)) = (1 + t^2)^2 * condition(a).
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_geometry(rng)
        coeffs = half_angle_quartic(g)
        for alpha in rng.uniform(-2.8, 2.8, size=50):
            t = math.tan(alpha / 2.0)
            ratio = np.polynomial.polynomial.polyval(t, coeffs) / (1.0 + t * t) ** 2
            assert ratio == pytest.approx(
                singularity_condition(g, alpha), rel=1e-9, abs=1e-9)


def test_half_angle_closed_form_vs_interpolation():
    # Second derivation of the coefficients: sample the cleared-denominator
    # expression and fit a degree-4 polynomial through the samples.
    rng = np.random.default_rng(43)
    nodes = 3.0 * np.cos((2 * np.arange(25) + 1) * np.pi / 50)
    for _ in range(20):
        g = random_geometry(rng)
        alphas = 2.0 * np.arctan(nodes)
        values = singularity_condition(g, alphas) * (1.0 + nodes ** 2) ** 2
        fitted = np.polynomial.polynomial.polyfit(nodes, values, 4)
        closed = half_angle_quartic(g)
        assert fitted == pytest.approx(closed, abs=1e-8 * np.abs(closed).max())


def test_half_angle_roots_match_dense_scan_for_flat_design():
    # Flat end links: the condition has closed-form sign changes, which the
    # kernel and the 30-digit oracle both find on the quartic.
    g = SegmentGeometry(h1=0.0, h2=1.0, h3=0.0, l1=1.0, l2=1.0)
    coeffs = half_angle_quartic(g)
    angles = sorted(2.0 * math.atan(t) for t in oracle_real_roots(coeffs))
    roots, _, _, certified = quartic_real_roots(coeffs[None, :])
    assert certified[0]
    assert 2.0 * np.arctan(roots[0]) == pytest.approx(angles, abs=1e-12)

    alphas = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 100_000)
    values = singularity_condition(g, alphas)
    flips = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    assert len(flips) == len(angles)
    for crossing, angle in zip(alphas[flips], angles):
        assert angle == pytest.approx(crossing, abs=1e-4)


def test_half_angle_unit_geometry_angle_set():
    coeffs = half_angle_quartic(UNIT)
    expected = sorted([
        -math.pi / 4,
        3 * math.pi / 4,
        math.atan((1 + math.sqrt(7)) / (math.sqrt(7) - 1)),
        math.atan((1 - math.sqrt(7)) / (-1 - math.sqrt(7))) - math.pi,
    ])
    angles = sorted(2.0 * math.atan(t) for t in oracle_real_roots(coeffs))
    assert angles == pytest.approx(expected, abs=1e-12)
    roots, _, _, certified = quartic_real_roots(coeffs[None, :])
    assert certified[0]
    assert sorted(2.0 * np.arctan(roots[0])) == pytest.approx(expected, abs=1e-12)
