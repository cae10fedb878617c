"""Tests for certified real-root isolation and the half-angle quartic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UNIT, random_geometry, sturm_root_count
from tenseg import (DegenerateInput, Polynomial, real_roots,
                    singularity_condition)
from tenseg.polyroots import cauchy_root_bound, square_free_part
from tenseg.singularity import quartic_coefficients, quartic_real_roots


def poly_from_roots(roots, leading=1.0, complex_pairs=()):
    """Build ascending coefficients from real roots and (b, c) complex factors."""
    coeffs = np.array([leading])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0][::-1])
    for b, c in complex_pairs:
        coeffs = np.convolve(coeffs, [c, b, 1.0][::-1])
    return Polynomial(tuple(coeffs[::-1]))


# ---------------------------------------------------------------------------
# Polynomial basics


def test_degree_trims_negligible_leading_coefficients():
    assert Polynomial((1.0, 2.0, 1e-20)).degree == 1
    assert Polynomial((0.0, 0.0)).degree == -1
    assert Polynomial((3.0,)).degree == 0


def test_evaluation_scalar_and_array():
    p = Polynomial((1.0, -2.0, 1.0))  # (x - 1)^2
    assert p(3.0) == pytest.approx(4.0)
    assert p(np.array([0.0, 1.0, 2.0])) == pytest.approx([1.0, 0.0, 1.0])


def test_derivative():
    p = Polynomial((5.0, 0.0, 3.0))  # 3x^2 + 5
    assert p.derivative().coeffs == (0.0, 6.0)
    assert Polynomial((7.0,)).derivative().coeffs == (0.0,)


# ---------------------------------------------------------------------------
# real_roots on hand-picked cases


def test_quadratic_roots():
    found = real_roots(Polynomial((-1.0, 0.0, 1.0)), -2.0, 2.0)
    assert found.roots == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert found.multiplicities == (1, 1)
    assert all(r < 1e-12 for r in found.residuals)


def test_double_root_collapsed():
    found = real_roots(Polynomial((0.25, -1.0, 1.0)), 0.0, 1.0)  # (t - 1/2)^2
    assert found.roots == pytest.approx((0.5,), abs=1e-7)
    assert found.multiplicities == (2,)


def test_triple_root_with_simple_neighbour():
    # (x - 1)^3 (x + 1)
    p = Polynomial((-1.0, 2.0, 0.0, -2.0, 1.0))
    found = real_roots(p, -2.0, 2.0)
    assert found.roots == pytest.approx((-1.0, 1.0), abs=1e-6)
    assert found.multiplicities == (1, 3)


def test_roots_at_interval_endpoints_are_included():
    found = real_roots(Polynomial((-1.0, 0.0, 1.0)), -1.0, 1.0)
    assert found.roots == pytest.approx((-1.0, 1.0), abs=1e-9)


def test_no_real_roots():
    assert len(real_roots(Polynomial((1.0, 0.0, 1.0)), -5.0, 5.0)) == 0


def test_constant_polynomial_has_no_roots():
    assert len(real_roots(Polynomial((3.0,)), -1.0, 1.0)) == 0


def test_zero_polynomial_rejected():
    with pytest.raises(DegenerateInput):
        real_roots(Polynomial((0.0, 0.0, 0.0)), -1.0, 1.0)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        real_roots(Polynomial((-1.0, 1.0)), 2.0, 1.0)
    with pytest.raises(ValueError):
        real_roots(Polynomial((-1.0, 1.0)), float("nan"), 1.0)


def test_roots_outside_interval_excluded():
    found = real_roots(Polynomial((-1.0, 0.0, 1.0)), 0.0, 5.0)
    assert found.roots == pytest.approx((1.0,), abs=1e-12)


def test_square_free_part_drops_multiplicity():
    p = poly_from_roots([0.5, 0.5, -1.0])
    sf = square_free_part(p)
    assert sf.degree == 2
    assert abs(sf(0.5)) < 1e-9 and abs(sf(-1.0)) < 1e-9


def test_sturm_count_matches_enumeration():
    cases = [
        (Polynomial((-1.0, 0.0, 1.0)), -2.0, 2.0),
        (poly_from_roots([-3.0, -1.0, 2.0, 4.0]), -5.0, 5.0),
        (poly_from_roots([-3.0, -1.0, 2.0, 4.0]), 0.0, 3.0),
        (Polynomial((1.0, 0.0, 1.0)), -5.0, 5.0),
        (poly_from_roots([0.5, 0.5, -1.0]), -2.0, 2.0),  # double counted once
    ]
    for p, lo, hi in cases:
        assert sturm_root_count(p, lo, hi) == len(real_roots(p, lo, hi))


def test_cauchy_bound_contains_all_roots():
    rng = np.random.default_rng(23)
    for _ in range(50):
        roots = rng.uniform(-10.0, 10.0, size=rng.integers(1, 6))
        p = poly_from_roots(roots, leading=rng.uniform(0.2, 5.0))
        bound = cauchy_root_bound(p)
        assert np.all(np.abs(roots) < bound)


# ---------------------------------------------------------------------------
# synthetic completeness sweep


def _synthetic_case(rng):
    """Random polynomial of degree <= 8 with known well-separated real roots."""
    while True:
        n_real = int(rng.integers(1, 7))
        roots = np.sort(rng.uniform(-10.0, 10.0, size=n_real))
        if n_real == 1 or np.diff(roots).min() > 1e-3:
            break
    n_pairs = int(rng.integers(0, (8 - n_real) // 2 + 1))
    pairs = []
    for _ in range(n_pairs):
        # x^2 + bx + c with complex roots kept away from the real axis.
        re = rng.uniform(-5.0, 5.0)
        im = rng.uniform(0.5, 3.0)
        pairs.append((-2.0 * re, re * re + im * im))
    leading = float(rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]))
    return poly_from_roots(roots, leading=leading, complex_pairs=pairs), roots


def test_synthetic_roots_all_found_no_spurious():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p, expected = _synthetic_case(rng)
        found = real_roots(p, -11.0, 11.0)
        assert len(found) == len(expected)
        assert found.roots == pytest.approx(tuple(expected), abs=1e-6)


def test_round_trip_residual_bound():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p, _ = _synthetic_case(rng)
        found = real_roots(p, -11.0, 11.0)
        scale = max(abs(c) for c in p.coeffs)
        degree = p.degree
        for root, residual in zip(found.roots, found.residuals):
            assert residual <= 1e-10 * (1.0 + abs(root)) ** degree * scale


def test_sturm_count_agrees_with_synthetic_roots():
    rng = np.random.default_rng(37)
    for _ in range(50):
        p, expected = _synthetic_case(rng)
        assert sturm_root_count(p, -11.0, 11.0) == len(expected)


@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=9))
# Both defeat the square-free split: a double root at 0 beside a root near
# 2e10 (reported at 0.149), and a false common factor that made the Sturm
# chain count a second root at -0.588.
@example([0.0, 0.0, 1.0, -2.0, 9.091551855158278e-11])
@example([1.5, 3.1875, 1e-07, 0.0, 0.0, 1.0])
@settings(max_examples=80, deadline=None)
def test_random_coefficients_roots_are_certified(coeffs):
    p = Polynomial(tuple(coeffs))
    if p.degree < 0:
        with pytest.raises(DegenerateInput):
            real_roots(p, -20.0, 20.0)
        return
    bound = cauchy_root_bound(p)
    found = real_roots(p, -bound, bound)
    scale = max(abs(c) for c in p.coeffs)
    assert list(found.roots) == sorted(found.roots)
    assert all(b - a > 1e-9 for a, b in zip(found.roots, found.roots[1:]))
    for root, residual in zip(found.roots, found.residuals):
        assert residual <= 1e-8 * (1.0 + abs(root)) ** max(p.degree, 1) * scale


# ---------------------------------------------------------------------------
# half-angle quartic


def half_angle_quartic(g) -> Polynomial:
    return Polynomial(tuple(quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)))


def test_half_angle_polynomial_degree_and_known_root():
    p = half_angle_quartic(UNIT)
    assert p.degree == 4
    scale = max(abs(c) for c in p.coeffs)
    assert abs(p(math.tan(-math.pi / 8))) < 1e-9 * scale


def test_half_angle_polynomial_matches_condition():
    # q(tan(a/2)) = (1 + t^2)^2 * condition(a).
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_geometry(rng)
        for alpha in rng.uniform(-2.8, 2.8, size=50):
            t = math.tan(alpha / 2.0)
            p = half_angle_quartic(g)
            ratio = p(t) / (1.0 + t * t) ** 2
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
        closed = np.array(half_angle_quartic(g).coeffs)
        scale = np.abs(closed).max()
        assert fitted == pytest.approx(closed, abs=1e-8 * scale)


def test_half_angle_roots_match_dense_scan_for_flat_design():
    # Flat end links: the condition has closed-form sign changes.  Both the
    # kernel and the Sturm fallback find them on the quartic.
    from tenseg import SegmentGeometry
    g = SegmentGeometry(h1=0.0, h2=1.0, h3=0.0, l1=1.0, l2=1.0)
    p = half_angle_quartic(g)
    bound = cauchy_root_bound(p)
    angles = sorted(2.0 * math.atan(t) for t in real_roots(p, -bound, bound).roots)
    roots, _, _, certified = quartic_real_roots(np.array([p.coeffs]))
    assert certified[0]
    assert 2.0 * np.arctan(roots[0]) == pytest.approx(angles, abs=1e-12)

    alphas = np.linspace(-math.pi + 1e-6, math.pi - 1e-6, 100_000)
    values = singularity_condition(g, alphas)
    flips = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    assert len(flips) == len(angles)
    for crossing, angle in zip(alphas[flips], angles):
        assert angle == pytest.approx(crossing, abs=1e-4)


def test_half_angle_unit_geometry_angle_set():
    p = half_angle_quartic(UNIT)
    limit = math.tan(math.pi / 2 - 1e-3)
    found = real_roots(p, -limit, limit)
    angles = sorted(2.0 * math.atan(t) for t in found.roots)
    expected = sorted([
        -math.pi / 4,
        3 * math.pi / 4,
        math.atan((1 + math.sqrt(7)) / (math.sqrt(7) - 1)),
        math.atan((1 - math.sqrt(7)) / (-1 - math.sqrt(7))) - math.pi,
    ])
    assert angles == pytest.approx(expected, abs=1e-9)
    roots, _, _, certified = quartic_real_roots(np.array([p.coeffs]))
    assert certified[0]
    assert sorted(2.0 * np.arctan(roots[0])) == pytest.approx(expected, abs=1e-12)
