"""Tests for the singularity locus and the travel limit alpha_sing."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import STABLE_FLAT, UNIT, random_geometry, scan_singularities
from tenseg import (SegmentGeometry, SingularitySet, normalize_angle,
                    singular_angles, singularity_condition)
from tenseg.singularity import quartic_coefficients, quartic_real_roots

# Closed-form loop-1 singular angles of the all-ones segment.
UNIT_LOOP1 = sorted([
    -math.pi / 4,
    3 * math.pi / 4,
    math.atan((1 + math.sqrt(7)) / (math.sqrt(7) - 1)),
    math.atan((1 - math.sqrt(7)) / (-1 - math.sqrt(7))) - math.pi,
])

# Middle link tuned (to machine precision) so the loop-1 condition touches
# zero without crossing near alpha = 2.7777: a tangential double singularity.
TANGENT = SegmentGeometry(h1=1.0, h2=2.2823894612648949, h3=1.0,
                          l1=1.0, l2=0.5)
# Flat square: the condition factors as 8 cos(a) (sin(a) - 1), a triple root
# at +pi/2.  Half turn: h2 = 2 h1 with h3 = h1 makes alpha = pi singular.
FLAT_SQUARE = SegmentGeometry(h1=0.0, h2=2.0, h3=0.0, l1=1.0, l2=1.0)
HALF_TURN = SegmentGeometry(h1=1.0, h2=2.0, h3=1.0, l1=1.0, l2=0.7)


def condition_scale(g):
    return float(np.abs(quartic_coefficients(g.h1, g.h2, g.h3, g.l1,
                                             g.l2)).max())


# ---------------------------------------------------------------------------
# closed-form regression


def test_unit_geometry_loop1_closed_forms():
    found = singular_angles(UNIT)
    assert len(found.loop1) == 4
    for angle, expected in zip(found.loop1, UNIT_LOOP1):
        assert angle == pytest.approx(expected, abs=1e-9)


def test_unit_geometry_alpha_sing():
    assert singular_angles(UNIT).alpha_sing == pytest.approx(
        math.pi / 4, abs=1e-9)


def test_unit_geometry_loop2_mirrors_loop1():
    found = singular_angles(UNIT)
    expected = sorted(normalize_angle(-a) for a in UNIT_LOOP1)
    for angle, mirror in zip(found.loop2, expected):
        assert angle == pytest.approx(mirror, abs=1e-9)


# ---------------------------------------------------------------------------
# invariants on random geometries


def test_returned_angles_have_small_residuals():
    rng = np.random.default_rng(47)
    for _ in range(50):
        g = random_geometry(rng)
        found = singular_angles(g)
        scale = condition_scale(g)
        for angle in found.loop1:
            assert abs(singularity_condition(g, angle)) < 1e-8 * scale


def test_loop2_is_negated_loop1():
    rng = np.random.default_rng(53)
    for _ in range(100):
        g = random_geometry(rng)
        found = singular_angles(g)
        expected = sorted(normalize_angle(-a) for a in found.loop1)
        assert found.loop2 == pytest.approx(expected, abs=1e-12)


def test_loop2_angles_are_stationary_for_second_cable():
    # Independent check of the mirror statement: the squared length of the
    # second cable has vanishing derivative at every loop-2 angle.
    from tenseg import cable_lengths_squared
    rng = np.random.default_rng(59)
    step = 1e-6
    for _ in range(25):
        g = random_geometry(rng)
        scale = condition_scale(g)
        for angle in singular_angles(g).loop2:
            _, plus = cable_lengths_squared(g, angle + step)
            _, minus = cable_lengths_squared(g, angle - step)
            assert abs(plus - minus) / (2.0 * step) < 1e-5 * scale


def test_every_valid_geometry_is_somewhere_singular():
    # The condition averages to zero over a full turn but is strictly
    # negative at home, so it must cross zero: alpha_sing always exists.
    rng = np.random.default_rng(61)
    for _ in range(200):
        found = singular_angles(random_geometry(rng))
        assert found.alpha_sing is not None
        assert len(found.loop1) >= 2


def test_at_most_four_angles_per_loop():
    rng = np.random.default_rng(67)
    for _ in range(100):
        found = singular_angles(random_geometry(rng))
        assert len(found.loop1) <= 4
        assert len(found.loop2) <= 4


def test_angles_sorted_and_in_range():
    rng = np.random.default_rng(71)
    for _ in range(50):
        found = singular_angles(random_geometry(rng))
        for loop in (found.loop1, found.loop2):
            assert list(loop) == sorted(loop)
            for angle in loop:
                assert -math.pi < angle <= math.pi


def test_alpha_sing_invariant_under_uniform_scaling():
    rng = np.random.default_rng(73)
    for _ in range(30):
        g = random_geometry(rng)
        scaled = SegmentGeometry(h1=10 * g.h1, h2=10 * g.h2, h3=10 * g.h3,
                                 l1=10 * g.l1, l2=10 * g.l2)
        assert singular_angles(scaled).alpha_sing == pytest.approx(
            singular_angles(g).alpha_sing, abs=1e-9)


# ---------------------------------------------------------------------------
# special designs


def test_flat_design_closed_form_angles():
    # Flat end links: crossings at +-pi/2 plus arcsin of
    # h2 (l1 + l2) / (4 l1 l2) and its supplement.
    found = singular_angles(STABLE_FLAT)
    expected = sorted([-math.pi / 2, math.pi / 6, math.pi / 2, 5 * math.pi / 6])
    assert found.loop1 == pytest.approx(expected, abs=1e-9)
    assert found.alpha_sing == pytest.approx(math.pi / 6, abs=1e-9)


def test_flat_design_without_interior_singularity():
    g = SegmentGeometry(h1=0.0, h2=1.9, h3=0.0, l1=0.1, l2=0.1)
    found = singular_angles(g)
    assert found.loop1 == pytest.approx([-math.pi / 2, math.pi / 2], abs=1e-9)
    assert found.alpha_sing == pytest.approx(math.pi / 2, abs=1e-9)


def test_half_turn_singular_when_middle_link_doubles_end_links():
    # At alpha = pi the condition equals the leading polynomial coefficient,
    # which vanishes exactly when h2 = 2 h1 (with h3 = h1).
    g = SegmentGeometry(h1=1.0, h2=2.0, h3=1.0, l1=1.0, l2=0.7)
    found = singular_angles(g)
    assert found.loop1[-1] == math.pi
    assert abs(singularity_condition(g, math.pi)) < 1e-12
    assert math.pi in found.loop2


def test_tangency_reported_with_even_multiplicity():
    found = singular_angles(TANGENT)
    assert len(found.loop1) == 3
    tangent_angle = found.loop1[-1]
    assert tangent_angle == pytest.approx(2.7777488873, abs=1e-6)
    assert found.multiplicities[-1] == 2
    assert found.multiplicities[:2] == (1, 1)
    # The touch leaves no sign change for the dense scan to see.
    brackets = scan_singularities(TANGENT, 1_000_000)
    assert len(brackets) == 2
    for lo, hi in brackets:
        assert not lo <= tangent_angle <= hi


def test_triple_root_still_counts_as_crossing():
    # Flat square design: the condition factors as 8 cos(a) (sin(a) - 1),
    # a simple crossing at -pi/2 and a triple root at +pi/2 — odd
    # multiplicities, so the dense scan still sees both sign changes.
    g = SegmentGeometry(h1=0.0, h2=2.0, h3=0.0, l1=1.0, l2=1.0)
    found = singular_angles(g)
    assert found.loop1 == pytest.approx([-math.pi / 2, math.pi / 2], abs=1e-7)
    assert found.multiplicities == (1, 3)
    brackets = scan_singularities(g, 1_000_000)
    assert len(brackets) == 2


# ---------------------------------------------------------------------------
# dense-scan oracle


def test_scan_unit_geometry_brackets_every_root():
    brackets = scan_singularities(UNIT, 1_000_000)
    assert len(brackets) == 4
    for (lo, hi), angle in zip(brackets, UNIT_LOOP1):
        assert lo <= angle <= hi


def test_scan_rejects_small_sample_counts():
    with pytest.raises(ValueError):
        scan_singularities(UNIT, 999)


def test_scan_empty_when_condition_never_crosses(monkeypatch):
    monkeypatch.setattr(conftest, "singularity_condition",
                        lambda g, alphas: np.ones_like(np.asarray(alphas)))
    assert scan_singularities(UNIT, 10_000) == []


def test_scan_bracket_count_matches_crossing_count():
    rng = np.random.default_rng(79)
    for _ in range(30):
        g = random_geometry(rng)
        found = singular_angles(g)
        crossings = [a for a, m in zip(found.loop1, found.multiplicities)
                     if m % 2 == 1]
        brackets = scan_singularities(g, 1_000_000)
        assert len(brackets) == len(crossings)
        for (lo, hi), angle in zip(brackets, crossings):
            assert lo - 1e-5 <= angle <= hi + 1e-5


def test_singularity_set_is_value_object():
    found = singular_angles(UNIT)
    again = singular_angles(UNIT)
    assert isinstance(found, SingularitySet)
    assert found == again


# ---------------------------------------------------------------------------
# the certified kernel on near-degenerate designs, against a 30-digit oracle

# Oracle roots closer than this (in angle) form one cluster: rounding the
# coefficients spreads an m-fold root by about 1e-16 ** (1 / m), 5e-6 for a
# triple root.
CLUSTER = 1e-4


def certified(g):
    coeffs = quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)
    return bool(quartic_real_roots(coeffs[None, :])[1][0])


def test_kernel_certificate_on_reference_designs():
    assert certified(UNIT)
    # A double root (Delta = 0 to rounding) and a triple root go to the
    # Sturm fallback.
    assert not certified(TANGENT)
    assert not certified(FLAT_SQUARE)
    # The half turn's quartic is exactly a cubic with three simple roots,
    # which its discriminant certifies; alpha = pi is added separately.
    assert certified(HALF_TURN)
    assert singular_angles(HALF_TURN).multiplicities == (1, 1, 1, 1)


def oracle_roots(g):
    """Loop-1 singular angles of ``g`` found by mpmath at 30 digits.

    The quartic is formed exactly from the float dimensions.  Returns its
    real roots as ``(angle, tolerance)`` pairs, with ``pi`` once per
    vanishing leading term, and the angles of its complex roots within
    ``CLUSTER`` of the real axis.  The tolerance is how far a simple root
    moves when each coefficient changes by 1e-14 of its size and the leading
    one by 1e-12 of the largest (the kernel drops a leading term that small).
    """
    h1, h2, h3, l1, l2 = (Fraction(v) for v in (g.h1, g.h2, g.h3, g.l1, g.l2))
    a, b = -2 * h2 * (h1 + h3), -2 * h2 * (l1 + l2)
    c, d = -4 * (h3 * l1 + h1 * l2), 4 * (l1 * l2 - h1 * h3)
    q = [b + c, 2 * a + 4 * d, -6 * c, 2 * a - 4 * d, c - b]
    real, near = [], []
    while q[-1] == 0:
        q.pop()
        real.append((math.pi, 1e-12))
    with mpmath.workdps(30):
        coeffs = [mpmath.mpf(x.numerator) / x.denominator for x in q[::-1]]
        for z in mpmath.polyroots(coeffs, maxsteps=2000, extraprec=300):
            angle = 2 * mpmath.atan(mpmath.mpc(z))
            if abs(angle.imag) <= 1e-20:
                t = mpmath.re(z)
                size = (1e-14 * mpmath.polyval([abs(x) for x in coeffs], abs(t))
                        + 1e-12 * max(abs(x) for x in coeffs) * abs(t) ** 4)
                degree = len(coeffs) - 1
                slope = abs(mpmath.polyval(
                    [(degree - k) * x for k, x in enumerate(coeffs[:-1])], t))
                tolerance = (1e-12 + float(2 * size / slope / (1 + t * t))
                             if slope else math.inf)
                real.append((float(angle.real), tolerance))
            elif abs(angle.imag) <= CLUSTER:
                near.append(float(angle.real))
    return real, near


def clusters(points):
    """Group ``(angle, tag)`` pairs whose angles chain within CLUSTER on the
    circle."""
    points = sorted(points, key=lambda point: point[0])
    groups = [[points[0]]]
    for point in points[1:]:
        if point[0] - groups[-1][-1][0] <= CLUSTER:
            groups[-1].append(point)
        else:
            groups.append([point])
    if len(groups) > 1 and groups[0][0][0] + 2 * math.pi - groups[-1][-1][0] <= CLUSTER:
        groups[0] += groups.pop()
    return groups


def assert_matches_oracle(g):
    found = singular_angles(g)
    real, near = oracle_roots(g)
    points = ([(a, ("real", tol)) for a, tol in real]
              + [(a, ("near", 0.0)) for a in near]
              + [(a, m) for a, m in zip(found.loop1, found.multiplicities)])
    for group in clusters(points):
        oracle = [(a, tag) for a, tag in group if isinstance(tag, tuple)]
        n_real = sum(tag[0] == "real" for _, tag in oracle)
        returned = [(a, m) for a, m in group if isinstance(m, int)]
        total = sum(m for _, m in returned)
        where = f"{g} near alpha = {group[0][0]:.9f}: {group}"
        assert returned or not n_real, f"root missed: {where}"
        assert oracle, f"root invented: {where}"
        # Crossings are preserved; a tangency may come back as one root of
        # even multiplicity.
        assert total % 2 == n_real % 2, f"parity: {where}"
        assert total <= len(oracle), f"too many roots: {where}"
        if len(oracle) == 1 == n_real:
            [(angle, (_, tolerance))] = oracle
            [(mine, _)] = returned
            error = abs(math.remainder(mine - angle, 2 * math.pi))
            assert error <= tolerance, f"off by {error:.2g}: {where}"


def test_oracle_agrees_on_random_geometries():
    rng = np.random.default_rng(83)
    for _ in range(20):
        assert_matches_oracle(random_geometry(rng))


@st.composite
def near_degenerate_designs(draw):
    """Designs within 10**-k of the tangency, the flat-square triple root or
    the half turn."""
    eps = 10.0 ** -draw(st.integers(2, 15))
    kind = draw(st.sampled_from(("tangent", "flat square", "half turn")))
    if kind == "tangent":
        return SegmentGeometry(h1=1.0, h2=TANGENT.h2 + draw(st.sampled_from(
            (-eps, eps))), h3=1.0, l1=1.0, l2=0.5)
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
    if kind == "flat square":
        return SegmentGeometry(h1=abs(u[0]) * eps, h2=2.0 + u[1] * eps,
                               h3=abs(u[2]) * eps, l1=1.0 + u[3] * eps,
                               l2=1.0 + u[4] * eps)
    h1 = 1.0 + 0.5 * u[0]
    return SegmentGeometry(h1=h1, h2=2.0 * h1 + u[1] * eps, h3=h1,
                           l1=1.0 + 0.5 * u[3], l2=1.0 + 0.5 * u[4])


@given(near_degenerate_designs())
@example(TANGENT)
@example(FLAT_SQUARE)
@example(HALF_TURN)
@settings(max_examples=60, deadline=None)
def test_near_degenerate_designs_match_oracle(g):
    assert_matches_oracle(g)
