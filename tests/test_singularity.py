"""Tests for the singularity locus and the travel limit alpha_sing."""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (STABLE_FLAT, UNIT, cable_lengths_squared,
                      condition_bound, oracle_real_roots, random_geometry,
                      scan_singularities, singularity_condition)
import tenseg
import tenseg.singularity as singularity_module
from tenseg import (DegenerateInput, DesignBounds, SegmentGeometry,
                    SingularitySet, normalize_angle, singular_angles)
from tenseg.optimizer import _CHUNK
from tenseg.singularity import (_cauchy_bound, quartic_coefficients,
                                quartic_real_roots)

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


def flat_designs():
    """Seeded flat designs: random ones, ones whose ratio ``h2 (l1 + l2) /
    (4 l1 l2)`` is within a few ulps of 1, and the default grid's flat
    squares at lambda = 1 (``h2 = 2 l1`` exactly in floats)."""
    rng = np.random.default_rng(101)
    designs = [SegmentGeometry(0.0, rng.uniform(0.1, 2.5), 0.0,
                               rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
               for _ in range(100)]
    for _ in range(20):
        l1, l2 = rng.uniform(0.1, 3.0, 2)
        square = 4.0 * l1 * l2 / (l1 + l2)
        designs += [SegmentGeometry(0.0, square * (1.0 + j * conftest.EPS),
                                    0.0, l1, l2) for j in range(-6, 7)]
    bounds = DesignBounds()
    designs += [SegmentGeometry(0.0, h2, 0.0, l1, l1)
                for h2 in bounds.h2_axis() for l1 in bounds.l1_axis()
                if h2 == 2.0 * l1]
    return designs


def test_flat_closed_form_matches_30_digit_roots():
    # The flat condition cos a (B + 2D sin a) has roots +-pi/2, arcsin(r) and
    # pi - arcsin(r), r = h2 (l1 + l2) / (4 l1 l2), here taken exactly from
    # the float dimensions.  The float r is within 2 eps r of it, which moves
    # arcsin(r) by up to 2 eps r / sqrt(1 - r^2); within that of 1 the three
    # roots near pi/2 come back as one triple root there.
    designs = flat_designs()
    assert sum(g.h2 == 2.0 * g.l1 == 2.0 * g.l2 for g in designs) >= 5
    half = 0.5 * math.pi
    with mpmath.workdps(30):
        for g in designs:
            h2, l1, l2 = (mpmath.mpf(v) for v in (g.h2, g.l1, g.l2))
            ratio = h2 * (l1 + l2) / (4 * l1 * l2)
            found = singular_angles(g)
            assert found.loop1[0] == -half and half in found.loop1, g
            if len(found.loop1) == 4:
                inner = mpmath.asin(ratio)
                tolerance = (2.5 * conftest.EPS * ratio
                             / mpmath.sqrt(1 - ratio**2) + 4e-16)
                assert abs(found.loop1[1] - inner) <= tolerance, g
                assert abs(found.loop1[3] - (mpmath.pi - inner)) <= tolerance, g
                assert found.multiplicities == (1, 1, 1, 1)
                assert found.alpha_sing == found.loop1[1]
            elif found.multiplicities == (1, 3):
                assert abs(ratio - 1) <= 4 * conftest.EPS, g
                assert found.alpha_sing == half
            else:
                assert found.multiplicities == (1, 1) and ratio > 1, g
                assert found.alpha_sing == half
    # The exact flat squares are triple roots at pi/2.
    for g in designs:
        if g.h2 == 2.0 * g.l1 == 2.0 * g.l2:
            assert singular_angles(g).multiplicities == (1, 3), g


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
    return bool(quartic_real_roots(coeffs[None, :])[3][0])


def test_kernel_certificate_on_reference_designs():
    assert certified(UNIT)
    # A double root (Delta = 0 to rounding) and a triple root go to the
    # fallback.
    assert not certified(TANGENT)
    assert not certified(FLAT_SQUARE)
    # The half turn's quartic is exactly a cubic with three simple roots,
    # which its discriminant certifies; alpha = pi is added separately.
    assert certified(HALF_TURN)
    assert singular_angles(HALF_TURN).multiplicities == (1, 1, 1, 1)


@pytest.mark.parametrize("g, kernel_calls", [(TANGENT, 1), (FLAT_SQUARE, 0)],
                         ids=["tangent", "flat"])
def test_uncertified_design_runs_the_fallback_once(monkeypatch, g,
                                                   kernel_calls):
    # The tangency's multiplicities come from one fallback call; the flat
    # square's triple root comes from the flat closed form, with no kernel.
    # singular_angles enters the kernel at its one-row core, _row_roots.
    calls = []
    for name in ("_fallback_roots", "_row_roots"):
        def counted(*args, kernel=getattr(singularity_module, name)):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(singularity_module, name, counted)
    found = singular_angles(g)
    assert len(calls) == 2 * kernel_calls
    assert 2 in found.multiplicities or 3 in found.multiplicities


def default_grid_kernel_rows():
    """``(h1, h2, l1, lam, flat index)`` of the default grid's designs that
    pass 1 sends to its prune and kernel, in chunks of ``_CHUNK``, when no
    taper is certified (``h1 > 0``, ``h2 > 0``)."""
    bounds = DesignBounds()
    axes = (bounds.lambda_axis(), bounds.h1_axis(), bounds.h2_axis(),
            bounds.l1_axis())
    lam, h1, h2, l1 = (v.ravel() for v in np.meshgrid(*axes, indexing="ij"))
    index = np.flatnonzero((h1 > 0.0) & (h2 > 0.0))
    return h1[index], h2[index], l1[index], lam[index], index


def test_empty_batch_runs_no_solve(monkeypatch):
    # The sweep's chunks call the kernel even when the prune settles every
    # row, so an empty batch must not start the closed-form solves.
    calls = []
    solve = singularity_module._solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(singularity_module, "_solve", counted)
    found = quartic_real_roots(np.empty((0, 5)))
    assert calls == []
    assert [v.shape for v in found] == [(0, 4), (0, 4), (0,), (0,)]


def test_default_grid_falls_back_only_on_its_triple_roots():
    # Each fallback is a Python loop of about half a millisecond; a rise in
    # their number shows here before it shows in the sweep's time.
    h1, h2, l1, lam, _ = default_grid_kernel_rows()
    _, mults, _, certified = quartic_real_roots(
        quartic_coefficients(h1, h2, h1, l1, lam * l1))
    fallback = ~certified
    designs = {(round(a, 12), round(b, 12), round(c, 12), d)
               for a, b, c, d in zip(h1[fallback], h2[fallback], l1[fallback],
                                     lam[fallback])}
    assert designs == {(0.2, 0.5, 0.15, 1.0), (0.4, 1.7, 0.75, 1.0),
                       (0.6, 1.3, 0.25, 1.0), (0.6, 1.5, 0.45, 1.0)}
    assert all(3 in row for row in mults[fallback].tolist())


def design_box(rng, size):
    """``(h1, h2, l1, lam)`` of ``size`` designs drawn from the sweep's box,
    as ``perfbench/designs.py`` draws them (``h3 = h1``, ``l2 = lam l1``)."""
    return (rng.uniform(0.0, 1.0, size), rng.uniform(0.1, 2.0, size),
            rng.uniform(0.05, 4.45, size), rng.uniform(0.05, 1.0, size))


def seeded_quartic_sets():
    """Quartic rows of 20,000 log-uniform designs, scaled by a power of two
    as singular_angles does, and of 60,000 designs of the sweep's box."""
    rng = np.random.default_rng(1)
    dims = np.exp(rng.uniform(math.log(1e-4), math.log(1e2), (20_000, 5)))
    dims = np.ldexp(dims, -np.frexp(dims.max(axis=1))[1][:, None])
    h1, h2, l1, lam = design_box(np.random.default_rng(1), 60_000)
    return (quartic_coefficients(*dims.T),
            quartic_coefficients(h1, h2, h1, l1, lam * l1))


def test_fallback_counts_on_seeded_designs_are_pinned():
    # Each uncertified row costs the fallback about 1 ms; a kernel change
    # that quietly sends more rows there shows here before it shows in time.
    log_uniform, box = seeded_quartic_sets()
    certified = quartic_real_roots(log_uniform)[3]
    assert np.count_nonzero(~certified) == 141
    certified = quartic_real_roots(box)[3]
    assert np.count_nonzero(~certified) == 20


@pytest.mark.parametrize("row, degree, complex_seeds", [
    (quartic_coefficients(1.0, 1.0, 1.0, 1.0, 1.0), 4, 0),
    (quartic_coefficients(0.1, 1.9, 0.1, 0.1, 0.05), 4, 2),
    (quartic_coefficients(1.0, 2.0, 1.0, 1.0, 0.7), 3, 0),  # h2 = 2 h1
    (np.array([1.0, 0.0, 0.0, 1.0, 0.0]), 3, 2),  # t^3 + 1
    # ((t - 0.3001)^2 + 1e-14)(t - 0.3)(t - 2), expanded in floats: the
    # pair's seeds are complex, so both are NaN, not 0.3001 kept twice.
    (np.array([0.05403600600000599, -0.5672580230000229, 2.07052001000001,
               -2.9002, 1.0]), 4, 2),
], ids=["quartic-real", "quartic-complex", "cubic-real", "cubic-complex",
        "near-real-pair"])
def test_one_row_solve_returns_python_floats(row, degree, complex_seeds):
    # A row of floats must stay on floats through the closed form, the
    # Newton steps and the convergence test: a numpy scalar anywhere makes
    # every later step numpy-scalar arithmetic.
    kept = singularity_module._solve(row.tolist()[:degree + 1], degree)
    assert len(kept) == degree
    assert all(type(t) is float for t in kept)
    assert sum(t != t for t in kept) == complex_seeds


def test_seeds_on_a_zero_slope_are_not_kept():
    # (t^2 - 1)^2: Ferrari's seeds are exactly +-1, where q and q' both
    # vanish, so each Newton step is 0 and proves nothing.  Neither a row
    # nor a batch keeps them; the fallback finds the double roots.
    row = [1.0, 0.0, -2.0, 0.0, 1.0]
    assert all(t != t for t in singularity_module._solve(row, 4))
    kept = singularity_module._solve(np.array(row)[:, None], 4)
    assert np.isnan(kept).all()
    roots, mults, degree, certified = (
        v[0] for v in quartic_real_roots(np.array(row)))
    assert roots[:2].tolist() == [-1.0, 1.0]
    assert mults.tolist() == [2, 2, 0, 0] and degree == 4 and not certified


def test_solve_keeps_no_infinite_root():
    # About 1.5e-8 (t^4 - 1), with middle coefficients near 1e-92 and
    # 1e-251: two of Ferrari's seeds step to t = -inf on a finite non-zero
    # slope, and the step test passes them.  Kept, they would certify the
    # batch row with the roots [-inf, -inf] in place of +-1.
    row = [-1.477027751875454e-08, 8.550382755157132e-92,
           1.2675729233362628e-251, -8.550382755157132e-92,
           1.477027751875454e-08]
    assert not any(abs(t) == math.inf for t in singularity_module._solve(
        row, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        kept = singularity_module._solve(np.array(row)[:, None], 4)
    assert not np.isinf(kept).any()
    found, _, _, certified = singularity_module._row_roots(row)
    roots, _, _, batch_certified = (v[0] for v in quartic_real_roots(row))
    assert not certified and not batch_certified
    assert found == [-1.0, 1.0] and roots[:2].tolist() == [-1.0, 1.0]


@pytest.mark.parametrize("floor, reference", [
    (0.0, lambda x: np.maximum(x, 0.0)),  # _solve's resolvent root z
    (1.0, lambda x: np.maximum(1.0, x)),  # _home_stability's max(1, E(0))
], ids=["zero", "one"])
def test_where_clips_are_numpys_maximum(floor, reference):
    # A one-row clip picks with _where, on floats, where it took
    # np.maximum: -0.0 goes to +0.0, NaN stays, and an array gets the same
    # bits as from np.maximum.
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              -5e-324, 2.2250738585072014e-308, -1e-310, 0.5, 1.0, -1.0,
              math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e300]
    for v in values:
        clipped = singularity_module._where(v <= floor, floor, v)
        assert type(clipped) is float
        assert np.float64(clipped).tobytes() == reference(v).tobytes()
    x = np.array(values)
    assert (singularity_module._where(x <= floor, floor, x).tobytes()
            == reference(x).tobytes())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_seeds_on_one_root_leave_the_row_uncertified():
    # 4.7e-9 relative off the cubic surface h2 = 2 (h3 l1 + h1 l2) / (l1 + l2),
    # three of Ferrari's seeds polish onto t = 0.5852228617459859 while the
    # sure root count reads four, so only the duplicate test refuses the row.
    # Certified, it would give alpha_sing = 1.0589661852558363, a tripled
    # angle, in place of 1.0413169576611037.
    g = SegmentGeometry(0.17489992265343154, 0.5060108543652527,
                        0.31756687060130334, 0.4603205309405612,
                        0.380497598526677)
    row = quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)
    assert singularity_module._solve(row.tolist(), 4).count(
        0.5852228617459859) == 3
    oracle = np.array(conftest.oracle_real_roots(row))
    found, _, _, certified = singularity_module._row_roots(row.tolist())
    roots, _, _, batch_certified = (v[0] for v in quartic_real_roots(row))
    assert not certified and not batch_certified
    for mine in (np.array(found), roots[~np.isnan(roots)]):
        assert len(mine) == len(oracle)
        assert np.all(np.abs(mine - oracle) <= 1e-13 * (1.0 + np.abs(oracle)))
    assert singular_angles(g).alpha_sing == 1.0413169576611037


def test_certified_roots_match_oracle_across_magnitudes():
    # Dimensions spanning six decades give quartics whose roots span many
    # more; closed-form starting points lose digits there, so a certified
    # root must have converged to within 1e-13 (1 + |t|) of the 30-digit
    # roots of the same float coefficients.
    rng = np.random.default_rng(1)
    dims = np.exp(rng.uniform(math.log(1e-4), math.log(1e2), (400, 5)))
    coeffs = quartic_coefficients(*dims.T)
    all_roots, _, _, certified = quartic_real_roots(coeffs)
    assert certified.mean() >= 0.95
    for row, roots in zip(coeffs[certified], all_roots[certified]):
        oracle = conftest.oracle_real_roots(row)
        mine = roots[~np.isnan(roots)]
        assert len(mine) == len(oracle), (row, mine, oracle)
        assert np.all(np.abs(mine - oracle) <= 1e-13 * (1.0 + np.abs(oracle))), (
            row, mine, oracle)


def default_grid_chunk():
    """Quartic rows of the default-grid chunk that holds a fallback row (a
    triple root at lambda = 1) and ``h2 = 2 h1`` rows of degree 3."""
    h1, h2, l1, lam, index = default_grid_kernel_rows()
    target = np.flatnonzero((h1 == 0.2) & (h2 == 0.5) & (lam == 1.0)
                            & (np.abs(l1 - 0.15) < 1e-12))[0]
    rows = np.arange(len(index)) // _CHUNK == target // _CHUNK
    return quartic_coefficients(h1[rows], h2[rows], h1[rows], l1[rows],
                                lam[rows] * l1[rows])


def scaled_rows(dims):
    """Quartic rows of the dimension rows ``dims``, each scaled by a power of
    two as :func:`singular_angles` scales it."""
    return quartic_coefficients(
        *np.ldexp(dims, -np.frexp(dims.max(axis=1))[1][:, None]).T)


def assert_row_alone(row, roots, mults, degree, certified):
    """``_row_roots`` of the list ``row`` gives its batch row's bits, degree
    and certificate, and its roots are floats on both routes."""
    found, found_mults, found_degree, found_certified = (
        singularity_module._row_roots(row))
    assert np.array((found + [np.nan] * 4)[:4]).tobytes() == (
        roots.tobytes()), row
    assert (found_mults + [0] * 4)[:4] == mults.tolist(), row
    assert (found_degree, found_certified) == (degree, certified), row
    assert all(type(t) is float for t in found), row


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_rows_do_not_depend_on_the_batch():
    # Each row of the chunk gives the bits of its chunk row alone, as the
    # (5,) row that is a batch of one, and on floats through _row_roots.
    coeffs = default_grid_chunk()
    batch = quartic_real_roots(coeffs)
    roots, mults, degree, certified = batch
    assert {3, 4} <= set(degree.tolist())
    assert not certified.all()
    for k, row in enumerate(coeffs):
        one = [v[0] for v in quartic_real_roots(row)]
        assert one[3] == certified[k] and one[2] == degree[k]
        assert one[0].tobytes() == roots[k].tobytes()
        assert one[1].tobytes() == mults[k].tobytes()
        assert_row_alone(row.tolist(), *(v[k] for v in batch))
    # A column's invariants do not depend on the other columns: those of the
    # chunk, of a batch of one column, and of one column of floats.
    unit = coeffs.T / np.abs(coeffs).max()
    whole = [[v.tolist() for v in half]
             for half in singularity_module._invariants(unit)]
    for k in range(unit.shape[1]):
        alone = singularity_module._invariants(unit[:, k:k + 1])
        single = singularity_module._invariants(unit[:, k].tolist())
        for whole_half, alone_half, single_half in zip(whole, alone, single):
            assert len(whole_half) == len(alone_half) == len(single_half) == 4
            for j in range(4):
                assert whole_half[j][k] == alone_half[j][0] == single_half[j]


def exact_invariants(e, d, c, b, a):
    """``I``, ``J``, ``P``, ``D`` of ``a t^4 + ... + e`` in exact arithmetic."""
    e, d, c, b, a = map(Fraction, (e, d, c, b, a))
    return (c * c - 3 * b * d + 12 * a * e,
            2 * c**3 - 9 * b * c * d + 27 * b * b * e + 27 * a * d * d
            - 72 * a * c * e,
            8 * a * c - 3 * b * b,
            64 * a**3 * e - 16 * a * a * c * c + 16 * a * b * b * c
            - 16 * a * a * b * d - 3 * b**4)


# Magnitudes below 1; one below 2**-100 is 0, so that no product of four
# entries and a constant leaves the normal floats.
UNIT_ENTRY = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True).map(
    lambda x: 0.0 if abs(x) < 2.0**-100 else x)


@given(st.lists(UNIT_ENTRY, min_size=5, max_size=5))
@example([0.75, -0.5, 0.1, 0.3, -0.9])
@example([1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.0 - 2.0**-53,
          -(1.0 - 2.0**-53), 1.0 - 2.0**-53])  # every term of full size
@settings(max_examples=500, deadline=None)
def test_invariants_are_within_their_rounding_bound(row):
    # _real_root_count trusts an invariant's sign only beyond _INVARIANT_REL
    # times its size sum: each float invariant is within that of its exact
    # value, on floats and on a column of arrays alike.
    rel = singularity_module._INVARIANT_REL
    values, sizes = singularity_module._invariants(row)
    column = singularity_module._invariants(np.array(row)[:, None])
    for value, size, exact, (col_value, col_size) in zip(
            values, sizes, exact_invariants(*row), zip(*column)):
        assert abs(Fraction(value) - exact) <= rel * Fraction(size)
        assert (col_value[0], col_size[0]) == (value, size)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_row_fallback_equals_its_batch_row_on_seeded_designs():
    # A row alone finishes on floats: its sort, separation test, root count
    # and fallback must give the bits of its row in the batch, on every row
    # of the pinned sets that falls back (141 and 20).
    for coeffs, fallbacks in zip(seeded_quartic_sets(), (141, 20)):
        batch = quartic_real_roots(coeffs)
        failed = np.flatnonzero(~batch[3])
        assert len(failed) == fallbacks
        for i in failed.tolist():
            assert_row_alone(coeffs[i].tolist(), *(v[i] for v in batch))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_row_certified_rows_equal_their_batch_rows_on_seeded_designs():
    # A certified row alone runs its closed-form roots, Newton steps and
    # convergence tests on floats: a fixed sample of 2,000 certified rows of
    # each pinned set must give the bits of its row in the batch.
    rng = np.random.default_rng(25)
    for coeffs in seeded_quartic_sets():
        batch = quartic_real_roots(coeffs)
        sample = rng.choice(np.flatnonzero(batch[3]), 2_000, replace=False)
        for i in sample.tolist():
            assert_row_alone(coeffs[i].tolist(), *(v[i] for v in batch))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_row_roots_warn_nowhere_and_equal_their_batch_rows():
    # A row alone runs outside the batch's np.errstate, so no numpy call in
    # its path may warn (np.power(1 + |t|, 4) would, for an iterate beyond
    # 1e77).  The rows are scaled as singular_angles scales them: dimensions
    # log-uniform in 1e-300..1, designs where h2 = 1 dwarfs the rest (a poor
    # seed steps far out there), and designs a few parts in 1e7..1e14 off
    # h2 = 2 h1, each with one root beyond |t| = 1e6.
    rng = np.random.default_rng(26)
    wide = np.exp(rng.uniform(math.log(1e-300), 0.0, (600, 5)))
    tall = np.exp(rng.uniform(math.log(1e-300), math.log(1e-60), (200, 5)))
    tall[:, 1] = 1.0
    h1, _, l1, lam = design_box(rng, 200)
    off = 10.0 ** rng.uniform(-14.0, -7.0, 200) * rng.choice([-1.0, 1.0], 200)
    near = np.stack([h1, 2.0 * h1 * (1.0 + off), h1, l1, lam * l1], axis=1)
    coeffs = scaled_rows(np.concatenate([wide, tall, near]))
    batch = quartic_real_roots(coeffs)
    assert np.all(np.nanmax(abs(batch[0][-200:]), axis=1) > 1e6)
    for i, row in enumerate(coeffs.tolist()):
        assert_row_alone(row, *(v[i] for v in batch))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dims, route", [
    ((1.0, 1.0, 1.0, 1.0, 1.0), True),
    ((0.2, 0.5, 0.2, 0.15, 0.15), False),  # the default grid's triple root
], ids=["certified", "fallback"])
def test_one_row_returns_the_same_types_on_both_routes(dims, route):
    # A (5,) row is a batch of one on both routes, with the bits, degree and
    # certificate of the row alone.
    row = quartic_coefficients(*dims)
    one = quartic_real_roots(row)
    assert [(v.shape, v.dtype) for v in one] == [
        ((1, 4), np.float64), ((1, 4), np.int64), ((1,), np.int64),
        ((1,), np.bool_)]
    assert one[3][0] == route
    assert_row_alone(row.tolist(), *(v[0] for v in one))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_angles_equal_a_one_row_batch_across_magnitudes():
    # singular_angles runs its row root by root on Python floats; on the
    # log-uniform designs above (some of them uncertified), on seeded designs
    # of the sweep's box, and on designs with h2 = 2 h1 exactly (degree 3)
    # or a few ulp off it, it must give the bits of a batch of one, from the
    # same power-of-two scaled dimensions: each root t maps to 2 atan(t), and
    # pi comes with multiplicity 4 - degree.
    rng = np.random.default_rng(1)
    dims = [np.exp(rng.uniform(math.log(1e-4), math.log(1e2), (400, 5)))]
    h1, h2, l1, lam = design_box(rng, 200)
    dims.append(np.stack([h1, h2, h1, l1, lam * l1], axis=1))
    h1, _, l1, lam = design_box(rng, 90)
    ulps = np.repeat(np.arange(-4, 5), 10)  # ten designs per offset
    h2 = 2.0 * h1
    for step in range(1, 5):
        h2 = np.where(ulps >= step, np.nextafter(h2, 3.0), h2)
        h2 = np.where(ulps <= -step, np.nextafter(h2, 0.0), h2)
    dims.append(np.stack([h1, h2, h1, l1, lam * l1], axis=1))
    dims = np.concatenate(dims)
    degrees = []
    for g, row in zip(dims.tolist(), scaled_rows(dims)):
        roots, mults, degree, certified = (
            v[0] for v in quartic_real_roots(row))
        assert_row_alone(row.tolist(), roots, mults, degree, certified)
        at_pi = [math.pi] * int(degree < 4)
        degrees.append(int(degree))
        found = singular_angles(SegmentGeometry(*g))
        assert found.loop1 == tuple(
            (2.0 * np.arctan(roots[mults > 0])).tolist() + at_pi)
        assert found.multiplicities == tuple(
            mults[mults > 0].tolist() + [4 - int(degree)] * len(at_pi))
    # The ten designs with h2 = 2 h1 exactly are cubics.
    assert degrees[-50:-40] == [3] * 10


def oracle_roots(g):
    """Loop-1 singular angles of ``g`` found by mpmath at 30 digits.

    The quartic is formed exactly from the float dimensions.  Returns its
    real roots as ``(angle, tolerance)`` pairs, with ``pi`` once per
    vanishing leading term, and the angles of its complex roots within
    ``CLUSTER`` of the real axis.  The tolerance is how far a simple root
    moves when each coefficient changes by 1e-14 of its size.
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
                size = 1e-14 * mpmath.polyval([abs(x) for x in coeffs], abs(t))
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


def assert_condition_within_bound(g):
    found = singular_angles(g)
    bound = condition_bound(g)
    for sign, angles in ((1.0, found.loop1), (-1.0, found.loop2)):
        for angle in angles:
            value = tenseg.singularity_condition(g, sign * angle)
            assert abs(value) <= bound, (g, angle, value / bound)


GOLDEN = Path(__file__).parent / "golden"


def test_condition_at_singular_angles_is_within_its_stated_bound():
    # The four-term condition is rounding alone at every returned angle.
    # The expanded oracle breaks the bound on these log-uniform designs:
    # its h3**2 and l2**2 terms cancel only in exact arithmetic.
    designs = [SegmentGeometry(**json.loads(
        (path.parent / "config.json").read_text())["geometry"])
        for path in sorted(GOLDEN.glob("*/singularities.csv"))]
    rng = np.random.default_rng(97)
    designs += [random_geometry(rng) for _ in range(1000)]
    dims = np.exp(rng.uniform(math.log(1e-4), math.log(1e2), (1000, 5)))
    designs += [SegmentGeometry(*row.tolist()) for row in dims]
    for g in designs:
        assert_condition_within_bound(g)


@given(near_degenerate_designs())
@example(SegmentGeometry(h1=1.0, h2=2.0000000000002, h3=1.0, l1=1.0, l2=0.7))
@example(SegmentGeometry(h1=0.0, h2=2.0, h3=1e-09, l1=1.0, l2=1.000000000625))
@settings(max_examples=60, deadline=None)
def test_condition_near_degenerate_designs_is_within_its_stated_bound(g):
    # Near the half turn C - B is dropped only within its rounding, where the
    # condition at pi, C - B itself, is still inside the bound.  Near the flat
    # square a critical point of q with a maximum of 1.5e-15 (1.13 times the
    # bound) lies between two simple roots: it must not pass for a double root.
    assert_condition_within_bound(g)


@pytest.mark.parametrize("k", range(10, 16))
def test_near_half_turn_designs_meet_the_bound_with_no_extra_term(k):
    # h2 = 2 h1 (1 +- 10**-k) puts a root about 10**-k from pi.  Unless C - B
    # is rounding alone, the kernel must keep it and find that root: pi in
    # its place would leave a residual C - B, above the bound for k <= 14.
    for h1, l1, l2 in ((1.0, 1.0, 0.7), (0.3, 1.3, 0.45), (2.0, 0.6, 1.9)):
        for sign in (1.0, -1.0):
            g = SegmentGeometry(h1=h1, h2=2.0 * h1 * (1.0 + sign * 10.0**-k),
                                h3=h1, l1=l1, l2=l2)
            assert_condition_within_bound(g)


# ---------------------------------------------------------------------------
# theorem and scale


positive = st.floats(0.01, 100.0)


@given(st.tuples(st.floats(0.0, 100.0), positive, st.floats(0.0, 100.0),
                 positive, positive).filter(lambda d: d[0] + d[2] >= 0.01))
@settings(max_examples=200, deadline=None)
def test_every_non_flat_design_is_singular_inside_minus_quarter_turn(dims):
    # The condition is B + C < 0 at alpha = 0 and -A - C > 0 at -pi/2
    # whenever h1 + h3 > 0, so it crosses zero strictly in between.  (With
    # h1 + h3 near 1e-16 of the other dimensions, the crossing rounds to
    # -pi/2 itself, hence the floor on the drawn end links.)
    found = singular_angles(SegmentGeometry(*dims))
    assert any(-math.pi / 2 < a < 0.0 for a in found.loop1), found


def scaled(g, k):
    return SegmentGeometry(*(math.ldexp(v, k) for v in
                             (g.h1, g.h2, g.h3, g.l1, g.l2)))


def test_power_of_two_scaling_leaves_singular_angles_bitwise_unchanged():
    rng = np.random.default_rng(89)
    designs = [TANGENT, FLAT_SQUARE, HALF_TURN] + [
        random_geometry(rng) for _ in range(30)]
    for g in designs:
        for k in (-900, -40, -1, 1, 33, 900):
            assert singular_angles(scaled(g, k)) == singular_angles(g), (g, k)


@pytest.mark.parametrize("g", [
    SegmentGeometry(h1=1.0, h2=1.0, h3=1.0, l1=1e308, l2=1e308),
    SegmentGeometry(*[1e-300] * 5),
    SegmentGeometry(*[1e308] * 5),
], ids=["wide", "tiny", "huge"])
def test_extreme_scales_solve_the_unit_scaled_design(g):
    exponent = math.frexp(max(g.h1, g.h2, g.h3, g.l1, g.l2))[1]
    assert singular_angles(g) == singular_angles(scaled(g, -exponent))


# ---------------------------------------------------------------------------
# the quartic kernel's real roots on hand-picked and random polynomials of
# degree <= 4, fed as zero-padded ascending rows, and the half-angle quartic


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
