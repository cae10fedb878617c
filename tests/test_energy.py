"""Tests for spring energy, the energy integral and home-pose stability."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STABLE_FLAT, UNIT, UNSTABLE_TALL, random_geometry
from tenseg import (InvalidFraction, NoSingularity, SegmentGeometry,
                    SingularitySet, SpringParams, Stability, cable_lengths,
                    classify_home_stability, energy, energy_profile,
                    rest_length, singular_angles, total_energy)

# Platform half-width tuned (to machine precision) so the home-pose energy
# curvature of (h1=1, h2=1, h3=1, l1=1, l2=*) vanishes: the neutral boundary
# between the stable wide-platform and unstable narrow-platform designs.
NEUTRAL_L2 = 0.8993930742068083


def unit_springs(**kwargs):
    return SpringParams.for_geometry(UNIT, **kwargs)


# ---------------------------------------------------------------------------
# rest length and spring parameters


def test_rest_length_unit_geometry():
    assert rest_length(UNIT, 0.4) == pytest.approx(1.2, abs=1e-14)


def test_rest_length_flat_geometry():
    assert rest_length(STABLE_FLAT, 0.4) == pytest.approx(0.4, abs=1e-14)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.7, float("nan")])
def test_rest_length_rejects_fraction_outside_open_interval(fraction):
    with pytest.raises(InvalidFraction):
        rest_length(UNIT, fraction)


def test_spring_params_for_geometry():
    springs = unit_springs()
    assert springs.l0 == pytest.approx(1.2)
    assert springs.k1 == 1.0 and springs.k2 == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(k1=0.0), dict(k2=-1.0), dict(rest_fraction=1.0),
])
def test_spring_params_validation(kwargs):
    with pytest.raises(ValueError):
        unit_springs(**kwargs)


# ---------------------------------------------------------------------------
# energy


def test_energy_home_value():
    # Both cables have length 3, stretched from rest length 1.2.
    assert energy(UNIT, unit_springs(), 0.0) == pytest.approx(3.24, abs=1e-12)


def test_energy_is_even_for_equal_stiffnesses():
    springs = unit_springs()
    for alpha in np.linspace(0.0, 3.0, 31):
        assert energy(UNIT, springs, alpha) == pytest.approx(
            energy(UNIT, springs, -alpha), rel=1e-10)


def test_energy_nonnegative_everywhere():
    rng = np.random.default_rng(83)
    alphas = np.linspace(-math.pi, math.pi, 721)
    for _ in range(25):
        g = random_geometry(rng)
        springs = SpringParams.for_geometry(g)
        assert np.all(energy(g, springs, alphas) >= 0.0)


def test_energy_vectorized_matches_scalar():
    springs = unit_springs()
    alphas = np.linspace(-1.0, 1.0, 11)
    values = energy(UNIT, springs, alphas)
    for i, alpha in enumerate(alphas):
        assert values[i] == energy(UNIT, springs, float(alpha))


def test_first_cable_is_stationary_at_its_singular_angles():
    # At a loop-1 singular angle the first cable length has zero derivative,
    # so that term contributes nothing to dE/dalpha.
    rng = np.random.default_rng(89)
    step = 1e-6
    for _ in range(20):
        g = random_geometry(rng)
        for angle in singular_angles(g).loop1:
            plus, _ = cable_lengths(g, angle + step)
            minus, _ = cable_lengths(g, angle - step)
            assert abs(plus - minus) / (2.0 * step) < 1e-5


# ---------------------------------------------------------------------------
# energy profile


def test_profile_spans_singularity_range_by_default():
    profile = energy_profile(UNIT, unit_springs())
    assert profile.alpha_range[0] == pytest.approx(-math.pi / 4, abs=1e-9)
    assert profile.alpha_range[1] == pytest.approx(math.pi / 4, abs=1e-9)
    assert len(profile.alphas) == 101 == len(profile.energies)


def test_profile_minimum_at_home_for_stable_design():
    springs = SpringParams.for_geometry(STABLE_FLAT)
    profile = energy_profile(STABLE_FLAT, springs, n=101)
    assert int(np.argmin(profile.energies)) == 50


def test_profile_maximum_at_home_for_unstable_design():
    springs = SpringParams.for_geometry(UNSTABLE_TALL)
    profile = energy_profile(UNSTABLE_TALL, springs, n=101)
    center = profile.energies[50]
    assert center > profile.energies[49] and center > profile.energies[51]


def test_profile_endpoints_symmetric():
    profile = energy_profile(UNIT, unit_springs(), n=3)
    assert profile.energies[0] == pytest.approx(profile.energies[2], rel=1e-12)


def test_profile_explicit_range():
    profile = energy_profile(UNIT, unit_springs(), n=7, alpha_range=(-1.0, 2.0))
    assert profile.alphas[0] == -1.0 and profile.alphas[-1] == 2.0
    assert len(profile.alphas) == 7


def test_profile_requires_singularity_or_range(monkeypatch):
    energy_module = importlib.import_module("tenseg.energy")
    monkeypatch.setattr(energy_module, "singular_angles",
                        lambda g: SingularitySet((), (), (), None))
    with pytest.raises(NoSingularity):
        energy_profile(UNIT, unit_springs())
    profile = energy_profile(UNIT, unit_springs(), alpha_range=(-1.0, 1.0))
    assert len(profile.alphas) == 101


def test_profile_rejects_bad_inputs():
    with pytest.raises(ValueError):
        energy_profile(UNIT, unit_springs(), n=1)
    with pytest.raises(ValueError):
        energy_profile(UNIT, unit_springs(), alpha_range=(1.0, 1.0))


# ---------------------------------------------------------------------------
# total energy


def test_total_energy_matches_dense_trapezoid_oracle():
    rng = np.random.default_rng(97)
    for _ in range(5):
        g = random_geometry(rng)
        springs = SpringParams.for_geometry(g)
        alpha_sing = singular_angles(g).alpha_sing
        alphas = np.linspace(-alpha_sing, alpha_sing, 1_000_001)
        oracle = np.trapezoid(energy(g, springs, alphas), alphas)
        assert total_energy(g, springs) == pytest.approx(oracle, rel=1e-6)


def test_total_energy_unit_value_pinned():
    assert total_energy(UNIT, unit_springs()) == pytest.approx(
        5.2146463102, abs=1e-9)


def test_total_energy_nonnegative():
    rng = np.random.default_rng(101)
    for _ in range(10):
        g = random_geometry(rng)
        assert total_energy(g, SpringParams.for_geometry(g)) >= 0.0


def test_total_energy_linear_in_stiffness():
    base = total_energy(UNIT, unit_springs())
    doubled = total_energy(UNIT, unit_springs(k1=2.0, k2=2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_total_energy_accepts_precomputed_range():
    springs = unit_springs()
    assert total_energy(UNIT, springs, alpha_sing=math.pi / 4) == pytest.approx(
        total_energy(UNIT, springs), rel=1e-12)
    assert total_energy(UNIT, springs, alpha_sing=0.0) == 0.0


@pytest.mark.parametrize("alpha_sing", [-0.5, math.nan, math.inf])
def test_total_energy_rejects_invalid_alpha_sing(alpha_sing):
    # A non-finite range used to run the Simpson rule to its panel limit and
    # return NaN.
    with pytest.raises(ValueError, match="alpha_sing"):
        total_energy(UNIT, unit_springs(), alpha_sing=alpha_sing)


def test_total_energy_requires_singularity(monkeypatch):
    energy_module = importlib.import_module("tenseg.energy")
    monkeypatch.setattr(energy_module, "singular_angles",
                        lambda g: SingularitySet((), (), (), None))
    with pytest.raises(NoSingularity):
        total_energy(UNIT, unit_springs())


# ---------------------------------------------------------------------------
# stability classification


def test_flat_design_is_stable_with_known_curvature():
    # Near home the cable lengths are 1 -+ 2 alpha + O(alpha^3), so
    # E = 0.36 + 4 alpha^2 + O(alpha^4): curvature exactly 8.
    springs = SpringParams.for_geometry(STABLE_FLAT)
    assert energy(STABLE_FLAT, springs, 0.0) == pytest.approx(0.36, abs=1e-12)
    verdict = classify_home_stability(STABLE_FLAT, springs)
    assert verdict.stability is Stability.STABLE
    assert verdict.curvature == pytest.approx(8.0, abs=1e-5)


def test_narrow_platform_design_is_unstable():
    verdict = classify_home_stability(
        UNSTABLE_TALL, SpringParams.for_geometry(UNSTABLE_TALL))
    assert verdict.stability is Stability.UNSTABLE
    assert verdict.curvature < 0.0


def test_unit_geometry_is_stable():
    verdict = classify_home_stability(UNIT, unit_springs())
    assert verdict.stability is Stability.STABLE
    assert verdict.curvature == pytest.approx(0.8, abs=1e-5)


def test_neutral_design_on_the_stability_boundary():
    g = SegmentGeometry(h1=1.0, h2=1.0, h3=1.0, l1=1.0, l2=NEUTRAL_L2)
    verdict = classify_home_stability(g, SpringParams.for_geometry(g))
    assert verdict.stability is Stability.NEUTRAL
    assert abs(verdict.curvature) <= verdict.threshold


def test_threshold_scales_with_home_energy():
    verdict = classify_home_stability(UNIT, unit_springs())
    e0 = energy(UNIT, unit_springs(), 0.0)
    assert verdict.threshold == pytest.approx(1e-7 * max(1.0, e0))


def test_classification_invariant_under_stiffness_scaling():
    rng = np.random.default_rng(103)
    for _ in range(20):
        g = random_geometry(rng)
        base = classify_home_stability(g, SpringParams.for_geometry(g))
        scaled = classify_home_stability(
            g, SpringParams.for_geometry(g, k1=10.0, k2=10.0))
        assert scaled.stability is base.stability
        assert scaled.curvature == pytest.approx(10.0 * base.curvature,
                                                 rel=1e-6, abs=1e-9)


def test_energy_scales_with_square_of_uniform_scaling():
    # Scaling every length by s scales both cables and the rest length by s,
    # so every energy (and the home curvature) scales by s**2 while the
    # verdict, like alpha_sing, does not change.
    rng = np.random.default_rng(79)
    for _ in range(30):
        g = random_geometry(rng)
        scaled = SegmentGeometry(h1=10 * g.h1, h2=10 * g.h2, h3=10 * g.h3,
                                 l1=10 * g.l1, l2=10 * g.l2)
        springs = SpringParams.for_geometry(g)
        scaled_springs = SpringParams.for_geometry(scaled)
        alpha = singular_angles(g).alpha_sing
        assert total_energy(scaled, scaled_springs, alpha_sing=alpha) == (
            pytest.approx(100.0 * total_energy(g, springs, alpha_sing=alpha),
                          rel=1e-9))
        step = energy(g, springs, alpha) - energy(g, springs, 0.0)
        scaled_step = (energy(scaled, scaled_springs, alpha)
                       - energy(scaled, scaled_springs, 0.0))
        assert scaled_step == pytest.approx(100.0 * step, rel=1e-9)
        base = classify_home_stability(g, springs)
        big = classify_home_stability(scaled, scaled_springs)
        assert big.stability is base.stability
        # The curvature is a second difference at step 1e-4, good to ~1e-6.
        assert big.curvature == pytest.approx(100.0 * base.curvature,
                                              rel=1e-5)


@given(st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_rest_length_linear_in_fraction(fraction):
    assert rest_length(UNIT, fraction) == pytest.approx(3.0 * fraction,
                                                        rel=1e-12)
