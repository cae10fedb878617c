"""Tests for the segment geometry model, cable kinematics and stack composition."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (EPS, STABLE_FLAT, UNIT, cable_lengths_squared,
                      random_angle, random_geometry)
from tenseg import (DesignBounds, DesignRecord, EnergyProfile, Frame2D,
                    InvalidFraction, InvalidGeometry, InvalidRatio,
                    OptimizationReport, SegmentGeometry, SegmentPose,
                    SegmentState, SingularitySet, SpringParams, Stability, StabilityClass, StackConfig, cable_lengths,
                    energy, normalize_angle, segment_points, singularity_condition,
                    stack_forward, tapered_stack, validate_geometry)

# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_unit_geometry():
    g = validate_geometry(UNIT)
    assert (g.h1, g.h2, g.h3, g.l1, g.l2) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_validate_accepts_flat_end_links():
    g = validate_geometry(STABLE_FLAT)
    assert g.h1 == 0.0 and g.h3 == 0.0


@pytest.mark.parametrize("kwargs, field", [
    (dict(h1=1, h2=0, h3=1, l1=1, l2=1), "h2"),
    (dict(h1=-1, h2=1, h3=1, l1=1, l2=1), "h1"),
    (dict(h1=1, h2=1, h3=-0.5, l1=1, l2=1), "h3"),
    (dict(h1=1, h2=1, h3=1, l1=0, l2=1), "l1"),
    (dict(h1=1, h2=1, h3=1, l1=1, l2=-2), "l2"),
    (dict(h1=1, h2=float("nan"), h3=1, l1=1, l2=1), "h2"),
])
def test_invalid_geometry_names_the_field(kwargs, field):
    with pytest.raises(InvalidGeometry) as excinfo:
        SegmentGeometry(**kwargs)
    assert excinfo.value.field == field


def test_taper_ratio_property():
    assert SegmentGeometry(h1=1, h2=1, h3=1, l1=2.0, l2=1.0).lam == 0.5


# ---------------------------------------------------------------------------
# angle normalization


@pytest.mark.parametrize("angle, expected", [
    (0.0, 0.0),
    (math.pi, math.pi),
    (-math.pi, math.pi),
    (3 * math.pi, math.pi),
    (2 * math.pi, 0.0),
    (5 * math.pi / 2, math.pi / 2),
    (-math.pi / 3, -math.pi / 3),
])
def test_normalize_angle(angle, expected):
    assert normalize_angle(angle) == pytest.approx(expected, abs=1e-12)


@given(st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_normalize_angle_range_and_idempotence(angle):
    wrapped = normalize_angle(angle)
    assert -math.pi < wrapped <= math.pi
    assert normalize_angle(wrapped) == wrapped
    # Same point on the circle.
    assert math.cos(wrapped) == pytest.approx(math.cos(angle), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(angle), abs=1e-9)


def test_segment_state_normalizes():
    assert SegmentState(3 * math.pi).alpha == pytest.approx(math.pi)
    assert SegmentState(-math.pi).alpha == math.pi
    assert SegmentState(0.3).alpha == 0.3


# Designs with flat, equal and free end links, spanning random_geometry's
# ranges, and angles with the signed zeros, the quarter turns and the half
# turns among them.
DIMENSIONS = dict(h1=st.floats(0.0, 2.0), h2=st.floats(1e-3, 2.5),
                  h3=st.floats(0.0, 2.0), l1=st.floats(1e-3, 4.5),
                  l2=st.floats(1e-3, 4.5),
                  ends=st.sampled_from(["flat", "equal", "free"]))
ANGLES = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2,
                                    math.pi, -math.pi]),
                   st.floats(-math.pi, math.pi))


def design(h1, h2, h3, l1, l2, ends):
    h1, h3 = {"flat": (0.0, 0.0), "equal": (h1, h1), "free": (h1, h3)}[ends]
    return SegmentGeometry(h1, h2, h3, l1, l2)


def hexes(values):
    """Each value's bits, the sign of a zero included."""
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# segment points


def test_segment_points_home_configuration():
    pose = segment_points(UNIT, SegmentState(0.0))
    assert pose.a1 == pytest.approx([-1.0, 0.0])
    assert pose.a2 == pytest.approx([1.0, 0.0])
    assert pose.b0 == pytest.approx([0.0, 1.0])
    assert pose.c0 == pytest.approx([0.0, 2.0])
    assert pose.d0 == pytest.approx([0.0, 3.0])
    assert pose.d1 == pytest.approx([-1.0, 3.0])
    assert pose.d2 == pytest.approx([1.0, 3.0])


def test_segment_points_quarter_turn():
    pose = segment_points(UNIT, SegmentState(math.pi / 2))
    assert pose.c0 == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert pose.d0 == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_segment_points_flat_attachments():
    pose = segment_points(STABLE_FLAT, SegmentState(0.0))
    assert pose.d0 == pytest.approx([0.0, 1.0])
    assert pose.d1 == pytest.approx([-1.0, 1.0])


def test_pose_point_ordering():
    pose = segment_points(UNIT, SegmentState(0.1))
    names = [name for name, _ in pose.points()]
    assert names == ["a1", "a2", "b0", "c0", "d0", "d1", "d2"]


@given(**DIMENSIONS, alpha=ANGLES)
@settings(max_examples=500, deadline=None)
def test_segment_points_match_the_spine_oracle(alpha, **dims):
    g = design(**dims)
    state = SegmentState(alpha)
    c0, d0, (cos_2a, sin_2a) = conftest.spine(g, state.alpha)
    plate = (g.l2 * cos_2a, g.l2 * sin_2a)
    expected = [(-g.l1, 0.0), (g.l1, 0.0), (0.0, g.h1), c0, d0,
                (d0[0] - plate[0], d0[1] - plate[1]),
                (d0[0] + plate[0], d0[1] + plate[1])]
    points = segment_points(g, state).points()
    assert [hexes(p) for _, p in points] == [hexes(p) for p in expected]


def test_spine_link_distances_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        g = random_geometry(rng)
        pose = segment_points(g, SegmentState(random_angle(rng)))
        scale = max(g.h1, g.h2, g.h3, g.l1, g.l2)
        tol = 1e-12 * scale
        assert np.hypot(*pose.b0) == pytest.approx(g.h1, abs=tol)
        assert np.hypot(*(pose.c0 - pose.b0)) == pytest.approx(g.h2, abs=tol)
        assert np.hypot(*(pose.d0 - pose.c0)) == pytest.approx(g.h3, abs=tol)
        assert np.hypot(*(pose.d1 - pose.d0)) == pytest.approx(g.l2, abs=tol)
        assert np.hypot(*(pose.d2 - pose.d0)) == pytest.approx(g.l2, abs=tol)
        assert pose.a1 == pytest.approx([-g.l1, 0.0])
        assert pose.a2 == pytest.approx([g.l1, 0.0])


# ---------------------------------------------------------------------------
# cable lengths


def test_cable_lengths_home_configuration():
    rho1, rho2 = cable_lengths(UNIT, 0.0)
    assert rho1 == pytest.approx(3.0, abs=1e-14)
    assert rho2 == pytest.approx(3.0, abs=1e-14)


def test_cable_lengths_accepts_state():
    assert cable_lengths(UNIT, SegmentState(0.3)) == cable_lengths(UNIT, 0.3)


@given(**DIMENSIONS, alpha=ANGLES)
@settings(max_examples=1000, deadline=None)
def test_cable_lengths_match_point_distances(alpha, **dims):
    # The pose's d1, d2 and the cables come from the one spine sum
    # (geometry._plate) on the same sin and cos; the pose adds + 0.0 to d0x,
    # which changes only the sign of a zero, and + l1 removes that.
    g = design(**dims)
    state = SegmentState(alpha)
    pose = segment_points(g, state)
    rho1, rho2 = cable_lengths(g, state)
    assert np.hypot(*(pose.d1 - pose.a1)).hex() == float(rho1).hex()
    assert np.hypot(*(pose.d2 - pose.a2)).hex() == float(rho2).hex()


def test_cable_lengths_match_expanded_squares():
    # Two independent code paths: point construction vs expanded polynomials.
    rng = np.random.default_rng(13)
    for _ in range(1000):
        g = random_geometry(rng)
        alpha = random_angle(rng)
        rho1, rho2 = cable_lengths(g, alpha)
        sq1, sq2 = cable_lengths_squared(g, alpha)
        assert rho1 * rho1 == pytest.approx(sq1, rel=1e-12)
        assert rho2 * rho2 == pytest.approx(sq2, rel=1e-12)


def test_cable_length_mirror_symmetry():
    # Bit for bit, for a scalar and an array angle: at -alpha sin and each
    # sum in a cable's first coordinate change sign exactly.
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = random_geometry(rng)
        alpha = random_angle(rng)
        rho1_pos, rho2_pos = cable_lengths(g, alpha)
        rho1_neg, rho2_neg = cable_lengths(g, -alpha)
        assert rho1_pos == rho2_neg and rho2_pos == rho1_neg
        alphas = rng.uniform(-math.pi, math.pi, 64)
        rho1_pos, rho2_pos = cable_lengths(g, alphas)
        rho1_neg, rho2_neg = cable_lengths(g, -alphas)
        assert np.array_equal(rho1_pos, rho2_neg)
        assert np.array_equal(rho2_pos, rho1_neg)


UNIT_DIMENSIONS = dict(h1=1.0, h2=1.0, h3=1.0, l1=1.0, l2=1.0, ends="free")


@given(**DIMENSIONS, alphas=st.lists(ANGLES, min_size=1, max_size=8))
@example(alphas=np.linspace(-3.0, 3.0, 25).tolist(), **UNIT_DIMENSIONS)
@example(alphas=np.linspace(-3.0, 3.0, 17).tolist(), **UNIT_DIMENSIONS)
@settings(max_examples=500, deadline=None)
def test_one_row_float_calls_match_the_array_call(alphas, **dims):
    # A float angle takes math's sin and cos, an array numpy's: the ik
    # table, energy_at_zero and energy_at_sing rest on their agreement.
    g = design(**dims)
    springs = SpringParams()
    array = np.array(alphas)
    rho1, rho2 = cable_lengths(g, array)
    condition = singularity_condition(g, array)
    energies = energy(g, springs, array)
    for i, alpha in enumerate(alphas):
        assert hexes(cable_lengths(g, alpha)) == hexes((rho1[i], rho2[i]))
        assert hexes([singularity_condition(g, alpha)]) == hexes([condition[i]])
        assert hexes([energy(g, springs, alpha)]) == hexes([energies[i]])


@pytest.mark.parametrize("alpha", [
    [0.3, -1.0, 0.0], [[0.3], [-0.0]], (2.5,), 1, 0, 0.3, -0.0,
    np.float64(0.3), np.array(0.3), np.array(-2),
    np.array([0.3, -1.0, math.pi]), np.arange(-3, 3)],
    ids=["list", "nested-list", "tuple", "int", "int-zero", "float",
         "float-minus-zero", "float64", "0d-float", "0d-int", "ndarray",
         "int-ndarray"])
def test_angle_inputs_of_every_form(alpha):
    # Each form gives the shape and bits of the same angles as a float array.
    g = SegmentGeometry(0.5, 1.2, 0.5, 1.0, 0.7)
    springs = SpringParams()
    array = np.asarray(alpha, dtype=float)
    for call in (lambda a: cable_lengths(g, a),
                 lambda a: singularity_condition(g, a),
                 lambda a: energy(g, springs, a)):
        got, want = np.asarray(call(alpha)), np.asarray(call(array))
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(h1=st.floats(0.0, 1.0), h2=st.floats(1e-3, 2.0), h3=st.floats(0.0, 1.0),
       l1=st.floats(1e-3, 4.5), lam=st.floats(0.05, 1.0),
       ends=st.sampled_from(["flat", "equal", "free"]),
       exponent=st.integers(-300, 300))
@settings(max_examples=500, deadline=None)
def test_home_length_is_the_cable_length_at_home(h1, h2, h3, l1, lam, ends,
                                                 exponent):
    # The one closed form behind every rest length.  At alpha = 0, sin 0 = 0
    # and cos 0 = 1 exactly, so the point construction reduces to it bit for
    # bit, for flat designs, for h3 = h1 as in the sweep, and at every scale.
    from tenseg.geometry import _home_length

    h1, h3 = {"flat": (0.0, 0.0), "equal": (h1, h1), "free": (h1, h3)}[ends]
    scale = 10.0 ** exponent
    g = SegmentGeometry(*(scale * v for v in (h1, h2, h3, l1, lam * l1)))
    home = _home_length(g.h1, g.h2, g.h3, g.l1, g.l2)
    assert home == cable_lengths(g, 0.0)[0] == cable_lengths(g, 0.0)[1]


@given(st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_mirror_symmetry_is_exact_for_unit_geometry(alpha):
    rho1, rho2 = cable_lengths(UNIT, alpha)
    rho1m, rho2m = cable_lengths(UNIT, -alpha)
    assert rho1 == rho2m and rho2 == rho1m


# ---------------------------------------------------------------------------
# singularity condition


@pytest.mark.parametrize("alpha", [-math.pi / 4, 3 * math.pi / 4])
def test_condition_vanishes_at_known_unit_angles(alpha):
    assert abs(singularity_condition(UNIT, alpha)) < 1e-9


def test_condition_matches_derivative_of_squared_length():
    rng = np.random.default_rng(19)
    step = 1e-6
    for _ in range(100):
        g = random_geometry(rng)
        alpha = random_angle(rng)
        plus, _ = cable_lengths_squared(g, alpha + step)
        minus, _ = cable_lengths_squared(g, alpha - step)
        derivative = (plus - minus) / (2.0 * step)
        value = singularity_condition(g, alpha)
        assert value == pytest.approx(derivative, rel=1e-6, abs=1e-6)


positive = st.floats(1e-3, 1e3)


@given(st.tuples(positive, positive, positive, positive, positive),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_condition_agrees_with_the_expanded_oracle(dims, alphas):
    # The oracle's terms have magnitudes summing to at most `size`; each
    # takes under 10 roundings and their sum 17 more, so the oracle is good
    # to 27 eps size, and the four-term form to 8 eps (|A|+|B|+|C|+|D|),
    # which is below 8 eps size.
    g = SegmentGeometry(*dims)
    h1, h2, h3, l1, l2 = dims
    size = (24.0 * (h3 * h3 + l2 * l2) + 10.0 * h2 * h3
            + 8.0 * (h3 * l1 + h1 * l2 + l1 * l2 + h1 * h3)
            + 2.0 * h2 * (h1 + l1 + l2))
    tolerance = 35.0 * EPS * size
    oracle = conftest.singularity_condition(g, np.array(alphas))
    values = singularity_condition(g, np.array(alphas))
    assert np.all(np.abs(values - oracle) <= tolerance)
    for alpha, expected in zip(alphas, oracle):
        assert abs(singularity_condition(g, alpha) - expected) <= tolerance


# ---------------------------------------------------------------------------
# tapered stack


def test_tapered_stack_uniform():
    stack = tapered_stack(UNIT, 1.0, (0.0, 0.0, 0.0))
    assert len(stack.segments) == 3
    for segment in stack.segments:
        assert segment == UNIT


def test_tapered_stack_geometric_scaling():
    stack = tapered_stack(UNIT, 0.5, (0.1, 0.2, 0.3))
    a, b, c = stack.segments
    assert c.h2 == pytest.approx(0.25)
    assert c.l1 == pytest.approx(0.25)
    for upper, lower in ((b, a), (c, b)):
        for field in ("h1", "h2", "h3", "l1", "l2"):
            assert getattr(upper, field) == pytest.approx(
                0.5 * getattr(lower, field), rel=1e-15)
    assert [s.alpha for s in stack.states] == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5])
def test_tapered_stack_rejects_bad_ratio(lam):
    with pytest.raises(InvalidRatio):
        tapered_stack(UNIT, lam, (0.0, 0.0, 0.0))


def test_tapered_stack_accepts_states():
    states = (SegmentState(0.1), SegmentState(0.2), SegmentState(0.3))
    stack = tapered_stack(UNIT, 0.8, states)
    assert [s.alpha for s in stack.states] == [0.1, 0.2, 0.3]


def test_stack_requires_three_segments():
    with pytest.raises(ValueError):
        StackConfig(segments=(UNIT, UNIT), states=(SegmentState(0.0),) * 2)


# ---------------------------------------------------------------------------
# stack forward kinematics


def test_stack_forward_straight_uniform():
    frames = stack_forward(tapered_stack(UNIT, 1.0, (0.0, 0.0, 0.0)))
    origins = [tuple(f.origin) for f in frames]
    assert origins == pytest.approx([(0.0, 3.0), (0.0, 6.0), (0.0, 9.0)])
    assert [f.theta for f in frames] == [0.0, 0.0, 0.0]


def test_stack_forward_straight_tapered():
    frames = stack_forward(tapered_stack(UNIT, 0.5, (0.0, 0.0, 0.0)))
    origins = [tuple(f.origin) for f in frames]
    assert origins == pytest.approx([(0.0, 3.0), (0.0, 4.5), (0.0, 5.25)])


def test_stack_forward_orientation_composition():
    frames = stack_forward(tapered_stack(UNIT, 1.0, (0.3, 0.0, 0.0)))
    assert [f.theta for f in frames] == pytest.approx([0.6, 0.6, 0.6])

    frames = stack_forward(tapered_stack(UNIT, 0.7, (0.1, 0.2, 0.3)))
    assert [f.theta for f in frames] == pytest.approx([0.2, 0.6, 1.2])


def test_stack_forward_orientation_normalized():
    frames = stack_forward(tapered_stack(UNIT, 1.0, (2.0, 2.0, 2.0)))
    expected = [normalize_angle(4.0), normalize_angle(8.0), normalize_angle(12.0)]
    assert [f.theta for f in frames] == pytest.approx(expected)
    for frame in frames:
        assert -math.pi < frame.theta <= math.pi


@given(**DIMENSIONS, lam=st.floats(1e-3, 1.0),
       alphas=st.tuples(ANGLES, ANGLES, ANGLES))
@settings(max_examples=500, deadline=None)
def test_stack_forward_matches_the_spine_oracle(lam, alphas, **dims):
    config = tapered_stack(design(**dims), lam, alphas)
    x = y = theta = 0.0
    expected = []
    for g, state in zip(config.segments, config.states):
        _, (dx, dy), _ = conftest.spine(g, state.alpha)
        assert hexes(segment_points(g, state).d0) == hexes((dx, dy))
        c, s = math.cos(theta), math.sin(theta)
        x, y = x + (c * dx - s * dy), y + (s * dx + c * dy)
        theta = normalize_angle(theta + 2.0 * state.alpha)
        expected.append(hexes((x, y, theta)))
    frames = stack_forward(config)
    assert [hexes((*f.origin, f.theta)) for f in frames] == expected


def test_stack_forward_composes_rigidly():
    # Independent composition with complex rotations.
    lam, alphas = 0.6, (0.25, -0.4, 0.55)
    frames = stack_forward(tapered_stack(UNIT, lam, alphas))
    position, heading = 0.0 + 0.0j, 0.0
    for level, alpha in enumerate(alphas):
        g = SegmentGeometry(*(lam ** level * v for v in (1.0, 1.0, 1.0, 1.0, 1.0)))
        pose = segment_points(g, SegmentState(alpha))
        d0 = complex(pose.d0[0], pose.d0[1])
        position += d0 * complex(math.cos(heading), math.sin(heading))
        heading += 2.0 * alpha
        frame = frames[level]
        assert frame.origin[0] == pytest.approx(position.real, abs=1e-12)
        assert frame.origin[1] == pytest.approx(position.imag, abs=1e-12)
        assert frame.theta == pytest.approx(normalize_angle(heading))


# ---------------------------------------------------------------------------
# the record contract, shared by every immutable record of the package

VEC = np.array([0.0, 1.0])
GEOMETRY = SegmentGeometry(0.5, 1.0, 0.5, 1.0, 0.5)
WRAPPED = SegmentState(alpha=4.0)
DESIGN = DesignRecord((0.1, 0.2, 0.1, 1.0, 0.5), 0.5, True, 1.0, 2.0, 0.5,
                      1.5, Stability.STABLE, 0.25)
# Each record with its repr, as the frozen dataclasses they replace wrote it.
RECORDS = [
    (GEOMETRY, "SegmentGeometry(h1=0.5, h2=1.0, h3=0.5, l1=1.0, l2=0.5)"),
    (WRAPPED, "SegmentState(alpha=-2.2831853071795862)"),
    (SegmentPose(VEC, VEC, VEC, VEC, VEC, VEC, VEC),
     "SegmentPose(a1=array([0., 1.]), a2=array([0., 1.]), "
     "b0=array([0., 1.]), c0=array([0., 1.]), d0=array([0., 1.]), "
     "d1=array([0., 1.]), d2=array([0., 1.]))"),
    (Frame2D(VEC, 0.25), "Frame2D(origin=array([0., 1.]), theta=0.25)"),
    (StackConfig((GEOMETRY,) * 3, (WRAPPED,) * 3),
     "StackConfig(segments=("
     + ", ".join(["SegmentGeometry(h1=0.5, h2=1.0, h3=0.5, l1=1.0, l2=0.5)"]
                 * 3)
     + "), states=("
     + ", ".join(["SegmentState(alpha=-2.2831853071795862)"] * 3) + "))"),
    (SingularitySet((-1.0, 1.0), (-1.0, 1.0), (1, 1), 1.0),
     "SingularitySet(loop1=(-1.0, 1.0), loop2=(-1.0, 1.0), "
     "multiplicities=(1, 1), alpha_sing=1.0)"),
    (SpringParams(1.0, 2.0, 0.4),
     "SpringParams(k1=1.0, k2=2.0, rest_fraction=0.4)"),
    (EnergyProfile(VEC, VEC, (-1.0, 1.0)),
     "EnergyProfile(alphas=array([0., 1.]), energies=array([0., 1.]), "
     "alpha_range=(-1.0, 1.0))"),
    (StabilityClass(Stability.STABLE, 0.5, 1e-9),
     "StabilityClass(stability=<Stability.STABLE: 'Stable'>, curvature=0.5, "
     "threshold=1e-09)"),
    (DesignBounds(),
     "DesignBounds(h1_res=11, h2_res=21, l1_res=45, lambda_res=20)"),
    (DESIGN,
     "DesignRecord(x=(0.1, 0.2, 0.1, 1.0, 0.5), l2=0.5, feasible=True, "
     "alpha_sing=1.0, total_energy=2.0, energy_at_zero=0.5, "
     "energy_at_sing=1.5, stability=<Stability.STABLE: 'Stable'>, "
     "curvature=0.25)"),
    (OptimizationReport(DesignBounds(), SpringParams(), (DESIGN,),
                        ((0.5, 1.0, 0.5),), ((0.5, 2.0),), 1.0, 10, 8),
     "OptimizationReport(bounds=DesignBounds(h1_res=11, h2_res=21, "
     "l1_res=45, lambda_res=20), springs=SpringParams(k1=1.0, k2=1.0, "
     "rest_fraction=0.4), best=(DesignRecord(x=(0.1, 0.2, 0.1, 1.0, 0.5), "
     "l2=0.5, feasible=True, alpha_sing=1.0, total_energy=2.0, "
     "energy_at_zero=0.5, energy_at_sing=1.5, "
     "stability=<Stability.STABLE: 'Stable'>, curvature=0.25),), "
     "lambda_curve=((0.5, 1.0, 0.5),), energy_curve=((0.5, 2.0),), "
     "max_alpha_sing=1.0, n_designs=10, n_feasible=8)"),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]
# Records whose fields are all hashable.
HASHABLE = [r for r, _ in RECORDS
            if not isinstance(r, (SegmentPose, Frame2D, EnergyProfile))]


def fields_of(record):
    return tuple(record.__dict__.values())


def test_records_cover_every_record_type():
    assert len(set(RECORD_IDS)) == 12


@pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
def test_record_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=RECORD_IDS)
def test_record_positional_and_keyword_construction_agree(record, _):
    cls, values = type(record), fields_of(record)
    names = tuple(record.__dict__)
    by_keyword = cls(**dict(zip(names, values)))
    by_position = cls(*values)
    assert repr(by_keyword) == repr(by_position) == repr(record)
    assert tuple(by_keyword.__dict__) == names
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)


@pytest.mark.parametrize("record, _", RECORDS, ids=RECORD_IDS)
def test_record_fields_can_be_neither_set_nor_deleted(record, _):
    name = next(iter(record.__dict__))
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert repr(record) == before


@pytest.mark.parametrize("record", HASHABLE, ids=type)
def test_equal_records_are_equal_and_hash_alike(record):
    twin = type(record)(*fields_of(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields_of(record))


def test_records_of_different_types_never_compare_equal():
    spec = SpringParams(1.0, 1.0, 0.4)
    verdict = StabilityClass(1.0, 1.0, 0.4)
    assert fields_of(spec) == fields_of(verdict)
    assert spec != verdict and verdict != spec and not spec == verdict
    assert spec != (1.0, 1.0, 0.4) and SegmentState(0.5) != 0.5
    assert len({spec, verdict}) == 2


# The records with a field annotated float, each built here from floats.
FLOAT_RECORDS = [(r, t) for r, t in RECORDS
                 if "float" in type(r).__annotations__.values()]


@pytest.mark.parametrize("kind", [np.float32, np.float64, Fraction, int],
                         ids=["float32", "float64", "Fraction", "int"])
@pytest.mark.parametrize("record, _", FLOAT_RECORDS,
                         ids=[type(r).__name__ for r, _ in FLOAT_RECORDS])
def test_float_fields_hold_the_float_of_any_real_number(record, _, kind):
    # Each float field stores the Python float of the number passed, before
    # __post_init__ validates it, so the record is its float twin; a str,
    # bytes or None still raises TypeError, where float() would parse a str.
    cls, values = type(record), record.__dict__
    for name, annotation in cls.__annotations__.items():
        if annotation != "float" or (kind is int and name == "rest_fraction"):
            continue  # no int lies in the rest fraction's (0, 1)
        number = 1 if kind is int else kind(values[name])
        built = cls(**{**values, name: number})
        assert all(type(getattr(built, n)) is float for n in cls._fields
                   if cls.__annotations__[n] == "float")
        assert repr(built) == repr(cls(**{**values, name: float(number)}))
        for wrong in ("1", b"1", None):
            with pytest.raises(TypeError):
                cls(**{**values, name: wrong})


def test_records_holding_arrays_do_not_hash():
    for record, _ in RECORDS:
        if record not in HASHABLE:
            with pytest.raises(TypeError):
                hash(record)


def test_record_defaults_and_validation():
    assert fields_of(SpringParams()) == (1.0, 1.0, 0.4)
    assert SpringParams(k2=2.0) == SpringParams(1.0, 2.0, 0.4)
    assert fields_of(DesignBounds()) == (11, 21, 45, 20)
    assert DesignBounds(lambda_res=3).resolutions == (11, 21, 45, 3)
    assert SegmentState(alpha=4.0).alpha == 4.0 - 2.0 * math.pi
    assert SegmentState(alpha=-math.pi).alpha == math.pi
    cases = [
        (lambda: SegmentGeometry(1, 0, 1, 1, 1), InvalidGeometry,
         "h2: must be > 0, got 0.0"),
        (lambda: StackConfig((GEOMETRY,) * 2, (WRAPPED,) * 3), ValueError,
         "a stack has exactly three segments and three states"),
        (lambda: SpringParams(-1.0, 1.0, 0.4), ValueError,
         "k1 must be > 0, got -1.0"),
        (lambda: SpringParams(rest_fraction=1.0), InvalidFraction,
         "rest_fraction must lie in (0, 1), got 1.0"),
        (lambda: SpringParams(k2=0.0), ValueError, "k2 must be > 0, got 0.0"),
        (lambda: DesignBounds(h1_res=1), ValueError,
         "h1_res must be an integer >= 2, got 1"),
        (lambda: DesignBounds(h2_res=2.0), ValueError,
         "h2_res must be an integer >= 2, got 2.0"),
        (lambda: DesignBounds(10**4, 10**4, 10**4, 2), ValueError,
         "a grid of 2000000000000 designs exceeds the limit of 100000000"),
        (lambda: SegmentGeometry(1.0), TypeError,
         "SegmentGeometry.__init__() missing 4 required positional "
         "arguments: 'h2', 'h3', 'l1', and 'l2'"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message
