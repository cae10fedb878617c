"""Tests for spring energy, the energy integral and home-pose stability."""

import importlib
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (STABLE_FLAT, UNIT, UNSTABLE_TALL, capped_alpha_sing,
                      per_row_energy_integral, random_geometry)
from tenseg import (DesignBounds, InvalidFraction, NoSingularity,
                    SegmentGeometry, SegmentState, SingularitySet,
                    SpringParams, Stability, cable_lengths,
                    classify_home_stability, energy, energy_profile,
                    rest_length, segment_points, singular_angles,
                    singularity_condition, stack_forward, tapered_stack,
                    total_energy)

# Platform half-width tuned (to machine precision) so the home-pose energy
# curvature of (h1=1, h2=1, h3=1, l1=1, l2=*) vanishes: the neutral boundary
# between the stable wide-platform and unstable narrow-platform designs.
NEUTRAL_L2 = 0.8993930742068083


def unit_springs(**kwargs):
    return SpringParams.for_geometry(UNIT, **kwargs)


def mp_cable1(g):
    """Cable 1's length as an mpmath function of the angle, from the point
    construction with the float dimensions taken exactly."""
    h1, h2, h3, l1, l2 = (mpmath.mpf(v) for v in (g.h1, g.h2, g.h3, g.l1, g.l2))

    def rho(t):
        x = l1 - l2 * mpmath.cos(2 * t) - h2 * mpmath.sin(t) - h3 * mpmath.sin(2 * t)
        y = h1 + h2 * mpmath.cos(t) + h3 * mpmath.cos(2 * t) - l2 * mpmath.sin(2 * t)
        return mpmath.sqrt(x * x + y * y)
    return rho


def mp_total_energy(g, springs, alpha_sing):
    """Energy integral by mpmath quadrature at 30 digits.

    Cable 2 mirrors cable 1, so over a symmetric range the integral is
    ``(k1 + k2) / 2`` times that of ``(rho1 - l0)**2``.
    """
    with mpmath.workdps(30):
        rho = mp_cable1(g)
        l0 = mpmath.mpf(rest_length(g, springs.rest_fraction))
        a = mpmath.mpf(alpha_sing)
        integral = mpmath.quad(lambda t: (rho(t) - l0) ** 2, [-a, a])
        return float((mpmath.mpf(springs.k1) + springs.k2) / 2 * integral)


def mp_home_curvature(g, springs):
    """``E''(0)`` by mpmath numerical differentiation at 30 digits."""
    with mpmath.workdps(30):
        rho = mp_cable1(g)
        l0 = mpmath.mpf(rest_length(g, springs.rest_fraction))
        k1, k2 = mpmath.mpf(springs.k1), mpmath.mpf(springs.k2)
        return float(mpmath.diff(
            lambda t: (k1 * (rho(t) - l0) ** 2 + k2 * (rho(-t) - l0) ** 2) / 2,
            0, 2))


def kernel_rows(designs, springs):
    """The kernels' columns ``h1, h2, h3, l1, l2, l0, k1, k2`` of paired
    designs and springs, ``l0`` from :func:`rest_length`."""
    return [np.array(column) for column in zip(*(
        (g.h1, g.h2, g.h3, g.l1, g.l2, rest_length(g, p.rest_fraction),
         p.k1, p.k2) for g, p in zip(designs, springs)))]


def home_rows(designs, springs):
    """:func:`kernel_rows` with the home length, the sweep's
    ``_home_length`` of the columns, ahead of ``l0``: the columns of
    ``_home_stability``."""
    from tenseg.geometry import _home_length

    h1, h2, h3, l1, l2, *rest = kernel_rows(designs, springs)
    return [h1, h2, h3, l1, l2, _home_length(h1, h2, h3, l1, l2), *rest]


def design(h1, h2, l1, lam):
    """A sweep-style design: ``h3 = h1`` and ``l2 = lam * l1``."""
    return SegmentGeometry(h1=h1, h2=h2, h3=h1, l1=l1, l2=lam * l1)


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
    assert rest_length(UNIT, springs.rest_fraction) == pytest.approx(1.2)
    assert springs.k1 == 1.0 and springs.k2 == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(k1=0.0), dict(k2=-1.0), dict(rest_fraction=1.0),
])
def test_spring_params_validation(kwargs):
    with pytest.raises(ValueError):
        unit_springs(**kwargs)


@pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan])
def test_spring_params_rejects_fraction_as_invalid_fraction(fraction):
    with pytest.raises(InvalidFraction, match="rest_fraction"):
        SpringParams(k1=1.0, k2=1.0, rest_fraction=fraction)


def test_spring_params_defaults_are_those_of_for_geometry():
    for g in (UNIT, STABLE_FLAT, UNSTABLE_TALL):
        assert SpringParams() == SpringParams.for_geometry(g)


@pytest.mark.parametrize("dims, text", [
    ((0.0, 5e-324, 0.0, 5e-324, 5e-324), "0.0"),  # underflows to 0
    ((1e308, 1e308, 1e308, 1.0, 1.0), "inf"),  # h1 + h2 + h3 overflows
])
def test_rest_length_must_be_positive_and_finite(dims, text):
    # rest_length is the one check of a rest length: for_geometry and every
    # scalar energy call go through it.
    g = SegmentGeometry(*dims)
    for call in (lambda: rest_length(g, 0.4),
                 lambda: SpringParams.for_geometry(g),
                 lambda: energy(g, SpringParams(), 0.0)):
        with pytest.raises(ValueError) as raised:
            call()
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"l0 must be > 0, got {text}"


def bits(value):
    """``value``'s exact bits: an array's dtype and bytes, each item of a
    tuple or list, else its repr (which names a numpy scalar's type)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return repr(value)


@pytest.mark.parametrize("dims, spring_values, lam", [
    (np.float32([0.3, 1.2, 0.3, 1.5, 0.9]), np.float32([1.3, 0.7, 0.4]),
     np.float32(0.7)),
    # No int lies in (0, 1): the int springs keep a float rest fraction.
    ((1, 2, 0, 3, 2), (2, 1, 0.4), 1),
    (np.float64([0.3, 1.2, 0.3, 1.5, 0.9]), np.float64([1.3, 0.7, 0.4]),
     np.float64(0.7)),
], ids=["float32", "int", "float64"])
def test_fields_of_any_number_type_give_their_float_twins_bits(
        dims, spring_values, lam):
    # Records hold the float of each field and the scalar arguments are
    # taken as floats, so no kinematics, rest length, verdict or energy of a
    # float32 design or float32 springs is formed in float32.
    g, twin = SegmentGeometry(*dims), SegmentGeometry(*map(float, dims))
    alpha_sing = singular_angles(twin).alpha_sing
    angles = np.linspace(-1.0, 1.0, 11)

    def results(x, springs, lam, fraction):
        """Every call's result on design ``x``, by name."""
        stack = stack_forward(tapered_stack(x, lam, (0.3, 0.2, 0.1)))
        return {
            "rest_length": rest_length(x, 0.4),
            "rest_length of the fraction": rest_length(x, fraction),
            "classify_home_stability":
                classify_home_stability(x, springs)._values(),
            "total_energy": total_energy(x, springs, alpha_sing),
            "energy_profile": energy_profile(x, springs)._values(),
            "energy_profile on a range":
                energy_profile(x, springs, 11, (-1.0, 1.0))._values(),
            "cable_lengths": cable_lengths(x, 0.3),
            "cable_lengths of an array": cable_lengths(x, angles),
            "singularity_condition": singularity_condition(x, 0.3),
            "singularity_condition of an array":
                singularity_condition(x, angles),
            "segment_points": segment_points(x, SegmentState(0.3))._values(),
            "stack_forward": [frame._values() for frame in stack],
            "singular_angles": singular_angles(x)._values(),
        }

    fraction = spring_values[2]
    ours = results(g, SpringParams.for_geometry(g, *spring_values), lam,
                   fraction)
    theirs = results(twin, SpringParams.for_geometry(
        twin, *map(float, spring_values)), float(lam), float(fraction))
    for name, value in ours.items():
        assert bits(value) == bits(theirs[name]), name
    if isinstance(dims[0], np.float32):
        assert rest_length(g, 0.4) == float.fromhex("0x1.8494a862133fbp-1")


def test_home_length_is_formed_once_per_geometry(monkeypatch):
    # One design of the scalar API forms its home length once: its springs,
    # its verdict, its energy integral and its profile share it.
    import copy
    import pickle

    geometry = importlib.import_module("tenseg.geometry")
    calls = []

    def counting(*dims, kernel=geometry._home_length):
        calls.append(dims)
        return kernel(*dims)

    monkeypatch.setattr(geometry, "_home_length", counting)
    g = SegmentGeometry(0.5, 1.2, 0.5, 1.0, 0.7)
    springs = SpringParams.for_geometry(g)
    alpha_sing = singular_angles(g).alpha_sing
    classify_home_stability(g, springs)
    total_energy(g, springs, alpha_sing)
    energy_profile(g, springs, 101, (-alpha_sing, alpha_sing))
    assert calls == [(0.5, 1.2, 0.5, 1.0, 0.7)]
    # A geometry whose home length was formed is still its fields alone: it
    # equals, hashes, reprs, pickles and copies as a fresh one, and a copy
    # or a pickle forms no second home length.
    fresh = SegmentGeometry(0.5, 1.2, 0.5, 1.0, 0.7)
    for twin in (g, pickle.loads(pickle.dumps(g)), copy.copy(g),
                 copy.deepcopy(g)):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert repr(twin) == repr(fresh)
        assert pickle.loads(pickle.dumps(twin)) == fresh
        assert rest_length(twin, 0.4) == rest_length(g, 0.4)
    assert len(calls) == 1
    assert rest_length(fresh, 0.4) == rest_length(g, 0.4)
    assert len(calls) == 2


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


# A design and angle whose energy pow(x, 2) rounds differently from x * x:
# a scalar angle gives numpy scalars, whose ** 2 calls pow.
POW_DESIGN = SegmentGeometry(
    h1=0.10183871729616079, h2=1.5291552136318962, h3=0.6826034856236222,
    l1=1.542611398106146, l2=0.3449371876893926)
POW_ALPHA = -0.24771041329665677


def test_energy_vectorized_matches_scalar():
    for g, alphas in ((UNIT, np.linspace(-1.0, 1.0, 11)),
                      (POW_DESIGN, np.array([POW_ALPHA, 0.0]))):
        springs = SpringParams.for_geometry(g)
        values = energy(g, springs, alphas)
        for i, alpha in enumerate(alphas):
            assert values[i] == energy(g, springs, float(alpha))
    assert energy(POW_DESIGN, SpringParams.for_geometry(POW_DESIGN),
                  POW_ALPHA) == 2.5576928194876887


def test_energy_at_home_equals_the_stability_kernels():
    # The CLI's energy_at_zero comes from energy(g, springs, 0.0), the
    # sweep's from _home_stability: both must write the same bits.
    from tenseg.energy import _home_stability

    rng = np.random.default_rng(131)
    designs = [random_geometry(rng) for _ in range(5000)]
    springs = [SpringParams.for_geometry(
        g, k1=float(rng.uniform(0.2, 5.0)), k2=float(rng.uniform(0.2, 5.0)),
        rest_fraction=float(rng.uniform(0.05, 0.95))) for g in designs]
    e0 = _home_stability(*home_rows(designs, springs))[0]
    assert [energy(g, p, 0.0) for g, p in zip(designs, springs)] == e0.tolist()


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
    # n < 2 first, then a count that is not an integer, as np.linspace.
    with pytest.raises(ValueError):
        energy_profile(UNIT, unit_springs(), n=1.5)
    with pytest.raises(TypeError):
        energy_profile(UNIT, unit_springs(), n=2.5)
    with pytest.raises(ValueError):
        energy_profile(UNIT, unit_springs(), alpha_range=(1.0, 1.0))


@pytest.mark.parametrize("alpha_range", [
    (-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308), (math.nan, 1.0),
    (1.0, 1.0), (1.0, -1.0)])
def test_profile_rejects_an_empty_or_unbounded_range(alpha_range):
    # The CLI's --range rule: an infinite width would sample NaN angles.
    lo, hi = alpha_range
    with pytest.raises(ValueError) as raised:
        energy_profile(UNIT, unit_springs(), alpha_range=alpha_range)
    assert str(raised.value) == (
        f"empty or unbounded angle range ({lo!r}, {hi!r})")


@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3),
       n=st.integers(2, 1000))
@example(lo=0.0, width=5e-324, n=1000)  # the step underflows to 0
@example(lo=-1e-310, width=3e-310, n=7)  # a subnormal width
@example(lo=1.0, width=0.0, n=1000)  # one ulp
@settings(max_examples=300, deadline=None)
def test_profile_samples_are_numpys_linspace(lo, width, n):
    # energy_profile writes numpy's sample rule out, bit for bit.  A width
    # that rounds away gives the one-ulp range above lo.
    hi = lo + width if lo + width > lo else math.nextafter(lo, math.inf)
    alphas = energy_profile(UNIT, unit_springs(), n, (lo, hi)).alphas
    assert alphas.tobytes() == np.linspace(lo, hi, n).tobytes()


def test_one_row_calls_enter_no_python_function_of_numpy():
    # One design runs on floats and numpy's compiled functions.  A numpy
    # helper written in Python (linspace, ndim, ndarray.sum) costs more in
    # the designs loop than it does timed alone.
    g = SegmentGeometry(h1=0.5, h2=1.2, h3=0.5, l1=1.0, l2=0.7)
    springs = SpringParams()
    alphas = np.linspace(-1.0, 1.0, 101)

    def run():
        singular_angles(g)
        classify_home_stability(g, springs)
        total_energy(g, springs)
        energy_profile(g, springs)
        energy_profile(g, springs, 101, (-1.0, 1.0))
        cable_lengths(g, alphas)

    def profile(frame, event, _):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.split(".")[0] == "numpy":
            entered.add(f"{module}.{frame.f_code.co_name}")

    run()  # lazy set-up, if any, happens here
    entered, previous = set(), sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    assert not entered


# ---------------------------------------------------------------------------
# total energy


def mp_legendre(x, n=128):
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence, in mpmath."""
    p0, p1 = mpmath.mpf(1), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def test_tabulated_rule_is_gauss_legendre_to_its_stated_accuracy():
    # Newton-polished on P128 at 40 digits, each of the 64 ascending nodes
    # lies within 1 ulp of its root, so they are P128's 64 positive roots;
    # the weight at a root x is 2 / ((1 - x^2) P128'(x)^2).
    energy_module = importlib.import_module("tenseg.energy")
    half_u, half_w = energy_module._GL_U, energy_module._GL_W
    assert len(half_u) == len(half_w) == 64
    assert 0.0 < half_u[0] and list(half_u) == sorted(half_u) and half_u[-1] < 1
    with mpmath.workdps(40):
        for x, w in zip(half_u, half_w):
            root = mpmath.mpf(x)
            for _ in range(3):
                p, dp = mp_legendre(root)
                root -= p / dp
            _, dp = mp_legendre(root)
            weight = 2 / ((1 - root * root) * dp * dp)
            assert abs(x - root) <= np.spacing(x)
            assert abs(w - weight) <= 2e-11 * weight
    full = np.concatenate((half_w[::-1], half_w))
    assert abs(full.sum() - 2.0) <= 4 * np.finfo(float).eps
    # Mirrored, the rule in alpha is exactly symmetric, as leggauss's own is.
    nodes, weights = energy_module._RULE_NODES, energy_module._RULE_WEIGHTS
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


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
    # 40-digit mpmath quadrature, split at 0: 5.2146463103529059681...
    assert total_energy(UNIT, unit_springs()) == pytest.approx(
        5.214646310352906, rel=1e-12)


def test_total_energy_matches_mpmath_on_grid_designs():
    # Every feasible design of a coarse sweep grid, over its capped range.
    bounds = DesignBounds(h1_res=3, h2_res=3, l1_res=3, lambda_res=2)
    for lam in bounds.lambda_axis():
        for h1 in bounds.h1_axis():
            for h2 in bounds.h2_axis()[1:]:
                for l1 in bounds.l1_axis():
                    g = design(h1, h2, l1, lam)
                    springs = SpringParams.for_geometry(g)
                    alpha = capped_alpha_sing(singular_angles(g).alpha_sing)
                    assert total_energy(g, springs, alpha_sing=alpha) == (
                        pytest.approx(mp_total_energy(g, springs, alpha),
                                      rel=1e-12))


def test_total_energy_matches_mpmath_as_a_cable_nearly_vanishes():
    # With lam near 1 one cable shrinks towards zero length at the ends of
    # the range (on some of these designs below 1e-6 of its home length),
    # where the integrand bends sharply.
    rng = np.random.default_rng(113)
    shortest = math.inf
    for _ in range(10):
        g = design(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.1, 2.0)),
                   float(rng.uniform(0.05, 4.45)),
                   1.0 - 10.0 ** float(rng.uniform(-8.0, -1.0)))
        springs = SpringParams.for_geometry(g)
        alpha = singular_angles(g).alpha_sing
        rho1, rho2 = cable_lengths(g, np.array([-alpha, 0.0, alpha]))
        shortest = min(shortest, min(rho1.min(), rho2.min()) / rho1[1])
        assert total_energy(g, springs, alpha_sing=alpha) == pytest.approx(
            mp_total_energy(g, springs, alpha), rel=1e-12)
    assert shortest < 1e-6


def test_total_energy_of_the_early_stopping_simpson_design():
    # A doubling Simpson rule stopped at 32 panels on this design, 1.3e-7
    # off the integral.
    g = design(0.21339559835380428, 0.8643926867768976, 0.9483146106245814,
               0.47139885196906156)
    springs = SpringParams.for_geometry(g)
    alpha = singular_angles(g).alpha_sing
    value = total_energy(g, springs, alpha_sing=alpha)
    assert value == pytest.approx(mp_total_energy(g, springs, alpha),
                                  rel=1e-12)
    assert value == pytest.approx(2.14959542207286, rel=1e-12)


def test_total_energy_nonnegative():
    rng = np.random.default_rng(101)
    for _ in range(10):
        g = random_geometry(rng)
        assert total_energy(g, SpringParams.for_geometry(g)) >= 0.0


def test_total_energy_linear_in_stiffness():
    base = total_energy(UNIT, unit_springs())
    doubled = total_energy(UNIT, unit_springs(k1=2.0, k2=2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def random_energy_rows(seed, n):
    """``(designs, springs, kernel columns)`` of ``n`` seeded random designs
    with their default springs; the columns are ``h1, h2, h3, l1, l2, l0``."""
    rng = np.random.default_rng(seed)
    designs = [random_geometry(rng) for _ in range(n)]
    springs = [SpringParams.for_geometry(g) for g in designs]
    return designs, springs, kernel_rows(designs, springs)[:6]


def test_total_energy_one_row_equals_the_batched_kernel():
    # The scalar call is one row of the kernel the sweep runs on a taper's
    # ties at once; a row's value must not depend on the rows around it.
    from tenseg.energy import _energy_integral

    # A row alone is one sum over the nodes of its floats, and a Python
    # float out; at 0 the nodes collapse, at pi they span the half turn.
    designs, springs, rows = random_energy_rows(107, 300)
    own = singular_angles(designs[0]).alpha_sing
    for a in (0.0, 0.1, 1.0, math.pi / 2, own, math.pi):
        batched = _energy_integral(*rows, 1.0, 1.0, a)
        alone = [total_energy(g, p, alpha_sing=a)
                 for g, p in zip(designs, springs)]
        assert all(type(v) is float for v in alone)
        assert [v.hex() for v in batched.tolist()] == [v.hex() for v in alone]


@pytest.mark.parametrize("a", [0.0, 1e-300, 0.1, 1.0, math.pi / 2, 1.2693,
                               math.pi])
def test_shared_range_kernel_equals_the_per_row_range_oracle(a):
    # Random designs with unequal springs, against the kernel that took one
    # range per row (conftest.per_row_energy_integral).
    from tenseg.energy import _energy_integral

    _, _, rows = random_energy_rows(211, 1000)
    expected = per_row_energy_integral(*rows, 2.0, 0.5, np.full(1000, a))
    assert np.array_equal(_energy_integral(*rows, 2.0, 0.5, a), expected)


@pytest.mark.parametrize("a", [0.0, 1e-300, 1.0, math.pi / 2, math.pi])
@given(exponents=st.lists(st.floats(-4.0, 2.0), min_size=5, max_size=5),
       face=st.sampled_from(["free", "h1", "h3", "both"]))
@settings(max_examples=100, deadline=None)
def test_rho2_is_rho1_reversed_on_the_rule_nodes(a, exponents, face):
    # The kernel forms cable 1 alone and takes rho2 as rho1 at the mirrored
    # node.  That keeps every bit only while the nodes mirror exactly and
    # numpy's sin is odd to the last bit; this names the cause if either fails.
    from tenseg.energy import _RULE_NODES
    from tenseg.geometry import _cable_lengths_raw

    assert np.array_equal(_RULE_NODES, -_RULE_NODES[::-1])
    dims = [10.0 ** e for e in exponents]
    if face in ("h1", "both"):
        dims[0] = 0.0
    if face in ("h3", "both"):
        dims[2] = 0.0
    rho1, rho2 = _cable_lengths_raw(*dims, a * _RULE_NODES)
    assert rho2.tobytes() == rho1[::-1].tobytes()


def test_rho1_square_integral_matches_mpmath():
    # Random designs with unequal end links (h1 != h3), half of them over
    # ranges down to 1e-6 rad, where N(a) = 2 a rho1(0)^2 + O(a^3).
    from tenseg.energy import _rho1_square_integral

    rng = np.random.default_rng(23)
    for i in range(60):
        g = random_geometry(rng, flat_probability=0.0)
        assert g.h1 != g.h3
        a = (1.0 - float(rng.uniform()) if i % 2
             else 10.0 ** float(rng.uniform(-6.0, 0.0))) * (math.pi / 2)
        rho = mp_cable1(g)
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda t: rho(t) ** 2, [-a, 0, a])
        assert _rho1_square_integral(g.h1, g.h2, g.h3, g.l1, g.l2, a)[0] == (
            pytest.approx(float(exact), rel=1e-13))


# Lengths from 1e-9 up, so that a cable can nearly vanish at home.
_TINY_OR_BOX = st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 1.0))


@given(h1=st.one_of(st.just(0.0), _TINY_OR_BOX),
       h2=st.one_of(_TINY_OR_BOX, st.floats(1.0, 2.0)),
       l1=st.floats(0.01, 4.45),
       lam=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       fraction=st.one_of(st.floats(0.01, 0.999), st.just(0.999)),
       k1=st.floats(0.1, 10.0), k2=st.floats(0.1, 10.0),
       a=st.one_of(st.floats(1e-6, 1e-2), st.floats(1e-2, math.pi / 2),
                   st.just(math.pi / 2)))
@example(h1=2.0259092444604472e-05, h2=7.667530602028884e-07,
         l1=3.7934146170950327, lam=0.871290691147509, fraction=0.999,
         k1=9.759959590529965, k2=3.751872110013119,
         a=1.1932253580125642e-06)  # 2.4e-11 above without the slack
@settings(max_examples=300, deadline=None)
def test_energy_lower_bound_is_below_the_integral(h1, h2, l1, lam, fraction,
                                                  k1, k2, a):
    # Over the sweep's box, with rest lengths near the home length, unequal
    # springs and short ranges, where the bound is tight and N(a) cancels.
    from tenseg.energy import _energy_lower_bound

    g = design(h1, h2, l1, lam)
    springs = SpringParams.for_geometry(g, k1, k2, fraction)
    row = (g.h1, g.h2, g.h3, g.l1, g.l2, rest_length(g, fraction), k1, k2, a)
    assert _energy_lower_bound(*row) <= (
        total_energy(g, springs, alpha_sing=a) * (1.0 + 1e-11))


def test_total_energy_accepts_precomputed_range():
    springs = unit_springs()
    assert total_energy(UNIT, springs, alpha_sing=math.pi / 4) == pytest.approx(
        total_energy(UNIT, springs), rel=1e-12)
    assert total_energy(UNIT, springs, alpha_sing=0.0) == 0.0


@pytest.mark.parametrize("alpha_sing", [-0.5, math.nan, math.inf])
def test_total_energy_rejects_invalid_alpha_sing(alpha_sing):
    # A non-finite range would put non-finite quadrature nodes into the
    # kernel and return NaN.
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
    assert verdict.curvature == pytest.approx(8.0, abs=1e-12)


def test_narrow_platform_design_is_unstable():
    verdict = classify_home_stability(
        UNSTABLE_TALL, SpringParams.for_geometry(UNSTABLE_TALL))
    assert verdict.stability is Stability.UNSTABLE
    assert verdict.curvature < 0.0


def test_unit_geometry_is_stable():
    verdict = classify_home_stability(UNIT, unit_springs())
    assert verdict.stability is Stability.STABLE
    assert verdict.curvature == pytest.approx(0.8, abs=1e-12)


def test_home_curvature_matches_mpmath():
    rng = np.random.default_rng(109)
    for _ in range(40):
        g = random_geometry(rng)
        springs = SpringParams.for_geometry(
            g, k1=float(rng.uniform(0.2, 5.0)), k2=float(rng.uniform(0.2, 5.0)),
            rest_fraction=float(rng.uniform(0.05, 0.95)))
        rho0 = float(cable_lengths(g, 0.0)[0])
        scale = (springs.k1 + springs.k2) * rho0 * rho0
        assert classify_home_stability(g, springs).curvature == pytest.approx(
            mp_home_curvature(g, springs), rel=1e-12, abs=1e-14 * scale)


def test_classify_home_stability_one_row_equals_the_batched_kernel():
    # The scalar call runs its row unbatched, on Python floats, through the
    # kernel that gives the sweep's winners their verdicts; a row's verdict
    # and its evidence must be the bits of one array call on the batch.
    from tenseg.energy import _STABILITY_CODES, _home_stability

    rng = np.random.default_rng(127)
    # The first design's h2 + 2 h3 is a float whose square pow(x, 2) rounds
    # differently from x * x (glibc's libm): a scalar's ** 2 calls pow.
    designs = [SegmentGeometry(h1=0.5, h2=1.1368784757753123, h3=0.0,
                               l1=1.0, l2=0.7)]
    designs += [random_geometry(rng) for _ in range(300)]
    springs = [SpringParams.for_geometry(
        g, k1=float(rng.uniform(0.2, 5.0)), k2=float(rng.uniform(0.2, 5.0)),
        rest_fraction=float(rng.uniform(0.05, 0.95))) for g in designs]
    _, curvature, codes, tau = _home_stability(*home_rows(designs, springs))
    verdicts = [classify_home_stability(g, p)
                for g, p in zip(designs, springs)]
    assert [v.stability for v in verdicts] == [
        _STABILITY_CODES[c] for c in codes]
    assert {Stability.STABLE, Stability.UNSTABLE} <= {
        v.stability for v in verdicts}
    assert [v.curvature for v in verdicts] == curvature.tolist()
    assert [v.threshold for v in verdicts] == tau.tolist()


@pytest.mark.parametrize("g", [UNIT, STABLE_FLAT, UNSTABLE_TALL],
                         ids=["unit", "stable-flat", "unstable-tall"])
def test_one_row_home_stability_returns_python_floats(g):
    # After np.hypot and np.maximum a row goes on as floats, not numpy
    # scalars: E(0), the curvature and tau are Python floats.
    from tenseg.energy import _home_stability, _one_row

    springs = SpringParams.for_geometry(g, k1=1.3, k2=0.7)
    *dims, l0 = _one_row(g, springs)
    e0, curvature, _, tau = _home_stability(*dims, g._home, l0, springs.k1,
                                            springs.k2)
    assert type(e0) is float and type(curvature) is float
    assert type(tau) is float


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
                                                 rel=1e-12)


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
        assert big.curvature == pytest.approx(100.0 * base.curvature,
                                              rel=1e-12)


def test_stack_levels_share_the_singular_angles_and_scale_the_energy():
    # Level i of a tapered stack is its base scaled by lam**i, so the stack
    # needs no analysis of its own: every level has the base's singular
    # angles, and E_t scales by lam**(2 i).
    rng = np.random.default_rng(37)
    for lam in (0.05, 0.4, 0.83, 1.0):
        base = random_geometry(rng, flat_probability=0.0)
        levels = tapered_stack(base, lam, (0.0, 0.0, 0.0)).segments
        found = singular_angles(base)
        e_t = total_energy(base, SpringParams.for_geometry(base, 2.0, 0.5))
        for i, g in enumerate(levels):
            level = singular_angles(g)
            assert level.alpha_sing == pytest.approx(found.alpha_sing,
                                                     rel=1e-12)
            assert level.loop1 == pytest.approx(found.loop1, rel=1e-12)
            assert total_energy(g, SpringParams.for_geometry(g, 2.0, 0.5)) == (
                pytest.approx(lam ** (2 * i) * e_t, rel=1e-12))


@given(st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_rest_length_linear_in_fraction(fraction):
    assert rest_length(UNIT, fraction) == pytest.approx(3.0 * fraction,
                                                        rel=1e-12)
