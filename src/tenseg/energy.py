"""Spring-energy model of one segment and stability of its home configuration.

Replacing the two cables by linear springs of stiffness ``k1``, ``k2`` and
common rest length ``l0`` turns the segment into a passive elastic mechanism
with potential

    E(alpha) = 1/2 * (k1 * (rho1 - l0)^2 + k2 * (rho2 - l0)^2).

The rest length is chosen as a fraction of the cable length in the home
configuration ``alpha = 0`` so the springs are pre-tensioned there.  The home
configuration is a stable equilibrium when ``E`` has a strict local minimum at
``alpha = 0``; the classifier takes the sign of the curvature ``E''(0)``,
which has a closed form in the dimensions.  The total energy ``E_t``
integrates ``E`` over the usable range between the nearest singularities
``(-alpha_sing, alpha_sing)`` with a fixed Gauss-Legendre rule and serves as
an overall stiffness score of a design.  Each node of the rule forms cable 1
alone: ``rho2`` there is ``rho1`` at the mirrored node, bit for bit.
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

from .geometry import (SegmentGeometry, _cable_lengths_raw, _home_length,
                       _plate, _Record)
from .singularity import _float, _where, singular_angles

# Rows integrated at a time, so that the temporaries stay small and in cache.
_GL_BLOCK = 128
# Rounding slack of _energy_lower_bound's squared gap, per unit of a K.
_LB_SLACK = 128.0 * np.finfo(float).eps
# Home curvatures within this fraction of max(1, E(0)) count as Neutral.
_TAU_REL = 1e-7


class InvalidFraction(ValueError):
    """A rest-length fraction outside the open interval (0, 1)."""


class NoSingularity(ValueError):
    """The design is never singular, so no singularity-bounded range exists."""


class Stability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    NEUTRAL = "Neutral"


# Verdict codes of _home_stability, by index.
_STABILITY_CODES = (Stability.STABLE, Stability.UNSTABLE, Stability.NEUTRAL)


def _check_springs(rest_fraction: float, *stiffnesses: float) -> None:
    """Reject a stiffness ``k1``, ``k2`` that is not positive and finite, or
    a rest fraction outside (0, 1): the one rule of every spring input."""
    for name, k in zip(("k1", "k2"), stiffnesses):
        if not (k > 0.0 and math.isfinite(k)):
            raise ValueError(f"{name} must be > 0, got {k!r}")
    if not 0.0 < rest_fraction < 1.0:
        raise InvalidFraction(
            f"rest_fraction must lie in (0, 1), got {rest_fraction!r}")


class SpringParams(_Record):
    """The spring law of every design: stiffnesses ``k1``, ``k2`` and the
    rest length's fraction of the home cable length (:func:`rest_length`)."""

    k1: float = 1.0
    k2: float = 1.0
    rest_fraction: float = 0.4

    def __post_init__(self):
        _check_springs(self.rest_fraction, self.k1, self.k2)

    @classmethod
    def for_geometry(cls, g: SegmentGeometry, k1: float = 1.0, k2: float = 1.0,
                     rest_fraction: float = 0.4) -> "SpringParams":
        """Springs whose rest length on ``g`` (:func:`rest_length`) is valid."""
        rest_length(g, rest_fraction)
        return cls(k1, k2, rest_fraction)


class EnergyProfile(_Record):
    """Sampled energy landscape over a symmetric angle range."""

    alphas: np.ndarray
    energies: np.ndarray
    alpha_range: tuple[float, float]


class StabilityClass(_Record):
    """Home-configuration stability verdict with its numerical evidence."""

    stability: Stability
    curvature: float
    threshold: float


def rest_length(g: SegmentGeometry, fraction: float) -> float:
    """Spring rest length: ``fraction`` times the cable length at ``alpha = 0``.

    Both cables have the same home length by mirror symmetry.  Raises
    :class:`InvalidFraction` unless ``0 < fraction < 1`` (the springs must be
    stretched at home), and ``ValueError`` unless the result is > 0 and finite.
    """
    _check_springs(fraction)
    l0 = fraction * float(_home_length(g.h1, g.h2, g.h3, g.l1, g.l2))
    if not (l0 > 0.0 and math.isfinite(l0)):
        raise ValueError(f"l0 must be > 0, got {l0!r}")
    return l0


def _energy_raw(h1, h2, h3, l1, l2, l0, k1, k2, alpha):
    rho1, rho2 = _cable_lengths_raw(h1, h2, h3, l1, l2, alpha)
    # np.square, not ** 2: on a numpy scalar ** 2 calls pow, another rounding.
    return 0.5 * (k1 * np.square(rho1 - l0) + k2 * np.square(rho2 - l0))


def _one_row(g: SegmentGeometry, springs: SpringParams) -> tuple:
    """``(h1, h2, h3, l1, l2, l0)`` of one design, as floats."""
    return (*map(float, g._values()), rest_length(g, springs.rest_fraction))


def energy(g: SegmentGeometry, springs: SpringParams, alpha):
    """Elastic energy at ``alpha`` (scalar or ndarray)."""
    return _energy_raw(*_one_row(g, springs), springs.k1, springs.k2, alpha)


def energy_profile(g: SegmentGeometry, springs: SpringParams, n: int = 101,
                   alpha_range: tuple[float, float] | None = None) -> EnergyProfile:
    """Sample the energy landscape at ``n`` uniform angles.

    Without an explicit ``alpha_range`` the profile covers the usable range
    ``[-alpha_sing, alpha_sing]`` between the nearest singularities; raises
    :class:`NoSingularity` if the design has none to bound it.  The angles
    are numpy's ``linspace``: ``lo + k step``, ``step = (hi - lo) / (n - 1)``
    (``lo + k / (n - 1) (hi - lo)`` if ``step`` is 0), and ``hi`` last.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if alpha_range is None:
        alpha_sing = singular_angles(g).alpha_sing
        if alpha_sing is None:
            raise NoSingularity(
                "design is never singular; pass an explicit alpha_range")
        alpha_range = (-alpha_sing, alpha_sing)
    lo, hi = float(alpha_range[0]), float(alpha_range[1])
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"empty or unbounded angle range ({lo!r}, {hi!r})")
    k, step = np.arange(operator.index(n)), (hi - lo) / (n - 1)
    alphas = lo + (k * step if step else k / (n - 1) * (hi - lo))
    alphas[-1] = hi
    return EnergyProfile(alphas=alphas, energies=energy(g, springs, alphas),
                         alpha_range=(lo, hi))


# The positive half of the 128-node Gauss-Legendre rule on [-1, 1]: nodes
# ascending, then their weights.  The energy integral with it is within 1e-12
# relative of 30-digit quadrature, even where a cable nearly vanishes.
_GL_U = (
    0.012223698960615766, 0.0366637909687335, 0.06108196960413957,
    0.0854636405045155, 0.10979423112764375, 0.13405919946118777,
    0.15824404271422493, 0.18233430598533718, 0.2063155909020792,
    0.23017356422666, 0.2538939664226943, 0.2774626201779044,
    0.3008654388776772, 0.32408843502441337, 0.3471177285976355,
    0.369939555349859, 0.39254027503326744, 0.414906379552275,
    0.43702450103710416, 0.4588814198335522, 0.48046407240417205,
    0.5017595591361445, 0.5227551520511755, 0.5434383024128103,
    0.5637966482266181, 0.5838180216287631, 0.6034904561585486,
    0.6228021939105849, 0.6417416925623075, 0.660297632272646,
    0.6784589224477192, 0.6962147083695144, 0.7135543776835874,
    0.7304675667419088, 0.746944166797062, 0.7629743300440948,
    0.7785484755064119, 0.7936572947621933, 0.8082917575079136,
    0.8224431169556439, 0.8361029150609068, 0.8492629875779689,
    0.8619154689395485, 0.8740527969580318, 0.8856677173453972,
    0.8967532880491582, 0.9073028834017568, 0.9173101980809605,
    0.9267692508789478, 0.9356743882779164, 0.9440202878302202,
    0.9518019613412644, 0.9590147578536999, 0.9656543664319652,
    0.9717168187471366, 0.9771984914639074, 0.9820961084357185,
    0.9864067427245862, 0.9901278184917344, 0.9932571129002129,
    0.9957927585349812, 0.997733248625514, 0.999077459977376,
    0.9998248879471319,
)
_GL_W = (
    0.024446180196262345, 0.024431569097849878, 0.02440235563384944,
    0.024358557264690488, 0.0243002001679717, 0.024227319222815093,
    0.024139957989019144, 0.02403816868102389, 0.02392201213670332,
    0.02379155778100324, 0.02364688358444749, 0.023488076016535752,
    0.023315229994062582, 0.0231284488243869, 0.022927844143686663,
    0.02271353585023634, 0.02248565203274481, 0.02224432889379961,
    0.021989710668460342, 0.021721949538051975, 0.02144120553920827,
    0.021147646468221246, 0.020841447780751005, 0.020522792486960022,
    0.020191871042129824, 0.0198488812328308, 0.019494028058706498,
    0.01912752360995088, 0.018749586940544658, 0.018360443937331248,
    0.01796032718500865, 0.01754947582711747, 0.01712813542311128,
    0.016696557801588987, 0.016255000909785, 0.015803728659399094,
    0.015343010768865193, 0.014873122602147326, 0.01439434500416672,
    0.01390696413295181, 0.013411271288616303, 0.012907562739267471,
    0.012396139543950505, 0.011877307372739933, 0.011351376324080608,
    0.010818660739502797, 0.010279479015832234, 0.009734153415007031,
    0.009183009871660687, 0.008626377798616598, 0.00806458989048577,
    0.007497981925634543, 0.0069268925668985095, 0.006351663161707444,
    0.005772637542865853, 0.005190161832676652, 0.00460458425670373,
    0.00401625498373918, 0.0034255260409105683, 0.002832751471458722,
    0.0022382884309627396, 0.0016425030186673034, 0.001045812679339503,
    0.00044938096029840415,
)


def _sine_rule(half_u, half_w) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre in ``u`` for ``alpha / alpha_sing = sin(pi u / 2)``.

    Returns nodes and weights.  The substitution packs nodes towards the range
    ends, where a cable of a design with ``lam`` near 1 nearly vanishes.  The
    halves, mirrored, are numpy 2.4.6's ``leggauss(128)`` bit for bit: nodes
    within 1 ulp of the roots of P128, weights within 2e-11 relative (1.4e-11
    at the outermost node) and summing to 2 within 4 eps (test_energy.py)."""
    u = np.concatenate((np.negative(half_u[::-1]), half_u))
    w = np.concatenate((half_w[::-1], half_w))
    angle = 0.5 * math.pi * u
    return np.sin(angle), w * (0.5 * math.pi) * np.cos(angle)


_RULE_NODES, _RULE_WEIGHTS = _sine_rule(_GL_U, _GL_W)


def _mirrored_energy(h1, h2, h3, l1, l2, l0, k1, k2, angles):
    d0x, d0y, plate_x, plate_y = _plate(h1, h2, h3, l2, angles)
    sq = np.square(np.hypot(d0x - plate_x + l1, d0y - plate_y) - l0)
    return 0.5 * (k1 * sq + k2 * sq[..., ::-1])


def _energy_integral(h1, h2, h3, l1, l2, l0, k1, k2, alpha_sing) -> np.ndarray:
    """``E_t`` per row over ``[-alpha_sing, alpha_sing]``, of arrays or floats.

    Every row of a call shares the one range ``alpha_sing``, a float, so the
    node angles are formed once per call and scale each row's sum alike.
    They mirror, and at ``-a`` sin and each sum in cable 1's first coordinate
    flip sign exactly, so each node forms cable 1 alone and ``rho2`` is its
    reverse, bit for bit.  Rows are reduced one by one, not by a matrix
    product, so a row's value does not depend on the other rows or blocks."""
    angles = alpha_sing * _RULE_NODES
    if not isinstance(h1, np.ndarray):  # one row of floats: one sum, no block
        values = _mirrored_energy(h1, h2, h3, l1, l2, l0, k1, k2, angles)
        return alpha_sing * np.add.reduce(values * _RULE_WEIGHTS)
    columns = [np.asarray(v)[:, None] for v in (h1, h2, h3, l1, l2, l0)]
    total = np.empty(len(columns[0]))
    for start in range(0, len(total), _GL_BLOCK):
        values = _mirrored_energy(
            *(c[start:start + _GL_BLOCK] for c in columns), k1, k2, angles)
        total[start:start + _GL_BLOCK] = (
            alpha_sing * (values * _RULE_WEIGHTS).sum(axis=1))
    return total


def _rho1_square_integral(h1, h2, h3, l1, l2, a):
    """``N``, the integral of ``rho1^2`` over ``[-a, a]``, and ``K``: ``rho1^2
    = K + 2 h2 (h1+h3) cos x + 2 (h1 h3 - l1 l2) cos 2x`` plus odd terms."""
    k = l1 * l1 + l2 * l2 + h1 * h1 + h2 * h2 + h3 * h3
    return (2.0 * a * k + 4.0 * h2 * (h1 + h3) * np.sin(a)
            + 2.0 * (h1 * h3 - l1 * l2) * np.sin(2.0 * a)), k


def _energy_lower_bound(h1, h2, h3, l1, l2, l0, k1, k2, a):
    """A lower bound on ``E_t`` per row over ``[-a, a]``, by the triangle
    inequality in L2: ``E_t = (k1+k2)/2 ||rho1 - l0||^2`` by mirror symmetry,
    and ``||rho1 - l0|| >= sqrt(N) - l0 sqrt(2a)``.  The terms of ``N`` sum
    to at most ``8 a K`` in magnitude, so the squared gap's rounding is below
    ``64 eps a K`` however far ``N`` cancels; ``_LB_SLACK`` takes twice that."""
    n, k = _rho1_square_integral(h1, h2, h3, l1, l2, a)
    gap = np.maximum(0.0, np.sqrt(np.maximum(n, 0.0)) - l0 * np.sqrt(2.0 * a))
    return 0.5 * (k1 + k2) * (gap * gap - _LB_SLACK * a * k)


def _home_stability(h1, h2, h3, l1, l2, l0, k1, k2):
    """Per row (of arrays, or of scalars): ``E(0)``, the curvature ``E''(0)``,
    a verdict code and the Neutral band ``tau``.

    With ``S = rho1**2``, ``x = l1 - l2`` and ``y = h1 + h2 + h3``, at 0
        S'/2  = -(x (h2 + 2 h3) + 2 l2 y),
        S''/2 = (h2 + 2 h3)^2 + 4 l2^2 + 4 l2 x - y (h2 + 4 h3),
    and ``rho rho'' = S''/2 - rho'^2`` with ``rho' = S' / (2 rho)``.  By mirror
    symmetry ``E''(0) = (k1 + k2) (rho'^2 + (rho - l0) rho'')``, taken as
    ``(k1 + k2) (rho'^2 + (1 - l0 / rho) (S''/2 - rho'^2))`` so that no term
    exceeds a small multiple of the squared dimensions.
    """
    # x * x, not x ** 2: on one row's float that calls pow, another rounding.
    x = l1 - l2
    y = h1 + h2 + h3
    u = h2 + 2.0 * h3
    rho = _float(_home_length(h1, h2, h3, l1, l2))  # one row: floats from here
    slope = -(x * u + 2.0 * l2 * y) / rho
    bend = u * u + 4.0 * l2 * l2 + 4.0 * l2 * x - y * (h2 + 4.0 * h3)
    curvature = (k1 + k2) * (slope * slope
                             + (1.0 - l0 / rho) * (bend - slope * slope))
    stretch = rho - l0
    e0 = 0.5 * (k1 * (stretch * stretch) + k2 * (stretch * stretch))
    tau = _TAU_REL * _where(e0 <= 1.0, 1.0, e0)  # np.maximum(1.0, e0)'s bits
    # Indices into _STABILITY_CODES: 0 above the band, 1 below it, else 2.
    codes = 2 - 2 * (curvature > tau) - (curvature < -tau)
    return e0, curvature, codes, tau


def total_energy(g: SegmentGeometry, springs: SpringParams,
                 alpha_sing: float | None = None) -> float:
    """Energy integral over ``[-alpha_sing, alpha_sing]``.

    A fixed 128-node Gauss-Legendre rule, good to about 1e-12 relative: the
    design sweep's kernel on the design's floats, one sum over the nodes with
    the bits of the row in a batch.  ``alpha_sing`` may be passed when known
    (it is recomputed from the geometry otherwise) and must be finite and
    >= 0; raises :class:`NoSingularity` for designs with no singularity.
    """
    if alpha_sing is None:
        alpha_sing = singular_angles(g).alpha_sing
        if alpha_sing is None:
            raise NoSingularity("design is never singular; no bounded range")
    if not (alpha_sing >= 0.0 and math.isfinite(alpha_sing)):
        raise ValueError(
            f"alpha_sing must be finite and >= 0, got {alpha_sing!r}")
    return float(_energy_integral(*_one_row(g, springs), springs.k1,
                                  springs.k2, float(alpha_sing)))


def classify_home_stability(g: SegmentGeometry,
                            springs: SpringParams) -> StabilityClass:
    """Classify ``alpha = 0`` by the sign of the energy curvature there.

    The curvature ``E''(0)`` is a closed form in the dimensions, the design
    sweep's kernel.  Verdicts within ``tau = 1e-7 * max(1, E(0))`` of zero
    are Neutral.
    """
    _, curvature, code, tau = _home_stability(*_one_row(g, springs),
                                              springs.k1, springs.k2)
    return StabilityClass(stability=_STABILITY_CODES[code],
                          curvature=float(curvature), threshold=float(tau))
