"""Spring-energy model of one segment and stability of its home configuration.

Replacing the two cables by linear springs of stiffness ``k1``, ``k2`` and
common rest length ``l0`` turns the segment into a passive elastic mechanism
with potential

    E(alpha) = 1/2 * (k1 * (rho1 - l0)^2 + k2 * (rho2 - l0)^2).

The rest length is chosen as a fraction of the cable length in the home
configuration ``alpha = 0`` so the springs are pre-tensioned there.  The home
configuration is a stable equilibrium when ``E`` has a strict local minimum at
``alpha = 0``; the classifier estimates the curvature there numerically.  The
total energy ``E_t`` integrates ``E`` over the usable range between the
nearest singularities ``(-alpha_sing, alpha_sing)`` and serves as an overall
stiffness score of a design.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SegmentGeometry, cable_lengths
from .singularity import singular_angles

# Interval halving of the composite Simpson rule stops at this relative change.
_INT_REL = 1e-9
_INT_MIN_PANELS = 16
_INT_MAX_PANELS = 2**20
# Stability: central-difference step for the curvature at home, and the
# neutrality threshold relative to the energy scale.
_FD_STEP = 1e-4
_TAU_REL = 1e-7


class InvalidFraction(ValueError):
    """A rest-length fraction outside the open interval (0, 1)."""


class NoSingularity(ValueError):
    """The design is never singular, so no singularity-bounded range exists."""


class Stability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    NEUTRAL = "Neutral"


@dataclass(frozen=True)
class SpringParams:
    """Spring constants and the derived rest length ``l0``."""

    k1: float
    k2: float
    rest_fraction: float
    l0: float

    def __post_init__(self):
        if not (self.k1 > 0.0 and math.isfinite(self.k1)):
            raise ValueError(f"k1 must be > 0, got {self.k1!r}")
        if not (self.k2 > 0.0 and math.isfinite(self.k2)):
            raise ValueError(f"k2 must be > 0, got {self.k2!r}")
        if not 0.0 < self.rest_fraction < 1.0:
            raise InvalidFraction(
                f"rest fraction must lie in (0, 1), got {self.rest_fraction!r}")
        if not (self.l0 > 0.0 and math.isfinite(self.l0)):
            raise ValueError(f"l0 must be > 0, got {self.l0!r}")

    @classmethod
    def for_geometry(cls, g: SegmentGeometry, k1: float = 1.0, k2: float = 1.0,
                     rest_fraction: float = 0.4) -> "SpringParams":
        """Springs with ``l0`` set to ``rest_fraction`` of the home cable length."""
        return cls(k1=k1, k2=k2, rest_fraction=rest_fraction,
                   l0=rest_length(g, rest_fraction))


@dataclass(frozen=True)
class EnergyProfile:
    """Sampled energy landscape over a symmetric angle range."""

    alphas: np.ndarray
    energies: np.ndarray
    alpha_range: tuple[float, float]


@dataclass(frozen=True)
class StabilityClass:
    """Home-configuration stability verdict with its numerical evidence."""

    stability: Stability
    curvature: float
    threshold: float


def rest_length(g: SegmentGeometry, fraction: float) -> float:
    """Spring rest length: ``fraction`` times the cable length at ``alpha = 0``.

    Both cables have the same home length by mirror symmetry.  Raises
    :class:`InvalidFraction` unless ``0 < fraction < 1`` (the springs must be
    stretched at home).
    """
    if not (math.isfinite(fraction) and 0.0 < fraction < 1.0):
        raise InvalidFraction(f"rest fraction must lie in (0, 1), got {fraction!r}")
    rho1, _ = cable_lengths(g, 0.0)
    return fraction * float(rho1)


def energy(g: SegmentGeometry, springs: SpringParams, alpha):
    """Elastic energy at ``alpha`` (scalar or ndarray)."""
    rho1, rho2 = cable_lengths(g, alpha)
    return 0.5 * (springs.k1 * (rho1 - springs.l0) ** 2
                  + springs.k2 * (rho2 - springs.l0) ** 2)


def energy_profile(g: SegmentGeometry, springs: SpringParams, n: int = 101,
                   alpha_range: tuple[float, float] | None = None) -> EnergyProfile:
    """Sample the energy landscape at ``n`` uniform angles.

    Without an explicit ``alpha_range`` the profile covers the usable range
    ``[-alpha_sing, alpha_sing]`` between the nearest singularities; raises
    :class:`NoSingularity` if the design has none to bound it.
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
    if not (lo < hi):
        raise ValueError(f"empty angle range ({lo!r}, {hi!r})")
    alphas = np.linspace(lo, hi, n)
    return EnergyProfile(alphas=alphas, energies=energy(g, springs, alphas),
                         alpha_range=(lo, hi))


def _simpson(g, springs, lo: float, hi: float, panels: int) -> float:
    x = np.linspace(lo, hi, panels + 1)
    y = energy(g, springs, x)
    h = (hi - lo) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def total_energy(g: SegmentGeometry, springs: SpringParams,
                 alpha_sing: float | None = None) -> float:
    """Energy integral over ``[-alpha_sing, alpha_sing]``.

    Composite Simpson quadrature with interval doubling until the value is
    stable to 1e-9 relative.  ``alpha_sing`` may be passed when already known
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
    if alpha_sing == 0.0:
        return 0.0
    lo, hi = -float(alpha_sing), float(alpha_sing)
    panels = _INT_MIN_PANELS
    estimate = _simpson(g, springs, lo, hi, panels)
    while panels < _INT_MAX_PANELS:
        panels *= 2
        refined = _simpson(g, springs, lo, hi, panels)
        if abs(refined - estimate) <= _INT_REL * max(abs(refined), 1e-300):
            return refined
        estimate = refined
    return estimate


def classify_home_stability(g: SegmentGeometry,
                            springs: SpringParams) -> StabilityClass:
    """Classify ``alpha = 0`` by the sign of the energy curvature there.

    The curvature is a Richardson-extrapolated central second difference
    (steps ``h`` and ``h/2`` with ``h = 1e-4``).  Verdicts within
    ``tau = 1e-7 * max(1, E(0))`` of zero are Neutral rather than trusting
    the sign of numerical noise.
    """
    e0 = float(energy(g, springs, 0.0))

    def second_difference(h: float) -> float:
        ep = float(energy(g, springs, h))
        em = float(energy(g, springs, -h))
        return (ep - 2.0 * e0 + em) / (h * h)

    coarse = second_difference(_FD_STEP)
    fine = second_difference(0.5 * _FD_STEP)
    curvature = (4.0 * fine - coarse) / 3.0
    tau = _TAU_REL * max(1.0, e0)
    if curvature > tau:
        verdict = Stability.STABLE
    elif curvature < -tau:
        verdict = Stability.UNSTABLE
    else:
        verdict = Stability.NEUTRAL
    return StabilityClass(stability=verdict, curvature=curvature, threshold=tau)
