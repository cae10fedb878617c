"""Shared test helpers: reference geometries, seeded random sampling and
the independent oracles the root finders are checked against."""

import math

import mpmath
import numpy as np

from tenseg import SegmentGeometry, singularity_condition

# The all-ones segment: every spine link and half-width equal to 1.  Its
# loop-1 singular angles have closed forms (see test_singularity).
UNIT = SegmentGeometry(h1=1.0, h2=1.0, h3=1.0, l1=1.0, l2=1.0)

# Contrasting pair used by the stability tests: flat end links make the home
# configuration a strict energy minimum, unit end links with a half-width
# platform make it a maximum.
STABLE_FLAT = SegmentGeometry(h1=0.0, h2=1.0, h3=0.0, l1=1.0, l2=1.0)
UNSTABLE_TALL = SegmentGeometry(h1=1.0, h2=1.0, h3=1.0, l1=1.0, l2=0.5)


def random_geometry(rng: np.random.Generator,
                    flat_probability: float = 0.25) -> SegmentGeometry:
    """Draw one random valid segment geometry.

    The end links ``h1``/``h3`` are exactly zero with ``flat_probability``
    each (the boundary case with its own closed-form singularities); the
    strictly positive dimensions stay well away from zero so random cases
    remain numerically unremarkable.
    """
    def end_link() -> float:
        if rng.random() < flat_probability:
            return 0.0
        return float(rng.uniform(0.05, 2.0))

    return SegmentGeometry(
        h1=end_link(),
        h2=float(rng.uniform(0.1, 2.5)),
        h3=end_link(),
        l1=float(rng.uniform(0.1, 3.0)),
        l2=float(rng.uniform(0.1, 3.0)),
    )


def random_angle(rng: np.random.Generator) -> float:
    """One angle in the open interval (-pi, pi)."""
    return float(rng.uniform(-np.pi + 1e-6, np.pi - 1e-6))


def scan_singularities(g, n: int = 1_000_000):
    """Sign-change brackets of the loop-1 condition on a dense uniform grid.

    Samples the condition at ``n`` points covering (-pi, pi] and returns the
    list of ``(lo, hi)`` sample pairs across which it changes sign — an
    independent, derivative-free check on :func:`singular_angles` (tangencies,
    which touch zero without crossing, are invisible here by design).
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a meaningful scan, got {n}")
    alphas = -math.pi + (2.0 * math.pi / n) * np.arange(1, n + 1)
    values = singularity_condition(g, alphas)
    signs = np.sign(values)
    # Zero samples adopt the sign to their left so an exact hit still yields
    # one bracket instead of none.
    for idx in np.flatnonzero(signs == 0.0):
        signs[idx] = signs[idx - 1] if idx > 0 else 1.0
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    return [(float(alphas[i]), float(alphas[i + 1])) for i in flips]


def oracle_real_roots(coeffs) -> list[float]:
    """Real roots of the ascending float ``coeffs``, taken exactly, found by
    mpmath at 30 digits; a root of multiplicity m comes back m times."""
    with mpmath.workdps(30):
        exact = [mpmath.mpf(float(c)) for c in coeffs[::-1]]
        while exact and exact[0] == 0:
            exact.pop(0)
        if len(exact) < 2:
            return []
        return sorted(float(mpmath.re(z)) for z in mpmath.polyroots(
            exact, maxsteps=500, extraprec=200)
            if abs(mpmath.im(z)) <= 1e-20 * (1 + abs(z)))
