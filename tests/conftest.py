"""Shared test helpers: reference geometries, seeded random sampling and
the independent oracles the root finders are checked against."""

import math

import numpy as np

from tenseg import SegmentGeometry, singularity_condition
from tenseg.polyroots import _sign_variations, _sturm_chain, square_free_part

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


def sturm_root_count(p, lo: float, hi: float) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (lo, hi]."""
    sf = square_free_part(p)
    if sf.degree < 1:
        return 0
    chain = _sturm_chain(sf)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)
