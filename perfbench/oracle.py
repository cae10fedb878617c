"""The benchmark's own model of a segment, independent of the tenseg sources.

Cable lengths come straight from the point construction of the README (base
corners at ``(-l1, 0)`` and ``(l1, 0)``, plate corners ``d0 -/+ l2 (cos 2a,
sin 2a)``), so the checks do not trust any tenseg formula.  Every function
broadcasts over numpy arrays.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre nodes for the reference energy integral.  The integrand is
# smooth on the closed range, so 256 nodes reach rounding level.
REFERENCE_NODES = 256
_GL_X, _GL_W = np.polynomial.legendre.leggauss(REFERENCE_NODES)


def _cable1_offsets(h1, h2, h3, l1, l2, alpha):
    s, c = np.sin(alpha), np.cos(alpha)
    s2, c2 = np.sin(2.0 * alpha), np.cos(2.0 * alpha)
    x = l1 - h2 * s - h3 * s2 - l2 * c2
    y = h1 + h2 * c + h3 * c2 - l2 * s2
    dx = -h2 * c - 2.0 * h3 * c2 + 2.0 * l2 * s2
    dy = -h2 * s - 2.0 * h3 * s2 - 2.0 * l2 * c2
    return x, y, dx, dy


def cable_lengths(h1, h2, h3, l1, l2, alpha):
    """``(rho1, rho2)``; cable 2 mirrors cable 1: ``rho2(a) = rho1(-a)``."""
    x1, y1, _, _ = _cable1_offsets(h1, h2, h3, l1, l2, alpha)
    x2, y2, _, _ = _cable1_offsets(h1, h2, h3, l1, l2, -np.asarray(alpha))
    return np.hypot(x1, y1), np.hypot(x2, y2)


def singularity_condition(h1, h2, h3, l1, l2, alpha):
    """``d(rho1^2)/d alpha``: cable 1 is singular where this vanishes."""
    x, y, dx, dy = _cable1_offsets(h1, h2, h3, l1, l2, alpha)
    return 2.0 * (x * dx + y * dy)


def reference_energy(h1, h2, h3, l1, l2, alpha_sing, k=1.0, rest_fraction=0.4):
    """Spring energy integrated over ``[-alpha_sing, alpha_sing]``, one per row.

    Dimension arguments are 1-D arrays of equal length; the rest length is
    ``rest_fraction`` of the home cable length, as ``SpringParams.for_geometry``
    defines it.
    """
    h1, h2, h3, l1, l2, alpha_sing = (
        np.asarray(v, dtype=float)[:, None]
        for v in (h1, h2, h3, l1, l2, alpha_sing))
    rest, _ = cable_lengths(h1, h2, h3, l1, l2, 0.0)
    l0 = rest_fraction * rest
    rho1, rho2 = cable_lengths(h1, h2, h3, l1, l2, alpha_sing * _GL_X)
    energy = 0.5 * k * ((rho1 - l0) ** 2 + (rho2 - l0) ** 2)
    return alpha_sing[:, 0] * (energy @ _GL_W)
