"""Singularity locus of a segment over the full joint range (-pi, pi].

A configuration is singular for a cable loop when the cable length is
stationary in ``alpha``: the cable momentarily loses first-order control
authority over the joint.  Loop 1 is the left cable; by the mirror symmetry of
the trapezoid, loop 2 is singular exactly at the negated loop-1 angles.

The loop-1 condition ``A sin a + B cos a + C cos 2a + D sin 2a`` becomes the
quartic ``q(t) = (B+C) + (2A+4D) t - 6C t^2 + (2A-4D) t^3 + (C-B) t^4`` in
``t = tan(a/2)``, with ``q(t) = (1 + t^2)^2 * condition(a)``.  One batched
kernel, :func:`quartic_real_roots`, serves :func:`singular_angles` (one row)
and the design sweep (whole chunks).  It starts from the closed-form roots
(Ferrari's resolvent cubic, or Cardano for a cubic; cf. Flocke, ACM TOMS 41,
2015), polishes the nearly real ones by two Newton steps and keeps those that
converged where ``q`` vanishes to rounding.  It then counts each row's
distinct real roots from the invariants ``I``, ``J``, ``P`` and ``D`` (Rees,
Amer. Math. Monthly 29, 1922), each with a rounding bound.  A row is
certified when the invariants clear their bounds, the count equals the number
of kept roots and no two kept roots lie within 1e-6 relative.  Other rows (a
double or triple root, or a discriminant at the rounding level) go to Sturm
isolation, :func:`tenseg.polyroots.real_roots`.

``alpha = pi`` is a root of multiplicity ``4 - degree`` when the leading
coefficients vanish.  The key figure of merit is ``alpha_sing``: the singular
angle nearest the home configuration ``alpha = 0``, which bounds the usable
symmetric deflection range of the segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SegmentGeometry, normalize_angle
from .polyroots import _TRIM_REL, Polynomial, cauchy_root_bound, real_roots

# Relative size above which a starting point's imaginary part marks it complex.
_REALISH_REL = 1e-6
# Largest |q(t)| / (scale * (1 + |t|)**degree) accepted as a root.
_RESIDUAL_REL = 1e-8
# Largest last Newton step, relative to 1 + |t|, of a kept root: closed-form
# starting points are not backward stable, so a small residual is not enough.
_STEP_REL = 1e-10
# Kept roots closer than this (relative) leave the row uncertified.
_SEPARATION_REL = 1e-6
# Rounding bound of an invariant, relative to the sum of its terms' sizes:
# each takes at most a dozen roundings, so this is over 20 times generous.
_INVARIANT_REL = 4e-14


@dataclass(frozen=True)
class SingularitySet:
    """Singular angles of both cable loops, sorted ascending in (-pi, pi].

    ``multiplicities`` aligns with ``loop1`` (loop 2 mirrors it); an even
    entry marks a tangency, where the condition touches zero without changing
    sign.  ``alpha_sing`` is the smallest absolute singular angle, or ``None``
    when no loop is ever singular.
    """

    loop1: tuple[float, ...]
    loop2: tuple[float, ...]
    multiplicities: tuple[int, ...]
    alpha_sing: float | None


def quartic_coefficients(h1, h2, h3, l1, l2) -> np.ndarray:
    """Ascending coefficients of ``q``, shape ``(5,)`` or ``(n, 5)``.

    ``A = -2 h2 (h1 + h3)``, ``B = -2 h2 (l1 + l2)``, ``C = -4 (h3 l1 +
    h1 l2)``, ``D = 4 (l1 l2 - h1 h3)``; the dimensions are floats or arrays.
    """
    a = -2.0 * h2 * (h1 + h3)
    b = -2.0 * h2 * (l1 + l2)
    c = -4.0 * (h3 * l1 + h1 * l2)
    d = 4.0 * (l1 * l2 - h1 * h3)
    return np.array([b + c, 2.0 * a + 4.0 * d, -6.0 * c, 2.0 * a - 4.0 * d,
                     c - b]).T


# Weights of the monomials formed in _invariants, one row per invariant
# of a t^4 + b t^3 + c t^2 + d t + e, padded with zero weights.
_WEIGHTS = np.array([
    [1, -3, 12, 0, 0],         # I: cc bd ae
    [2, -9, 27, 27, -72],      # J: ccc bcd bbe add ace
    [8, -3, 0, 0, 0],          # P: ac bb
    [64, -16, 16, -16, -3],    # D: aaae aacc abbc aabd bbbb
], dtype=float)[:, :, None]


def _invariants(unit: np.ndarray):
    """``I``, ``J``, ``P``, ``D`` of each column's quartic and the sums of
    their terms' sizes, each ``(4, m)``."""
    e, d, c, b, a = unit
    aa, bb, cc, ac, ae, bd = a * a, b * b, c * c, a * c, a * e, b * d
    terms = _WEIGHTS * np.array([
        [cc, bd, ae, cc, cc],
        [c * cc, c * bd, e * bb, a * d * d, c * ae],
        [ac, bb, cc, cc, cc],
        [aa * ae, ac * ac, bb * ac, aa * bd, bb * bb]])
    # Summed term by term in a fixed order, so that a column's invariants do
    # not depend on the other columns (a matrix product's rounding does).
    return (np.add.accumulate(terms, axis=1)[:, -1],
            np.add.accumulate(np.abs(terms), axis=1)[:, -1])


def _real_root_count(unit: np.ndarray) -> np.ndarray:
    """Distinct real roots of each column's quartic; -1 where unsure.

    ``unit`` holds ``(5, m)`` ascending coefficients with magnitudes below 1.
    An invariant is sure when it exceeds ``_INVARIANT_REL`` times the sum of
    its terms' sizes.  With ``a = 0`` the root at infinity counts as real.
    """
    (inv_i, inv_j, inv_p, inv_d), size = _invariants(unit)
    # 27 Delta = 4 I^3 - J^2.  With |error(I)| <= REL size(I) and likewise
    # for J, its error is below 4 REL (4 size(I)^3 + size(J)^2).
    disc = 4.0 * inv_i * inv_i * inv_i - inv_j * inv_j
    disc_err = 4.0 * _INVARIANT_REL * (4.0 * size[0] * size[0] * size[0]
                                       + size[1] * size[1])
    bound_p, bound_d = _INVARIANT_REL * size[2:]
    # Delta < 0: two real roots.  Delta > 0: none if P > 0 or D > 0, four if
    # P < 0 and D < 0.  Delta = 0: a multiple root.
    two = disc < -disc_err
    none = (disc > disc_err) & ((inv_p > bound_p) | (inv_d > bound_d))
    four = (disc > disc_err) & (inv_p < -bound_p) & (inv_d < -bound_d)
    return np.where(two | none | four, 2 * two + 4 * four, -1)


def _largest_cubic_root(a, b):
    """The largest real root of ``w^3 - 3 a w - 2 b``, elementwise."""
    disc = b * b - a * a * a
    root = np.sqrt(np.abs(disc))
    # One real root (disc > 0), by Cardano; u = 0 only where a = b = 0.
    u = np.cbrt(b + np.copysign(root, b))
    cardano = u + a / np.where(u == 0.0, 1.0, u)
    # Three: 2 sqrt(a) cos(phi / 3), where cos(phi) = b / a^1.5.
    trig = 2.0 * np.sqrt(np.abs(a)) * np.cos(np.arctan2(root, b) / 3.0)
    return np.where(disc > 0.0, cardano, trig)


def _quadratic_roots(mid, c):
    """Roots ``(re, im >= 0)`` of ``y^2 - 2 mid y + c``, stacked ``(2k, m)``
    from ``(k, m)`` inputs."""
    disc = mid * mid - c
    root = np.sqrt(np.abs(disc))
    real = np.where(disc >= 0.0, root, 0.0)
    im = root - real
    return np.concatenate([mid + real, mid - real]), np.concatenate([im, im])


def _solve(sub: np.ndarray, scale: np.ndarray, degree: int) -> np.ndarray:
    """Kept real roots ``(degree, m)`` of the ``(degree + 1, m)`` columns."""
    monic = sub[:degree] / sub[degree]
    if degree == 3:
        # Cardano: t = w + shift gives w^3 + p w + q(shift); its largest real
        # root w0 splits off w^2 + w0 w + (p + w0^2).
        a0, a1, a2 = monic
        shift = a2 / -3.0
        p = a1 - 3.0 * shift * shift
        w = _largest_cubic_root(
            p / -3.0, -0.5 * (a0 + shift * (a1 + shift * (a2 + shift))))
        re, im = _quadratic_roots(-0.5 * w[None], (p + w * w)[None])
        re = np.concatenate([w[None], re])
        im = np.concatenate([0.0 * w[None], im])
    else:
        # Ferrari: t = y + shift gives y^4 + p y^2 + q y + r.  Its resolvent
        # z^3 + 2p z^2 + (p^2 - 4r) z - q^2 has a root z = (w - 2p) / 3 >= 0,
        # and with s = sqrt(z) it splits into y^2 +- s y + (p + z -+ q/s) / 2.
        a0, a1, a2, a3 = monic
        shift = -0.25 * a3
        s2 = shift * shift
        p = a2 - 6.0 * s2
        q = a1 + shift * (2.0 * a2 - 8.0 * s2)
        r = a0 + shift * (a1 + shift * (a2 - 3.0 * s2))
        pp = p * p
        w = _largest_cubic_root(pp + 12.0 * r,
                                p * (pp - 36.0 * r) + 13.5 * q * q)
        z = np.maximum((w - 2.0 * p) / 3.0, 0.0)
        s = np.sqrt(z)
        half = np.array([[-0.5], [0.5]])
        re, im = _quadratic_roots(half * s, 0.5 * (p + z)
                                  + half * (q / np.where(s == 0.0, 1.0, s)))
    t = re + shift
    t = np.where(im > _REALISH_REL * (1.0 + np.abs(t)), np.nan, t)
    # Two Newton steps by Horner from the leading coefficient down; its first
    # step (slope 0, value lead) is folded in, exact wherever t is finite.
    lead, first, *rest = sub[::-1]
    for _ in range(2):
        slope, value = lead, lead * t + first
        for c in rest:
            slope = slope * t + value
            value = value * t + c
        step = value / np.where(slope == 0.0, np.inf, slope)
        t = t - step
    value = lead * t + first
    for c in rest:
        value = value * t + c
    growth = 1.0 + np.abs(t)
    kept = ((np.abs(value) <= _RESIDUAL_REL * scale * growth ** degree)
            & (np.abs(step) <= _STEP_REL * growth))
    return np.where(kept, t, np.nan)


def quartic_real_roots(coeffs):
    """Distinct real roots of each ``(n, 5)`` ascending quartic row, certified.

    Returns ``(roots, multiplicities, degree, certified)``: the first two are
    ``(n, 4)``, each row sorted ascending and padded with NaN and 0.  Certified
    rows have simple roots; the others, and all of degree below 3, are solved
    by Sturm isolation (which raises ``DegenerateInput`` for a zero row).  A
    leading coefficient at most ``1e-12`` times the row's largest counts as
    zero.
    """
    cols = np.ascontiguousarray(np.asarray(coeffs, dtype=float).T)
    roots = np.full((4, cols.shape[1]), np.nan)
    size = np.abs(cols)
    scale = size.max(axis=0)
    big = size[3:] > _TRIM_REL * scale
    degree = np.where(big[1], 4, 3 * big[0])
    for d in (4, 3):
        idx = np.flatnonzero(degree == d)
        if len(idx):
            roots[:d, idx] = _solve(cols[: d + 1, idx], scale[idx], d)
    roots = np.sort(roots, axis=0)
    close = roots[1:] - roots[:-1] <= _SEPARATION_REL * (
        1.0 + np.abs(roots[:-1]))
    # Scaling by a power of two is exact and keeps the invariants clear of
    # overflow and underflow; a dropped leading term counts as zero.
    unit = np.ldexp(cols, -np.frexp(scale)[1])
    unit[4] = np.where(big[1], unit[4], 0.0)
    count = _real_root_count(unit) - (4 - degree)
    certified = ((count == np.isfinite(roots).sum(axis=0))
                 & ~close.any(axis=0) & (degree > 0))
    roots = roots.T
    mults = (roots == roots).astype(np.int64)
    for i in np.flatnonzero(~certified):
        p = Polynomial(cols[:, i])
        found = real_roots(p, -cauchy_root_bound(p), cauchy_root_bound(p))
        roots[i] = (found.roots + (np.nan,) * 4)[:4]
        mults[i] = (found.multiplicities + (0,) * 4)[:4]
        degree[i] = p.degree
    return roots, mults, degree, certified


def singular_angles(g: SegmentGeometry) -> SingularitySet:
    """All singular angles of both loops of ``g`` in (-pi, pi]."""
    roots, mults, degree, _ = quartic_real_roots(
        quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)[None, :])
    real = mults[0] > 0
    # The sweep takes the same arctangent, so both agree to the last bit.
    loop1 = (2.0 * np.arctan(roots[0][real])).tolist()
    mults = mults[0][real].tolist()
    # t = tan(alpha/2) cannot reach alpha = pi, where the condition equals
    # the leading coefficient: each vanishing leading term is one root there.
    if degree[0] < 4:
        loop1.append(math.pi)
        mults.append(4 - int(degree[0]))
    loop2 = tuple(sorted(normalize_angle(-a) for a in loop1))
    alpha_sing = min((abs(a) for a in loop1), default=None)
    return SingularitySet(tuple(loop1), loop2, tuple(mults), alpha_sing)
