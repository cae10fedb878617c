"""Singularity locus of a segment over the full joint range (-pi, pi].

A configuration is singular for a cable loop when the cable length is
stationary in ``alpha``: the cable momentarily loses first-order control
authority over the joint.  Loop 1 is the left cable; by the mirror symmetry of
the trapezoid, loop 2 is singular exactly at the negated loop-1 angles.

The loop-1 condition ``A sin a + B cos a + C cos 2a + D sin 2a`` becomes the
quartic ``q(t) = (B+C) + (2A+4D) t - 6C t^2 + (2A-4D) t^3 + (C-B) t^4`` in
``t = tan(a/2)``, with ``q(t) = (1 + t^2)^2 * condition(a)``.  One batched
kernel, :func:`quartic_real_roots`, serves :func:`singular_angles` (one row)
and the design sweep (whole chunks).  It takes companion-matrix eigenvalues
(Edelman & Murakami, Math. Comp. 64, 1995), polishes them by four Newton
steps and keeps the nearly real ones where ``q`` vanishes to rounding.  It
then counts each row's distinct real roots from the invariants ``I``, ``J``,
``P`` and ``D`` (Rees, Amer. Math. Monthly 29, 1922), each with a rounding
bound.  A row is certified when the invariants clear their bounds, the count
equals the number of kept roots and no two kept roots lie within 1e-6
relative.  Other rows (a double or triple root, or a discriminant at the
rounding level) go to Sturm isolation, :func:`tenseg.polyroots.real_roots`.

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

# Relative size above which an eigenvalue's imaginary part marks it complex.
_REALISH_REL = 1e-6
# Largest |q(t)| / (scale * (1 + |t|)**degree) accepted as a root.
_RESIDUAL_REL = 1e-8
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


# I, J, P and D of a t^4 + b t^3 + c t^2 + d t + e as weighted sums of the
# monomials formed in _real_root_count.
_INVARIANTS = np.array([
    # cc bd ae ccc bcd bbe add ace ac bb aaae aacc abbc aabd bbbb
    [1, -3, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, -9, 27, 27, -72, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 8, -3, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64, -16, 16, -16, -3],
], dtype=float)


def _real_root_count(unit: np.ndarray) -> np.ndarray:
    """Distinct real roots of each column's quartic; -1 where unsure.

    ``unit`` holds ``(5, m)`` ascending coefficients with magnitudes below 1.
    An invariant is sure when it exceeds ``_INVARIANT_REL`` times the sum of
    its terms' sizes.  With ``a = 0`` the root at infinity counts as real.
    """
    e, d, c, b, a = unit
    aa, bb, cc, ac, ae, bd = a * a, b * b, c * c, a * c, a * e, b * d
    mono = np.array([cc, bd, ae, c * cc, c * bd, e * bb, a * d * d, c * ae,
                     ac, bb, aa * ae, ac * ac, bb * ac, aa * bd, bb * bb])
    (inv_i, inv_j, inv_p, inv_d), size = (
        _INVARIANTS @ mono, np.abs(_INVARIANTS) @ np.abs(mono))
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


def _solve(sub: np.ndarray, scale: np.ndarray, degree: int) -> np.ndarray:
    """Kept real roots ``(degree, m)`` of the ``(degree + 1, m)`` columns."""
    companion = np.zeros((sub.shape[1], degree, degree))
    for k in range(degree - 1):
        companion[:, k + 1, k] = 1.0
    companion[:, :, degree - 1] = -(sub[:degree] / sub[degree]).T
    eig = np.linalg.eigvals(companion).T
    complex_ = np.abs(eig.imag) > _REALISH_REL * (1.0 + np.abs(eig.real))
    # Four Newton steps by Horner from the leading coefficient down; its first
    # step (slope 0, value lead) is folded in, exact wherever t is finite.
    lead, first, *rest = sub[::-1]
    t = np.ascontiguousarray(eig.real)
    for _ in range(4):
        slope, value = lead, lead * t + first
        for c in rest:
            slope = slope * t + value
            value = value * t + c
        t = np.where(slope != 0.0, t - value / slope, t)
    value = lead * t + first
    for c in rest:
        value = value * t + c
    kept = ~complex_ & np.isfinite(t) & (
        np.abs(value) <= _RESIDUAL_REL * scale * (1.0 + np.abs(t)) ** degree)
    return np.where(kept, t, np.nan)


def quartic_real_roots(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Distinct real roots of each ``(n, 5)`` ascending quartic row, certified.

    Returns ``(roots, certified)``: ``roots`` is ``(n, 4)``, each row sorted
    ascending and padded with NaN.  Certified rows have simple roots; the
    others, and all of degree below 3, were re-solved by Sturm isolation
    (which raises ``DegenerateInput`` for a zero row).  A leading coefficient
    at most ``1e-12`` times the row's largest counts as zero.
    """
    cols = np.ascontiguousarray(np.asarray(coeffs, dtype=float).T)
    roots = np.full((4, cols.shape[1]), np.nan)
    certified = np.zeros(cols.shape[1], dtype=bool)
    size = np.abs(cols)
    scale = size.max(axis=0)
    big = size[3:] > _TRIM_REL * scale
    degree = np.where(big[1], 4, 3 * big[0])
    for d in (4, 3):
        idx = np.flatnonzero(degree == d)
        if not len(idx):
            continue
        sub = cols[: d + 1, idx]
        found = np.sort(_solve(sub, scale[idx], d), axis=0)
        close = found[1:] - found[:-1] <= _SEPARATION_REL * (
            1.0 + np.abs(found[:-1]))
        # Scaling by a power of two is exact and keeps the invariants clear
        # of overflow and underflow; a dropped leading term counts as zero.
        unit = np.ldexp(cols[:, idx], -np.frexp(scale[idx])[1])
        unit[d + 1:] = 0.0
        count = _real_root_count(unit) - (4 - d)
        kept = np.isfinite(found).sum(axis=0)
        certified[idx] = (count == kept) & ~close.any(axis=0)
        roots[:d, idx] = found
    roots = roots.T
    for i in np.flatnonzero(~certified):
        p = Polynomial(cols[:, i])
        found = real_roots(p, -cauchy_root_bound(p), cauchy_root_bound(p))
        roots[i] = (found.roots + (np.nan,) * 4)[:4]
    return roots, certified


def singular_angles(g: SegmentGeometry) -> SingularitySet:
    """All singular angles of both loops of ``g`` in (-pi, pi]."""
    coeffs = quartic_coefficients(g.h1, g.h2, g.h3, g.l1, g.l2)[None, :]
    roots, certified = quartic_real_roots(coeffs)
    t = [float(r) for r in roots[0] if not math.isnan(r)]
    poly, mults = Polynomial(coeffs[0]), [1] * len(t)
    if not certified[0]:
        # The kernel's own fallback, repeated for its multiplicities.
        mults = list(real_roots(poly, -cauchy_root_bound(poly),
                                cauchy_root_bound(poly)).multiplicities)
    # The sweep takes the same arctangent, so both agree to the last bit.
    loop1 = [float(a) for a in 2.0 * np.arctan(t)]
    # t = tan(alpha/2) cannot reach alpha = pi, where the condition equals
    # the leading coefficient: each vanishing leading term is one root there.
    if poly.degree < 4:
        loop1.append(math.pi)
        mults.append(4 - poly.degree)
    loop2 = tuple(sorted(normalize_angle(-a) for a in loop1))
    alpha_sing = min((abs(a) for a in loop1), default=None)
    return SingularitySet(tuple(loop1), loop2, tuple(mults), alpha_sing)
