"""Singularity locus of a segment over the full joint range (-pi, pi].

A configuration is singular for a cable loop when the cable length is
stationary in ``alpha``: the cable momentarily loses first-order control
authority over the joint.  Loop 1 is the left cable; by the mirror symmetry of
the trapezoid, loop 2 is singular exactly at the negated loop-1 angles.

The loop-1 condition ``A sin a + B cos a + C cos 2a + D sin 2a`` becomes the
quartic ``q(t) = (B+C) + (2A+4D) t - 6C t^2 + (2A-4D) t^3 + (C-B) t^4`` in
``t = tan(a/2)``, with ``q(t) = (1 + t^2)^2 * condition(a)``.  One kernel
(:func:`_solve`, :func:`_real_root_count` and :func:`_fallback_roots`) has
two entries: :func:`_row_roots` for :func:`singular_angles` (one row, root by
root on Python floats, with numpy's own cube root, arctangent and cosine) and
:func:`quartic_real_roots` for the design sweep (``(n, 5)`` chunks, root by
root on ``(n,)`` arrays), with the same bits for a row in both; flat designs
(``h1 = h3 = 0``) take :func:`_flat_angle` in both.  The kernel starts from
the closed-form roots (Ferrari's resolvent cubic, or Cardano for a cubic; cf.
Flocke, ACM TOMS 41, 2015), polishes each real one alone by two Newton
steps and keeps those whose last step, on a finite non-zero slope, was at
most 1e-10 relative.  It then counts each row's distinct real roots from the
invariants ``I``, ``J``, ``P`` and ``D`` (Rees, Amer. Math. Monthly 29, 1922),
each with a rounding bound.  A row is certified when the invariants clear
their bounds, the count equals the number of kept roots and no two kept roots
lie within 1e-6 relative.
Other rows (a double or triple root, or a discriminant at the rounding level)
are solved one by one from the signs of ``q`` at its critical points, which
split the line into pieces where ``q`` is monotone: a certain sign change
between two of them holds one simple root, and a critical point where ``q``
vanishes to rounding is a multiple root (Lazard, J. Symbolic Comput. 5, 1988).

``alpha = pi`` is a root of multiplicity ``4 - degree`` when the leading
coefficients vanish.  The key figure of merit is ``alpha_sing``: the singular
angle nearest the home configuration ``alpha = 0``, which bounds the usable
symmetric deflection range of the segment.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import (SegmentGeometry, _condition_terms, _Record,
                       normalize_angle)

# Rounding bound of C - B relative to |B| + |C| (they take two and three
# roundings), and of _flat_angle's ratio near 1 (it takes four).
_ROUNDING_REL = 2.0 * float(np.finfo(float).eps)
# The fallback drops a leading coefficient at most _FAR_REL of the row's
# largest: its root lies beyond 2**64, where alpha rounds to pi.
_FAR_REL = 2.0**-256
# Relative size above which an imaginary part marks a critical point of the
# fallback (np.roots of q') as complex; at 0, a triple root comes back simple
# in test_forced_multiple_roots_recover_their_multiplicities.
_REALISH_REL = 1e-6
# Largest last Newton step, relative to 1 + |t|, of a kept root; without it
# test_certified_roots_match_oracle_across_magnitudes fails.
_STEP_REL = 1e-10
# Kept roots closer than this (relative) leave the row uncertified, which
# test_seeds_on_one_root_leave_the_row_uncertified needs; the width is not
# witnessed (at 0, none of 680,000 seeded rows changed).
_SEPARATION_REL = 1e-6
# Rounding bound of an invariant, relative to the sum of its terms' sizes:
# each takes at most a dozen roundings, so this is over 20 times generous.
_INVARIANT_REL = 4e-14
# |p(x)| <= _SIGN_REL * len(p) * sum(|p_k| |x|^k) may be rounding alone:
# Horner's rule rounds 2 * degree times, so its error is below 2 * degree *
# eps/2 <= _SIGN_REL * len(p) times the sum.  A wider margin would call a
# critical point a multiple root where the condition is beyond its bound.
_SIGN_REL = 2e-16


class DegenerateInput(ValueError):
    """The quartic is identically zero: every angle is singular."""


class SingularitySet(_Record):
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


def _where(cond, a, b):
    """``np.where``, or a plain choice on one row's floats."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    """``np.sqrt``, or ``math.sqrt`` (as exact) on one row's float."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _float(x):
    """An array as it is, and one row's numpy scalar as a float."""
    return x if isinstance(x, np.ndarray) else float(x)


def quartic_coefficients(h1, h2, h3, l1, l2) -> np.ndarray:
    """Ascending coefficients of ``q``, shape ``(5,)`` or ``(n, 5)``, from
    :func:`tenseg.geometry._condition_terms` of float or array dimensions.
    The leading one, ``C - B``, is 0 where it is rounding alone: then the
    condition at ``pi`` is within ``8 eps (|A| + |B| + |C| + |D|)``."""
    a, b, c, d = _condition_terms(h1, h2, h3, l1, l2)
    lead = _where(abs(c - b) <= _ROUNDING_REL * (abs(b) + abs(c)), 0.0, c - b)
    return np.array([b + c, 2.0 * a + 4.0 * d, -6.0 * c, 2.0 * a - 4.0 * d,
                     lead]).T


def _flat_angle(h2, l1, l2):
    """Elementwise, the singular angle in ``[0, pi/2]`` of a flat design: with
    ``h1 = h3 = 0``, ``A = C = 0`` and the condition ``cos a (B + 2D sin a)``
    has roots ``+-pi/2``, ``arcsin(ratio)`` and ``pi - arcsin(ratio)``,
    ``ratio = -B / (2D) = h2 (l1 + l2) / (4 l1 l2)``.  Within its rounding
    of 1 it gives a triple root at ``pi/2``; above, only ``+-pi/2`` (NaN)."""
    ratio = h2 * (l1 + l2) / (4.0 * l1 * l2)
    inner = _where(ratio < 1.0, np.arcsin(np.minimum(ratio, 1.0)), np.nan)
    return _where(abs(ratio - 1.0) <= _ROUNDING_REL, 0.5 * math.pi, inner)


def _invariants(unit: np.ndarray):
    """``I``, ``J``, ``P``, ``D`` of each column's ``a t^4 + ... + e`` and the
    sums of their terms' sizes: two 4-tuples, from ``(5, ...)`` columns."""
    e, d, c, b, a = unit
    aa, bb, cc, ac, ae, bd = a * a, b * b, c * c, a * c, a * e, b * d
    terms = ((cc, -3.0 * bd, 12.0 * ae),
             (2.0 * (c * cc), -9.0 * (c * bd), 27.0 * (e * bb),
              27.0 * (a * d * d), -72.0 * (c * ae)),
             (8.0 * ac, -3.0 * bb),
             (64.0 * (aa * ae), -16.0 * (ac * ac), 16.0 * (bb * ac),
              -16.0 * (aa * bd), -3.0 * (bb * bb)))
    # Summed term by term in a fixed order, so that a column's invariants do
    # not depend on the other columns (a matrix product's rounding does).
    return (tuple(sum(row[1:], row[0]) for row in terms),
            tuple(sum(map(abs, row[1:]), abs(row[0])) for row in terms))


def _real_root_count(unit: np.ndarray) -> np.ndarray:
    """Distinct real roots of each column's quartic; -1 where unsure.

    ``unit`` holds ``(5, ...)`` ascending coefficients with magnitudes below 1.
    An invariant is sure when it exceeds ``_INVARIANT_REL`` times the sum of
    its terms' sizes.  With ``a = 0`` the root at infinity counts as real.
    """
    (inv_i, inv_j, inv_p, inv_d), (size_i, size_j, size_p, size_d) = (
        _invariants(unit))
    # 27 Delta = 4 I^3 - J^2.  With |error(I)| <= REL size(I) and likewise
    # for J, its error is below 4 REL (4 size(I)^3 + size(J)^2).
    disc = 4.0 * inv_i * inv_i * inv_i - inv_j * inv_j
    disc_err = 4.0 * _INVARIANT_REL * (4.0 * size_i * size_i * size_i
                                       + size_j * size_j)
    bound_p, bound_d = _INVARIANT_REL * size_p, _INVARIANT_REL * size_d
    # Delta < 0: two real roots.  Delta > 0: none if P > 0 or D > 0, four if
    # P < 0 and D < 0.  Delta = 0: a multiple root.
    two = disc < -disc_err
    none = (disc > disc_err) & ((inv_p > bound_p) | (inv_d > bound_d))
    four = (disc > disc_err) & (inv_p < -bound_p) & (inv_d < -bound_d)
    # At most one of the three holds.
    return 2 * two + 4 * four + (two | none | four) - 1


def _largest_cubic_root(a, b):
    """The largest real root of ``w^3 - 3 a w - 2 b``, elementwise; on one
    row's floats, a float from the one branch that ``disc`` selects."""
    disc = b * b - a * a * a
    root = _sqrt(abs(disc))
    # One real root (disc > 0), by Cardano; u = 0 only where a = b = 0.
    # Three: 2 sqrt(a) cos(phi / 3), where cos(phi) = b / a^1.5.
    if not isinstance(disc, np.ndarray):
        if disc > 0.0:
            u = float(np.cbrt(b + math.copysign(root, b)))
            return u + a / (u + (u == 0.0))
        return 2.0 * math.sqrt(abs(a)) * float(
            np.cos(np.arctan2(root, b) / 3.0))
    u = np.cbrt(b + np.copysign(root, b))
    cardano = u + a / (u + (u == 0.0))
    trig = 2.0 * np.sqrt(abs(a)) * np.cos(np.arctan2(root, b) / 3.0)
    return np.where(disc > 0.0, cardano, trig)


def _quadratic_roots(mid, c):
    """Real roots of ``y^2 - 2 mid y + c``, or NaN for both if complex."""
    disc = mid * mid - c
    real = _where(disc >= 0.0, _sqrt(abs(disc)), np.nan)
    return mid + real, mid - real


def _solve(sub, degree: int) -> list:
    """Kept real roots of ``(degree + 1, ...)`` columns, NaN where none: a
    list of ``degree``, each carried alone (a float for one row)."""
    lead, first, *rest = sub[::-1]
    monic = [c / lead for c in sub[:degree]]
    if degree == 3:
        # Cardano: t = w + shift gives w^3 + p w + q(shift); its largest real
        # root w0 splits off w^2 + w0 w + (p + w0^2).
        a0, a1, a2 = monic
        shift = a2 / -3.0
        p = a1 - 3.0 * shift * shift
        w = _largest_cubic_root(
            p / -3.0, -0.5 * (a0 + shift * (a1 + shift * (a2 + shift))))
        seeds = [w, *_quadratic_roots(-0.5 * w, p + w * w)]
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
        # np.maximum, not max: it takes -0.0 to +0.0.
        z = _float(np.maximum((w - 2.0 * p) / 3.0, 0.0))
        s = _sqrt(z)
        # s >= 0, so s + (s == 0) is s with 0 replaced by 1.
        half_pz, half_qs = 0.5 * (p + z), 0.5 * (q / (s + (s == 0.0)))
        seeds = [*_quadratic_roots(-0.5 * s, half_pz - half_qs),
                 *_quadratic_roots(0.5 * s, half_pz + half_qs)]
    kept = []
    for seed in seeds:
        t = seed + shift
        # Two Newton steps by Horner from the leading coefficient down; its
        # first step (slope 0, value lead) is folded in, exact for finite t.
        for _ in range(2):
            slope, value = lead, lead * t + first
            for c in rest:
                slope = slope * t + value
                value = value * t + c
            step = value / _where(slope == 0.0, np.inf, slope)
            t = t - step
        value = lead * t + first
        for c in rest:
            value = value * t + c
        # A zero or infinite slope makes the step 0 or NaN: it proves nothing.
        size = abs(slope)
        ok = ((abs(value) < np.inf) & (0.0 < size) & (size < np.inf)
              & (abs(step) <= _STEP_REL * (1.0 + abs(t))))
        kept.append(_where(ok, t, np.nan))
    return kept


def _horner(c, x: float) -> tuple[float, float]:
    """``sum(c[k] x**k)`` by Horner's rule, and the same sum of magnitudes."""
    value = size = 0.0
    for ck in reversed(c):
        value = value * x + ck
        size = size * abs(x) + abs(ck)
    return value, size


def _sign(c, x):
    """Sign of ``sum(c[k] x**k)``, elementwise, or 0 where rounding could
    flip it."""
    value, size = _horner(c, x)
    return np.sign(value) * (abs(value) > _SIGN_REL * len(c) * size)


def _bisect(c, lo: float, hi: float, sign_lo: int) -> float:
    """The root of ``c`` in [lo, hi], narrowed to neighbouring floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        value = _horner(c, mid)[0]
        if value == 0.0:
            return mid
        if (value > 0.0) == (sign_lo > 0):
            lo = mid
        else:
            hi = mid
    return mid


def _cauchy_bound(c) -> float:
    """Every root of the ascending ``c`` lies within ``1 + max|c_k / c_n|``."""
    return 1.0 + max((abs(v) for v in c[:-1]), default=0.0) / abs(c[-1])


def _fallback_roots(row):
    """Distinct real roots, multiplicities and degree of one ascending row.

    ``q`` is monotone between its real critical points (the real roots of
    ``q'``) and has the sign of its leading term beyond the Cauchy bound.
    Between two probes of certain, opposite sign lies one simple root.  A run
    of probes whose sign rounding could flip is one multiple root: of
    multiplicity 3 when the signs around it differ (placed at the root of
    ``q''``, since the double root of ``q'`` is good only to about 1e-8),
    else 2, or 4 when ``q`` and ``q''`` vanish where ``q'''`` does.
    """
    c = [float(v) for v in row]
    scale = max(abs(v) for v in c)
    if scale == 0.0:
        raise DegenerateInput("the zero quartic is singular everywhere")
    while abs(c[-1]) <= _FAR_REL * scale:
        c.pop()
    degree = len(c) - 1
    dc = [k * v for k, v in enumerate(c)][1:]
    ddc = [k * v for k, v in enumerate(dc)][1:]
    bound = _cauchy_bound(c)
    lead = 1 if c[-1] > 0.0 else -1
    critical = sorted({float(z.real) for z in np.roots(dc[::-1])
                       if abs(z.imag) <= _REALISH_REL * (1.0 + abs(z.real))})
    probes = [(-bound, lead * (-1) ** degree),
              *((x, _sign(c, x)) for x in critical if abs(x) < bound),
              (bound, lead)]
    roots, mults, run = [], [], []
    (left, sign_left), *rest = probes
    for x, sign in rest:
        if not sign:
            run.append(x)
            continue
        if run:
            at, mult = min(run, key=lambda r: abs(_horner(c, r)[0])), 2
            if sign != sign_left:
                at, mult = float(min(np.roots(ddc[::-1]).real,
                                     key=lambda r: abs(r - at))), 3
            elif degree == 4:
                # Only a quadruple root has q = q'' = 0 where q''' vanishes.
                center = -c[3] / (4.0 * c[4])
                if not (_sign(c, center) or _sign(ddc, center)):
                    at, mult = center, 4
            roots.append(at)
            mults.append(mult)
        elif sign != sign_left:
            roots.append(_bisect(c, left, x, sign_left))
            mults.append(1)
        left, sign_left, run = x, sign, []
    return roots, mults, degree


def _row_roots(c: list) -> tuple[list, list, int, bool]:
    """:func:`quartic_real_roots` of one row of five floats, run on floats:
    the distinct real roots (floats) and their multiplicities as lists, the
    degree and the certificate."""
    scale, degree = max(map(abs, c)), 3 * bool(c[4] or c[3]) + bool(c[4])
    found = sorted(t for t in (_solve(c[:degree + 1], degree)
                               if degree else ()) if t == t)
    shift = -math.frexp(scale)[1]
    count = _real_root_count([math.ldexp(v, shift) for v in c])
    if (degree and count - (4 - degree) == len(found)
            and all(b - a > _SEPARATION_REL * (1.0 + abs(a))
                    for a, b in zip(found, found[1:]))):
        return found, [1] * len(found), degree, True
    return (*_fallback_roots(c), False)


def quartic_real_roots(coeffs):
    """Distinct real roots of each ascending quartic row, certified.

    ``coeffs`` is ``(n, 5)``, and a row ``(5,)`` is a batch of one.  Returns
    ``(roots, multiplicities, degree, certified)``: the first two are
    ``(n, 4)``, each row sorted ascending and padded with NaN and 0, the last
    two ``(n,)``.  A row gets the same bits in any batch, and from
    :func:`_row_roots`.  Certified rows have simple roots; the others, and all
    of degree below 3, are solved from the signs at their critical points (a
    zero row raises :class:`DegenerateInput`).  Only an exact 0 lowers the
    degree, and in the fallback one below ``_FAR_REL`` of the row's largest.
    It is meant for rows as :func:`singular_angles` forms them, each entry
    below 48: on rows spanning 1e+-300 the fallback can overflow and err.
    """
    cols = np.ascontiguousarray(
        np.atleast_2d(np.asarray(coeffs, dtype=float)).T)
    roots = np.full((4, cols.shape[1]), np.nan)
    lead = cols[4] != 0.0
    degree = 3 * (lead | (cols[3] != 0.0)) + lead
    # Overflow near a huge or tiny root leaves a row no root: it falls back.
    with np.errstate(over="ignore", invalid="ignore"):
        for d in (4, 3):
            idx = np.flatnonzero(degree == d)
            if idx.size:
                roots[:d, idx] = _solve(cols[: d + 1, idx], d)
    roots.sort(axis=0)
    close = roots[1:] - roots[:-1] <= _SEPARATION_REL * (
        1.0 + abs(roots[:-1]))
    # Scaling by a power of two is exact and keeps the invariants clear of
    # overflow and underflow.
    unit = np.ldexp(cols, -np.frexp(np.maximum.reduce(abs(cols)))[1])
    count = _real_root_count(unit) - (4 - degree)
    real = roots == roots
    certified = ((count == np.add.reduce(real))
                 & ~np.logical_or.reduce(close) & (degree > 0))
    roots, mults = roots.T, real.T.astype(np.int64)
    for i in np.flatnonzero(~certified):
        found, found_mults, degree[i] = _fallback_roots(cols.T[i])
        roots[i] = (found + [np.nan] * 4)[:4]
        mults[i] = (found_mults + [0] * 4)[:4]
    return roots, mults, degree, certified


def singular_angles(g: SegmentGeometry) -> SingularitySet:
    """All singular angles of both loops of ``g`` in (-pi, pi]."""
    # Scaling the design leaves its singular angles alone, and scaling by a
    # power of two is exact short of the subnormals: with the largest
    # dimension in [0.5, 1) the quartic can neither overflow nor vanish.
    dims = (g.h1, g.h2, g.h3, g.l1, g.l2)
    shift = -math.frexp(max(dims))[1]
    h1, h2, h3, l1, l2 = dims = [math.ldexp(v, shift) for v in dims]
    half = 0.5 * math.pi
    # Flat with B = D = 0 (dimensions 1e300 apart), the kernel raises.
    if h1 == h3 == 0.0 and (h2 * (l1 + l2) or l1 * l2):
        with np.errstate(divide="ignore", over="ignore"):  # D = 0: +-pi/2
            inner = float(_flat_angle(np.float64(h2), l1, l2))
        loop1, mults = [-half, half], [1, 3 if inner == half else 1]
        if inner < half:  # neither NaN nor the triple root
            loop1, mults = [-half, inner, half, math.pi - inner], [1] * 4
    else:
        roots, mults, degree, _ = _row_roots(
            quartic_coefficients(*dims).tolist())
        # The sweep takes the same arctangent, so both agree to the last bit.
        loop1 = (2.0 * np.arctan(roots)).tolist()
        # t = tan(alpha/2) cannot reach alpha = pi, where the condition
        # equals the leading coefficient: each vanishing one is a root there.
        if degree < 4:
            loop1.append(math.pi)
            mults.append(4 - degree)
    loop2 = tuple(sorted(normalize_angle(-a) for a in loop1))
    alpha_sing = min((abs(a) for a in loop1), default=None)
    return SingularitySet(tuple(loop1), loop2, tuple(mults), alpha_sing)
