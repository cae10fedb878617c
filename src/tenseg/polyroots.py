"""Sturm-certified real roots of low-degree polynomials (singularity fallback).

:func:`tenseg.singularity.quartic_real_roots` certifies most rows of the
half-angle quartic from closed-form invariants; the rows it cannot vouch for
(a double or triple root, or a discriminant at the rounding level) come here.
Roots are isolated by Sturm-sequence bisection, an exact count of distinct
real roots per interval, so none can be silently missed, then polished by
safeguarded Newton iteration.  Repeated roots are split off first through a
square-free factorisation so the Sturm chain is well conditioned, and are
reported with their multiplicities (an even multiplicity means the curve only
touches zero).  The result is then reconciled with every sign change of the
polynomial that rounding cannot flip, which repairs a wrong square-free split.
The callers pass degree <= 4; the routines themselves accept any degree.

Coefficients are stored in ascending order: ``coeffs[k]`` multiplies ``x**k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Trailing coefficients below _TRIM_REL times the largest magnitude are treated
# as zero when fixing the effective degree.
_TRIM_REL = 1e-12
# Euclidean remainders below _GCD_REL times the operand scale end the gcd.
_GCD_REL = 1e-10
# Distinct roots closer than _DEDUP_TOL are merged into one.
_DEDUP_TOL = 1e-8
# Bisection stops when the bracket is this tight relative to the root.
_BISECT_REL = 1e-15
_MAX_NEWTON = 120
# |p(x)| <= _SIGN_REL * (degree + 1) * sum(|c_k| |x|^k) may be rounding alone:
# Horner's rule rounds 2 * degree times, and a root is known to a float.
_SIGN_REL = 4e-16
# Largest |p(x)| / (scale * (1 + |x|)**degree) accepted as a root from a
# bracket without a sign change (rounding at a true root gives ~1e-16).
_ROOT_RESIDUAL_REL = 1e-8


class DegenerateInput(ValueError):
    """The polynomial is identically zero: every point is a root."""


def _trim(coeffs) -> tuple[float, ...]:
    """Drop negligible leading (highest-degree) coefficients."""
    coeffs = [float(c) for c in coeffs]
    scale = max((abs(c) for c in coeffs), default=0.0)
    if scale == 0.0:
        return ()
    threshold = _TRIM_REL * scale
    while coeffs and abs(coeffs[-1]) <= threshold:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """A univariate real polynomial with ascending coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        """Degree after trimming negligible leading coefficients (-1 if zero)."""
        return len(_trim(self.coeffs)) - 1

    def __call__(self, x):
        """Evaluate by Horner's rule; ``x`` may be a scalar or ndarray."""
        result = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.coeffs):
            result = result * x + c
        return result if result.ndim else float(result)

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) <= 1:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


@dataclass(frozen=True)
class RootSet:
    """Distinct real roots with residuals and multiplicities, ascending."""

    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.roots)


def _divmod_poly(num, den):
    """Polynomial long division of coefficient tuples: ``num = q*den + r``."""
    den = list(den)
    while den and den[-1] == 0.0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    quot = [0.0] * max(len(rem) - len(den) + 1, 1)
    lead = den[-1]
    for k in range(len(rem) - len(den), -1, -1):
        factor = rem[k + len(den) - 1] / lead
        quot[k] = factor
        for j, d in enumerate(den):
            rem[k + j] -= factor * d
    return tuple(quot), tuple(rem[: len(den) - 1] or (0.0,))

def _normalized(coeffs) -> tuple[float, ...]:
    """Scale so the largest magnitude is 1 (positive factor: signs survive)."""
    scale = max((abs(c) for c in coeffs), default=0.0)
    if scale == 0.0:
        return tuple(coeffs)
    return tuple(c / scale for c in coeffs)


def _remainder(a, b):
    """Trimmed Euclidean remainder of normalized coefficient tuples."""
    _, rem = _divmod_poly(a, b)
    scale = max(max(abs(c) for c in a), max(abs(c) for c in b))
    rem = list(rem)
    while rem and abs(rem[-1]) <= _GCD_REL * scale:
        rem.pop()
    return tuple(rem)


def _gcd_coeffs(a, b):
    """Approximate gcd of two coefficient tuples, normalized, by Euclid."""
    a, b = _trim(a), _trim(b)
    if not a:
        return _normalized(b) or (1.0,)
    if not b:
        return _normalized(a) or (1.0,)
    a, b = _normalized(a), _normalized(b)
    while b:
        if len(b) == 1:
            return (1.0,)
        r = _remainder(a, b)
        a, b = b, _normalized(r)
    return a


def square_free_part(p: Polynomial) -> Polynomial:
    """The polynomial with the same distinct roots, each with multiplicity 1."""
    coeffs = _trim(p.coeffs)
    if len(coeffs) <= 2:
        return Polynomial(coeffs or (0.0,))
    g = _gcd_coeffs(coeffs, _trim(p.derivative().coeffs))
    if len(g) == 1:
        return Polynomial(coeffs)
    normalized = _normalized(coeffs)
    quot, rem = _divmod_poly(normalized, g)
    if max((abs(c) for c in rem), default=0.0) > 1e-8:
        # The approximate gcd did not divide cleanly; treat as square-free.
        return Polynomial(coeffs)
    return Polynomial(_trim(quot) or (0.0,))


def _sturm_chain(p: Polynomial):
    """Sturm sequence of a square-free polynomial, each entry normalized."""
    chain = [_normalized(_trim(p.coeffs))]
    deriv = _trim(p.derivative().coeffs)
    if not deriv:
        return chain
    chain.append(_normalized(deriv))
    while len(chain[-1]) > 1:
        _, rem = _divmod_poly(chain[-2], chain[-1])
        rem = _trim(tuple(-c for c in rem))
        if not rem:
            break
        chain.append(_normalized(rem))
    return chain


def _eval_coeffs(coeffs, x: float) -> float:
    result = 0.0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _sign_variations(chain, x: float) -> int:
    """Sign changes along the chain at ``x``, zeros skipped."""
    signs = []
    for coeffs in chain:
        v = _eval_coeffs(coeffs, x)
        if v != 0.0:
            signs.append(1.0 if v > 0.0 else -1.0)
    return sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 != s1)


def cauchy_root_bound(p: Polynomial) -> float:
    """Every root of ``p`` lies in [-R, R] with ``R = 1 + max|c_k/c_n|``."""
    coeffs = _trim(p.coeffs)
    if len(coeffs) < 2:
        return 1.0
    lead = abs(coeffs[-1])
    return 1.0 + max(abs(c) for c in coeffs[:-1]) / lead


def _polish(sf: Polynomial, dsf: Polynomial, lo: float, hi: float) -> float:
    """One simple root of ``sf`` in the bracket [lo, hi], sign(lo) != sign(hi).

    Bisection maintains the bracket; a Newton step is taken only when it stays
    inside the bracket and at least halves the previous step, so progress is
    geometric even from very wide brackets (where plain Newton on ``x**n + c``
    crawls at rate ``1 - 1/n``) and quadratic near the root.
    """
    flo = sf(lo)
    if flo == 0.0:
        return lo
    if sf(hi) == 0.0:
        return hi
    x = 0.5 * (lo + hi)
    previous_step = hi - lo
    for _ in range(_MAX_NEWTON):
        fx = sf(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        d = dsf(x)
        if (d != 0.0 and lo < x - fx / d < hi
                and abs(2.0 * fx) <= abs(previous_step * d)):
            x_new = x - fx / d
        else:
            x_new = 0.5 * (lo + hi)
        previous_step = abs(x_new - x)
        if previous_step <= _BISECT_REL * (1.0 + abs(x_new)):
            return x_new
        x = x_new
    return x


def _multiplicities(p: Polynomial, roots) -> tuple[int, ...]:
    """Multiplicity of each root of ``p``: 1 plus its depth in the gcd tower.

    ``gcd(p, p')`` keeps every repeated root with multiplicity reduced by one;
    iterating therefore counts how often each root repeats without any
    root-separation-sensitive derivative thresholds.
    """
    mult = [1] * len(roots)
    layer = _gcd_coeffs(_trim(p.coeffs), _trim(p.derivative().coeffs))
    while len(layer) > 1:
        layer_poly = Polynomial(layer)
        scale = max(abs(c) for c in layer)
        for i, r in enumerate(roots):
            if abs(layer_poly(r)) <= 1e-6 * scale * (1.0 + abs(r)) ** (len(layer) - 1):
                mult[i] += 1
        layer = _gcd_coeffs(layer, _trim(layer_poly.derivative().coeffs))
    return tuple(mult)


def real_roots(p: Polynomial, lo: float, hi: float) -> RootSet:
    """All distinct real roots of ``p`` in [lo, hi], with multiplicities.

    Sturm bisection isolates one root per sub-interval (an exact count, immune
    to close pairs down to the working precision), then each root is polished
    to full float accuracy.  Roots closer than 1e-8 are merged.  Raises
    :class:`DegenerateInput` for the identically zero polynomial.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
    coeffs = _trim(p.coeffs)
    if not coeffs:
        raise DegenerateInput("the zero polynomial is singular everywhere")
    if len(coeffs) == 1:
        return RootSet((), (), ())
    sf = Polynomial(coeffs) if len(coeffs) == 2 else square_free_part(p)
    dsf = sf.derivative()
    sf_scale = max(abs(c) for c in sf.coeffs)
    chain = _sturm_chain(sf)

    # Widen the left end slightly so a root exactly at ``lo`` is counted
    # (the Sturm count is over half-open intervals (a, b]).
    pad = 1e-12 * (1.0 + abs(lo))
    stack = [(lo - pad, hi)]
    isolated = []
    min_width = 1e-14 * (1.0 + max(abs(lo), abs(hi)))
    while stack:
        a, b = stack.pop()
        count = _sign_variations(chain, a) - _sign_variations(chain, b)
        if count == 0:
            continue
        if count == 1 or b - a <= min_width:
            isolated.append((a, b))
            continue
        mid = 0.5 * (a + b)
        stack.append((a, mid))
        stack.append((mid, b))

    roots = []
    for a, b in isolated:
        fa, fb = sf(a), sf(b)
        if fa == 0.0:
            roots.append(a)
        elif fb == 0.0 or (fa > 0.0) == (fb > 0.0):
            # No sign change: a root at the half-open right end, a collapsed
            # bracket, or a failed square-free split.  The last leaves an even
            # root, shared with the derivative, or a miscounted root that is
            # not there; keep the best candidate only where ``sf`` vanishes.
            guess = b if abs(fb) <= abs(fa) else 0.5 * (a + b)
            best = min([guess, *real_roots(dsf, a, b).roots],
                       key=lambda r: abs(sf(r)))
            if abs(sf(best)) <= _ROOT_RESIDUAL_REL * sf_scale * (
                    1.0 + abs(best)) ** sf.degree:
                roots.append(best)
        else:
            roots.append(_polish(sf, dsf, a, b))

    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= _DEDUP_TOL * (1.0 + abs(r)):
            continue
        merged.append(r)
    merged = [r for r in merged if lo - pad <= r <= hi + pad]

    poly = Polynomial(coeffs)
    merged, mult = _reconcile(poly, merged, _multiplicities(poly, merged),
                              lo - pad, hi + pad)
    return RootSet(tuple(merged), tuple(abs(poly(r)) for r in merged), mult)


def _sign(p: Polynomial, x: float) -> int:
    """Sign of ``p(x)``, or 0 where rounding in Horner's rule could flip it."""
    value = p(x)
    size = sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs))
    if abs(value) <= _SIGN_REL * len(p.coeffs) * size:
        return 0
    return 1 if value > 0.0 else -1


def _reconcile(p: Polynomial, roots, mult, lo: float, hi: float):
    """Make the roots agree with each sign change rounding cannot flip.

    A candidate where the sign of ``p`` is certain is no root and is dropped.
    Between two probes of certain sign (the interval ends, the real parts of
    the critical points and the gaps between roots), the multiplicities must
    add up to an odd number exactly when the sign changes.  Where they do
    not, a lone crossing is found by bisection, and a cluster the signs
    cannot resolve becomes one root at its mean, of the smallest
    multiplicity >= 2 with the right parity.
    """
    found = {r: m for r, m in zip(roots, mult) if not _sign(p, r)}
    ordered = sorted(found)
    critical = np.roots(p.derivative().coeffs[::-1]).real
    probes = sorted({lo, hi, *critical[(lo < critical) & (critical < hi)],
                     *(0.5 * (a + b) for a, b in zip(ordered, ordered[1:]))})
    certain = [(x, s) for x in probes if (s := _sign(p, x))]
    for (a, sa), (b, sb) in zip(certain, certain[1:]):
        inside = [r for r in found if a < r < b]
        odd = sa != sb
        if sum(found[r] for r in inside) % 2 == odd:
            continue
        for r in inside:
            del found[r]
        if inside:
            x, m = sum(inside) / len(inside), 3 if odd else 2
        else:
            x, m = _polish(p, p.derivative(), a, b), 1
        # Roots closer than _DEDUP_TOL stay one root.
        x = next((r for r in found
                  if abs(r - x) <= _DEDUP_TOL * (1.0 + abs(x))), x)
        found[x] = found.get(x, 0) + m
    return sorted(found), tuple(found[r] for r in sorted(found))
