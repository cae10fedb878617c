"""Certified real-root isolation for low-degree polynomials with float coefficients.

The singularity condition of a segment is a trigonometric polynomial in
``alpha``; the tangent half-angle substitution ``t = tan(alpha/2)`` with
``sin = 2t/(1+t^2)`` and ``cos = (1-t^2)/(1+t^2)`` turns it into an ordinary
polynomial of degree <= 8 (see :func:`half_angle_polynomial`).  Roots are
isolated by Sturm-sequence bisection — an exact count of distinct real roots
per interval, so none can be silently missed — then polished by safeguarded
Newton iteration.  Repeated roots are split off first through a square-free
factorisation so the Sturm chain is well conditioned, and reported with their
multiplicities (an even multiplicity means the curve only touches zero).

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

    def trimmed(self) -> "Polynomial":
        return Polynomial(_trim(self.coeffs) or (0.0,))


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
    rem = [c for c in rem]
    if max((abs(c) for c in rem), default=0.0) <= _GCD_REL * scale:
        return ()
    trimmed = list(rem)
    while trimmed and abs(trimmed[-1]) <= _GCD_REL * scale:
        trimmed.pop()
    return tuple(trimmed)


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


def sturm_root_count(p: Polynomial, lo: float, hi: float) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (lo, hi]."""
    sf = square_free_part(p)
    if sf.degree < 1:
        return 0
    chain = _sturm_chain(sf)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


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
    residuals = tuple(abs(poly(r)) for r in merged)
    mult = _multiplicities(poly, merged)
    return RootSet(tuple(merged), residuals, mult)


def half_angle_polynomial(g) -> Polynomial:
    """The singularity condition as a degree-8 polynomial in ``t = tan(alpha/2)``.

    The condition collapses to the four-term trigonometric form

        A sin a + B cos a + C cos 2a + D sin 2a

    with ``A = -2 h2 (h1 + h3)``, ``B = -2 h2 (l1 + l2)``,
    ``C = -4 (h3 l1 + h1 l2)`` and ``D = 4 (l1 l2 - h1 h3)``; substituting the
    half-angle rationals and clearing ``(1 + t^2)^2`` twice gives the returned
    coefficients, so that

        p(tan(a/2)) = (1 + t^2)^4 * condition(a).

    The substitution cannot represent ``a = pi`` (where ``t`` blows up); the
    condition there equals ``C - B``, the leading coefficient, and callers test
    it separately.  The closed form is validated in the test suite against
    evaluate-and-interpolate on Chebyshev nodes.
    """
    a = -2.0 * g.h2 * (g.h1 + g.h3)
    b = -2.0 * g.h2 * (g.l1 + g.l2)
    c = -4.0 * (g.h3 * g.l1 + g.h1 * g.l2)
    d = 4.0 * (g.l1 * g.l2 - g.h1 * g.h3)
    return Polynomial((
        b + c,
        2.0 * a + 4.0 * d,
        2.0 * b - 4.0 * c,
        6.0 * a + 4.0 * d,
        -10.0 * c,
        6.0 * a - 4.0 * d,
        -2.0 * b - 4.0 * c,
        2.0 * a - 4.0 * d,
        c - b,
    ))
