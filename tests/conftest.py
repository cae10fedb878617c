"""Shared test helpers: reference geometries, seeded random sampling, the
independent oracles the library is checked against and a reader for the
CLI's tables."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from tenseg import SegmentGeometry
from tenseg.energy import _RULE_NODES, _RULE_WEIGHTS, _energy_raw
from tenseg.geometry import _condition_terms
from tenseg.optimizer import _SNAP

EPS = float(np.finfo(float).eps)

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


def singularity_condition(g: SegmentGeometry, alpha):
    """The loop-1 singularity condition expanded into 18 trigonometric terms.

    An oracle independent of the ``A, B, C, D`` form the library evaluates
    and solves: the derivative of the squared length of cable 1, written out
    term by term.  Some of its terms cancel only in exact arithmetic (the
    ``h3**2`` and ``l2**2`` ones sum to zero), so its rounding grows with
    ``h3**2 + l2**2`` rather than with ``A, B, C, D``.  Accepts scalar or
    ndarray ``alpha``.
    """
    h1, h2, h3, l1, l2 = g.h1, g.h2, g.h3, g.l1, g.l2
    s, c = np.sin(alpha), np.cos(alpha)
    s2, c2, s3, c3 = s * s, c * c, s * s * s, c * c * c
    return (
        -8.0 * h3 * h3 * c3 * s + 8.0 * h3 * h3 * c * s
        - 8.0 * l2 * l2 * c3 * s + 8.0 * l2 * l2 * c * s
        - 4.0 * h3 * s * c2 * h2 - 4.0 * h3 * s3 * h2
        - 4.0 * h3 * c2 * l1 + 4.0 * h3 * s2 * l1
        - 4.0 * l2 * c2 * h1 + 4.0 * l2 * s2 * h1
        - 8.0 * h3 * h3 * s3 * c - 2.0 * h2 * c * l2 - 2.0 * h2 * c * l1
        + 8.0 * l2 * c * l1 * s - 8.0 * l2 * l2 * s3 * c
        - 8.0 * h3 * c * h1 * s - 2.0 * h2 * s * h1 + 2.0 * h2 * s * h3
    )


def condition_bound(g: SegmentGeometry) -> float:
    """The stated bound on ``|tenseg.singularity_condition(g, alpha)|`` at
    every angle ``singular_angles(g)`` returns: ``8 eps (|A| + |B| + |C| +
    |D|)``, with no term for a dropped leading coefficient of the half-angle
    quartic, which the kernel drops only within its rounding."""
    a, b, c, d = _condition_terms(g.h1, g.h2, g.h3, g.l1, g.l2)
    return 8.0 * EPS * (abs(a) + abs(b) + abs(c) + abs(d))


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


def spine(g: SegmentGeometry, alpha: float):
    """``c0``, ``d0`` and the plate direction ``(cos 2a, sin 2a)`` at one
    float ``alpha``, each a pair of floats summed on ``math`` from ``b0 = (0,
    h1)`` up, ``c0`` from ``0.0 - h2 sin a``: the bits of the pose's points
    and of the stack's frames, kept as their oracle."""
    cos_2a, sin_2a = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
    c0 = (0.0 - g.h2 * math.sin(alpha), g.h1 + g.h2 * math.cos(alpha))
    d0 = (c0[0] - g.h3 * sin_2a, c0[1] + g.h3 * cos_2a)
    return c0, d0, (cos_2a, sin_2a)


def cable_lengths_squared(g: SegmentGeometry, alpha):
    """Squared cable lengths from the expanded loop-closure polynomials.

    A second, structurally independent route to ``cable_lengths``: the corner
    offsets are written out in powers of ``sin(alpha)`` and ``cos(alpha)``
    instead of going through the point construction.  Both routes agree to
    ~1e-12 relative.  Accepts scalar or ndarray ``alpha``.
    """
    s, c = np.sin(alpha), np.cos(alpha)
    x1 = (-2.0 * g.h3 * c - g.h2) * s - 2.0 * g.l2 * c * c + g.l2 + g.l1
    y1 = 2.0 * g.h3 * c * c + (-2.0 * g.l2 * s + g.h2) * c + g.h1 - g.h3
    x2 = (-2.0 * g.h3 * c - g.h2) * s + 2.0 * g.l2 * c * c - g.l2 - g.l1
    y2 = 2.0 * g.h3 * c * c + (2.0 * g.l2 * s + g.h2) * c + g.h1 - g.h3
    return x1 * x1 + y1 * y1, x2 * x2 + y2 * y2


def per_row_energy_integral(h1, h2, h3, l1, l2, l0, k1, k2, alpha_sing):
    """``E_t`` per row, each over its own ``[-alpha_sing, alpha_sing]``: the
    library's rule with one range column per row, ``alpha[:, None] * nodes``,
    in blocks of 128 rows.  The arithmetic the sweep's kernel ran before it
    took one shared range per call, kept to pin that kernel bit for bit."""
    columns = [np.asarray(v)[:, None]
               for v in (h1, h2, h3, l1, l2, l0, alpha_sing)]
    total = np.empty(len(columns[0]))
    for start in range(0, len(total), 128):
        *dims, alpha = (c[start:start + 128] for c in columns)
        values = _energy_raw(*dims, k1, k2, alpha * _RULE_NODES)
        total[start:start + 128] = (
            alpha[:, 0] * (values * _RULE_WEIGHTS).sum(axis=1))
    return total


def capped_alpha_sing(nearest):
    """The sweep's score of one design's nearest singular angle: capped at
    pi/2, with near-misses within ``_SNAP`` snapped onto the cap."""
    if nearest is None or nearest >= 0.5 * math.pi - _SNAP:
        return 0.5 * math.pi
    return nearest


def _parse_cell(text: str):
    if text == "NONE":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path):
    """Parse a table the CLI wrote back into meta, columns and rows.

    Returns ``{"meta": ..., "columns": ..., "rows": ...}``; numeric cells come
    back as numbers (``None`` for NONE), everything else as strings.  The CSV
    and JSON renderings of one table parse to equal structures, so outputs
    round-trip losslessly at the emitted precision.
    """
    path = Path(path)
    if path.suffix == ".json":
        document = json.loads(path.read_text(encoding="utf-8"))
        rows = document.pop("rows")
        columns = list(rows[0]) if rows else []
        return {"meta": document, "columns": columns,
                "rows": [[row[c] for c in columns] for row in rows]}
    meta: dict = {}
    columns: list[str] = []
    rows: list[list] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(",")
            meta[key] = _parse_cell(value)
        elif not columns:
            columns = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) == 2 and not isinstance(_parse_cell(cells[0]), float):
                # Trailing key,value footer line (data rows start numeric).
                meta[cells[0]] = _parse_cell(cells[1])
            else:
                rows.append([_parse_cell(cell) for cell in cells])
    return {"meta": meta, "columns": columns, "rows": rows}
