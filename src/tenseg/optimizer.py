"""Grid search over segment designs maximising the usable deflection range.

The design space is four-dimensional: base half-width ``l1``, the equal end
links ``h1 = h3``, the middle link ``h2``, and the taper ratio ``lam`` fixing
the moving plate ``l2 = lam * l1``.  The box is

    0 < l1 < 4.5,   0 <= h1 <= 1,   0 <= h2 <= 2,   1/20 <= lam <= 1,

sampled on a regular grid; the open ``l1`` axis is sampled at half-step
offsets so its bounds are never hit, the closed axes include theirs.  Designs
with ``h2 = 0`` have no middle link and are recorded as infeasible.

Every design is scored by its nearest singular angle ``alpha_sing``, capped at
pi/2 because the moving plate flips over beyond that (at ``2*alpha = pi``), so
larger deflections are not mechanically useful.  For each taper ratio the
search keeps the record with the largest score, breaking ties by smaller total
spring energy ``E_t`` and then lexicographically smaller design vector —
fully deterministic, and independent of how the sweep is chunked.

The sweep runs in two passes, in one process.  The first scores every design
into one array of the whole grid, each by one route.  Flat rows take a
closed form from their axes, and each taper's best one sets a bar.  Where
that is the pi/2 cap, an exact bound from the axes puts a singular angle of
every non-flat row inside it, with no quartic formed (:func:`_certified`;
all 180,000 default rows).  The feasible non-flat rows of the other tapers
go in chunks: a row whose quartic certainly changes sign inside the bar's
angle is pruned unsolved, and only the rest reach the quartic kernel.  The
second keeps, per taper, the designs at the best score (the tie set; 4,462
of the 198,000 feasible default designs, exactly the cap region ``h1 = 0,
h2/l1 >= 4 lam/(1 + lam)``) and integrates, over the taper's peak, only the
ties that can still win (20 of the 4,462 default ones): the
one of least lower bound on ``E_t`` (``_energy_lower_bound``), then those
whose bound is at most its ``E_t`` times ``1 + _LB_MARGIN``.  The rest keep
``E_t = inf``, and only the winners are classified.  Every kernel is the
scalar API's (:mod:`tenseg.singularity`, :mod:`tenseg.energy`), batched, and
no row depends on the other rows of a call: the reports do not depend on the
chunk size, and equal the scalar calls bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import (_STABILITY_CODES, SpringParams, Stability,
                     _energy_integral, _energy_lower_bound, _energy_raw,
                     _home_stability)
from .geometry import _home_length, _Record
from .singularity import (_flat_angle, _sign, quartic_coefficients,
                          quartic_real_roots)

_PI_2 = 0.5 * math.pi
# Angles within _SNAP of pi/2 attain the cap and tie (test_capped_alpha_sing);
# _certified's margin is 2 _SNAP (test_certificate_refuses_a_tiny_h1_sample).
_SNAP = 1e-7
# Designs per chunk of the tapers scored row by row: bounds the kernels'
# temporaries, and so their share of the sweep's peak memory, whatever the
# grid size; one chunk's temporaries peak at 0.7 MiB, 1.5 at 8192.
_CHUNK = 4096
# Relative margin of the energy filter: a tie whose bound exceeds another's
# integrated E_t by this much integrates above it (the bound is at most its
# exact E_t, the kernel within 1e-12 of that), so it can neither win nor tie.
_LB_MARGIN = 1e-9
# Largest grid: the sweep holds an 8-byte score for every design at once, so
# this caps that array at 800 MB, and is checked before it is allocated.
_MAX_GRID_SIZE = 10**8

L1_RANGE = (0.0, 4.5)
H1_RANGE = (0.0, 1.0)
H2_RANGE = (0.0, 2.0)
LAMBDA_RANGE = (0.05, 1.0)


class DesignBounds(_Record):
    """The fixed design box with per-axis sample counts.

    The box itself is not configurable — it is the constraint set the search
    is defined on — so instances only choose how densely each axis is sampled.
    """

    h1_res: int = 11
    h2_res: int = 21
    l1_res: int = 45
    lambda_res: int = 20

    def __post_init__(self):
        for name in ("h1_res", "h2_res", "l1_res", "lambda_res"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
        if self.grid_size > _MAX_GRID_SIZE:
            raise ValueError(f"a grid of {self.grid_size} designs exceeds the "
                             f"limit of {_MAX_GRID_SIZE}")

    @property
    def resolutions(self) -> tuple[int, int, int, int]:
        return (self.h1_res, self.h2_res, self.l1_res, self.lambda_res)

    @property
    def grid_size(self) -> int:
        return self.h1_res * self.h2_res * self.l1_res * self.lambda_res

    def h1_axis(self) -> np.ndarray:
        return np.linspace(H1_RANGE[0], H1_RANGE[1], self.h1_res)

    def h2_axis(self) -> np.ndarray:
        return np.linspace(H2_RANGE[0], H2_RANGE[1], self.h2_res)

    def l1_axis(self) -> np.ndarray:
        # Half-step offsets keep the open bounds 0 and 4.5 out of the grid.
        step = (L1_RANGE[1] - L1_RANGE[0]) / self.l1_res
        return (np.arange(self.l1_res) + 0.5) * step

    def lambda_axis(self) -> np.ndarray:
        return np.linspace(LAMBDA_RANGE[0], LAMBDA_RANGE[1], self.lambda_res)


class DesignRecord(_Record):
    """Evaluation of one grid design.

    ``x`` is the design vector ``(h1, h2, h3, l1, lam)`` with ``h3 = h1`` and
    ``l2 = lam * l1``.  Infeasible designs carry NaN metrics and no stability
    verdict.
    """

    x: tuple[float, float, float, float, float]
    l2: float
    feasible: bool
    alpha_sing: float
    total_energy: float
    energy_at_zero: float
    energy_at_sing: float
    stability: Stability | None
    curvature: float

    @property
    def lam(self) -> float:
        return self.x[4]


class OptimizationReport(_Record):
    """Search outcome: the per-taper best designs and their trend curves.

    ``best`` holds one record per taper sample, ascending in ``lam``;
    ``lambda_curve`` the corresponding ``(lam, l1, l2)`` triples and
    ``energy_curve`` the ``(lam, E_t)`` pairs.
    """

    bounds: DesignBounds
    springs: SpringParams
    best: tuple[DesignRecord, ...]
    lambda_curve: tuple[tuple[float, float, float], ...]
    energy_curve: tuple[tuple[float, float], ...]
    max_alpha_sing: float
    n_designs: int
    n_feasible: int


def _grid_rows(axes, index):
    """``(ilam, h1, h2, l1, lam)`` of the grid's flat indices ``index``, in
    taper-major order: ``axes`` is ``(lam, h1, h2, l1)``, outermost first."""
    at = np.unravel_index(index, tuple(map(len, axes)))
    lam, h1, h2, l1 = (axis[i] for axis, i in zip(axes, at))
    return at[0], h1, h2, l1, lam


def _capped(nearest: np.ndarray) -> np.ndarray:
    """``nearest`` with the angles within ``_SNAP`` of pi/2 set to pi/2."""
    return np.where(nearest >= _PI_2 - _SNAP, _PI_2, nearest)


def _pruned(coeffs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the ``(n, 5)`` loop-1 quartics certainly singular inside
    ``(-b, b)``.  A feasible row has ``q(0) = B + C < 0``, so a certain sign
    ``q > 0`` at ``t = tan(b/2)`` or ``-tan(b/2)`` puts a root there.
    """
    t = np.tan(0.5 * b)
    return np.maximum(_sign(coeffs.T, t), _sign(coeffs.T, -t)) > 0.0


def _scores(axes, b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Scores of the grid's flat indices ``index``, all feasible non-flat
    rows.  A row that :func:`_pruned` settles inside its taper's ``(-b, b)``
    scores ``b``, a bound on its ``alpha_sing`` below the taper's peak; only
    the other rows are solved, each to its capped ``alpha_sing``."""
    ilam, h1, h2, l1, lam = _grid_rows(axes, index)
    score = b[ilam]
    coeffs = quartic_coefficients(h1, h2, h1, l1, lam * l1)
    solve = ~_pruned(coeffs, score)
    roots = quartic_real_roots(coeffs[solve])[0]
    closest = np.fmin.reduce(np.abs(2.0 * np.arctan(roots)), axis=1)
    score[solve] = _capped(np.where(np.isnan(closest), np.inf, closest))
    return score


def _certified(axes, bar: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per taper, whether every feasible non-flat row is singular inside
    ``(-b, 0)``, decided in exact arithmetic from the extreme float samples
    of the box's axes.

    With ``h3 = h1 = h`` and ``delta = pi/2 - b``, the loop-1 condition at
    ``-b`` is ``4h (h2 cos delta + (l1 + l2) cos 2 delta) - 2 h2 (l1 + l2)
    sin delta - 4 (l1 l2 - h^2) sin 2 delta``, at least the same with
    ``2 delta (h2 (l1 + l2) + 4 l1 l2)`` subtracted instead.  For ``0 <
    delta < pi/4`` both parts grow with ``h``, ``h2``, ``l1`` and ``l2``
    (rounding is monotone): the first at the smallest positive samples, less
    the second at the largest, bounds the taper's rows from below; where it
    is positive, ``q(0) = B + C < 0`` puts a root in ``(-b, 0)``.  Samples
    are integers times their largest denominator, and the bound homogeneous.
    """
    lam, h1, h2, l1 = axes
    capped = bar == _PI_2
    if not (capped.any() and (h1 >= 0.0).all()):  # every row flat or h1 > 0
        return np.zeros_like(capped)

    # Plain integers: importing fractions alone adds 0.3 MB and 3 ms.
    taper = np.flatnonzero(capped)
    ratios = [float(x).as_integer_ratio() for x in (
        1.0, h1[h1 > 0.0].min(), h2[h2 > 0.0].min(), h2.max(), l1.min(),
        l1.max(), math.nextafter(math.pi, math.inf) / 2, b[capped].min(),
        *(lam[taper] * l1.min()), *(lam[taper] * l1.max()))]
    scale = max(d for _, d in ratios)
    one, h, h2lo, h2hi, l1lo, l1hi, half_pi, b_min, *l2 = (
        n * (scale // d) for n, d in ratios)
    # Both sides times 2 one^4: delta from above, through the float above pi
    # (the bound falls as delta grows), and cos delta, cos 2 delta from below
    # by 1 - x^2/2.
    delta = half_pi - b_min
    cos1, cos2 = 2 * one**2 - delta**2, 2 * one**2 - 4 * delta**2
    for i, l2lo, l2hi in zip(taper, l2, l2[len(taper):]):
        capped[i] = (4 * h * (h2lo * cos1 + (l1lo + l2lo) * cos2)
                     > 4 * one * delta * (h2hi * (l1hi + l2hi)
                                          + 4 * l1hi * l2hi))
    return capped


def _score_grid(axes) -> np.ndarray:
    """Pass 1: every design's score, in taper-major order, each from one
    source.  Flat rows take the face's closed form, and ``h2 = 0`` rows
    ``-inf``.  A taper's bar is the capped score of its best flat row (the
    largest ``h2``, the smallest ``l1``), and ``b`` lies just below
    ``min(bar, pi/2 - 2 _SNAP)``.  The non-flat rows of a :func:`_certified`
    taper score ``b``; the feasible non-flat rows of the other tapers go
    through :func:`_scores` in chunks of ``_CHUNK``."""
    lam, h1, h2, l1 = axes
    grid = np.full(tuple(map(len, axes)), np.nan)
    f_lam, f_h2, f_l1 = np.broadcast_arrays(lam[:, None, None], h2[:, None], l1)
    face = _capped(np.fmin(_flat_angle(f_h2, f_l1, f_lam * f_l1), _PI_2))
    bar = face[:, h2.argmax(), l1.argmin()]
    b = np.minimum(bar, _PI_2 - 2.0 * _SNAP) * (1.0 - 4.0 * np.finfo(float).eps)
    certified = _certified(axes, bar, b)
    grid[certified] = b[certified, None, None, None]
    grid[:, h1 == 0.0] = face[:, None]
    grid[:, :, h2 == 0.0] = -np.inf
    score = grid.reshape(-1)
    rows = np.flatnonzero(np.isnan(score))
    for start in range(0, len(rows), _CHUNK):
        index = rows[start:start + _CHUNK]
        score[index] = _scores(axes, b, index)
    return score


def optimize(bounds: DesignBounds | None = None,
             springs: SpringParams | None = None) -> OptimizationReport:
    """Sweep the design grid and report the best design per taper ratio.

    Every taper has a feasible design: the ``h2`` axis has at least two
    samples and ends at ``H2_RANGE[1] > 0``.
    """
    bounds = bounds or DesignBounds()
    springs = springs or SpringParams()

    # The axes are built once per call, so a changed axis reaches every pass.
    axes = (bounds.lambda_axis(), bounds.h1_axis(), bounds.h2_axis(),
            bounds.l1_axis())
    score = _score_grid(axes)

    # Pass 2: lam is the outermost axis, so each taper is one row of this
    # view, and every taper shares the h2 axis, so each has a feasible peak.
    # Energy only breaks ties, so only the rows at their taper's peak need it.
    per_taper = score.reshape(bounds.lambda_res, -1)
    peak = per_taper.max(axis=1)
    ties = np.flatnonzero(per_taper == peak[:, None])
    ilam, h1, h2, l1, lam = _grid_rows(axes, ties)
    l2 = lam * l1
    alpha_sing = score[ties]
    k1, k2 = springs.k1, springs.k2
    home = _home_length(h1, h2, h1, l1, l2)
    l0 = springs.rest_fraction * home
    dims = np.stack((h1, h2, h1, l1, l2, l0))
    bound = _energy_lower_bound(*dims, k1, k2, alpha_sing)
    # Per taper (the ties are taper-major: one slice, one range), integrate
    # the tie of least bound, then only those whose bound allows a lower E_t.
    e_total = np.full(len(ties), np.inf)
    for rows, top in zip(np.split(np.arange(len(ties)), np.searchsorted(
            ilam, np.arange(1, bounds.lambda_res))), peak.tolist()):
        first = rows[np.argmin(bound[rows])]
        e_total[first] = _energy_integral(*dims[:, [first]], k1, k2, top)[0]
        rows = rows[(bound[rows] <= e_total[first] * (1.0 + _LB_MARGIN))
                    & (rows != first)]
        if len(rows):
            e_total[rows] = _energy_integral(*dims[:, rows], k1, k2, top)

    # The first row per taper by (E_t, h1, h2, l1) wins.
    order = np.lexsort((l1, h2, h1, e_total, ilam))
    win = order[np.unique(ilam[order], return_index=True)[1]]
    h1, h2, l1, lam, l2, home, l0, alpha_sing, e_total = (v[win] for v in (
        h1, h2, l1, lam, l2, home, l0, alpha_sing, e_total))
    e0, curvature, codes, _ = _home_stability(h1, h2, h1, l1, l2, home, l0,
                                              k1, k2)
    e_sing = _energy_raw(h1, h2, h1, l1, l2, l0, k1, k2, alpha_sing)
    records = tuple(DesignRecord(
        x=(float(h1[r]), float(h2[r]), float(h1[r]), float(l1[r]),
           float(lam[r])),
        l2=l2[r],
        feasible=True,
        alpha_sing=alpha_sing[r],
        total_energy=e_total[r],
        energy_at_zero=e0[r],
        energy_at_sing=e_sing[r],
        stability=_STABILITY_CODES[codes[r]],
        curvature=curvature[r],
    ) for r in range(len(win)))
    return OptimizationReport(
        bounds=bounds,
        springs=springs,
        best=records,
        lambda_curve=tuple((r.lam, r.x[3], r.l2) for r in records),
        energy_curve=tuple((r.lam, r.total_energy) for r in records),
        max_alpha_sing=max(r.alpha_sing for r in records),
        n_designs=score.size,
        n_feasible=int(np.count_nonzero(score > -np.inf)),
    )
