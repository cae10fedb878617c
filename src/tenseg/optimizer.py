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
fully deterministic, and independent of how the sweep is chunked or
parallelised.

The sweep evaluates designs in fixed-size chunks with array arithmetic and
optionally fans chunks out to worker processes.  Chunk boundaries and the
merge do not depend on the worker count, so neither do the reports.  The
singular angles, the energy integral and the home curvature come from the
same batched kernels as the scalar API (:mod:`tenseg.singularity`,
:mod:`tenseg.energy`), so a chunk's energies and curvatures equal the scalar
calls' bit for bit.

Energy only breaks ties, so each chunk integrates it just for its tie set,
the rows at their taper's best score within the chunk; the score leads every
comparison, so no other row can win (4,558 of 198,000 feasible default rows).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .energy import (_STABILITY_CODES, Stability, _check_springs,
                     _energy_integral, _energy_raw, _home_stability)
from .geometry import _cable_lengths_raw
from .singularity import quartic_coefficients, quartic_real_roots

_PI_2 = 0.5 * math.pi
# Nearest singular angles within _SNAP of the pi/2 cap count as attaining it
# exactly, so boundary designs compare equal in the per-taper tie-breaking.
_SNAP = 1e-7
# Designs per work chunk; fixed so results never depend on the worker count.
_CHUNK = 2048

L1_RANGE = (0.0, 4.5)
H1_RANGE = (0.0, 1.0)
H2_RANGE = (0.0, 2.0)
LAMBDA_RANGE = (0.05, 1.0)


class EmptyGrid(ValueError):
    """No feasible design exists on the requested grid."""


@dataclass(frozen=True)
class SpringSpec:
    """Spring law shared by every candidate design.

    The rest length itself is per-design (``rest_fraction`` times the home
    cable length), so only the stiffnesses and the fraction are global.
    """

    k1: float = 1.0
    k2: float = 1.0
    rest_fraction: float = 0.4

    def __post_init__(self):
        _check_springs(self.k1, self.k2, self.rest_fraction)


@dataclass(frozen=True)
class DesignBounds:
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


@dataclass(frozen=True)
class DesignRecord:
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


@dataclass(frozen=True)
class OptimizationReport:
    """Search outcome: the per-taper best designs and their trend curves.

    ``best`` holds one record per taper sample, ascending in ``lam``;
    ``lambda_curve`` the corresponding ``(lam, l1, l2)`` triples and
    ``energy_curve`` the ``(lam, E_t)`` pairs.
    """

    bounds: DesignBounds
    springs: SpringSpec
    best: tuple[DesignRecord, ...]
    lambda_curve: tuple[tuple[float, float, float], ...]
    energy_curve: tuple[tuple[float, float], ...]
    max_alpha_sing: float
    n_designs: int
    n_feasible: int


def _nearest_singularity_block(h1, h2, h3, l1, l2) -> np.ndarray:
    """Nearest singular angle per design, arrays in, array out.

    Designs with ``h1 = h3 = 0`` reduce to the closed form
    ``arcsin(h2 (l1 + l2) / (4 l1 l2))`` (or no interior singularity when that
    ratio exceeds 1, leaving only the crossings at ``|alpha| = pi/2``); the
    rest go through the certified quartic kernel
    :func:`tenseg.singularity.quartic_real_roots`.
    """
    nearest = np.full(h1.shape, np.inf)
    flat = (h1 == 0.0) & (h3 == 0.0)
    if flat.any():
        ratio = h2[flat] * (l1[flat] + l2[flat]) / (4.0 * l1[flat] * l2[flat])
        nearest[flat] = np.where(ratio >= 1.0, _PI_2,
                                 np.arcsin(np.minimum(ratio, 1.0)))
    rest = ~flat
    if rest.any():
        roots = quartic_real_roots(quartic_coefficients(
            h1[rest], h2[rest], h3[rest], l1[rest], l2[rest]))[0]
        closest = np.fmin.reduce(np.abs(2.0 * np.arctan(roots)), axis=1)
        nearest[rest] = np.where(np.isnan(closest), np.inf, closest)
    return nearest


def _evaluate_chunk(args):
    """Evaluate one flat-index chunk of the grid; return per-taper candidates.

    The result maps each taper index present in the chunk to the payload
    tuple of its best feasible design, ordered so tuple comparison implements
    the (max alpha_sing, min E_t, lexicographic x) rule, plus counters.

    Energies and the stability verdict are computed only for the rows whose
    capped ``alpha_sing`` equals their taper's maximum within the chunk: the
    score leads this selection and the merge key of :func:`optimize`, so no
    other row can be chosen.
    """
    (h1_res, h2_res, l1_res, lambda_res, k1, k2, rest_fraction,
     start, stop) = args
    bounds = DesignBounds(h1_res=h1_res, h2_res=h2_res, l1_res=l1_res,
                          lambda_res=lambda_res)
    shape = (lambda_res, h1_res, h2_res, l1_res)
    ilam, ih1, ih2, il1 = np.unravel_index(np.arange(start, stop), shape)
    h1 = bounds.h1_axis()[ih1]
    h2 = bounds.h2_axis()[ih2]
    l1 = bounds.l1_axis()[il1]
    lam = bounds.lambda_axis()[ilam]

    feasible = h2 > 0.0
    n_total = stop - start
    n_feasible = int(feasible.sum())
    if n_feasible == 0:
        return {}, n_total, 0

    ilam, h1, h2, l1, lam = (v[feasible] for v in (ilam, h1, h2, l1, lam))
    l2 = lam * l1
    nearest = _nearest_singularity_block(h1, h2, h1, l1, l2)
    alpha_sing = np.where(nearest >= _PI_2 - _SNAP, _PI_2, nearest)

    peak = np.full(lambda_res, -np.inf)
    np.maximum.at(peak, ilam, alpha_sing)
    ties = alpha_sing == peak[ilam]
    ilam, h1, h2, l1, lam, l2, alpha_sing = (
        v[ties] for v in (ilam, h1, h2, l1, lam, l2, alpha_sing))
    h3 = h1
    rho_home, _ = _cable_lengths_raw(h1, h2, h3, l1, l2, 0.0)
    l0 = rest_fraction * rho_home
    e_total = _energy_integral(h1, h2, h3, l1, l2, l0, k1, k2, alpha_sing)
    e0, curvature, codes = _home_stability(h1, h2, h3, l1, l2, l0, k1, k2)
    e_sing = _energy_raw(h1, h2, h3, l1, l2, l0, k1, k2, alpha_sing)

    order = np.lexsort((l1, h2, h1, e_total, -alpha_sing, ilam))
    _, first = np.unique(ilam[order], return_index=True)
    best = {}
    for row in order[first]:
        best[int(ilam[row])] = (
            -alpha_sing[row], e_total[row], h1[row], h2[row], l1[row],
            lam[row], l2[row], e0[row], e_sing[row], int(codes[row]),
            curvature[row],
        )
    return best, n_total, n_feasible


def optimize(bounds: DesignBounds | None = None,
             springs: SpringSpec | None = None,
             workers: int | None = None) -> OptimizationReport:
    """Sweep the design grid and report the best design per taper ratio.

    ``workers`` sets the process count (default: the available CPUs); the
    result is byte-for-byte independent of it.  Raises :class:`EmptyGrid`
    when no feasible design exists.
    """
    bounds = bounds or DesignBounds()
    springs = springs or SpringSpec()
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")

    total = bounds.grid_size
    tasks = [
        (bounds.h1_res, bounds.h2_res, bounds.l1_res, bounds.lambda_res,
         springs.k1, springs.k2, springs.rest_fraction,
         start, min(start + _CHUNK, total))
        for start in range(0, total, _CHUNK)
    ]
    if workers == 1 or len(tasks) == 1:
        partials = [_evaluate_chunk(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            partials = list(pool.map(_evaluate_chunk, tasks))

    best: dict[int, tuple] = {}
    n_designs = 0
    n_feasible = 0
    for chunk_best, chunk_total, chunk_feasible in partials:
        n_designs += chunk_total
        n_feasible += chunk_feasible
        for index, payload in chunk_best.items():
            incumbent = best.get(index)
            if incumbent is None or payload[:5] < incumbent[:5]:
                best[index] = payload

    if not best:
        raise EmptyGrid("no feasible design on the grid (all h2 samples are 0)")

    records = []
    for index in sorted(best):
        (neg_alpha, e_total, h1, h2, l1, lam, l2, e0, e_sing, code,
         curvature) = best[index]
        records.append(DesignRecord(
            x=(float(h1), float(h2), float(h1), float(l1), float(lam)),
            l2=float(l2),
            feasible=True,
            alpha_sing=float(-neg_alpha),
            total_energy=float(e_total),
            energy_at_zero=float(e0),
            energy_at_sing=float(e_sing),
            stability=_STABILITY_CODES[code],
            curvature=float(curvature),
        ))
    records = tuple(records)
    return OptimizationReport(
        bounds=bounds,
        springs=springs,
        best=records,
        lambda_curve=tuple((r.lam, r.x[3], r.l2) for r in records),
        energy_curve=tuple((r.lam, r.total_energy) for r in records),
        max_alpha_sing=max(r.alpha_sing for r in records),
        n_designs=n_designs,
        n_feasible=n_feasible,
    )
