"""Tests for the design grid search and its vectorised evaluation path."""

import importlib
import math

import numpy as np
import pytest

from tenseg import (DesignBounds, EmptyGrid, InvalidGeometry, SegmentGeometry,
                    SpringParams, SpringSpec, Stability,
                    classify_home_stability, energy, optimize,
                    singular_angles, total_energy)
from tenseg.optimizer import DesignRecord, _evaluate_chunk, capped_alpha_sing
from tenseg.polyroots import Polynomial, cauchy_root_bound, real_roots
from tenseg.singularity import quartic_coefficients, quartic_real_roots

# ---------------------------------------------------------------------------
# scalar reference pipeline


def enumerate_grid(bounds: DesignBounds):
    """Yield every design vector ``(h1, h2, h3, l1, lam)`` in sweep order.

    The order is taper-major (``lam`` outermost, then ``h1``, ``h2``, ``l1``),
    matching the flat chunk indexing of :func:`optimize`.
    """
    h1_axis = bounds.h1_axis()
    h2_axis = bounds.h2_axis()
    l1_axis = bounds.l1_axis()
    for lam in bounds.lambda_axis():
        for h1 in h1_axis:
            for h2 in h2_axis:
                for l1 in l1_axis:
                    yield (float(h1), float(h2), float(h1), float(l1), float(lam))


def evaluate_design(x, springs: SpringSpec | None = None) -> DesignRecord:
    """Evaluate one design vector through the scalar reference pipeline."""
    springs = springs or SpringSpec()
    h1, h2, h3, l1, lam = (float(v) for v in x)
    l2 = lam * l1
    x = (h1, h2, h3, l1, lam)
    try:
        g = SegmentGeometry(h1=h1, h2=h2, h3=h3, l1=l1, l2=l2)
    except InvalidGeometry:
        nan = float("nan")
        return DesignRecord(x=x, l2=l2, feasible=False, alpha_sing=nan,
                            total_energy=nan, energy_at_zero=nan,
                            energy_at_sing=nan, stability=None, curvature=nan)
    alpha_sing = capped_alpha_sing(singular_angles(g).alpha_sing)
    params = SpringParams.for_geometry(g, springs.k1, springs.k2,
                                       springs.rest_fraction)
    verdict = classify_home_stability(g, params)
    return DesignRecord(
        x=x,
        l2=l2,
        feasible=True,
        alpha_sing=alpha_sing,
        total_energy=total_energy(g, params, alpha_sing=alpha_sing),
        energy_at_zero=float(energy(g, params, 0.0)),
        energy_at_sing=float(energy(g, params, alpha_sing)),
        stability=verdict.stability,
        curvature=verdict.curvature,
    )


# ---------------------------------------------------------------------------
# grid definition


def test_default_grid_shape():
    bounds = DesignBounds()
    assert bounds.resolutions == (11, 21, 45, 20)
    assert bounds.grid_size == 207_900


def test_axes_cover_the_design_box():
    bounds = DesignBounds()
    h1 = bounds.h1_axis()
    h2 = bounds.h2_axis()
    l1 = bounds.l1_axis()
    lam = bounds.lambda_axis()
    assert h1[0] == 0.0 and h1[-1] == 1.0 and len(h1) == 11
    assert h2[0] == 0.0 and h2[-1] == 2.0 and len(h2) == 21
    assert lam[0] == 0.05 and lam[-1] == 1.0 and len(lam) == 20
    # Open interval: half-step offsets keep the bounds out.
    assert len(l1) == 45
    assert l1[0] == pytest.approx(0.05) and l1[-1] == pytest.approx(4.45)
    assert np.all(l1 > 0.0) and np.all(l1 < 4.5)


def test_small_grid_enumeration():
    bounds = DesignBounds(h1_res=2, h2_res=2, l1_res=2, lambda_res=2)
    points = list(enumerate_grid(bounds))
    assert len(points) == 16
    l1_values = sorted({p[3] for p in points})
    assert l1_values == pytest.approx([1.125, 3.375])
    assert all(p[3] not in (0.0, 4.5) for p in points)
    assert sorted({p[4] for p in points}) == pytest.approx([0.05, 1.0])
    # h3 always mirrors h1.
    assert all(p[2] == p[0] for p in points)


def test_enumeration_count_matches_grid_size():
    bounds = DesignBounds(h1_res=3, h2_res=4, l1_res=5, lambda_res=2)
    assert sum(1 for _ in enumerate_grid(bounds)) == bounds.grid_size == 120


@pytest.mark.parametrize("kwargs", [
    dict(h1_res=1), dict(h2_res=0), dict(l1_res=-3), dict(lambda_res=2.5),
])
def test_resolution_validation(kwargs):
    with pytest.raises(ValueError):
        DesignBounds(**kwargs)


# ---------------------------------------------------------------------------
# scoring


def test_capped_alpha_sing():
    assert capped_alpha_sing(None) == math.pi / 2
    assert capped_alpha_sing(2.0) == math.pi / 2
    assert capped_alpha_sing(math.pi / 2 - 1e-9) == math.pi / 2
    assert capped_alpha_sing(0.3) == 0.3


def test_evaluate_unit_design():
    record = evaluate_design((1.0, 1.0, 1.0, 1.0, 1.0))
    assert record.feasible
    assert record.alpha_sing == pytest.approx(math.pi / 4, abs=1e-9)
    assert record.l2 == 1.0 and record.x[2] == record.x[0]
    assert record.stability is Stability.STABLE
    assert record.lam == 1.0


def test_evaluate_flat_design_reaches_the_cap():
    record = evaluate_design((0.0, 2.0, 0.0, 0.05, 1.0))
    assert record.alpha_sing == math.pi / 2


def test_evaluate_infeasible_middle_link():
    record = evaluate_design((0.5, 0.0, 0.5, 1.0, 0.5))
    assert not record.feasible
    assert record.stability is None
    assert math.isnan(record.alpha_sing) and math.isnan(record.total_energy)


def test_spring_spec_validation():
    with pytest.raises(ValueError):
        SpringSpec(k1=0.0)
    with pytest.raises(ValueError):
        SpringSpec(rest_fraction=1.0)


# ---------------------------------------------------------------------------
# vectorised chunk path vs the scalar reference


def test_chunk_evaluation_matches_reference():
    bounds = DesignBounds(h1_res=4, h2_res=5, l1_res=6, lambda_res=3)
    springs = SpringSpec()
    chunk_best, n_total, n_feasible = _evaluate_chunk(
        (4, 5, 6, 3, 1.0, 1.0, 0.4, 0, bounds.grid_size))
    assert n_total == bounds.grid_size == 360
    assert n_feasible == 360 - 4 * 6 * 3  # h2 = 0 plane is infeasible

    # Brute-force reference: best record per taper sample through the
    # scalar pipeline, same tie-breaking.
    points = list(enumerate_grid(bounds))
    lam_axis = list(bounds.lambda_axis())
    for ilam, lam in enumerate(lam_axis):
        records = [evaluate_design(p, springs) for p in points
                   if p[4] == lam and p[1] > 0.0]
        key = min((-r.alpha_sing, r.total_energy, r.x[0], r.x[1], r.x[3])
                  for r in records)
        reference = next(r for r in records
                         if (-r.alpha_sing, r.total_energy,
                             r.x[0], r.x[1], r.x[3]) == key)
        payload = chunk_best[ilam]
        neg_alpha, e_total, h1, h2, l1, lam_out, l2 = payload[:7]
        e0, e_sing, code, curvature = payload[7:]
        assert -neg_alpha == pytest.approx(reference.alpha_sing, abs=1e-9)
        assert h1 == reference.x[0] and h2 == reference.x[1]
        assert l1 == reference.x[3] and lam_out == lam
        assert l2 == pytest.approx(reference.l2, rel=1e-15)
        assert e_total == pytest.approx(reference.total_energy, rel=1e-8)
        assert e0 == pytest.approx(reference.energy_at_zero, rel=1e-12)
        assert e_sing == pytest.approx(reference.energy_at_sing, rel=1e-8)
        assert (Stability.STABLE, Stability.UNSTABLE,
                Stability.NEUTRAL)[code] is reference.stability
        assert curvature == pytest.approx(reference.curvature,
                                          rel=1e-6, abs=1e-9)


def test_quartic_kernel_agrees_with_sturm_fallback_on_grid_designs():
    bounds = DesignBounds(h1_res=5, h2_res=11, l1_res=9, lambda_res=5)
    h1, h2, _, l1, lam = (np.array(v) for v in zip(*enumerate_grid(bounds)))
    feasible = h2 > 0.0
    h1, h2, l1, lam = (v[feasible] for v in (h1, h2, l1, lam))
    l2 = lam * l1
    coeffs = quartic_coefficients(h1, h2, h1, l1, l2)
    roots, _, _, certified = quartic_real_roots(coeffs)
    assert certified.sum() >= 0.9 * len(certified)
    for row, found in zip(coeffs[certified], roots[certified]):
        p = Polynomial(tuple(row))
        bound = cauchy_root_bound(p)
        sturm = real_roots(p, -bound, bound)
        assert sturm.multiplicities == (1,) * len(sturm.roots)
        assert 2.0 * np.arctan(found[found == found]) == pytest.approx(
            2.0 * np.arctan(sturm.roots), abs=1e-12)

    # The sweep's capped score is the scalar API's, bit for bit off the flat
    # face (which the sweep takes in closed form).
    optimizer_module = importlib.import_module("tenseg.optimizer")
    nearest = optimizer_module._nearest_singularity_block(h1, h2, h1, l1, l2)
    for row in range(len(h1)):
        g = SegmentGeometry(h1=h1[row], h2=h2[row], h3=h1[row], l1=l1[row],
                            l2=l2[row])
        scalar = capped_alpha_sing(singular_angles(g).alpha_sing)
        swept = capped_alpha_sing(float(nearest[row]))
        if h1[row] > 0.0:
            assert swept == scalar
        else:
            assert swept == pytest.approx(scalar, abs=1e-12)


# ---------------------------------------------------------------------------
# full search


@pytest.fixture(scope="module")
def small_report():
    bounds = DesignBounds(h1_res=3, h2_res=5, l1_res=6, lambda_res=4)
    return optimize(bounds=bounds, springs=SpringSpec(), workers=1)


def test_report_structure(small_report):
    report = small_report
    assert len(report.best) == 4
    lams = [r.lam for r in report.best]
    assert lams == sorted(lams)
    assert report.n_designs == 3 * 5 * 6 * 4
    assert report.n_feasible == report.n_designs - 3 * 6 * 4
    assert report.max_alpha_sing == max(r.alpha_sing for r in report.best)


def test_report_curves_match_records(small_report):
    report = small_report
    for record, (lam, l1, l2) in zip(report.best, report.lambda_curve):
        assert (lam, l1, l2) == (record.lam, record.x[3], record.l2)
    for record, (lam, e_t) in zip(report.best, report.energy_curve):
        assert (lam, e_t) == (record.lam, record.total_energy)


def test_best_records_satisfy_design_reductions(small_report):
    for record in small_report.best:
        h1, h2, h3, l1, lam = record.x
        assert h3 == h1
        assert record.l2 == lam * l1
        assert 0.0 <= record.alpha_sing <= math.pi / 2
        assert record.feasible


def test_best_records_agree_with_scalar_evaluation(small_report):
    for record in small_report.best:
        reference = evaluate_design(record.x)
        assert record.alpha_sing == pytest.approx(reference.alpha_sing,
                                                  abs=1e-9)
        assert record.total_energy == pytest.approx(reference.total_energy,
                                                    rel=1e-8)
        assert record.stability is reference.stability


def test_optimize_deterministic_across_workers():
    bounds = DesignBounds(h1_res=5, h2_res=9, l1_res=24, lambda_res=5)
    assert bounds.grid_size == 5400  # spans three work chunks
    serial = optimize(bounds=bounds, workers=1)
    parallel = optimize(bounds=bounds, workers=3)
    assert serial == parallel  # dataclass equality: bitwise-identical floats


def test_optimize_empty_grid(monkeypatch):
    optimizer_module = importlib.import_module("tenseg.optimizer")
    monkeypatch.setattr(optimizer_module.DesignBounds, "h2_axis",
                        lambda self: np.zeros(self.h2_res))
    with pytest.raises(EmptyGrid):
        optimize(bounds=DesignBounds(h1_res=2, h2_res=2, l1_res=2,
                                     lambda_res=2), workers=1)


def test_optimize_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        optimize(bounds=DesignBounds(2, 2, 2, 2), workers=0)


def test_refinement_never_loses_the_optimum():
    # The finer grid shares every coarse sample point (axis construction),
    # so each per-taper best can only improve.
    coarse = optimize(bounds=DesignBounds(3, 3, 3, 4), workers=1)
    fine = optimize(bounds=DesignBounds(5, 5, 9, 7), workers=1)
    fine_by_lam = {r.lam: r for r in fine.best}
    for record in coarse.best:
        assert record.lam in fine_by_lam
        assert fine_by_lam[record.lam].alpha_sing >= record.alpha_sing - 1e-12


def test_search_prefers_lower_total_energy_between_ties(small_report):
    # Every best record attains the per-taper maximum score; among designs
    # with the same score it has minimal total energy.  Tolerances absorb the
    # tiny float drift between the chunked sweep and the scalar reference.
    bounds = DesignBounds(h1_res=3, h2_res=5, l1_res=6, lambda_res=4)
    points = list(enumerate_grid(bounds))
    for record in small_report.best:
        rivals = [evaluate_design(p) for p in points
                  if p[4] == record.lam and p[1] > 0.0]
        top = max(r.alpha_sing for r in rivals)
        assert record.alpha_sing == pytest.approx(top, abs=1e-12)
        ties = [r for r in rivals if r.alpha_sing == top]
        best_energy = min(t.total_energy for t in ties)
        assert record.total_energy <= best_energy * (1.0 + 1e-8) + 1e-12


@pytest.mark.parametrize("chunk", [7, 64])
def test_small_chunks_integrate_only_the_tie_set(monkeypatch, small_report,
                                                 chunk):
    # Chunk boundaries cut through tapers (90 designs each); a chunk
    # integrates energy only for the rows at its per-taper maximum score.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    bounds = small_report.bounds
    integrated = []
    block = optimizer_module._total_energy_block

    def counting_block(h1, h2, h3, l1, l2, *rest):
        integrated.extend(zip(h1.tolist(), h2.tolist(), l1.tolist(),
                              l2.tolist()))
        return block(h1, h2, h3, l1, l2, *rest)

    monkeypatch.setattr(optimizer_module, "_CHUNK", chunk)
    monkeypatch.setattr(optimizer_module, "_total_energy_block",
                        counting_block)
    report = optimize(bounds=bounds, springs=small_report.springs, workers=1)
    assert report == small_report

    points = list(enumerate_grid(bounds))
    for record in report.best:
        rivals = [evaluate_design(p) for p in points
                  if p[4] == record.lam and p[1] > 0.0]
        key = min((-r.alpha_sing, r.total_energy, r.x[0], r.x[1], r.x[3])
                  for r in rivals)
        assert (record.x[0], record.x[1], record.x[3]) == key[2:]
        assert -record.alpha_sing == pytest.approx(key[0], abs=1e-9)

    # Independent tie sets: the sweep's own scores, grouped per chunk and
    # taper in plain Python.
    h1, h2, _, l1, lam = (np.array(v) for v in zip(*points))
    l2 = lam * l1
    nearest = optimizer_module._nearest_singularity_block(h1, h2, h1, l1, l2)
    expected = []
    for start in range(0, len(points), chunk):
        peaks = {}
        rows = [i for i in range(start, min(start + chunk, len(points)))
                if h2[i] > 0.0]
        scores = {i: capped_alpha_sing(float(nearest[i])) for i in rows}
        for i in rows:
            peaks[lam[i]] = max(peaks.get(lam[i], -math.inf), scores[i])
        expected += [(h1[i], h2[i], l1[i], l2[i]) for i in rows
                     if scores[i] == peaks[lam[i]]]
    assert sorted(integrated) == sorted(expected)
    assert len(expected) < report.n_feasible
