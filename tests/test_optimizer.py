"""Tests for the design grid search and its vectorised evaluation path."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tenseg import (DesignBounds, InvalidGeometry, SegmentGeometry,
                    SpringParams, Stability, classify_home_stability,
                    energy, optimize, rest_length, singular_angles,
                    total_energy)
from tenseg.energy import _energy_lower_bound
from tenseg.geometry import _condition_terms
from tenseg.optimizer import (DesignRecord, H1_RANGE, H2_RANGE, L1_RANGE,
                              LAMBDA_RANGE, _SNAP)
from conftest import (capped_alpha_sing, oracle_real_roots,
                      per_row_energy_integral)
from tenseg.singularity import (_flat_angle, quartic_coefficients,
                                quartic_real_roots)

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


def evaluate_design(x, springs: SpringParams | None = None) -> DesignRecord:
    """Evaluate one design vector through the scalar reference pipeline."""
    springs = springs or SpringParams()
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
    verdict = classify_home_stability(g, springs)
    return DesignRecord(
        x=x,
        l2=l2,
        feasible=True,
        alpha_sing=alpha_sing,
        total_energy=total_energy(g, springs, alpha_sing=alpha_sing),
        energy_at_zero=float(energy(g, springs, 0.0)),
        energy_at_sing=float(energy(g, springs, alpha_sing)),
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
    dict(h1_res=10**4, h2_res=10**4),  # 4e9 designs, past the grid limit
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
    # The CLI prints these messages after "config error: springs: ".
    for kwargs, message in [
            (dict(k1=0.0), "k1 must be > 0, got 0.0"),
            (dict(k2=math.inf), "k2 must be > 0, got inf"),
            (dict(rest_fraction=1.0),
             "rest_fraction must lie in (0, 1), got 1.0")]:
        with pytest.raises(ValueError) as caught:
            SpringParams(**kwargs)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# vectorised sweep vs the scalar reference


def test_chunk_evaluation_matches_reference():
    bounds = DesignBounds(h1_res=4, h2_res=5, l1_res=6, lambda_res=3)
    springs = SpringParams()
    report = optimize(bounds=bounds, springs=springs)
    assert report.n_designs == bounds.grid_size == 360
    assert report.n_feasible == 360 - 4 * 6 * 3  # h2 = 0 plane is infeasible

    # Brute-force reference: best record per taper sample through the
    # scalar pipeline, same tie-breaking.  The key puts the total energy
    # right after the score, so among the designs at the best score the
    # winner has the least energy, and only then the smallest design vector.
    points = list(enumerate_grid(bounds))
    assert len(report.best) == bounds.lambda_res
    for record, lam in zip(report.best, bounds.lambda_axis()):
        records = [evaluate_design(p, springs) for p in points
                   if p[4] == lam and p[1] > 0.0]
        key = min((-r.alpha_sing, r.total_energy, r.x[0], r.x[1], r.x[3])
                  for r in records)
        reference = next(r for r in records
                         if (-r.alpha_sing, r.total_energy,
                             r.x[0], r.x[1], r.x[3]) == key)
        assert record.alpha_sing == pytest.approx(reference.alpha_sing,
                                                  abs=1e-9)
        assert record.x == reference.x and record.lam == lam
        assert record.l2 == pytest.approx(reference.l2, rel=1e-15)
        # The sweep and the scalar API share the energy kernels, and a row
        # does not depend on the other rows of a call.
        assert record.total_energy == reference.total_energy
        assert record.curvature == reference.curvature
        assert record.energy_at_zero == pytest.approx(reference.energy_at_zero,
                                                      rel=1e-12)
        assert record.energy_at_sing == pytest.approx(reference.energy_at_sing,
                                                      rel=1e-8)
        assert record.stability is reference.stability


def grid_axes(bounds: DesignBounds):
    """The sweep's axes, outermost first: ``(lam, h1, h2, l1)``."""
    return (bounds.lambda_axis(), bounds.h1_axis(), bounds.h2_axis(),
            bounds.l1_axis())


def refuse_certificate(patch):
    """Make the axis certificate refuse every taper, so that pass 1 scores
    the whole grid row by row through ``_scores``."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    patch.setattr(optimizer_module, "_certified",
                  lambda axes, bar, b: np.zeros(len(bar), dtype=bool))


def refuse_prune(patch):
    """Make the per-row prune settle no row, so that ``_scores`` solves
    every row it is given."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    patch.setattr(optimizer_module, "_pruned",
                  lambda coeffs, b: np.zeros(len(coeffs), dtype=bool))


def pass1_scores(bounds: DesignBounds) -> np.ndarray:
    """The sweep's pass-1 score array of the grid, as ``optimize`` forms it."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    return optimizer_module._score_grid(grid_axes(bounds))


def brute_scores(bounds: DesignBounds) -> np.ndarray:
    """Pass 1 with the certificate and the prune refused: the face's closed
    form on the flat rows, and every feasible non-flat row solved."""
    with pytest.MonkeyPatch.context() as patch:
        refuse_certificate(patch)
        refuse_prune(patch)
        return pass1_scores(bounds)


def feasible_nonflat_rows(bounds: DesignBounds) -> np.ndarray:
    """Flat indices of the grid's rows with ``h1 > 0`` and ``h2 > 0``."""
    _, h1, h2, _, _ = importlib.import_module("tenseg.optimizer")._grid_rows(
        grid_axes(bounds), np.arange(bounds.grid_size))
    return np.flatnonzero((h1 > 0.0) & (h2 > 0.0))


def rowwise_scores(bounds: DesignBounds, chunk=None) -> np.ndarray:
    """Pass 1 with the certificate refused: the face on the flat rows, and
    the ``_scores`` of consecutive chunks of ``chunk`` (``_CHUNK`` if None)
    feasible non-flat rows, after asserting that those calls took every
    such row once, in order, and no other."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    scores, calls = optimizer_module._scores, []

    def recording_scores(axes, b, index):
        calls.append(index)
        return scores(axes, b, index)

    with pytest.MonkeyPatch.context() as patch:
        refuse_certificate(patch)
        patch.setattr(optimizer_module, "_scores", recording_scores)
        if chunk is not None:
            patch.setattr(optimizer_module, "_CHUNK", chunk)
        score = pass1_scores(bounds)
        chunk = optimizer_module._CHUNK
    assert np.array_equal(np.concatenate(calls),
                          feasible_nonflat_rows(bounds))
    assert all(len(index) == chunk for index in calls[:-1])
    return score


def closed_form_cap_region(bounds: DesignBounds) -> set[int]:
    """Flat indices of the designs with ``h1 = 0`` and
    ``h2/l1 >= 4 lam/(1 + lam)``, decided exactly on the values the grid's
    axes are meant to hold (the box's decimal bounds as fractions)."""
    n_h1, n_h2, n_l1, n_lam = bounds.resolutions
    lam_lo, lam_hi = (Fraction(str(v)) for v in LAMBDA_RANGE)
    h2_hi, l1_hi = Fraction(str(H2_RANGE[1])), Fraction(str(L1_RANGE[1]))
    region = set()
    for ilam in range(n_lam):
        lam = lam_lo + (lam_hi - lam_lo) * Fraction(ilam, n_lam - 1)
        for ih2 in range(n_h2):
            h2 = h2_hi * Fraction(ih2, n_h2 - 1)
            for il1 in range(n_l1):
                l1 = l1_hi * (il1 + Fraction(1, 2)) / n_l1
                if h2 * (1 + lam) >= 4 * lam * l1:
                    region.add(int(np.ravel_multi_index(
                        (ilam, 0, ih2, il1), (n_lam, n_h1, n_h2, n_l1))))
    return region


@pytest.mark.parametrize("resolutions, size", [
    ((11, 21, 45, 20), 4462),  # the default grid
    ((3, 5, 9, 4), 54),  # two designs on the boundary, at lam = 1
    ((4, 9, 18, 7), 297),
])
def test_cap_set_is_the_closed_form_region(resolutions, size):
    # A flat design (h1 = h3 = 0) is singular at arcsin(h2 (1 + lam) /
    # (4 lam l1)), so it reaches the pi/2 cap exactly when that ratio is at
    # least 1; a design with h1 > 0 has a singularity inside (-pi/2, 0).
    # Both ways of scoring pass 1 must find it: with the axis certificate,
    # and row by row with the certificate refused.
    bounds = DesignBounds(*resolutions)
    for score in (pass1_scores(bounds), rowwise_scores(bounds)):
        cap = set(np.flatnonzero(score == math.pi / 2).tolist())
        assert cap == closed_form_cap_region(bounds)
        assert len(cap) == size


def test_quartic_kernel_agrees_with_oracle_on_grid_designs():
    bounds = DesignBounds(h1_res=5, h2_res=11, l1_res=9, lambda_res=5)
    h1, h2, _, l1, lam = (np.array(v) for v in zip(*enumerate_grid(bounds)))
    feasible = h2 > 0.0
    h1, h2, l1, lam = (v[feasible] for v in (h1, h2, l1, lam))
    l2 = lam * l1
    coeffs = quartic_coefficients(h1, h2, h1, l1, l2)
    roots, _, _, certified = quartic_real_roots(coeffs)
    assert certified.sum() >= 0.9 * len(certified)
    for row, found in zip(coeffs[certified], roots[certified]):
        oracle = oracle_real_roots(row)
        assert 2.0 * np.arctan(found[found == found]) == pytest.approx(
            2.0 * np.arctan(oracle), abs=1e-12)

    # The sweep's capped score, every row solved, is the scalar API's, bit
    # for bit, on the flat face (both take its closed form) and off it.
    score = brute_scores(bounds)[feasible]
    for row in range(len(h1)):
        g = SegmentGeometry(h1=h1[row], h2=h2[row], h3=h1[row], l1=l1[row],
                            l2=l2[row])
        scalar = capped_alpha_sing(singular_angles(g).alpha_sing)
        assert score[row] == scalar


def test_sweep_flat_rows_equal_singular_angles_bit_for_bit():
    # All 18,000 feasible flat rows of the default grid, uncapped: the
    # sweep's face and singular_angles take the same closed form.  Its
    # arcsin is steep where the ratio nears 1, so any second route would
    # differ there.
    bounds = DesignBounds()
    h1, h2, _, l1, lam = (np.array(v) for v in zip(*enumerate_grid(bounds)))
    flat = (h1 == 0.0) & (h2 > 0.0)
    h2, l1, l2 = h2[flat], l1[flat], lam[flat] * l1[flat]
    assert len(h2) == 18_000
    nearest = np.fmin(_flat_angle(h2, l1, l2), math.pi / 2)
    scalar = [singular_angles(SegmentGeometry(0.0, a, 0.0, b, c)).alpha_sing
              for a, b, c in zip(h2.tolist(), l1.tolist(), l2.tolist())]
    assert nearest.tolist() == scalar
    assert pass1_scores(bounds)[flat].tolist() == [
        capped_alpha_sing(v) for v in scalar]


# ---------------------------------------------------------------------------
# pruning against each taper's flat bar


def test_survivors_reach_the_kernel_and_match_the_unpruned_sweep(monkeypatch):
    # On this grid, with two l1 samples, three non-flat rows are not settled
    # by their taper's bar, and one of them wins lam = 1.  Every other sweep
    # test's grid leaves the kernel nothing to solve.  The axis certificate
    # settles the three tapers capped at pi/2, so the sweep mixes both
    # paths; with it refused, every taper goes row by row.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    bounds = DesignBounds(5, 6, 2, 4)
    assert certificate_calls(bounds)[1].tolist() == [True, True, True, False]
    solved = []

    def counting_kernel(coeffs):
        solved.append(len(coeffs))
        return quartic_real_roots(coeffs)

    monkeypatch.setattr(optimizer_module, "quartic_real_roots",
                        counting_kernel)
    report = optimize(bounds=bounds)
    assert solved == [3]
    with monkeypatch.context() as patch:
        refuse_certificate(patch)
        assert optimize(bounds=bounds) == report
    assert solved == [3, 3]
    winner = report.best[-1]
    assert winner.lam == 1.0 and winner.x[0] == 0.25
    assert winner.alpha_sing == pytest.approx(1.2693, abs=1e-4)

    # The brute force solves every feasible non-flat row through the
    # kernel, then takes the same cap, tie set and tie-break.
    refuse_certificate(monkeypatch)
    refuse_prune(monkeypatch)
    brute = optimize(bounds=bounds)
    assert solved[2:] == [4 * 5 * 2 * 4]  # h1 > 0, h2 > 0, every l1 and lam
    assert report == brute


@pytest.mark.parametrize("resolutions", [
    (5, 6, 2, 4), (3, 3, 2, 5), (6, 11, 2, 10), (4, 5, 6, 3)])
def test_pruned_rows_score_below_their_taper_peak(resolutions):
    # Rows settled by the axis certificate and rows pruned one by one (the
    # certificate refused) alike.
    bounds = DesignBounds(*resolutions)
    shape = (bounds.lambda_res, -1)
    exact = brute_scores(bounds).reshape(shape)
    peak = np.broadcast_to(exact.max(axis=1)[:, None], exact.shape)
    for score in (pass1_scores(bounds), rowwise_scores(bounds)):
        score = score.reshape(shape)
        assert np.array_equal(score.max(axis=1), exact.max(axis=1))
        pruned = score != exact
        assert pruned.any()
        # A pruned row keeps a finite score below its taper's peak, so it
        # counts as feasible and joins no tie set; solved, it scores below
        # the peak too.
        assert (np.isfinite(score[pruned]) & (score[pruned] < peak[pruned])
                & (exact[pruned] < peak[pruned])).all()


def test_default_grid_solves_no_row(monkeypatch):
    # Every one of the 180,000 feasible non-flat rows is settled unsolved,
    # and the 18,000 flat ones take the closed form.  The axis certificate
    # forms no quartic at all; with it refused, the per-row prune forms one
    # for each of those rows alone and settles it against its taper's bar.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    formed = []

    def no_kernel(coeffs):
        # Each chunk calls the kernel, on no row when the prune settles all.
        if len(coeffs):
            raise AssertionError(f"{len(coeffs)} rows reached the kernel")
        return quartic_real_roots(coeffs)

    def counting_coefficients(h1, *rest):
        formed.append(len(h1))
        return quartic_coefficients(h1, *rest)

    monkeypatch.setattr(optimizer_module, "quartic_real_roots", no_kernel)
    monkeypatch.setattr(optimizer_module, "quartic_coefficients",
                        counting_coefficients)
    report = optimize()
    assert formed == []
    refuse_certificate(monkeypatch)
    assert optimize() == report
    assert sum(formed) == 10 * 20 * 45 * 20
    assert (report.n_designs, report.n_feasible) == (207_900, 198_000)
    assert all(r.alpha_sing == math.pi / 2 for r in report.best)


# ---------------------------------------------------------------------------
# the axis certificate: capped tapers settled from the extremes of their axes


# Every grid the tests and goldens sweep (TEST_GRIDS, the cap-region and
# pruning tests' and the CLI's), and two larger ones.
PASS1_GRIDS = [(3, 5, 6, 4), (3, 4, 5, 3), (4, 6, 5, 3), (5, 6, 2, 4),
               (3, 3, 3, 4), (5, 5, 9, 7), (4, 5, 6, 3), (5, 11, 9, 5),
               (11, 21, 45, 20), (3, 5, 9, 4), (4, 9, 18, 7), (3, 3, 2, 5),
               (6, 11, 2, 10), (2, 3, 4, 3), (2, 3, 3, 2), (2, 2, 2, 2),
               (6, 11, 23, 10), (21, 41, 90, 27)]


def certificate_calls(bounds: DesignBounds):
    """The ``(axes, bar, b)`` that pass 1 hands the certificate, and what
    it answers."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    certify, calls = optimizer_module._certified, []

    def recording_certificate(*args):
        calls.append((args, certify(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "_certified", recording_certificate)
        pass1_scores(bounds)
    (call,) = calls
    return call


@pytest.mark.parametrize("resolutions", PASS1_GRIDS)
def test_axis_bound_holds_exactly_on_every_capped_taper(resolutions):
    # Recomputed here in exact arithmetic from the rows' own values: the
    # loop-1 condition at -b is at least 4 h (h2 cos d + (l1 + l2) cos 2d)
    # - 2 d (h2 (l1 + l2) + 4 l1 l2), d = pi/2 - b, with the positive part
    # at the smallest positive samples and the rest at the largest.  Every
    # taper capped at pi/2 passes, by a wide margin (510 at least on these
    # grids), and no other is tried.
    bounds = DesignBounds(*resolutions)
    (axes, bar, b), certified = certificate_calls(bounds)
    assert certified.tolist() == (bar == math.pi / 2).tolist()
    lam = axes[0]
    _, rows_h1, rows_h2, rows_l1, rows_lam = importlib.import_module(
        "tenseg.optimizer")._grid_rows(axes, np.arange(bounds.grid_size))
    rows_l2 = rows_lam * rows_l1
    A, B, C, D = _condition_terms(rows_h1, rows_h2, rows_h1, rows_l1, rows_l2)
    half_pi = Fraction(math.nextafter(math.pi, math.inf)) / 2
    for i in np.flatnonzero(certified):
        d = half_pi - Fraction(b[i])
        assert 0 < d < 1e-6
        row = (rows_lam == lam[i]) & (rows_h1 > 0.0) & (rows_h2 > 0.0)
        h, h2lo, h2hi = (Fraction(v) for v in (
            rows_h1[row].min(), rows_h2[row].min(), rows_h2[row].max()))
        l1lo, l1hi, l2lo, l2hi = (Fraction(f(v[row])) for v in (
            rows_l1, rows_l2) for f in (np.min, np.max))
        left = 4 * h * (h2lo * (1 - d**2 / 2) + (l1lo + l2lo) * (1 - 2 * d**2))
        right = 2 * d * (h2hi * (l1hi + l2hi) + 4 * l1hi * l2hi)
        assert left > 100 * right  # 2,062 at least on the default grid
        # No row of the taper falls below the bound: the condition at -b,
        # in floats, clears it by far more than its rounding.
        a = -b[i]
        cond = (A[row] * math.sin(a) + B[row] * math.cos(a)
                + C[row] * math.cos(2 * a) + D[row] * math.sin(2 * a))
        assert (cond >= float(left - right)).all()


def test_certificate_refuses_a_tiny_h1_sample(monkeypatch):
    # With h1 = 1e-9 the condition at -b is about -2 d (h2 (l1 + l2) + ...),
    # negative: some rows are singular only near -pi/2, score the cap and
    # join the tie set.  The certificate must refuse every taper and leave
    # the grid to the row-by-row prune and kernel, which then agree with
    # the sweep that solves every row.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    bounds = DesignBounds(3, 5, 6, 4)
    assert certificate_calls(bounds)[1].all()
    usual = pass1_scores(bounds), optimize(bounds=bounds)

    def h1_axis(self):
        axis = np.linspace(H1_RANGE[0], H1_RANGE[1], self.h1_res)
        axis[1] = 1e-9
        return axis

    monkeypatch.setattr(optimizer_module.DesignBounds, "h1_axis", h1_axis)
    assert not certificate_calls(bounds)[1].any()
    solved = []

    def counting_kernel(coeffs):
        solved.append(len(coeffs))
        return quartic_real_roots(coeffs)

    monkeypatch.setattr(optimizer_module, "quartic_real_roots",
                        counting_kernel)
    score = pass1_scores(bounds)
    assert sum(solved) > 0 and (score == math.pi / 2).sum() > len(
        closed_form_cap_region(bounds))
    assert np.array_equal(score, rowwise_scores(bounds))
    report = optimize(bounds=bounds)
    with monkeypatch.context() as patch:
        refuse_certificate(patch)
        assert optimize(bounds=bounds) == report
        refuse_prune(patch)
        assert optimize(bounds=bounds) == report
    # Each call builds its axes afresh: nothing of the patch outlives it.
    monkeypatch.undo()
    assert not np.array_equal(score, usual[0])
    assert np.array_equal(pass1_scores(bounds), usual[0])
    assert optimize(bounds=bounds) == usual[1]


@pytest.mark.parametrize("resolutions", PASS1_GRIDS)
def test_pass1_scores_equal_the_rowwise_scores(resolutions):
    # Bit for bit, in chunks of every size the sweep tests use: each capped
    # taper's non-flat rows are settled by the per-row prune too, at the
    # same b, and the flat face takes the same closed form.
    bounds = DesignBounds(*resolutions)
    score = pass1_scores(bounds).view(np.int64)
    for chunk in (4096, 2048, 1001):
        rowwise = rowwise_scores(bounds, chunk).view(np.int64)
        assert np.array_equal(score, rowwise)


@pytest.mark.parametrize("refused", [False, True],
                         ids=["certified", "refused"])
@pytest.mark.parametrize("resolutions, reaching, solved", [
    ((5, 6, 2, 4), 40, 3), ((11, 21, 2, 20), 1_600, 33),
    ((41, 41, 2, 40), 28_800, 520)])
def test_pass1_scores_each_row_by_one_route(monkeypatch, resolutions,
                                            reaching, solved, refused):
    # Each row takes one of four sources: the face (h1 = 0), infeasible
    # (h2 = 0), the certificate, or _scores.  Only the feasible non-flat rows
    # of the tapers the certificate leaves reach _scores (all of them when
    # it is refused), and the prune settles the same rows either way.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    bounds = DesignBounds(*resolutions)
    scores, calls, kernel_rows = optimizer_module._scores, [], []

    def recording_scores(axes, b, index):
        calls.append(index)
        return scores(axes, b, index)

    def counting_kernel(coeffs):
        kernel_rows.append(len(coeffs))
        return quartic_real_roots(coeffs)

    if refused:
        refuse_certificate(monkeypatch)
        reaching = len(feasible_nonflat_rows(bounds))
    monkeypatch.setattr(optimizer_module, "_scores", recording_scores)
    monkeypatch.setattr(optimizer_module, "quartic_real_roots",
                        counting_kernel)
    score = pass1_scores(bounds)
    index = np.concatenate(calls)
    _, h1, h2, _, _ = optimizer_module._grid_rows(grid_axes(bounds), index)
    assert (h1 > 0.0).all() and (h2 > 0.0).all()
    assert len(index) == reaching
    assert sum(kernel_rows) == solved
    assert not np.isnan(score).any()


@given(st.tuples(st.floats(0.0, 100.0), st.floats(0.01, 100.0),
                 st.floats(0.0, 100.0), st.floats(0.01, 100.0),
                 st.floats(0.01, 100.0)).filter(lambda d: d[0] + d[2] >= 0.01),
       st.floats(0.0, 0.5 * math.pi - 2.0 * _SNAP, exclude_min=True,
                 exclude_max=True))
@example((0.25, 2.0, 0.25, 1.125, 1.125), 1.27)  # pruned: 1.2693 < 1.27
@example((0.25, 2.0, 0.25, 1.125, 1.125), 1.26)  # not pruned
@settings(max_examples=300, deadline=None)
def test_prune_certificate_is_sound(dims, b):
    # The sweep prunes just below its bar b.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    pruned = optimizer_module._pruned(
        quartic_coefficients(*dims)[None, :],
        np.array([b * (1.0 - 4.0 * np.finfo(float).eps)]))
    if pruned[0]:
        assert singular_angles(SegmentGeometry(*dims)).alpha_sing < b


# ---------------------------------------------------------------------------
# full search


@pytest.fixture(scope="module")
def small_report():
    bounds = DesignBounds(h1_res=3, h2_res=5, l1_res=6, lambda_res=4)
    return optimize(bounds=bounds, springs=SpringParams())


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


@given(st.tuples(*[st.integers(2, 6)] * 4))
@settings(max_examples=100, deadline=None)
def test_every_taper_has_a_feasible_peak(resolutions):
    # At least two h2 samples, the last at H2_RANGE[1] > 0: only the h2 = 0
    # plane is infeasible, so no grid is empty and no taper lacks a winner.
    bounds = DesignBounds(*resolutions)
    assert bounds.h2_axis()[-1] == H2_RANGE[1] > 0.0
    report = optimize(bounds=bounds)
    assert report.n_feasible == bounds.grid_size - (
        bounds.h1_res * bounds.l1_res * bounds.lambda_res)
    assert [r.lam for r in report.best] == bounds.lambda_axis().tolist()
    for record in report.best:
        assert record.feasible and 0.0 < record.alpha_sing <= math.pi / 2
        assert 0.0 < record.total_energy < math.inf


def test_refinement_never_loses_the_optimum():
    # The finer grid shares every coarse sample point (axis construction),
    # so each per-taper best can only improve.
    coarse = optimize(bounds=DesignBounds(3, 3, 3, 4))
    fine = optimize(bounds=DesignBounds(5, 5, 9, 7))
    fine_by_lam = {r.lam: r for r in fine.best}
    for record in coarse.best:
        assert record.lam in fine_by_lam
        assert fine_by_lam[record.lam].alpha_sing >= record.alpha_sing - 1e-12


@pytest.mark.parametrize("chunk", [7, 64])
def test_small_chunks_integrate_only_the_tie_set(monkeypatch, small_report,
                                                 chunk):
    # Chunk boundaries cut through tapers (90 designs each), but the tie set
    # is the grid's: each energy integral takes ties of one taper, in taper
    # order, with that taper's peak as its range.  Every winner is among
    # them, every tie left out has a lower bound above its taper's winning
    # E_t, and one stability call takes the winners.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    bounds = small_report.bounds
    calls = {"_energy_integral": [], "_home_stability": []}
    # After the dimensions the integral takes l0, k1, k2 and the stability
    # the home length too: 3 and 4 arguments before the rest.
    for (name, rows), skip in zip(calls.items(), (3, 4)):
        def counting_kernel(h1, h2, h3, l1, l2, *args,
                            kernel=getattr(optimizer_module, name), rows=rows,
                            skip=skip):
            # rest is the energy integral's range; the stability has none.
            rest = args[skip:]
            rows.append((sorted(zip(h1.tolist(), h2.tolist(), l1.tolist(),
                                    l2.tolist())), rest))
            return kernel(h1, h2, h3, l1, l2, *args)

        monkeypatch.setattr(optimizer_module, name, counting_kernel)
    monkeypatch.setattr(optimizer_module, "_CHUNK", chunk)
    refuse_certificate(monkeypatch)  # so that pass 1 runs in these chunks
    report = optimize(bounds=bounds, springs=small_report.springs)
    assert report == small_report

    # Independent tie set: the sweep's own scores, with each taper's peak
    # taken over the whole grid in plain Python.
    points = list(enumerate_grid(bounds))
    h1, h2, _, l1, lam = (np.array(v) for v in zip(*points))
    l2 = lam * l1
    brute = brute_scores(bounds)
    scores = {i: float(brute[i]) for i in range(len(points)) if h2[i] > 0.0}
    peaks = {}
    for i, score in scores.items():
        peaks[lam[i]] = max(peaks.get(lam[i], -math.inf), score)
    ties = {}
    for i, score in scores.items():
        if score == peaks[lam[i]]:
            ties.setdefault(float(lam[i]), []).append(
                (float(h1[i]), float(h2[i]), float(l1[i]), float(l2[i])))
    taper_of = {row: t for t, rows in ties.items() for row in rows}
    order = []
    for rows, (top,) in calls["_energy_integral"]:
        tapers = {taper_of[row] for row in rows}  # a KeyError: not a tie
        assert len(tapers) <= 1 and all(peaks[t] == top for t in tapers)
        order += [taper_of[row] for row in rows]
    assert order == sorted(order)
    integrated = {row for rows, _ in calls["_energy_integral"] for row in rows}
    assert len(integrated) == len(order)
    winners = {(r.x[0], r.x[1], r.x[3], r.l2) for r in report.best}
    assert winners <= integrated
    left_out = set(taper_of) - integrated
    assert left_out  # this grid's bound leaves ties unintegrated
    k1, k2, fraction = (report.springs.k1, report.springs.k2,
                        report.springs.rest_fraction)
    winning = {r.lam: r.total_energy for r in report.best}
    for h1, h2, l1, l2 in left_out:
        t = taper_of[(h1, h2, l1, l2)]
        g = SegmentGeometry(h1, h2, h1, l1, l2)
        l0 = rest_length(g, fraction)
        assert _energy_lower_bound(h1, h2, h1, l1, l2, l0, k1, k2,
                                   peaks[t]) > winning[t]
    assert calls["_home_stability"] == [(sorted(winners), ())]


@pytest.mark.parametrize("resolutions, n_ties, ranges", [
    ((11, 21, 45, 20), 4462, {1.5708}),  # the default grid, all at the cap
    ((5, 6, 2, 4), 13, {1.5708, 1.2693}),  # lam = 1 peaks below it
])
def test_per_taper_integrals_equal_the_per_row_range_oracle(monkeypatch,
                                                            resolutions,
                                                            n_ties, ranges):
    # The bound sees every tie; each taper's calls share its peak as the
    # range, and every row they integrate, each once, must come out as the
    # kernel that took one range per row gave it.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    kernel = optimizer_module._energy_integral
    bound = optimizer_module._energy_lower_bound
    seen, bounded = [], []

    def recording_kernel(*args):
        seen.append((args, kernel(*args)))
        return seen[-1][1]

    def recording_bound(*args):
        bounded.append(len(args[0]))
        return bound(*args)

    monkeypatch.setattr(optimizer_module, "_energy_integral",
                        recording_kernel)
    monkeypatch.setattr(optimizer_module, "_energy_lower_bound",
                        recording_bound)
    springs = SpringParams(k1=2.0, k2=0.5)
    optimize(bounds=DesignBounds(*resolutions), springs=springs)
    assert bounded == [n_ties]
    rows = [row for args, _ in seen for row in zip(*args[:6])]
    assert resolutions[3] <= len(rows) == len(set(rows)) < n_ties
    assert {round(args[-1], 4) for args, _ in seen} == ranges
    for (*dims, k1, k2, a), got in seen:
        assert np.array_equal(got, per_row_energy_integral(
            *dims, k1, k2, np.full(len(got), a)))


def test_total_energy_breaks_ties_before_the_design_vector(monkeypatch,
                                                           small_report):
    # Energies grow with the design's scale, so on these grids the tie of
    # least energy is also the smallest design; only a reversed energy order
    # shows that the energy, not the design vector, picks among the ties.
    # The kernel returns 1 / E_t, and the bound is that same value per row,
    # so the filter still sees the order it prunes by.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    kernel = optimizer_module._energy_integral
    monkeypatch.setattr(optimizer_module, "_energy_integral",
                        lambda *args: 1.0 / kernel(*args))
    monkeypatch.setattr(optimizer_module, "_energy_lower_bound",
                        lambda *args: 1.0 / per_row_energy_integral(*args))
    bounds = small_report.bounds
    report = optimize(bounds=bounds, springs=small_report.springs)
    score = pass1_scores(bounds)
    points = list(enumerate_grid(bounds))
    for record, usual in zip(report.best, small_report.best, strict=True):
        ties = [evaluate_design(p, small_report.springs)
                for p, s in zip(points, score)
                if p[4] == record.lam and s == usual.alpha_sing]
        assert record.x == max(ties, key=lambda r: r.total_energy).x
    assert any(record.x != usual.x
               for record, usual in zip(report.best, small_report.best))


# ---------------------------------------------------------------------------
# energy filter: only ties whose lower bound can still win are integrated


def integrate_counted(monkeypatch, bounds, springs, unfiltered=False):
    """``optimize``'s report and the number of rows it integrated; with
    ``unfiltered`` the bound is 0, so that every tie is integrated."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    kernel = optimizer_module._energy_integral
    rows = []

    def counting_kernel(*args):
        rows.append(len(args[0]))
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer_module, "_energy_integral", counting_kernel)
        if unfiltered:
            patch.setattr(optimizer_module, "_energy_lower_bound",
                          lambda *args: np.zeros(len(args[0])))
        return optimize(bounds=bounds, springs=springs), sum(rows)


SPRING_SETS = [SpringParams(1.0, 1.0, 0.4), SpringParams(2.0, 0.5, 0.9),
               SpringParams(0.3, 3.0, 0.999)]
# Every grid the tests and goldens sweep, and the default one.
TEST_GRIDS = [(3, 5, 6, 4), (3, 4, 5, 3), (4, 6, 5, 3), (5, 6, 2, 4),
              (3, 3, 3, 4), (5, 5, 9, 7), (4, 5, 6, 3), (5, 11, 9, 5),
              (11, 21, 45, 20)]


@pytest.mark.parametrize("springs", SPRING_SETS,
                         ids=["f0.4", "f0.9-k2-0.5", "f0.999-k0.3-3"])
@pytest.mark.parametrize("resolutions", TEST_GRIDS)
def test_filtered_sweep_equals_the_unfiltered_one(monkeypatch, resolutions,
                                                  springs):
    bounds = DesignBounds(*resolutions)
    report, integrated = integrate_counted(monkeypatch, bounds, springs)
    brute, n_ties = integrate_counted(monkeypatch, bounds, springs, True)
    assert report == brute
    assert bounds.lambda_res <= integrated <= n_ties


@pytest.mark.parametrize("resolutions", [(3, 5, 6, 4), (11, 21, 45, 20)])
def test_a_winner_integrated_after_the_first_tie_still_wins(monkeypatch,
                                                            resolutions):
    # On every test grid the tie of least bound is also the winner (the
    # smallest design), so the second call per taper only adds losers.  Here
    # the energies (all below 11) are squeezed into (1, 1.0001) in their
    # order, and the bound is the squeezed energy of a seeded fraction in
    # [0.5, 1] of each E_t: still a lower bound, but one that ranks the ties
    # otherwise and lies within 1e-5 of every E_t, so the winners come from
    # the second call.
    optimizer_module = importlib.import_module("tenseg.optimizer")
    kernel = optimizer_module._energy_integral

    def squeeze(e_total):
        return 1.0 + 1e-6 * e_total

    monkeypatch.setattr(optimizer_module, "_energy_integral",
                        lambda *args: squeeze(kernel(*args)))
    bounds, springs = DesignBounds(*resolutions), SpringParams(2.0, 0.5, 0.9)
    brute = integrate_counted(monkeypatch, bounds, springs, True)[0]
    rng = np.random.default_rng(5)
    monkeypatch.setattr(optimizer_module, "_energy_lower_bound",
                        lambda *args: squeeze(rng.uniform(0.5, 1.0, len(
                            args[0])) * per_row_energy_integral(*args)))
    calls = []

    def recording_kernel(*args):
        calls.append(args)
        return squeeze(kernel(*args))

    monkeypatch.setattr(optimizer_module, "_energy_integral",
                        recording_kernel)
    report = optimize(bounds=bounds, springs=springs)
    assert report == brute
    firsts = [(args[0][0], args[1][0], args[3][0]) for args in calls[0::2]]
    assert any(first != (r.x[0], r.x[1], r.x[3])
               for first, r in zip(firsts, report.best, strict=True))


@pytest.mark.parametrize("springs, integrated", [
    (SpringParams(1.0, 1.0, 0.4), 20), (SpringParams(2.0, 0.5, 0.9), 102)])
def test_default_grid_integrates_few_of_its_4462_ties(monkeypatch, springs,
                                                      integrated):
    assert integrate_counted(monkeypatch, DesignBounds(), springs)[1] == (
        integrated)


@pytest.fixture(scope="module")
def default_ties():
    """The arguments of the sweep's bound call on the default grid: every
    one of its 4,462 ties, each with its range."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    calls = []

    def recording_bound(*args):
        calls.append(args)
        return _energy_lower_bound(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer_module, "_energy_lower_bound", recording_bound)
        optimize()
    (args,) = calls
    assert len(args[0]) == 4462
    return args


def bound_over_energy(bound, args):
    """``bound(*args)`` over each tie's integrated E_t, after asserting that
    no tie's bound exceeds it."""
    *dims, k1, k2, a = args
    ratio = bound(*args) / per_row_energy_integral(*dims, k1, k2, a)
    assert (ratio <= 1.0).all(), ratio.max()
    return ratio


def test_sweep_rest_lengths_are_those_of_the_scalar_api(default_ties):
    # Pass 2 takes the tie set's rest lengths from the closed form, which
    # must equal the point construction at alpha = 0 and rest_length, row
    # by row and bit for bit.
    from tenseg.geometry import _cable_lengths_raw, _home_length

    h1, h2, h3, l1, l2, l0 = default_ties[:6]
    home = _home_length(h1, h2, h3, l1, l2)
    assert np.array_equal(home, _cable_lengths_raw(h1, h2, h3, l1, l2, 0.0)[0])
    rows = zip(*(v.tolist() for v in default_ties[:5]))
    assert l0.tolist() == [rest_length(SegmentGeometry(*row), 0.4)
                           for row in rows]


def test_bound_is_below_every_default_tie_energy(default_ties):
    # Tight on some rows (0.9996), so that an unsound bound would show.
    assert bound_over_energy(_energy_lower_bound, default_ties).max() > 0.999


def test_an_inflated_bound_fails_the_soundness_check(default_ties):
    with pytest.raises(AssertionError):
        bound_over_energy(lambda *args: 1.01 * _energy_lower_bound(*args),
                          default_ties)
