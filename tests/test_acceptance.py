"""Acceptance gate: the eight headline guarantees of the toolkit.

Each criterion prints one ``criterion N (...): PASS`` / ``FAIL`` line on the
real terminal (bypassing capture) and then asserts, so a single run of this
module gives the complete scorecard.
"""

import importlib
import math
from typing import NamedTuple

import numpy as np
import pytest

from tenseg import (DesignBounds, SegmentGeometry, SpringParams,
                    cable_lengths, classify_home_stability, energy, energy_profile, optimize,
                    singular_angles, singularity_condition, total_energy)
from tenseg.cli import main
from tenseg.energy import Stability
from tenseg.optimizer import H1_RANGE, H2_RANGE, L1_RANGE, LAMBDA_RANGE

from conftest import (STABLE_FLAT, UNIT, UNSTABLE_TALL, cable_lengths_squared,
                      capped_alpha_sing, random_angle, random_geometry,
                      scan_singularities)


@pytest.fixture(scope="module")
def default_report():
    """The design sweep at default resolutions (shared by criteria 4, 5, 7)."""
    return optimize(bounds=DesignBounds(), springs=SpringParams())


@pytest.fixture()
def verdict(capsys):
    def _verdict(number: int, title: str, ok: bool, detail: str = ""):
        line = f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, detail or line
    return _verdict


def test_criterion_1_unit_geometry_singular_angles(verdict):
    """The all-ones segment has four loop-1 singular angles with closed forms."""
    s7 = math.sqrt(7.0)
    expected = sorted([
        math.atan((1.0 - s7) / (-1.0 - s7)) - math.pi,
        -math.pi / 4.0,
        math.atan((1.0 + s7) / (s7 - 1.0)),
        3.0 * math.pi / 4.0,
    ])
    found = singular_angles(UNIT)
    angle_errors = [abs(a - e) for a, e in zip(found.loop1, expected)]
    sing_error = abs(found.alpha_sing - math.pi / 4.0)
    ok = (len(found.loop1) == 4
          and max(angle_errors) <= 1e-9
          and sing_error <= 1e-9)
    verdict(1, "unit-geometry singular angles", ok,
            f"angle errors {angle_errors}, alpha_sing error {sing_error:.3g}")


def test_criterion_2_roots_match_dense_scan(verdict):
    """Polynomial roots of 100 random designs agree with a 10^6-sample scan."""
    rng = np.random.default_rng(421)
    failures = []
    for case in range(100):
        g = random_geometry(rng)
        found = singular_angles(g)
        crossings = [a for a, m in zip(found.loop1, found.multiplicities)
                     if m % 2 == 1]
        brackets = scan_singularities(g, n=1_000_000)
        if len(brackets) != len(crossings):
            failures.append(f"case {case}: {len(crossings)} crossing roots "
                            f"but {len(brackets)} scan brackets")
            continue
        for root, (lo, hi) in zip(sorted(crossings), brackets):
            if abs(root - 0.5 * (lo + hi)) > 1e-5:
                failures.append(f"case {case}: root {root} vs bracket "
                                f"({lo}, {hi})")
    verdict(2, "singularities vs dense scan", not failures,
            "; ".join(failures[:5]))


def test_criterion_3_reference_stability_verdicts(verdict):
    """A flat-plate segment is stable at home, the tall half-width one is not."""
    springs_flat = SpringParams.for_geometry(STABLE_FLAT, 1.0, 1.0, 0.4)
    springs_tall = SpringParams.for_geometry(UNSTABLE_TALL, 1.0, 1.0, 0.4)
    flat = classify_home_stability(STABLE_FLAT, springs_flat)
    tall = classify_home_stability(UNSTABLE_TALL, springs_tall)
    ok = (flat.stability is Stability.STABLE
          and tall.stability is Stability.UNSTABLE)
    verdict(3, "reference stability verdicts", ok,
            f"flat -> {flat.stability.value} (curvature {flat.curvature:.4g}), "
            f"tall -> {tall.stability.value} (curvature {tall.curvature:.4g})")


def test_criterion_4_optimum_reaches_the_cap_with_flat_ends(verdict,
                                                            default_report):
    """Every per-taper optimum deflects to ~pi/2 and uses zero end links."""
    report = default_report
    shortfalls = [math.pi / 2.0 - r.alpha_sing for r in report.best]
    end_links = [r.x[0] for r in report.best]
    ok = (len(report.best) == 20
          and max(shortfalls) <= 0.02
          and all(h1 == 0.0 for h1 in end_links))
    verdict(4, "optimum reaches the deflection cap with flat ends", ok,
            f"max shortfall {max(shortfalls):.4g} rad, "
            f"end links {sorted(set(end_links))}")


class RescaledMember(NamedTuple):
    scale: float
    geometry: SegmentGeometry
    alpha_sing: float
    step: float
    total_energy: float
    stability: Stability


def rescaled_family(records, springs: SpringParams) -> list[RescaledMember]:
    """Rescale each record uniformly to the family's largest energy step.

    A uniform scaling by ``s`` keeps ``alpha_sing`` and the home verdict and
    multiplies every energy by ``s**2``, so the objective fixes a family only
    up to one scale per member.  Each member is scaled by
    ``sqrt(max_step / step)`` and re-evaluated through the public API.
    """
    steps = [r.energy_at_sing - r.energy_at_zero for r in records]
    target = max(steps)
    family = []
    for record, step in zip(records, steps):
        s = math.sqrt(target / step)
        h1, h2, h3, l1, _ = record.x
        g = SegmentGeometry(h1=s * h1, h2=s * h2, h3=s * h3, l1=s * l1,
                            l2=s * record.l2)
        alpha = capped_alpha_sing(singular_angles(g).alpha_sing)
        rise = float(energy(g, springs, alpha)) - float(energy(g, springs, 0.0))
        family.append(RescaledMember(
            s, g, alpha, rise, total_energy(g, springs, alpha_sing=alpha),
            classify_home_stability(g, springs).stability))
    return family


def inside_design_box(g: SegmentGeometry) -> bool:
    """``g`` is a feasible point of the sweep's box (taper up to rounding)."""
    return (H1_RANGE[0] <= g.h1 <= H1_RANGE[1] and g.h3 == g.h1
            and H2_RANGE[0] < g.h2 <= H2_RANGE[1]
            and L1_RANGE[0] < g.l1 < L1_RANGE[1]
            and LAMBDA_RANGE[0] - 1e-12 <= g.lam <= LAMBDA_RANGE[1] + 1e-12)


def test_criterion_5_energy_trends_of_the_best_family(verdict, default_report):
    """A rescaling of the best family keeps a constant energy step and sheds
    total energy.

    The objective (maximise the capped ``alpha_sing``, then minimise ``E_t``)
    is blind to uniform scaling, which keeps ``alpha_sing`` and multiplies
    every energy by the square of the scale, so absolute energies of the
    winners only reflect the grid's smallest samples.  The scale-free claim is
    checked instead: rescaled to a common energy step ``E(alpha_sing) - E(0)``
    and re-evaluated, every member keeps its capped ``alpha_sing`` and home
    verdict and stays inside the design box, the step is constant to within
    5% relative, and the total energy decreases monotonically as the taper
    ratio approaches 1 over the 20 taper samples.
    """
    report = default_report
    family = rescaled_family(report.best, report.springs)
    scales = [m.scale for m in family]
    deltas = [m.step for m in family]
    mean = sum(deltas) / len(deltas)
    spread = (max(deltas) - min(deltas)) / abs(mean)
    totals = [m.total_energy for m in family]
    rises = [(a, b) for a, b in zip(totals, totals[1:]) if b > a + 1e-12]
    changed = [f"taper {r.lam:.3g}" for r, m in zip(report.best, family)
               if abs(m.alpha_sing - r.alpha_sing) > 1e-9
               or m.stability is not r.stability]
    outside = [f"taper {r.lam:.3g}" for r, m in zip(report.best, family)
               if not inside_design_box(m.geometry)]
    ok = (len(deltas) >= 20 and spread <= 0.05 and not rises
          and not changed and not outside)
    verdict(5, "energy trends of the best family", ok,
            f"scale factors {min(scales):.4g}..{max(scales):.4g}; rescaled "
            f"energy step spans {min(deltas):.4g}..{max(deltas):.4g} "
            f"(spread {spread:.2g} of the mean, limit 5%); rescaled total "
            f"energy rises in {len(rises)} of {len(totals) - 1} steps, from "
            f"{totals[0]:.4g} at the smallest taper to {totals[-1]:.4g} at "
            f"the largest; alpha_sing or verdict changed at {changed}; "
            f"outside the design box at {outside}")


def test_criterion_6_analytic_cross_checks(verdict):
    """Cable lengths, the singularity condition and the energy integral
    each agree with an independent evaluation route."""
    rng = np.random.default_rng(90125)
    problems = []

    worst_cable = 0.0
    for _ in range(1000):
        g = random_geometry(rng)
        alpha = random_angle(rng)
        direct = np.asarray(cable_lengths(g, alpha))
        squared = np.sqrt(np.asarray(cable_lengths_squared(g, alpha)))
        worst_cable = max(worst_cable,
                          float(np.max(np.abs(direct - squared) / squared)))
    if worst_cable > 1e-12:
        problems.append(f"cable-length routes diverge by {worst_cable:.3g}")

    step = 1e-6
    worst_cond = 0.0
    for _ in range(100):
        g = random_geometry(rng)
        alpha = random_angle(rng)
        analytic = float(singularity_condition(g, alpha))
        ahead = cable_lengths_squared(g, alpha + step)[0]
        behind = cable_lengths_squared(g, alpha - step)[0]
        fd = (ahead - behind) / (2.0 * step)
        worst_cond = max(worst_cond, abs(analytic - fd) / abs(analytic))
    if worst_cond > 1e-6:
        problems.append(f"condition vs finite difference off by {worst_cond:.3g}")

    worst_energy = 0.0
    for _ in range(20):
        g = random_geometry(rng)
        springs = SpringParams.for_geometry(g, 1.0, 1.0, 0.4)
        alpha_sing = singular_angles(g).alpha_sing
        value = total_energy(g, springs, alpha_sing=alpha_sing)
        grid = np.linspace(-alpha_sing, alpha_sing, 1_000_001)
        dense = float(np.trapezoid(energy(g, springs, grid), grid))
        worst_energy = max(worst_energy, abs(value - dense) / abs(dense))
    if worst_energy > 1e-6:
        problems.append(f"energy integral off by {worst_energy:.3g}")

    verdict(6, "analytic cross-checks", not problems, "; ".join(problems))


def test_criterion_7_best_designs_have_clean_energy_wells(verdict,
                                                          default_report):
    """Each per-taper optimum has its global minimum at home and no interior
    local maximum before the singularity."""
    failures = []
    for record in default_report.best:
        h1, h2, h3, l1, _ = record.x
        g = SegmentGeometry(h1=h1, h2=h2, h3=h3, l1=l1, l2=record.l2)
        springs = SpringParams.for_geometry(g, 1.0, 1.0, 0.4)
        profile = energy_profile(
            g, springs, n=201,
            alpha_range=(-record.alpha_sing, record.alpha_sing))
        e = profile.energies
        if int(np.argmin(e)) != 100:
            failures.append(f"taper {record.lam:.3g}: minimum at sample "
                            f"{int(np.argmin(e))}, not the centre")
        interior = [i for i in range(101, 200)
                    if e[i] > e[i - 1] and e[i] > e[i + 1]]
        if interior:
            failures.append(f"taper {record.lam:.3g}: interior maxima at "
                            f"samples {interior}")
    verdict(7, "best designs have clean energy wells", not failures,
            "; ".join(failures[:5]))


def test_criterion_8_sweep_output_is_worker_independent(verdict, tmp_path,
                                                        monkeypatch):
    """The full-resolution sweep writes byte-identical files whatever its
    chunk size, and whatever ``--workers`` says (it is ignored).  On this
    grid the axis certificate settles every taper and no chunk runs, so the
    other runs refuse it, and score every row in chunks of the module's
    default (4096), 2048 and 1001 (which does not divide a taper's 10,395
    rows)."""
    optimizer_module = importlib.import_module("tenseg.optimizer")
    default = tmp_path / "default"
    assert main(["optimize", "--output", str(default)]) == 0
    monkeypatch.setattr(optimizer_module, "_certified",
                        lambda axes, bar, b: np.zeros(len(bar), dtype=bool))
    runs = {optimizer_module._CHUNK: [], 2048: [], 1001: ["--workers", "2"]}
    for chunk, flags in runs.items():
        monkeypatch.setattr(optimizer_module, "_CHUNK", chunk)
        assert main(["optimize", "--output", str(tmp_path / f"chunk{chunk}")]
                    + flags) == 0
    names = ("best.csv", "lambda_curve.csv", "energy_curve.csv")
    different = [f"{name} at {chunk}" for chunk in runs for name in names
                 if (default / name).read_bytes()
                 != (tmp_path / f"chunk{chunk}" / name).read_bytes()]
    verdict(8, "sweep output is chunk-independent", not different,
            f"files differing between chunk sizes: {different}")
