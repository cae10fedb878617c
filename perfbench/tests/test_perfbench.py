"""Tests of the benchmark itself.

Run from the root of the repository::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import designs  # noqa: E402
import oracle  # noqa: E402
import sweeps  # noqa: E402

REFERENCE = BENCH / "reference" / "default"


def test_same_seed_same_designs():
    first = designs.draw_designs(7, 3, 200)
    again = designs.draw_designs(7, 3, 200)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, designs.draw_designs(8, 3, 200))
    assert not np.array_equal(first, designs.draw_designs(7, 4, 200))


def test_designs_stay_in_the_box_with_a_flat_share():
    h1, h2, l1, lam = designs.draw_designs(1, 0, 1000).T
    assert np.all((0 <= h1) & (h1 <= 1) & (h2 >= 0.1) & (h2 <= 2))
    assert np.all((l1 >= 0.05) & (l1 <= 4.45) & (lam >= 0.05) & (lam <= 1))
    assert np.count_nonzero(h1 == 0.0) == 1000 // designs.FLAT_EVERY


def _copy_reference(tmp_path: Path) -> Path:
    target = tmp_path / "ref"
    shutil.copytree(REFERENCE, target)
    return target


def _rewrite(path: Path, edit) -> None:
    header, rows = sweeps.read_csv(path)
    edit(header, rows)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def test_checker_accepts_the_reference():
    assert sweeps.compare(REFERENCE, REFERENCE) == []


def test_checker_flags_a_swapped_winner(tmp_path):
    mutated = _copy_reference(tmp_path)

    def swap(header, rows):
        rows[3], rows[4] = rows[4], rows[3]

    _rewrite(mutated / "best.csv", swap)
    assert sweeps.compare(mutated, REFERENCE)


def test_checker_flags_an_energy_off_by_1e6(tmp_path):
    mutated = _copy_reference(tmp_path)

    def nudge(header, rows):
        col = header.index("total_energy")
        rows[5][col] = repr(float(rows[5][col]) * (1 + 1e-6))

    _rewrite(mutated / "energy_curve.csv", nudge)
    problems = sweeps.compare(mutated, REFERENCE)
    assert problems and all("energy_curve.csv" in p for p in problems)


def test_checker_tolerates_energy_digits_within_1e7(tmp_path):
    mutated = _copy_reference(tmp_path)

    def nudge(header, rows):
        col = header.index("total_energy")
        rows[5][col] = repr(float(rows[5][col]) * (1 + 1e-9))

    _rewrite(mutated / "best.csv", nudge)
    assert sweeps.compare(mutated, REFERENCE) == []


def test_oracle_condition_is_the_derivative_of_rho1_squared():
    dims = (0.3, 1.2, 0.3, 2.0, 0.9)
    alpha = np.linspace(-3.0, 3.0, 61)
    h = 1e-6
    up, _ = oracle.cable_lengths(*dims, alpha + h)
    down, _ = oracle.cable_lengths(*dims, alpha - h)
    numeric = (up ** 2 - down ** 2) / (2 * h)
    assert np.allclose(oracle.singularity_condition(*dims, alpha), numeric,
                       rtol=1e-6, atol=1e-6)


def test_design_checks_pass_and_catch_a_wrong_energy():
    sample = designs.draw_designs(1, 0, 30)
    results = np.array([designs.evaluate(d) for d in sample])
    bad, problems = designs.check(sample, results)
    assert not bad.any(), problems
    results[4, 1] *= 1 + 1e-6
    bad, problems = designs.check(sample, results)
    assert bad.tolist() == [i == 4 for i in range(30)]
    assert "total_energy" in problems[0]


def test_design_checks_allow_rounding_on_a_near_zero_cable():
    # At this design cable 2 is 1.8e-5 long at -alpha_sing, and two exact
    # formulas for it differ by rounding far above 1e-11 of its length.
    sample = np.array([[0.5910248750059388, 1.2819941224005909,
                        4.015077782323461, 0.9999953229877165]])
    results = np.array([designs.evaluate(d) for d in sample])
    bad, problems = designs.check(sample, results)
    assert not bad.any(), problems


def _printed_metrics(*args: str) -> dict:
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick",
                          *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_those_in_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in
                spec["per_layer" if trace == "1" else "end_to_end"]]
    result = _printed_metrics("--trace", trace)
    assert result["correct"] and result["failed"] == 0
    for name in ("sweep-serial", "designs"):
        assert list(result["metrics"][name]) == expected
    single = _printed_metrics("--trace", trace, "--workload", "designs")
    assert list(single["metrics"]) == expected
