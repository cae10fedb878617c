"""The sweep workload: checking ``tenseg optimize`` output, and its traced run.

:func:`compare` checks the three CSV tables of a sweep against a reference
captured at the commit that introduced the benchmark.  Design columns and
``stability`` must match as text; ``alpha_sing`` to 1e-9 relative and the
energies to 1e-7 relative, so that a more accurate energy integral, which
moves the trailing digits, still passes.

Run as a script with ``src`` on ``PYTHONPATH`` it is the traced sweep::

    python perfbench/sweeps.py --result out.json -- optimize --workers 1 ...

It calls ``tenseg.cli.main`` with the arguments after ``--`` and times it
and the ``optimize`` call made inside it (spans ``[name, 0, start, end]``;
``optimizer.optimize`` is a child of ``cli.main``).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import oracle

TABLES = ("best.csv", "lambda_curve.csv", "energy_curve.csv")
# Columns compared as numbers, with their relative tolerance; every other
# column must match exactly.
TOLERANCES = {
    "alpha_sing": 1e-9,
    "energy_at_zero": 1e-7,
    "energy_at_sing": 1e-7,
    "total_energy": 1e-7,
}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV table as written by ``tenseg optimize``."""
    header, *rows = (line.split(",")
                     for line in path.read_text(encoding="utf-8").splitlines())
    return header, rows


def compare(out_dir: Path, ref_dir: Path) -> list[str]:
    """Differences between a sweep's tables and the reference; empty if none."""
    problems = []
    for table in TABLES:
        try:
            header, rows = read_csv(out_dir / table)
        except (OSError, ValueError) as exc:
            problems.append(f"{table}: unreadable ({exc})")
            continue
        ref_header, ref_rows = read_csv(ref_dir / table)
        if header != ref_header or len(rows) != len(ref_rows):
            problems.append(f"{table}: columns or row count differ")
            continue
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for column, got, want in zip(header, row, ref_row):
                tol = TOLERANCES.get(column)
                if tol is None:
                    ok = got == want
                else:
                    try:
                        got_v, want_v = float(got), float(want)
                    except ValueError:
                        got_v, want_v = math.nan, 0.0
                    ok = abs(got_v - want_v) <= tol * abs(want_v)
                if not ok:
                    problems.append(
                        f"{table} row {i} {column}: {got} != {want}")
    return problems


def energy_max_rel_err(out_dir: Path) -> float:
    """Worst ``total_energy`` of ``best.csv`` against :mod:`oracle`."""
    header, rows = read_csv(out_dir / "best.csv")
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header) if name != "stability"}
    reference = oracle.reference_energy(cols["h1"], cols["h2"], cols["h3"],
                                        cols["l1"], cols["l2"],
                                        cols["alpha_sing"])
    return float(np.max(np.abs(cols["total_energy"] - reference) / reference))


def traced_main(argv: list[str]) -> dict:
    """Run ``tenseg.cli.main(argv)`` with it and ``optimize`` timed."""
    import tenseg
    import tenseg.cli

    clock = time.perf_counter
    original = tenseg.optimize
    spans, reports = [], []

    def optimize(*args, **kwargs):
        start = clock()
        report = original(*args, **kwargs)
        spans.append(("optimizer.optimize", 0, start, clock()))
        reports.append(report)
        return report

    # Rebind every module-level reference, wherever the CLI imports it from.
    for module in [m for name, m in sys.modules.items()
                   if name == "tenseg" or name.startswith("tenseg.")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, optimize)

    start = clock()
    code = tenseg.cli.main(argv)
    spans.append(("cli.main", 0, start, clock()))
    (report,) = reports
    return {
        "exit_code": code,
        "spans": spans,
        "n_designs": report.n_designs,
        "n_feasible": report.n_feasible,
        "best_at_cap": sum(abs(r.alpha_sing - 0.5 * math.pi) <= 1e-12
                           for r in report.best),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--result" or argv[2] != "--":
        print("usage: sweeps.py --result PATH -- CLI-ARGS...", file=sys.stderr)
        return 2
    result = traced_main(argv[3:])
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
