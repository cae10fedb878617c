"""Benchmark of tenseg: the paper's design sweep and single-design analyses.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--quick]

Workloads (both when ``--workload`` is omitted):

sweep-serial    ``python -m tenseg optimize --workers 1`` on the default grid,
                as a process, repeated while another sweep as long as
                the last one still ends within ``--seconds``.
designs         a closed loop with one client over seeded designs of the
                sweep's box, calling the public single-design analyses
                (see ``designs.py``).

The benchmark and every process it starts run on one CPU, next to the
reference work of ``hostspeed.py``, which measures how fast that CPU runs at
the moment for work of the workload's kind.  The gated figures are CPU times adjusted to a reference speed,
because on a shared host raw times drift by up to 1.8x over minutes; the
tables print the raw figures next to them.

Every run checks the program's outputs: sweep tables against the reference
in ``reference/``, single designs against the benchmark's own model
(``oracle.py``).  With ``--trace 1`` each public call is timed from outside
and the per-layer table is printed next to the end-to-end metric each layer
should move; the spans go to ``.perfbench/spans-<workload>-<seed>.json``.
``--quick`` runs the same code on a smaller grid and fewer designs in well
under a minute; its figures are not comparable to full runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced.  Metric names,
units and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

import hostspeed
import sweeps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-serial", "designs")
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120
# While a sweep runs, the reference work runs once per this pause, taking
# about a seventh of the shared CPU.
SAMPLE_PAUSE_S = 0.3
# Processes the designs workload is split into, one after another.
DESIGN_PARTS = 4


@dataclass(frozen=True)
class Mode:
    """Input sizes of a full or a quick run."""

    name: str
    resolutions: dict | None  # sweep grid; None is the CLI default
    n_designs: int  # designs on that grid
    n_feasible: int  # designs with h2 > 0
    reference: Path
    batch: int  # designs per batch of the designs workload
    setup_runs: int


FULL = Mode("full", None, 11 * 21 * 45 * 20, 11 * 20 * 45 * 20,
            HERE / "reference" / "default", 100, 10)
QUICK = Mode("quick", {"h1": 6, "h2": 11, "l1": 23, "lambda": 10},
             6 * 11 * 23 * 10, 6 * 10 * 23 * 10,
             HERE / "reference" / "quick", 50, 4)

# The end-to-end metric each per-layer metric should move, by name prefix.
MOVES = (
    ("singularity.singular_angles",
     "designs: designs_per_s, design_p50_ms, design_p99_ms; sweep: none"),
    ("energy.total_energy", "designs: designs_per_s"),
    ("energy.", "designs: design_p50_ms (<=5%)"),
    ("geometry.", "designs: design_p50_ms (<=5%)"),
    ("designs.unaccounted_s", "designs: designs_per_s"),
    ("optimizer.n_", "sweep: exact count, guards dropped work"),
    ("optimizer.best_at_cap", "sweep: exact count, guards dropped work"),
    ("optimizer.", "sweep: task_s, designs_per_s, peak_rss_mb"),
    ("cli.", "sweep: task_s"),
    ("tracing_overhead_s", "traced minus untraced time"),
    ("energy_max_rel_err", "accuracy of total_energy (not gated)"),
)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class ChildRun:
    """What :func:`run_child` measured of one process."""

    wall_s: float
    cpu_s: float  # user + system CPU time of the child and its descendants
    peak_rss_mb: float
    code: int
    kernels_s: list = field(default_factory=list)


def run_child(argv: list[str], sample: bool = False) -> ChildRun:
    """Run ``argv`` from the checkout root and wait for it.

    The peak RSS comes from ``os.wait4``, which on Linux reports the largest
    resident set of the child and of every descendant it waited for.  The
    child leads its own process group, so a timeout or an interrupt also
    stops every process it started.  With ``sample`` the reference work
    ``hostspeed.ARRAYS`` runs every ``SAMPLE_PAUSE_S`` while the child runs,
    on the CPU they share.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, start_new_session=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
    killer.start()
    kernels = []
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG if sample else 0)
            if pid:
                break
            kernels.append(hostspeed.ARRAYS.run())
            time.sleep(SAMPLE_PAUSE_S)
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        killer.cancel()
    if sample and not kernels:  # the child ended before the first sample
        kernels.append(hostspeed.ARRAYS.run())
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, kernels)


def import_times(runs: int) -> tuple[list[float], list[float]]:
    """Fresh ``python -c "import tenseg"`` processes: (adjusted CPU, wall).

    The reference work ``hostspeed.CALLS`` runs before the first import and
    after each one; an import is adjusted by the mean of the two runs around
    it.
    """
    argv = [sys.executable, "-c", "import tenseg"]
    kernels = [hostspeed.CALLS.run()]
    adjusted, walls = [], []
    for _ in range(runs):
        child = run_child(argv)
        if child.code != 0:
            raise RuntimeError("import tenseg failed")
        kernels.append(hostspeed.CALLS.run())
        adjusted.append(hostspeed.CALLS.adjust(child.cpu_s, mean(kernels[-2:])))
        walls.append(child.wall_s)
    return adjusted, walls


@dataclass
class Outcome:
    """What one workload measured: metric values and operation counts."""

    values: dict  # gated figures and per-layer metrics, by metric name
    raw: dict  # unadjusted counterparts of the timed figures
    attempted: int
    failed: int
    notes: list
    spans: list


def sweep_workload(mode: Mode, seconds: float, trace: bool,
                   work: Path) -> Outcome:
    tail = ["optimize", "--workers", "1"]
    if mode.resolutions is not None:
        config = work / "sweep.json"
        config.write_text(json.dumps({"resolutions": mode.resolutions}))
        tail += ["--config", str(config)]
    runs, rss, notes, spans, kernels = [], [], [], [], []
    traced_cpus, mains, optimizes, counts = [], [], [], []
    attempted = failed = 0
    energy_err = math.nan
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        out = work / f"sweep-{attempted}"
        child = run_child(
            [sys.executable, "-m", "tenseg", *tail, "--output", str(out)],
            sample=True)
        problems = sweeps.compare(out, mode.reference) if child.code == 0 \
            else [f"exit code {child.code}"]
        if not problems:
            runs.append(child)
            rss.append(child.peak_rss_mb)
            kernels += child.kernels_s
            energy_err = sweeps.energy_max_rel_err(out)
        if trace:
            result = work / f"trace-{attempted}.json"
            traced_out = work / f"traced-{attempted}"
            traced_child = run_child(
                [sys.executable, str(HERE / "sweeps.py"), "--result",
                 str(result), "--", *tail, "--output", str(traced_out)])
            if traced_child.code == 0:
                traced = json.loads(result.read_text())
                found = dict((n, e - s) for n, _, s, e in traced["spans"])
                traced_cpus.append(traced_child.cpu_s)
                mains.append(found["cli.main"])
                optimizes.append(found["optimizer.optimize"])
                count = (traced["n_designs"], traced["n_feasible"],
                         traced["best_at_cap"])
                counts.append(count)
                spans += [[n, attempted, s, e] for n, _, s, e in traced["spans"]]
                problems += sweeps.compare(traced_out, mode.reference)
                if count[:2] != (mode.n_designs, mode.n_feasible):
                    problems.append(f"traced counts {count[:2]} != "
                                    f"{(mode.n_designs, mode.n_feasible)}")
            else:
                problems.append(f"traced run: exit code {traced_child.code}")
        attempted += 1
        failed += bool(problems)
        notes += problems[:5]
        # Stop before a sweep that, as long as the last one, would end after
        # ``seconds``: a run keeps to its length and never cuts a sweep.
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break

    values = {"error_rate": failed / attempted,
              "energy_max_rel_err": energy_err}
    raw = {}
    if runs:
        per_sweep = [hostspeed.ARRAYS.adjust(r.cpu_s, mean(r.kernels_s))
                     for r in runs]
        per_design_ms = [t / mode.n_designs * 1e3 for t in per_sweep]
        values.update({
            "task_s": median(per_sweep),
            "designs_per_s": mode.n_designs / median(per_sweep),
            "peak_rss_mb": median(rss),
            "design_p50_ms": median(per_design_ms),
            "design_p99_ms": percentile(per_design_ms, 99),
        })
        walls = [r.wall_s for r in runs]
        raw_ms = [w / mode.n_designs * 1e3 for w in walls]
        raw.update({
            "task_s": median(walls),
            "designs_per_s": mode.n_designs / median(walls),
            "design_p50_ms": median(raw_ms),
            "design_p99_ms": percentile(raw_ms, 99),
        })
    if mains:
        n_designs, n_feasible, at_cap = counts[0]
        values.update({
            "cli.main_s": median(mains),
            "cli.self_s": median(m - o for m, o in zip(mains, optimizes)),
            "optimizer.optimize_s": median(optimizes),
            "optimizer.us_per_design": median(optimizes) / n_designs * 1e6,
            "optimizer.n_designs": n_designs,
            "optimizer.n_feasible": n_feasible,
            "optimizer.best_at_cap": at_cap,
        })
        if runs:
            values["tracing_overhead_s"] = (
                median(traced_cpus) - median(r.cpu_s for r in runs))
    notes.append(f"{len(runs)} sweep(s) of {mode.n_designs} designs, 1 "
                 f"worker; raw times are walls, which include the reference "
                 f"work run next to the sweep; per-design times are per sweep")
    if kernels:
        notes.append(f"reference work ARRAYS: median "
                     f"{median(kernels) * 1e3:.1f} ms over {len(kernels)} "
                     f"runs (reference "
                     f"{hostspeed.ARRAYS.reference_s * 1e3:g} ms)")
    return Outcome(values, raw, attempted, failed, notes, spans)


def designs_workload(seed: int, mode: Mode, seconds: float, trace: bool,
                     work: Path) -> Outcome:
    """Run the designs loop in ``DESIGN_PARTS`` processes, one after another.

    Each process lays out its memory differently, which alone moved the
    median design by up to 8% between processes; pooling several per run
    averages that out.
    """
    result = {"attempted": 0, "failed": 0, "problems": [], "latencies_s": [],
              "batch_walls_s": [], "batch_cpu_s": [], "kernel_s": [],
              "traced_batch_walls_s": [], "spans": []}
    peak = 0.0
    for part in range(DESIGN_PARTS):
        result_path = work / f"designs-{part}.json"
        child = run_child(
            [sys.executable, str(HERE / "designs.py"), "--seed", str(seed),
             "--seconds", str(seconds / DESIGN_PARTS),
             "--batch", str(mode.batch), "--trace", str(int(trace)),
             "--part", str(part), "--result", str(result_path)])
        if child.code != 0:
            return Outcome({"error_rate": 1.0}, {}, 1, 1,
                           [f"designs child: exit code {child.code}"], [])
        peak = max(peak, child.peak_rss_mb)
        found = json.loads(result_path.read_text())
        for key, value in found.items():
            if key == "energy_max_rel_err":
                if value is not None:
                    result[key] = value
            else:
                result[key] += value
    kernels = result["kernel_s"]
    raw_ms = [s * 1e3 for batch in result["latencies_s"] for s in batch]
    adjusted_ms = [hostspeed.CALLS.adjust(s, k) * 1e3
                   for batch, k in zip(result["latencies_s"], kernels)
                   for s in batch]
    tasks = [hostspeed.CALLS.adjust(c, k)
             for c, k in zip(result["batch_cpu_s"], kernels)]
    walls = result["batch_walls_s"]
    values = {
        "error_rate": result["failed"] / result["attempted"],
        "energy_max_rel_err": result["energy_max_rel_err"],
        "peak_rss_mb": peak,
    }
    raw = {}
    if adjusted_ms:
        # The slowest designs slow down less than the rest when the host
        # does: over 15-second windows of a 4-minute probe their raw p99
        # ranged over 17% and the raw median over 39%, and adjusting the
        # p99 widened its range to 55%.  So the p99 stays raw.
        values.update({
            "task_s": mean(tasks),
            "designs_per_s": len(adjusted_ms) / sum(tasks),
            "design_p50_ms": median(adjusted_ms),
            "design_p99_ms": percentile(raw_ms, 99),
        })
        raw.update({
            "task_s": median(walls),
            "designs_per_s": len(raw_ms) / sum(walls),
            "design_p50_ms": median(raw_ms),
            "design_p99_ms": percentile(raw_ms, 99),
        })
    notes = result["problems"] + [
        f"{len(raw_ms)} designs in {len(walls)} batches of {mode.batch}, "
        f"{DESIGN_PARTS} processes; "
        f"task_s is the mean batch; design latencies are client CPU time, "
        f"p99 unadjusted; raw task_s is the median batch wall",
        f"reference work CALLS: median {median(kernels) * 1e3:.1f} ms over "
        f"{len(kernels)} runs (reference "
        f"{hostspeed.CALLS.reference_s * 1e3:g} ms)"]
    if trace:
        loop_wall = sum(result["traced_batch_walls_s"])
        busy_total = 0.0
        layers = {n for n, _, _, _ in result["spans"]} - {"designs.design"}
        for layer in sorted(layers):
            durations = [e - s for n, _, s, e in result["spans"] if n == layer]
            busy = sum(durations)
            busy_total += busy
            values.update({
                f"{layer}.p50_us": median(durations) * 1e6,
                f"{layer}.p99_us": percentile(durations, 99) * 1e6,
                f"{layer}.busy_s": busy,
                f"{layer}.share": busy / loop_wall,
            })
        values["designs.unaccounted_s"] = loop_wall - busy_total
        values["tracing_overhead_s"] = loop_wall - sum(walls)
        notes.append(f"traced loop {loop_wall:.3f} s, layers busy "
                     f"{busy_total / loop_wall:.1%} of it")
    return Outcome(values, raw, result["attempted"], result["failed"], notes,
                   result["spans"])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(opts, mode: Mode, nproc: int, cpu: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "commit": git_commit(), "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace, "mode": mode.name,
    }


def run_workload(name: str, opts, mode: Mode, work: Path) -> Outcome:
    """Run one workload, with ``setup_s`` measured around it.

    The first import is untimed: it writes the bytecode cache, which users
    pay once.  Half of the timed imports run before the workload and half
    after, so that the median spans the whole run.
    """
    run_child([sys.executable, "-c", "import tenseg"])
    before, before_walls = import_times(mode.setup_runs // 2)
    trace = bool(opts.trace)
    if name == "designs":
        outcome = designs_workload(opts.seed, mode, opts.seconds, trace, work)
    else:
        outcome = sweep_workload(mode, opts.seconds, trace, work)
    after, after_walls = import_times(mode.setup_runs - mode.setup_runs // 2)
    outcome.values["setup_s"] = median(before + after)
    outcome.raw["setup_s"] = median(before_walls + after_walls)
    return outcome


def print_table(title: str, header, rows) -> None:
    print(f"\n{title}")
    print(f"  {header[0]:<40} {header[1]:>12} {header[2]:>12} "
          f"{'unit':<6} {'better':<7} note")
    for name, value, raw, unit, better, note in rows:
        shown = ["" if v is None else f"{v:.6g}" for v in (value, raw)]
        print(f"  {name:<40} {shown[0]:>12} {shown[1]:>12} {unit:<6} "
              f"{better:<7} {note}")


def report(name: str, outcome: Outcome, spec: dict, trace: bool) -> dict:
    """Print the tables of one workload; return its JSON metrics."""
    values = outcome.values
    e2e = [(m["name"], values.get(m["name"]), outcome.raw.get(m["name"]),
            m["unit"], m["better"], f"bound {m['bound']:.0%}")
           for m in spec["end_to_end"]]
    e2e.append(("error_rate", values.get("error_rate"), None, "ratio",
                "lower",
                f"{outcome.failed} failed / {outcome.attempted} attempted"))
    e2e.append(("energy_max_rel_err", values.get("energy_max_rel_err"), None,
                "ratio", "lower", "not gated"))
    print_table(f"[{name}] end to end", ("metric", "adjusted", "raw"), e2e)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        rows = []
        for m in metrics:
            moves = next(text for prefix, text in MOVES
                         if m["name"].startswith(prefix))
            rows.append((m["name"], values.get(m["name"]), None, m["unit"],
                         m["better"], moves))
        print_table(f"[{name}] per layer (traced, raw times) -> metric it "
                    f"should move", ("metric", "value", ""), rows)
    for note in outcome.notes:
        print(f"  note: {note}")
    # Layers a workload does not reach report 0 (no calls, no time).
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "tenseg" / "__init__.py").is_file():
        print(f"no tenseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mode = QUICK if opts.quick else FULL
    if opts.seconds is None:
        opts.seconds = 1.0 if opts.quick else float(spec["run_seconds"])
    names = [opts.workload] if opts.workload else list(WORKLOADS)
    # One CPU for this process and, by inheritance, every child: the two
    # CPUs of a shared host change speed independently, so the reference
    # work only tracks a workload that runs on its CPU.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})

    print(f"tenseg benchmark: {', '.join(names)}"
          + ("  [QUICK: not comparable to full runs]" if opts.quick else ""))
    print("env " + json.dumps(environment(opts, mode, len(allowed), cpu)))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    results = {}
    try:
        for name in names:
            (work / name).mkdir()
            outcome = run_workload(name, opts, mode, work / name)
            results[name] = (outcome, report(name, outcome, spec,
                                             bool(opts.trace)))
            if opts.trace:
                spans = scratch / f"spans-{name}-{opts.seed}.json"
                spans.write_text(json.dumps(outcome.spans))
                print(f"  spans: {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o, _ in results.values())
    failed = sum(o.failed for o, _ in results.values())
    # Every end-to-end metric is measured in both modes unless a run failed.
    complete = all(m["name"] in o.values
                   for o, _ in results.values() for m in spec["end_to_end"])
    metrics = {name: m for name, (_, m) in results.items()}
    if len(names) == 1:
        metrics = metrics[names[0]]
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
