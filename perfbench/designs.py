"""The ``designs`` workload: single-design analyses in a closed loop.

One client evaluates designs one after another, each only after the previous
one has finished, calling the public functions behind the ``singularities``
and ``energy-profile`` subcommands.  ``optimize`` is never called, so this
workload is the control for changes aimed at the sweep.

Run as a child of ``run.py`` with ``src`` on ``PYTHONPATH``::

    python perfbench/designs.py --seed 1 --seconds 10 --batch 100 \
        --trace 0 --part 0 --result out.json

It writes one JSON document with the per-design latencies (CPU time of the
client thread) grouped by batch, the CPU time and wall of each batch, the
time of the reference work (:mod:`hostspeed`) run after each batch, the
trace spans (``[name, design, start, end]``; a layer span's parent is the
``designs.design`` span of the same design) and the correctness findings.
Correctness is checked outside the timed code, after each batch, against
:mod:`oracle`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np
from tenseg import (SegmentGeometry, SpringParams, cable_lengths,
                    classify_home_stability, energy_profile, singular_angles,
                    stack_forward, tapered_stack, total_energy)

import hostspeed
import oracle

# Design box of the sweep (h3 = h1, l2 = lam * l1), clipped to the extreme
# non-degenerate samples of the default grid.
L1_RANGE = (0.05, 4.45)
H1_RANGE = (0.0, 1.0)
H2_RANGE = (0.1, 2.0)
LAMBDA_RANGE = (0.05, 1.0)
# Every FLAT_EVERY-th design sits on the h1 = 0 face, which the sweep solves
# in closed form instead of through the quartic.
FLAT_EVERY = 10
PROFILE_SAMPLES = 101
# Stack angles as fractions of alpha_sing, base level first.
STACK_FRACTIONS = (0.5, -0.25, 0.125)

ENERGY_REL_TOL = 1e-7
LENGTH_REL_TOL = 1e-11
RESIDUAL_REL_TOL = 1e-9
SIGN_GRID = 1001
# energy_max_rel_err is taken on a fixed design set so that it is comparable
# across runs with different seeds.
ERROR_SEED = 1
ERROR_DESIGNS = 250
# Designs evaluated before timing starts, so that lazy set-up in numpy and
# tenseg is not charged to the first batch.
WARMUP_DESIGNS = 20
# Batches a part of a run may use before it runs into the next part's.
PART_BATCHES = 1_000_000

def draw_designs(seed: int, batch: int, size: int) -> np.ndarray:
    """Designs ``(h1, h2, l1, lam)`` of one batch, as a ``(size, 4)`` array.

    Batch ``k`` of seed ``s`` depends on ``(s, k)`` alone, so a run may stop
    after any batch and the designs it saw are still reproducible.
    """
    rng = np.random.default_rng([seed, batch])
    h1 = rng.uniform(*H1_RANGE, size)
    h1[::FLAT_EVERY] = 0.0
    h2 = rng.uniform(*H2_RANGE, size)
    l1 = rng.uniform(*L1_RANGE, size)
    lam = rng.uniform(*LAMBDA_RANGE, size)
    return np.stack([h1, h2, l1, lam], axis=1)


def _direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def evaluate(design, call=_direct):
    """Analyse one design; returns what the checks need.

    ``call(name, fn, *args)`` runs each public call, so a tracer can wrap
    them without a second copy of the loop body.
    """
    h1, h2, l1, lam = (float(v) for v in design)
    g = SegmentGeometry(h1=h1, h2=h2, h3=h1, l1=l1, l2=lam * l1)
    springs = SpringParams.for_geometry(g)
    alpha_sing = call("singularity.singular_angles", singular_angles,
                      g).alpha_sing
    call("energy.classify_home_stability", classify_home_stability, g, springs)
    e_total = call("energy.total_energy", total_energy, g, springs,
                   alpha_sing=alpha_sing)
    profile = call("energy.energy_profile", energy_profile, g, springs,
                   n=PROFILE_SAMPLES, alpha_range=(-alpha_sing, alpha_sing))
    rho1, rho2 = call("geometry.cable_lengths", cable_lengths, g,
                      profile.alphas)
    states = [f * alpha_sing for f in STACK_FRACTIONS]
    frames = call("geometry.stack_forward",
                  lambda: stack_forward(tapered_stack(g, lam, states)))
    return (alpha_sing, e_total, float(rho1[0]), float(rho2[0]),
            frames[-1].theta)


def _wrap_angle(angle):
    return np.remainder(angle + math.pi, 2.0 * math.pi) - math.pi


def check(designs: np.ndarray, results: np.ndarray):
    """Check the evaluated designs against :mod:`oracle`.

    ``results`` rows are the tuples :func:`evaluate` returns.  Returns a
    per-design failure mask and the problem texts.
    """
    h1, h2, l1, lam = designs.T
    l2 = lam * l1
    alpha_sing, e_total, rho1, rho2, theta = results.T
    dims = (h1[:, None], h2[:, None], h1[:, None], l1[:, None], l2[:, None])
    a = alpha_sing[:, None]

    # No root of the loop-1 condition strictly inside (-alpha_sing,
    # alpha_sing), and a small residual at the root itself (+ or -).
    u = np.linspace(-1.0, 1.0, SIGN_GRID + 2)[1:-1]
    inside = oracle.singularity_condition(*dims, a * u)
    sign_ok = np.all(np.sign(inside) == np.sign(inside[:, :1]), axis=1) & (
        inside[:, 0] != 0.0)
    residual = np.minimum(
        np.abs(oracle.singularity_condition(*dims, a)),
        np.abs(oracle.singularity_condition(*dims, -a)))[:, 0]
    # Errors scale with the design's size, not with the value: a cable can
    # come close to zero length, where rounding is large relative to it.
    size = 2 * h1 + h2 + l1 + l2
    residual_ok = residual <= RESIDUAL_REL_TOL * size ** 2

    reference = oracle.reference_energy(h1, h2, h1, l1, l2, alpha_sing)
    energy_err = np.abs(e_total - reference) / reference

    ref1, ref2 = oracle.cable_lengths(h1, h2, h1, l1, l2, -alpha_sing)
    length_ok = ((np.abs(rho1 - ref1) <= LENGTH_REL_TOL * size)
                 & (np.abs(rho2 - ref2) <= LENGTH_REL_TOL * size))
    # The stacked plate frames compose by adding the tilts 2 * alpha.
    expected = 2.0 * sum(STACK_FRACTIONS) * alpha_sing
    theta_ok = np.abs(_wrap_angle(theta - expected)) <= 1e-12

    verdicts = (
        (~sign_ok, "a singular angle lies inside (-alpha_sing, alpha_sing)"),
        (~residual_ok, "singularity condition is not zero at alpha_sing"),
        (~(energy_err <= ENERGY_REL_TOL), "total_energy is off the reference"),
        (~length_ok, "cable_lengths is off the point construction"),
        (~theta_ok, "stack_forward top frame has the wrong tilt"),
    )
    bad = np.zeros(len(designs), dtype=bool)
    problems = []
    for mask, text in verdicts:
        bad |= mask
        problems += [f"design {designs[i].tolist()}: {text}"
                     for i in np.flatnonzero(mask)]
    return bad, problems


def energy_max_rel_err() -> float:
    """Worst ``total_energy`` error over the fixed error-design set."""
    designs = draw_designs(ERROR_SEED, 0, ERROR_DESIGNS)
    alphas, energies = [], []
    for h1, h2, l1, lam in designs:
        g = SegmentGeometry(h1=h1, h2=h2, h3=h1, l1=l1, l2=lam * l1)
        alpha_sing = singular_angles(g).alpha_sing
        alphas.append(alpha_sing)
        energies.append(total_energy(g, SpringParams.for_geometry(g),
                                     alpha_sing=alpha_sing))
    h1, h2, l1, lam = designs.T
    reference = oracle.reference_energy(h1, h2, h1, l1, lam * l1, alphas)
    return float(np.max(np.abs(np.array(energies) - reference) / reference))


def run(seed: int, seconds: float, batch: int, trace: bool,
        part: int = 0) -> dict:
    """The closed loop: whole batches until ``seconds`` have passed.

    A run may be split into parts, one process each, so that its figures
    average over the memory layouts of several processes; part ``p`` draws
    batches ``p * PART_BATCHES`` onwards, and part 0 also measures
    ``energy_max_rel_err``.

    A design's latency is the CPU time of this thread while it is analysed:
    the analysis neither blocks nor uses other threads, so this is its wall
    time minus the time the client was descheduled by other load on the
    host, which otherwise dominates the tail on a shared machine.  Batch
    walls are wall-clock.  After each batch the reference work
    :data:`hostspeed.CALLS` runs once on this thread, so the batch can be
    adjusted to the host's speed at that moment, and the batch is checked.
    With ``trace`` every batch runs a second time over the same designs with
    each public call timed, so the difference is the tracing overhead.
    """
    clock = time.perf_counter
    spans = []
    design_id = 0

    def traced(name, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        spans.append((name, design_id, start, clock()))
        return out

    latencies, walls, cpus, kernels, traced_walls = [], [], [], [], []
    problems = []
    attempted = failed = 0
    for design in draw_designs(seed, 0, WARMUP_DESIGNS):
        evaluate(design)
    loop_start = clock()
    k = part * PART_BATCHES
    while True:
        designs = draw_designs(seed, k, batch)
        batch_start = clock()
        batch_cpu = time.thread_time()
        batch_latencies, evaluated, results = [], [], []
        for design in designs:
            attempted += 1
            start = time.thread_time()
            try:
                out = evaluate(design)
            except Exception as exc:  # a failing design is counted, not fatal
                failed += 1
                problems.append(f"design {design.tolist()}: {exc!r}")
                continue
            batch_latencies.append(time.thread_time() - start)
            evaluated.append(design)
            results.append(out)
        cpus.append(time.thread_time() - batch_cpu)
        walls.append(clock() - batch_start)
        latencies.append(batch_latencies)
        kernels.append(hostspeed.CALLS.run())
        # Checked batch by batch, so that the peak RSS does not grow with
        # the number of designs a run gets through.
        if results:
            bad, found = check(np.array(evaluated), np.array(results))
            failed += int(bad.sum())
            problems += found
        if trace:
            batch_start = clock()
            for design_id, design in enumerate(designs, start=k * batch):
                start = clock()
                try:
                    evaluate(design, traced)
                except Exception:  # already counted by the untraced pass
                    continue
                spans.append(("designs.design", design_id, start, clock()))
            traced_walls.append(clock() - batch_start)
        k += 1
        if clock() - loop_start >= seconds:
            break

    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies_s": latencies,
        "batch_walls_s": walls,
        "batch_cpu_s": cpus,
        "kernel_s": kernels,
        "traced_batch_walls_s": traced_walls,
        "spans": spans,
        "energy_max_rel_err": energy_max_rel_err() if part == 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--result", required=True)
    opts = parser.parse_args(argv)
    result = run(opts.seed, opts.seconds, opts.batch, bool(opts.trace),
                 opts.part)
    with open(opts.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
