"""Command-line interface: batch analyses of segment designs driven by a JSON config.

Subcommands
-----------
pose            forward kinematics: the seven segment points per requested angle,
                optionally with the three stacked-plate frames
ik              inverse kinematics: cable lengths per requested angle
singularities   all singular angles of both loops and alpha_sing, each with its
                residual |singularity_condition| <= 8 eps (|A|+|B|+|C|+|D|)
energy-profile  sampled energy landscape plus stability summary
optimize        design grid search; writes best.csv, lambda_curve.csv and
                energy_curve.csv

Every config key is validated, whichever subcommand reads it.  The flags
``--samples``, ``--range`` and ``--workers`` set the config key they name.
``workers`` must be an integer >= 1 and is otherwise ignored: the sweep runs
in one process.

All numbers are written with 12 significant digits, UTF-8 encoded, LF line
endings, identically for the CSV and JSON formats.  Exit codes: 0 success,
2 configuration error, 3 angle-range error, 4 empty design grid.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .energy import (SpringParams, classify_home_stability, energy,
                     energy_profile, rest_length, total_energy)
from .geometry import (InvalidGeometry, SegmentGeometry, SegmentState,
                       cable_lengths, segment_points, singularity_condition,
                       stack_forward, tapered_stack)
from .optimizer import (DesignBounds, EmptyGrid, H1_RANGE, H2_RANGE, L1_RANGE,
                        LAMBDA_RANGE, optimize)
from .singularity import DegenerateInput, singular_angles

_RESOLUTION_FIELDS = ("h1", "h2", "l1", "lambda")
_BOUNDS_BOX = {"l1": L1_RANGE, "h1": H1_RANGE, "h2": H2_RANGE,
               "lambda": LAMBDA_RANGE}
# Largest h1 + h2 + h3 + l1 + l2 of the design box (h3 = h1, l2 = lam * l1).
_BOX_SIZE = 2 * H1_RANGE[1] + H2_RANGE[1] + (1 + LAMBDA_RANGE[1]) * L1_RANGE[1]
# Most energy-profile samples: a profile holds a few 8-byte arrays of this
# length, so this keeps it to tens of MB, while resolving any angle range to
# a millionth of its width.
_MAX_SAMPLES = 10**6


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")


class RangeError(ValueError):
    """No usable angle range: an empty or unbounded one, or none derivable."""


def _fmt(value: float) -> str:
    """Render a float with 12 significant digits."""
    return f"{float(value):.12g}"


def _quant(value) -> float:
    """Round a float to the 12 significant digits the outputs carry."""
    return float(_fmt(value))


def _object(value, name: str, fields, required=()) -> dict:
    """``value`` if it is an object over ``fields`` with all of ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(name, "must be an object")
    for key in value:
        if key not in fields:
            raise ConfigError(f"{name}.{key}", "unknown key")
    for key in required:
        if key not in value:
            raise ConfigError(f"{name}.{key}", "missing required value")
    return value


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(field, "integer too large for a float") from exc


def _as_integer(value, field: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(field,
                          f"expected an integer >= {minimum}, got {value!r}")
    return value


def _pair(value, field: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(field, "must be a [lo, hi] pair of numbers")
    return _as_number(value[0], field), _as_number(value[1], field)


def _geometry(value) -> SegmentGeometry:
    fields = SegmentGeometry._fields
    section = _object(value, "geometry", fields, fields)
    try:
        return SegmentGeometry(**{key: _as_number(section[key], f"geometry.{key}")
                                  for key in fields})
    except InvalidGeometry as exc:
        raise ConfigError(f"geometry.{exc.field}", exc.reason) from exc


def _alphas(value) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError("alphas", "must be a non-empty list of numbers")
    alphas = [_as_number(item, f"alphas[{i}]") for i, item in enumerate(value)]
    for index, alpha in enumerate(alphas):
        if not math.isfinite(alpha):
            raise ConfigError(f"alphas[{index}]", f"must be finite, got {alpha}")
    return alphas


def _springs(value) -> SpringParams:
    values = {key: _as_number(item, f"springs.{key}") for key, item
              in _object(value, "springs", SpringParams._fields).items()}
    try:
        return SpringParams(**values)
    except ValueError as exc:
        raise ConfigError("springs", str(exc)) from exc


def _stack(value) -> float:
    section = _object(value, "stack", ("lambda",), ("lambda",))
    lam = _as_number(section["lambda"], "stack.lambda")
    if not 0.0 < lam <= 1.0:
        raise ConfigError("stack.lambda", f"must lie in (0, 1], got {lam}")
    return lam


def _resolutions(value) -> DesignBounds:
    section = _object(value, "resolutions", _RESOLUTION_FIELDS)
    counts = {f"{key}_res": _as_integer(item, f"resolutions.{key}", 2)
              for key, item in section.items()}
    try:
        return DesignBounds(**counts)
    except ValueError as exc:  # more designs than the sweep takes
        raise ConfigError("resolutions", str(exc)) from exc


def _samples(value) -> int:
    samples = _as_integer(value, "samples", 2)
    if samples > _MAX_SAMPLES:
        raise ConfigError("samples", f"at most {_MAX_SAMPLES} samples, "
                          f"got {samples}")
    return samples


def _bounds(value) -> None:
    """The design box is fixed; a bounds section may only restate it."""
    for key, item in _object(value, "bounds", _BOUNDS_BOX).items():
        if _pair(item, f"bounds.{key}") != _BOUNDS_BOX[key]:
            raise ConfigError(f"bounds.{key}", f"the design box is fixed at "
                              f"{list(_BOUNDS_BOX[key])}; only resolutions "
                              f"are configurable")


def _range(value) -> tuple[float, float]:
    lo, hi = _pair(value, "range")
    # A finite width also keeps the profile's sample spacing finite.
    if not (lo < hi and math.isfinite(hi - lo)):
        raise RangeError(f"empty or unbounded angle range [{lo}, {hi}]")
    return lo, hi


# Top-level config keys and their parsers.
_SECTIONS = {
    "geometry": _geometry,
    "alphas": _alphas,
    "springs": _springs,
    "stack": _stack,
    "resolutions": _resolutions,
    "bounds": _bounds,
    "samples": _samples,
    "range": _range,
    "workers": lambda value: _as_integer(value, "workers", 1),
}


def _load_config(path: str | None, flags: dict) -> dict:
    """Read the JSON config, write ``flags`` over its keys and parse every key."""
    config = {}
    if path is not None:
        import json  # loaded on use: a CSV run without a config needs none
        try:
            with open(path, encoding="utf-8") as handle:
                config = json.load(handle)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
        except ValueError as exc:
            # Malformed JSON, bytes that are not UTF-8, an over-long integer.
            raise ConfigError("config", f"invalid JSON in {path!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config", "top level must be a JSON object")
    config.update(flags)
    parsed = {}
    for key, value in config.items():
        if key not in _SECTIONS:
            raise ConfigError(key, "unknown configuration key")
        parsed[key] = _SECTIONS[key](value)
    return parsed


def _required(config: dict, key: str):
    if key not in config:
        raise ConfigError(key, "missing required value")
    return config[key]


def _size(g: SegmentGeometry, reach: float = 1.0) -> float:
    """``h1 + h2 + h3 + l1 + l2``, which bounds every coordinate and cable
    length of the segment; ``reach`` times it must be a finite float."""
    size = g.h1 + g.h2 + g.h3 + g.l1 + g.l2
    if not math.isfinite(reach * size):
        raise ConfigError("geometry", "coordinates of this design overflow a float")
    return size


def _check_energy_bound(spec: SpringParams, size: float, field: str) -> None:
    """Cables and rest length are shorter than ``size``, so every energy and
    the home curvature stay below ``32 (k1 + k2) size**2``, if that is finite."""
    if not math.isfinite(32.0 * (spec.k1 + spec.k2) * size * size):
        raise ConfigError(field, "spring energies overflow a float")


def _render(value) -> str:
    if value is None:
        return "NONE"
    return _fmt(value) if isinstance(value, float) else str(value)


def _write_table(opts, name: str, columns, rows, head: dict | None = None,
                 foot: dict | None = None) -> None:
    """Write ``<name>.csv`` or ``<name>.json`` into ``opts.output`` and say so.

    ``head`` and ``foot`` entries become top-level JSON fields, or leading
    ``# key,value`` and trailing ``key,value`` lines in CSV."""
    head, foot = head or {}, foot or {}
    if opts.format == "csv":
        lines = [f"# {key},{_render(value)}" for key, value in head.items()]
        lines.append(",".join(columns))
        lines += [",".join(_render(v) for v in row) for row in rows]
        lines += [f"{key},{_render(value)}" for key, value in foot.items()]
        text = "\n".join(lines) + "\n"
    else:
        import json
        document = [dict(zip(columns, row)) for row in rows]
        text = json.dumps({**head, "rows": document, **foot}, indent=2) + "\n"
    opts.output.mkdir(parents=True, exist_ok=True)
    path = opts.output / f"{name}.{opts.format}"
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def _angle_out(value: float, degrees: bool) -> float:
    return math.degrees(value) if degrees else value


def cmd_pose(config: dict, opts) -> int:
    g = _required(config, "geometry")
    stack_lam = config.get("stack")
    # A stack's frames lie within 3 sqrt(2) times the segment's size.
    _size(g, 1.0 if stack_lam is None else 6.0)
    columns = ["alpha"] + [f"{point}{axis}" for point in
                           ("a1", "a2", "b0", "c0", "d0", "d1", "d2")
                           for axis in "xy"]
    if stack_lam is not None:
        columns += [f"frame{level}{part}" for level in (1, 2, 3)
                    for part in ("x", "y", "theta")]
    rows = []
    for alpha in _required(config, "alphas"):
        state = SegmentState(alpha)
        pose = segment_points(g, state)
        row = [_quant(_angle_out(state.alpha, opts.degrees))]
        for _, point in pose.points():
            row += [_quant(point[0]), _quant(point[1])]
        if stack_lam is not None:
            try:
                stack = tapered_stack(g, stack_lam, (state, state, state))
            except InvalidGeometry as exc:
                raise ConfigError("stack.lambda", f"a scaled level of the "
                                  f"stack is degenerate: {exc}") from exc
            for frame in stack_forward(stack):
                row += [_quant(frame.origin[0]), _quant(frame.origin[1]),
                        _quant(_angle_out(frame.theta, opts.degrees))]
        rows.append(row)
    _write_table(opts, "pose", columns, rows)
    return 0


def cmd_ik(config: dict, opts) -> int:
    g = _required(config, "geometry")
    _size(g)
    rows = []
    for alpha in _required(config, "alphas"):
        state = SegmentState(alpha)
        rho1, rho2 = cable_lengths(g, state.alpha)
        rows.append([_quant(_angle_out(state.alpha, opts.degrees)),
                     _quant(float(rho1)), _quant(float(rho2))])
    _write_table(opts, "ik", ["alpha", "rho1", "rho2"], rows)
    return 0


def cmd_singularities(config: dict, opts) -> int:
    g = _required(config, "geometry")
    found = singular_angles(g)
    rows = []
    for loop, angles in ((1, found.loop1), (2, found.loop2)):
        for alpha in angles:
            # A design near the float limit overflows the condition, which
            # is quadratic in its dimensions: its residual is written nan.
            with np.errstate(over="ignore", invalid="ignore"):
                residual = abs(float(singularity_condition(
                    g, alpha if loop == 1 else -alpha)))
            rows.append([loop, _quant(_angle_out(alpha, opts.degrees)),
                         _quant(residual)])
    alpha_sing = found.alpha_sing
    print("alpha_sing = NONE" if alpha_sing is None
          else f"alpha_sing = {_fmt(alpha_sing)} rad")
    footer_value = (None if alpha_sing is None
                    else _quant(_angle_out(alpha_sing, opts.degrees)))
    _write_table(opts, "singularities", ["loop", "angle", "residual"], rows,
                 foot={"alpha_sing": footer_value})
    return 0


def cmd_energy_profile(config: dict, opts) -> int:
    g = _required(config, "geometry")
    springs = config.get("springs", SpringParams())
    try:
        # An overflowing home cable length is reported below, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            rest_length(g, springs.rest_fraction)
    except ValueError as exc:
        # The springs are checked already; only the rest length, a fraction
        # of the home cable length, can still be out of range.
        raise ConfigError("geometry", f"no finite spring rest length: "
                          f"{exc}") from exc
    _check_energy_bound(springs, _size(g), "geometry")

    alpha_sing = singular_angles(g).alpha_sing
    if not alpha_sing and "range" not in config:  # None, or singular at home
        raise RangeError("design has no singularity-bounded range to "
                         "profile; pass --range")
    profile = energy_profile(
        g, springs, n=config.get("samples", 101),
        alpha_range=config.get("range") or (-alpha_sing, alpha_sing))
    verdict = classify_home_stability(g, springs)

    head = {"class": verdict.stability.value,
            "energy_at_zero": _quant(float(energy(g, springs, 0.0))),
            "energy_at_sing": None, "total_energy": None}
    if alpha_sing is not None:
        head["energy_at_sing"] = _quant(float(energy(g, springs, alpha_sing)))
        head["total_energy"] = _quant(total_energy(g, springs,
                                                   alpha_sing=alpha_sing))
    rows = [[_quant(_angle_out(float(a), opts.degrees)), _quant(float(e))]
            for a, e in zip(profile.alphas, profile.energies)]
    print(f"class = {verdict.stability.value}")
    _write_table(opts, "energy_profile", ["alpha", "energy"], rows, head=head)
    return 0


def cmd_optimize(config: dict, opts) -> int:
    springs = config.get("springs", SpringParams())
    _check_energy_bound(springs, _BOX_SIZE, "springs")
    report = optimize(bounds=config.get("resolutions"), springs=springs)

    best_rows = []
    for record in report.best:
        h1, h2, h3, l1, lam = record.x
        values = (lam, h1, h2, h3, l1, record.l2,
                  _angle_out(record.alpha_sing, opts.degrees),
                  record.energy_at_zero, record.energy_at_sing,
                  record.total_energy)
        best_rows.append([_quant(v) for v in values] + [record.stability.value])
    _write_table(opts, "best", ["lambda", "h1", "h2", "h3", "l1", "l2",
                                "alpha_sing", "energy_at_zero", "energy_at_sing",
                                "total_energy", "stability"], best_rows)
    _write_table(opts, "lambda_curve", ["lambda", "l1", "l2"],
                 [[_quant(lam), _quant(l1), _quant(l2)]
                  for lam, l1, l2 in report.lambda_curve])
    _write_table(opts, "energy_curve", ["lambda", "total_energy"],
                 [[_quant(lam), _quant(et)] for lam, et in report.energy_curve])
    print(f"max alpha_sing = {_fmt(report.max_alpha_sing)} rad")
    return 0


def _range_flag(text: str):
    """``--range=LO,HI`` as ``[lo, hi]``; other text is left to ``_range``."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        return text


# Each subcommand's handler and its own flags; a flag sets the config key
# of its name.
_COMMANDS = {
    "pose": (cmd_pose, {}),
    "ik": (cmd_ik, {}),
    "singularities": (cmd_singularities, {}),
    "energy-profile": (cmd_energy_profile, {
        "samples": {"type": int, "help": "number of profile samples"},
        "range": {"type": _range_flag, "metavar": "LO,HI",
                  "help": "explicit angle range in radians "
                          "(write --range=LO,HI when LO is negative)"}}),
    "optimize": (cmd_optimize, {
        "workers": {"type": int, "help": "accepted and ignored; the sweep "
                                         "runs in one process"}}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenseg",
        description="Kinematics, singularity and spring-energy analysis of "
                    "planar tensegrity segments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--output", type=Path, default=Path("."),
                         help="output directory (default: current)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output file format")
        cmd.add_argument("--degrees", action="store_true",
                         help="write angles in degrees instead of radians")
        for flag, spec in flags.items():
            cmd.add_argument(f"--{flag}", default=argparse.SUPPRESS, **spec)
    return parser


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    handler, flags = _COMMANDS[opts.command]
    try:
        config = _load_config(opts.config, {
            key: value for key, value in vars(opts).items() if key in flags})
        return handler(config, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateInput as exc:  # dimensions so far apart that it underflows
        print(f"config error: geometry: {exc}", file=sys.stderr)
        return 2
    except RangeError as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 3
    except EmptyGrid as exc:
        print(f"empty grid: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
