"""Command-line interface: batch analyses of segment designs driven by a JSON config.

Subcommands
-----------
pose            forward kinematics: the seven segment points per requested angle,
                optionally with the three stacked-plate frames
ik              inverse kinematics: cable lengths per requested angle
singularities   all singular angles of both loops, with residuals and alpha_sing
energy-profile  sampled energy landscape plus stability summary
optimize        design grid search; writes best.csv, lambda_curve.csv and
                energy_curve.csv

All numbers are written with 12 significant digits, UTF-8 encoded, LF line
endings, identically for the CSV and JSON formats.  Exit codes: 0 success,
2 configuration error, 3 angle-range error, 4 empty design grid.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .energy import (InvalidFraction, NoSingularity, SpringParams,
                     energy, energy_profile, total_energy,
                     classify_home_stability)
from .geometry import (InvalidGeometry, InvalidRatio, SegmentGeometry,
                       SegmentState, cable_lengths, segment_points,
                       singularity_condition, stack_forward, tapered_stack)
from .optimizer import (DesignBounds, EmptyGrid, H1_RANGE, H2_RANGE, L1_RANGE,
                        LAMBDA_RANGE, SpringSpec, optimize)
from .singularity import singular_angles

_GEOMETRY_FIELDS = ("h1", "h2", "h3", "l1", "l2")
_SPRING_FIELDS = ("k1", "k2", "rest_fraction")
_RESOLUTION_FIELDS = ("h1", "h2", "l1", "lambda")
_BOUNDS_BOX = {"l1": L1_RANGE, "h1": H1_RANGE, "h2": H2_RANGE,
               "lambda": LAMBDA_RANGE}
_TOP_LEVEL_KEYS = frozenset(
    ("geometry", "alphas", "springs", "samples", "range", "stack",
     "resolutions", "bounds", "workers"))


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class RangeError(ValueError):
    """No usable angle range: none requested and none derivable."""


def _fmt(value: float) -> str:
    """Render a float with 12 significant digits."""
    return f"{float(value):.12g}"


def _quant(value) -> float:
    """Round a float to the 12 significant digits the outputs carry."""
    return float(_fmt(value))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config", "top level must be a JSON object")
    for key in config:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(key, "unknown configuration key")
    return config


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    return float(value)


def _require_number(mapping, field, path, minimum=None, strict=False):
    if field not in mapping:
        raise ConfigError(f"{path}.{field}", "missing required value")
    value = _as_number(mapping[field], f"{path}.{field}")
    if minimum is not None:
        if strict and value <= minimum:
            raise ConfigError(f"{path}.{field}", f"must be > {minimum}, got {value}")
        if not strict and value < minimum:
            raise ConfigError(f"{path}.{field}", f"must be >= {minimum}, got {value}")
    return value


def _parse_geometry(config: dict) -> SegmentGeometry:
    section = config.get("geometry")
    if section is None:
        raise ConfigError("geometry", "missing required section")
    if not isinstance(section, dict):
        raise ConfigError("geometry", "must be an object of segment dimensions")
    for key in section:
        if key not in _GEOMETRY_FIELDS:
            raise ConfigError(f"geometry.{key}", "unknown dimension")
    values = {f: _require_number(section, f, "geometry") for f in _GEOMETRY_FIELDS}
    try:
        return SegmentGeometry(**values)
    except InvalidGeometry as exc:
        raise ConfigError(f"geometry.{exc.field}", exc.reason) from exc


def _parse_springs(config: dict) -> SpringSpec:
    section = config.get("springs", {})
    if not isinstance(section, dict):
        raise ConfigError("springs", "must be an object")
    for key in section:
        if key not in _SPRING_FIELDS:
            raise ConfigError(f"springs.{key}", "unknown spring parameter")
    values = {f: _require_number(section, f, "springs")
              for f in _SPRING_FIELDS if f in section}
    try:
        return SpringSpec(**values)
    except ValueError as exc:
        raise ConfigError("springs", str(exc)) from exc


def _parse_alphas(config: dict) -> list[float]:
    alphas = config.get("alphas")
    if alphas is None:
        raise ConfigError("alphas", "missing required list of angles (radians)")
    if not isinstance(alphas, list) or not alphas:
        raise ConfigError("alphas", "must be a non-empty list of numbers")
    values = [_as_number(value, f"alphas[{index}]")
              for index, value in enumerate(alphas)]
    for index, value in enumerate(values):
        if not math.isfinite(value):
            raise ConfigError(f"alphas[{index}]", f"must be finite, got {value}")
    return values


def _parse_stack(config: dict):
    section = config.get("stack")
    if section is None:
        return None
    if not isinstance(section, dict) or set(section) != {"lambda"}:
        raise ConfigError("stack", 'must be an object {"lambda": ratio}')
    lam = _require_number(section, "lambda", "stack")
    if not 0.0 < lam <= 1.0:
        raise ConfigError("stack.lambda", f"must lie in (0, 1], got {lam}")
    return lam


def _parse_resolutions(config: dict) -> DesignBounds:
    section = config.get("resolutions", {})
    if not isinstance(section, dict):
        raise ConfigError("resolutions", "must be an object")
    for key in section:
        if key not in _RESOLUTION_FIELDS:
            raise ConfigError(f"resolutions.{key}", "unknown axis")
    kwargs = {}
    for key in _RESOLUTION_FIELDS:
        if key not in section:
            continue
        value = section[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 2:
            raise ConfigError(f"resolutions.{key}",
                              f"expected an integer >= 2, got {value!r}")
        kwargs["lambda_res" if key == "lambda" else f"{key}_res"] = value
    return DesignBounds(**kwargs)


def _check_bounds_box(config: dict) -> None:
    """The design box is fixed; a bounds section may only restate it."""
    section = config.get("bounds")
    if section is None:
        return
    if not isinstance(section, dict):
        raise ConfigError("bounds", "must be an object")
    for key, value in section.items():
        if key not in _BOUNDS_BOX:
            raise ConfigError(f"bounds.{key}", "unknown axis")
        expected = _BOUNDS_BOX[key]
        if (not isinstance(value, list) or len(value) != 2
                or [_as_number(v, f"bounds.{key}") for v in value]
                != list(expected)):
            raise ConfigError(
                f"bounds.{key}",
                f"the design box is fixed at {list(expected)}; "
                f"only resolutions are configurable")


def _parse_range_text(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("range", f"expected 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError("range", f"expected two numbers, got {text!r}") from exc
    return lo, hi


def _resolve_range(config: dict, opts) -> tuple[float, float] | None:
    if opts.range is not None:
        lo, hi = _parse_range_text(opts.range)
    elif "range" in config:
        value = config["range"]
        if (not isinstance(value, list) or len(value) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            raise ConfigError("range", "must be a [lo, hi] pair of numbers")
        lo, hi = float(value[0]), float(value[1])
    else:
        return None
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise RangeError(f"empty angle range [{lo}, {hi}]")
    return lo, hi


def _resolve_samples(config: dict, opts, default: int = 101) -> int:
    if opts.samples is not None:
        samples = opts.samples
    elif "samples" in config:
        samples = config["samples"]
        if isinstance(samples, bool) or not isinstance(samples, int):
            raise ConfigError("samples", f"expected an integer, got {samples!r}")
    else:
        return default
    if samples < 2:
        raise ConfigError("samples", f"need at least 2, got {samples}")
    return samples


def _resolve_workers(config: dict, opts) -> int | None:
    if opts.workers is not None:
        workers = opts.workers
    elif "workers" in config:
        workers = config["workers"]
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ConfigError("workers", f"expected an integer, got {workers!r}")
    else:
        return None
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers}")
    return workers


class _Emitter:
    """Writes one logical table as CSV or JSON with identical values."""

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.paths: list[Path] = []

    @staticmethod
    def _render(value) -> str:
        if isinstance(value, float):
            return _fmt(value)
        return str(value)

    def emit(self, name: str, columns, rows, head: dict | None = None,
             foot: dict | None = None) -> Path:
        """Write ``<name>.csv`` or ``<name>.json``.

        ``head`` entries become leading ``# key,value`` comment lines in CSV
        and top-level JSON fields; ``foot`` entries become trailing
        ``key,value`` lines in CSV and top-level JSON fields.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if self.fmt == "csv":
            path = self.out_dir / f"{name}.csv"
            lines = []
            for key, value in (head or {}).items():
                rendered = "NONE" if value is None else self._render(value)
                lines.append(f"# {key},{rendered}")
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(self._render(v) for v in row))
            for key, value in (foot or {}).items():
                rendered = "NONE" if value is None else self._render(value)
                lines.append(f"{key},{rendered}")
            path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                            newline="\n")
        else:
            path = self.out_dir / f"{name}.json"
            document = dict(head or {})
            document["rows"] = [dict(zip(columns, row)) for row in rows]
            document.update(foot or {})
            path.write_text(json.dumps(document, indent=2) + "\n",
                            encoding="utf-8", newline="\n")
        self.paths.append(path)
        return path


def _parse_cell(text: str):
    if text == "NONE":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path):
    """Parse a file written by the emitter back into meta, columns and rows.

    Returns ``{"meta": ..., "columns": ..., "rows": ...}``; numeric cells come
    back as numbers (``None`` for NONE), everything else as strings.  The CSV
    and JSON renderings of one table parse to equal structures, so outputs
    round-trip losslessly at the emitted precision.
    """
    path = Path(path)
    if path.suffix == ".json":
        document = json.loads(path.read_text(encoding="utf-8"))
        rows = document.pop("rows")
        columns = list(rows[0]) if rows else []
        return {"meta": document, "columns": columns,
                "rows": [[row[c] for c in columns] for row in rows]}
    meta: dict = {}
    columns: list[str] = []
    rows: list[list] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(",")
            meta[key] = _parse_cell(value)
        elif not columns:
            columns = line.split(",")
        else:
            cells = line.split(",")
            if len(cells) == 2 and not isinstance(_parse_cell(cells[0]), float):
                # Trailing key,value footer line (data rows start numeric).
                meta[cells[0]] = _parse_cell(cells[1])
            else:
                rows.append([_parse_cell(cell) for cell in cells])
    return {"meta": meta, "columns": columns, "rows": rows}


def _angle_out(value: float, degrees: bool) -> float:
    return math.degrees(value) if degrees else value


def cmd_pose(config: dict, opts) -> int:
    g = _parse_geometry(config)
    alphas = _parse_alphas(config)
    stack_lam = _parse_stack(config)
    columns = ["alpha"]
    for point in ("a1", "a2", "b0", "c0", "d0", "d1", "d2"):
        columns += [f"{point}x", f"{point}y"]
    if stack_lam is not None:
        for level in (1, 2, 3):
            columns += [f"frame{level}x", f"frame{level}y", f"frame{level}theta"]
    rows = []
    for alpha in alphas:
        state = SegmentState(alpha)
        pose = segment_points(g, state)
        row = [_quant(_angle_out(state.alpha, opts.degrees))]
        for _, point in pose.points():
            row += [_quant(point[0]), _quant(point[1])]
        if stack_lam is not None:
            try:
                stack = tapered_stack(g, stack_lam, (state, state, state))
            except InvalidRatio as exc:
                raise ConfigError("stack.lambda", str(exc)) from exc
            for frame in stack_forward(stack):
                row += [_quant(frame.origin[0]), _quant(frame.origin[1]),
                        _quant(_angle_out(frame.theta, opts.degrees))]
        rows.append(row)
    emitter = _Emitter(opts.output, opts.format)
    path = emitter.emit("pose", columns, rows)
    print(f"wrote {path}")
    return 0


def cmd_ik(config: dict, opts) -> int:
    g = _parse_geometry(config)
    alphas = _parse_alphas(config)
    rows = []
    for alpha in alphas:
        state = SegmentState(alpha)
        rho1, rho2 = cable_lengths(g, state.alpha)
        rows.append([_quant(_angle_out(state.alpha, opts.degrees)),
                     _quant(float(rho1)), _quant(float(rho2))])
    emitter = _Emitter(opts.output, opts.format)
    path = emitter.emit("ik", ["alpha", "rho1", "rho2"], rows)
    print(f"wrote {path}")
    return 0


def cmd_singularities(config: dict, opts) -> int:
    g = _parse_geometry(config)
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
    footer_value = (None if alpha_sing is None
                    else _quant(_angle_out(alpha_sing, opts.degrees)))
    emitter = _Emitter(opts.output, opts.format)
    path = emitter.emit("singularities", ["loop", "angle", "residual"], rows,
                        foot={"alpha_sing": footer_value})
    if alpha_sing is None:
        print("alpha_sing = NONE")
    else:
        print(f"alpha_sing = {_fmt(alpha_sing)} rad")
    print(f"wrote {path}")
    return 0


def cmd_energy_profile(config: dict, opts) -> int:
    g = _parse_geometry(config)
    spec = _parse_springs(config)
    samples = _resolve_samples(config, opts)
    explicit_range = _resolve_range(config, opts)
    try:
        # An overflowing home cable length is reported below, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            springs = SpringParams.for_geometry(g, spec.k1, spec.k2,
                                                spec.rest_fraction)
    except InvalidFraction as exc:
        raise ConfigError("springs.rest_fraction", str(exc)) from exc
    except ValueError as exc:
        # The spring constants are checked already; only the rest length,
        # a fraction of the home cable length, can still be out of range.
        raise ConfigError("geometry", f"no finite spring rest length: "
                          f"{exc}") from exc
    # Cables and rest length are shorter than the sum of the dimensions, so
    # every energy and the home curvature stay below 32 (k1 + k2) size**2.
    size = g.h1 + g.h2 + g.h3 + g.l1 + g.l2
    if not math.isfinite(32.0 * (spec.k1 + spec.k2) * size * size):
        raise ConfigError("geometry", "spring energies of this design "
                          "overflow a float")

    alpha_sing = singular_angles(g).alpha_sing
    if explicit_range is None and alpha_sing is None:
        raise RangeError(
            "design has no singularity to bound the profile; pass --range")
    profile = energy_profile(g, springs, n=samples, alpha_range=explicit_range)
    verdict = classify_home_stability(g, springs)

    head = {"class": verdict.stability.value,
            "energy_at_zero": _quant(float(energy(g, springs, 0.0)))}
    if alpha_sing is not None:
        head["energy_at_sing"] = _quant(float(energy(g, springs, alpha_sing)))
        head["total_energy"] = _quant(total_energy(g, springs,
                                                   alpha_sing=alpha_sing))
    else:
        head["energy_at_sing"] = None
        head["total_energy"] = None
    rows = [
        [_quant(_angle_out(float(a), opts.degrees)), _quant(float(e))]
        for a, e in zip(profile.alphas, profile.energies)
    ]
    emitter = _Emitter(opts.output, opts.format)
    path = emitter.emit("energy_profile", ["alpha", "energy"], rows, head=head)
    print(f"class = {verdict.stability.value}")
    print(f"wrote {path}")
    return 0


def cmd_optimize(config: dict, opts) -> int:
    _check_bounds_box(config)
    bounds = _parse_resolutions(config)
    springs = _parse_springs(config)
    workers = _resolve_workers(config, opts)
    report = optimize(bounds=bounds, springs=springs, workers=workers)

    emitter = _Emitter(opts.output, opts.format)
    best_rows = []
    for record in report.best:
        h1, h2, h3, l1, lam = record.x
        best_rows.append([
            _quant(lam), _quant(h1), _quant(h2), _quant(h3), _quant(l1),
            _quant(record.l2),
            _quant(_angle_out(record.alpha_sing, opts.degrees)),
            _quant(record.energy_at_zero), _quant(record.energy_at_sing),
            _quant(record.total_energy), record.stability.value,
        ])
    best_path = emitter.emit(
        "best",
        ["lambda", "h1", "h2", "h3", "l1", "l2", "alpha_sing",
         "energy_at_zero", "energy_at_sing", "total_energy", "stability"],
        best_rows)
    lambda_path = emitter.emit(
        "lambda_curve", ["lambda", "l1", "l2"],
        [[_quant(lam), _quant(l1), _quant(l2)]
         for lam, l1, l2 in report.lambda_curve])
    energy_path = emitter.emit(
        "energy_curve", ["lambda", "total_energy"],
        [[_quant(lam), _quant(et)] for lam, et in report.energy_curve])
    for path in (best_path, lambda_path, energy_path):
        print(f"wrote {path}")
    print(f"max alpha_sing = {_fmt(report.max_alpha_sing)} rad")
    return 0


_COMMANDS = {
    "pose": cmd_pose,
    "ik": cmd_ik,
    "singularities": cmd_singularities,
    "energy-profile": cmd_energy_profile,
    "optimize": cmd_optimize,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenseg",
        description="Kinematics, singularity and spring-energy analysis of "
                    "planar tensegrity segments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--output", type=Path, default=Path("."),
                         help="output directory (default: current)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output file format")
        cmd.add_argument("--samples", type=int,
                         help="number of profile samples")
        cmd.add_argument("--workers", type=int,
                         help="worker processes for the grid sweep")
        cmd.add_argument("--range", metavar="LO,HI",
                         help="explicit angle range in radians "
                              "(write --range=LO,HI when LO is negative)")
        cmd.add_argument("--degrees", action="store_true",
                         help="write angles in degrees instead of radians")
    return parser


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        config = _load_config(opts.config)
        return _COMMANDS[opts.command](config, opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoSingularity, RangeError) as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return 3
    except EmptyGrid as exc:
        print(f"empty grid: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
