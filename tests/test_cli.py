"""End-to-end tests of the command-line interface (in-process via ``main``)."""

import importlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenseg import (SegmentGeometry, SegmentState, SpringParams,
                    cable_lengths, energy, segment_points, singular_angles,
                    stack_forward, tapered_stack, total_energy)
from tenseg.cli import _write_table, main
from tenseg.singularity import SingularitySet

from conftest import (STABLE_FLAT, UNIT, UNSTABLE_TALL, condition_bound,
                      read_table)

UNIT_CONFIG = {"geometry": {"h1": 1, "h2": 1, "h3": 1, "l1": 1, "l2": 1}}


def geometry_section(g):
    return {"h1": g.h1, "h2": g.h2, "h3": g.h3, "l1": g.l1, "l2": g.l2}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def quant(value):
    return float(f"{float(value):.12g}")


# ---------------------------------------------------------------------------
# pose


def test_pose_home_points(tmp_path, capsys):
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.0]})
    assert main(["pose", "--config", config, "--output", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    table = read_table(tmp_path / "pose.csv")
    assert table["columns"][:3] == ["alpha", "a1x", "a1y"]
    assert len(table["columns"]) == 15
    assert table["rows"] == [[0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 1.0,
                              0.0, 2.0, 0.0, 3.0, -1.0, 3.0, 1.0, 3.0]]


def test_pose_stack_frames_home(tmp_path):
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.0],
                                     "stack": {"lambda": 0.5}})
    main(["pose", "--config", config, "--output", str(tmp_path)])
    table = read_table(tmp_path / "pose.csv")
    assert len(table["columns"]) == 24
    assert table["columns"][15:18] == ["frame1x", "frame1y", "frame1theta"]
    assert table["rows"][0][15:] == [0.0, 3.0, 0.0,
                                     0.0, 4.5, 0.0,
                                     0.0, 5.25, 0.0]


def test_pose_stack_frames_deflected(tmp_path):
    alpha = 0.3
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [alpha],
                                     "stack": {"lambda": 0.5}})
    main(["pose", "--config", config, "--output", str(tmp_path)])
    row = read_table(tmp_path / "pose.csv")["rows"][0]
    state = SegmentState(alpha)
    expected = []
    stack = tapered_stack(UNIT, 0.5, (state, state, state))
    for frame in stack_forward(stack):
        expected += [quant(frame.origin[0]), quant(frame.origin[1]),
                     quant(frame.theta)]
    assert row[15:] == expected
    assert row[17] == quant(0.6) and row[23] == quant(1.8)


def test_pose_matches_segment_points(tmp_path):
    alphas = [-0.7, 0.2, 1.1]
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": alphas})
    main(["pose", "--config", config, "--output", str(tmp_path)])
    for row, alpha in zip(read_table(tmp_path / "pose.csv")["rows"], alphas):
        pose = segment_points(UNIT, SegmentState(alpha))
        flat = [alpha]
        for _, point in pose.points():
            flat += [point[0], point[1]]
        assert row == [quant(v) for v in flat]


# ---------------------------------------------------------------------------
# ik


def test_ik_values(tmp_path):
    alphas = [0.0, 0.5, -0.5]
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": alphas})
    assert main(["ik", "--config", config, "--output", str(tmp_path)]) == 0
    table = read_table(tmp_path / "ik.csv")
    assert table["columns"] == ["alpha", "rho1", "rho2"]
    for row, alpha in zip(table["rows"], alphas):
        rho1, rho2 = cable_lengths(UNIT, alpha)
        assert row == [quant(alpha), quant(rho1), quant(rho2)]
    # Mirror symmetry survives the 12-digit quantisation.
    assert table["rows"][1][1] == table["rows"][2][2]
    assert table["rows"][1][2] == table["rows"][2][1]


# ---------------------------------------------------------------------------
# singularities


def test_singularities_table_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["singularities", "--config", config,
                 "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "alpha_sing = 0.785398163397 rad" in out
    table = read_table(tmp_path / "singularities.csv")
    assert table["columns"] == ["loop", "angle", "residual"]
    assert len(table["rows"]) == 8
    assert [row[0] for row in table["rows"]] == [1.0] * 4 + [2.0] * 4
    found = singular_angles(UNIT)
    assert [r[1] for r in table["rows"][:4]] == [quant(a) for a in found.loop1]
    assert [r[1] for r in table["rows"][4:]] == [quant(a) for a in found.loop2]
    assert all(row[2] < 1e-9 for row in table["rows"])
    assert table["meta"]["alpha_sing"] == quant(math.pi / 4)


@pytest.mark.parametrize("dims", [
    {"h1": 1.0, "h2": 1.0, "h3": 1.0, "l1": 1e308, "l2": 1e308},
    dict.fromkeys(("h1", "h2", "h3", "l1", "l2"), 1e-300),
], ids=["wide", "tiny"])
def test_singularities_at_extreme_scales(tmp_path, dims):
    # The angles are those of the design scaled by a power of two into
    # [0.5, 1); the quartic of the design itself overflows or vanishes.
    config = write_config(tmp_path, {"geometry": dims})
    assert main(["singularities", "--config", config,
                 "--output", str(tmp_path)]) == 0
    exponent = math.frexp(max(dims.values()))[1]
    unit = singular_angles(SegmentGeometry(
        **{k: math.ldexp(v, -exponent) for k, v in dims.items()}))
    table = read_table(tmp_path / "singularities.csv")
    assert [row[1] for row in table["rows"]] == [
        quant(a) for a in unit.loop1 + unit.loop2]
    assert table["meta"]["alpha_sing"] == quant(unit.alpha_sing)


GOLDEN = Path(__file__).parent / "golden"
# The designs whose singularities and energy profiles are pinned.
GOLDEN_DESIGNS = sorted(p.parent.name for p in GOLDEN.glob("*/singularities.csv"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", GOLDEN_DESIGNS)
def test_singularities_match_goldens(tmp_path, name, fmt):
    # Designs on the kernel's fallback (a tangency, triple roots) and the
    # half turn; CI runs the same comparison on the installed CLI.
    assert main(["singularities", "--config", str(GOLDEN / name / "config.json"),
                 "--format", fmt, "--output", str(tmp_path)]) == 0
    written = (tmp_path / f"singularities.{fmt}").read_bytes()
    assert written == (GOLDEN / name / f"singularities.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", GOLDEN_DESIGNS)
def test_golden_residuals_are_within_the_stated_bound(name, fmt):
    # Each residual is |singularity_condition| at the row's angle, which is
    # rounding alone: at most 8 eps (|A| + |B| + |C| + |D|).
    config = json.loads((GOLDEN / name / "config.json").read_text())
    g = SegmentGeometry(**config["geometry"])
    bound = condition_bound(g)
    table = read_table(GOLDEN / name / f"singularities.{fmt}")
    residuals = [row[table["columns"].index("residual")]
                 for row in table["rows"]]
    assert residuals and all(0.0 <= r <= bound for r in residuals), (
        residuals, bound)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", GOLDEN_DESIGNS)
def test_energy_profile_matches_goldens(tmp_path, name, fmt):
    # Every total_energy digit of these files equals 30-digit quadrature's.
    assert main(["energy-profile", "--config",
                 str(GOLDEN / name / "config.json"),
                 "--format", fmt, "--output", str(tmp_path)]) == 0
    written = (tmp_path / f"energy_profile.{fmt}").read_bytes()
    assert written == (GOLDEN / name / f"energy_profile.{fmt}").read_bytes()


OPTIMIZE_JSON = ["optimize", "--format", "json", "--degrees"]
OPTIMIZE_TABLES = ["best.json", "lambda_curve.json", "energy_curve.json"]


@pytest.mark.parametrize("name, argv, files", [
    ("pose", ["pose"], ["pose.csv"]),
    ("pose", ["pose", "--format", "json"], ["pose.json"]),
    ("ik", ["ik"], ["ik.csv"]),
    ("ik", ["ik", "--format", "json"], ["ik.json"]),
    ("optimize", OPTIMIZE_JSON, OPTIMIZE_TABLES),
    ("optimize_survivors", OPTIMIZE_JSON, OPTIMIZE_TABLES),
    ("optimize_loose", OPTIMIZE_JSON, OPTIMIZE_TABLES),
], ids=["pose-csv", "pose-json", "ik-csv", "ik-json", "optimize-json",
        "optimize_survivors-json", "optimize_loose-json"])
def test_command_matches_goldens(tmp_path, name, argv, files):
    # A stacked pose, cable lengths, a small sweep, a sweep whose lam = 1
    # winner is a non-flat row solved by the quartic kernel and one whose
    # energy bound leaves more than the winners to integrate, each in the
    # directory ``name``; CI runs the same comparison.
    golden = GOLDEN / name
    assert main(argv + ["--config", str(golden / "config.json"),
                        "--output", str(tmp_path)]) == 0
    for file in files:
        assert (tmp_path / file).read_bytes() == \
            (golden / file).read_bytes(), file


def test_singularities_degrees(tmp_path, capsys):
    config = write_config(tmp_path, UNIT_CONFIG)
    main(["singularities", "--config", config, "--output", str(tmp_path),
          "--degrees"])
    # Files carry degrees; the summary line stays in radians.
    assert "alpha_sing = 0.785398163397 rad" in capsys.readouterr().out
    table = read_table(tmp_path / "singularities.csv")
    assert table["meta"]["alpha_sing"] == 45.0
    assert any(row[1] == 135.0 for row in table["rows"])


def test_singularities_none_footer(tmp_path, capsys, monkeypatch):
    cli_module = importlib.import_module("tenseg.cli")
    empty = SingularitySet(loop1=(), loop2=(), multiplicities=(),
                           alpha_sing=None)
    monkeypatch.setattr(cli_module, "singular_angles", lambda g: empty)
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["singularities", "--config", config,
                 "--output", str(tmp_path)]) == 0
    assert "alpha_sing = NONE" in capsys.readouterr().out
    table = read_table(tmp_path / "singularities.csv")
    assert table["rows"] == []
    assert table["meta"]["alpha_sing"] is None


# ---------------------------------------------------------------------------
# energy-profile


def test_energy_profile_stable_flat(tmp_path, capsys):
    config = write_config(tmp_path, {"geometry": geometry_section(STABLE_FLAT)})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 0
    assert "class = Stable" in capsys.readouterr().out
    table = read_table(tmp_path / "energy_profile.csv")
    meta = table["meta"]
    assert meta["class"] == "Stable"
    assert meta["energy_at_zero"] == 0.36
    springs = SpringParams.for_geometry(STABLE_FLAT, 1.0, 1.0, 0.4)
    alpha_sing = singular_angles(STABLE_FLAT).alpha_sing
    assert alpha_sing == pytest.approx(math.pi / 6, abs=1e-12)
    assert meta["energy_at_sing"] == quant(energy(STABLE_FLAT, springs,
                                                  alpha_sing))
    assert meta["total_energy"] == quant(total_energy(STABLE_FLAT, springs))
    assert len(table["rows"]) == 101
    assert table["rows"][0][0] == quant(-alpha_sing)
    assert table["rows"][-1][0] == quant(alpha_sing)
    assert min(row[1] for row in table["rows"]) == table["rows"][50][1]


def test_energy_profile_unstable(tmp_path, capsys):
    config = write_config(tmp_path,
                          {"geometry": geometry_section(UNSTABLE_TALL)})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 0
    assert "class = Unstable" in capsys.readouterr().out
    assert read_table(tmp_path / "energy_profile.csv")["meta"]["class"] == \
        "Unstable"


def test_energy_profile_sample_precedence(tmp_path):
    config = write_config(tmp_path, {**UNIT_CONFIG, "samples": 5})
    main(["energy-profile", "--config", config, "--output", str(tmp_path)])
    assert len(read_table(tmp_path / "energy_profile.csv")["rows"]) == 5
    main(["energy-profile", "--config", config, "--output", str(tmp_path),
          "--samples", "7"])
    assert len(read_table(tmp_path / "energy_profile.csv")["rows"]) == 7


def test_energy_profile_explicit_range(tmp_path):
    config = write_config(tmp_path, UNIT_CONFIG)
    main(["energy-profile", "--config", config, "--output", str(tmp_path),
          "--range=-0.5,0.25", "--samples", "11"])
    rows = read_table(tmp_path / "energy_profile.csv")["rows"]
    assert len(rows) == 11
    assert rows[0][0] == -0.5 and rows[-1][0] == 0.25


def test_energy_profile_range_from_config(tmp_path):
    config = write_config(tmp_path, {**UNIT_CONFIG, "range": [-1.0, 1.0],
                                     "samples": 3})
    main(["energy-profile", "--config", config, "--output", str(tmp_path)])
    rows = read_table(tmp_path / "energy_profile.csv")["rows"]
    assert [row[0] for row in rows] == [-1.0, 0.0, 1.0]


def test_energy_profile_without_singularity_needs_range(tmp_path, capsys,
                                                        monkeypatch):
    cli_module = importlib.import_module("tenseg.cli")
    empty = SingularitySet(loop1=(), loop2=(), multiplicities=(),
                           alpha_sing=None)
    monkeypatch.setattr(cli_module, "singular_angles", lambda g: empty)
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 3
    assert "range error" in capsys.readouterr().err
    # An explicit range rescues the command; unknown metrics become NONE.
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path), "--range=-0.5,0.5"]) == 0
    meta = read_table(tmp_path / "energy_profile.csv")["meta"]
    assert meta["energy_at_sing"] is None
    assert meta["total_energy"] is None


def test_energy_profile_of_a_design_singular_at_home_needs_range(tmp_path,
                                                                  capsys):
    # Plates this narrow leave the cables collinear with the spine at home.
    config = write_config(tmp_path, {"geometry": {
        "h1": 1e-320, "h2": 1e10, "h3": 1e10, "l1": 1e-320, "l2": 1e-320}})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 3
    assert "range error" in capsys.readouterr().err


def test_energy_profile_empty_range_is_a_range_error(tmp_path, capsys):
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path), "--range", "0.5,0.5"]) == 3
    assert "range error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize


@pytest.fixture()
def small_resolutions():
    return {"resolutions": {"h1": 2, "h2": 3, "l1": 4, "lambda": 3}}


def test_optimize_outputs(tmp_path, capsys, small_resolutions):
    config = write_config(tmp_path, small_resolutions)
    assert main(["optimize", "--config", config, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 3
    assert "max alpha_sing = " in out and out.rstrip().endswith("rad")
    best = read_table(tmp_path / "best.csv")
    assert best["columns"] == ["lambda", "h1", "h2", "h3", "l1", "l2",
                               "alpha_sing", "energy_at_zero",
                               "energy_at_sing", "total_energy", "stability"]
    assert len(best["rows"]) == 3
    assert [row[0] for row in best["rows"]] == [0.05, 0.525, 1.0]
    for row in best["rows"]:
        assert row[3] == row[1]            # h3 = h1
        assert row[5] == quant(row[0] * row[4])  # l2 = lambda * l1
        assert row[10] in ("Stable", "Unstable", "Neutral")
    curve = read_table(tmp_path / "lambda_curve.csv")
    assert curve["columns"] == ["lambda", "l1", "l2"]
    assert [r[0] for r in curve["rows"]] == [r[0] for r in best["rows"]]
    energy_curve = read_table(tmp_path / "energy_curve.csv")
    assert energy_curve["columns"] == ["lambda", "total_energy"]
    assert [r[1] for r in energy_curve["rows"]] == \
        [r[9] for r in best["rows"]]


def test_optimize_worker_count_does_not_change_bytes(tmp_path):
    # --workers is validated and ignored: the sweep runs in one process.
    config = write_config(tmp_path, {"resolutions":
                                     {"h1": 3, "h2": 5, "l1": 30,
                                      "lambda": 5}})
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["optimize", "--config", config, "--output", str(serial),
                 "--workers", "1"]) == 0
    assert main(["optimize", "--config", config, "--output", str(parallel),
                 "--workers", "2"]) == 0
    for name in ("best.csv", "lambda_curve.csv", "energy_curve.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_optimize_json_structure(tmp_path, small_resolutions):
    config = write_config(tmp_path, small_resolutions)
    main(["optimize", "--config", config, "--output", str(tmp_path),
          "--format", "json"])
    document = json.loads((tmp_path / "best.json").read_text())
    assert set(document) == {"rows"}
    assert len(document["rows"]) == 3
    assert document["rows"][0]["stability"] in ("Stable", "Unstable",
                                                "Neutral")


# ---------------------------------------------------------------------------
# formats and output handling


@pytest.mark.parametrize("argv_tail, name", [
    (["singularities"], "singularities"),
    (["energy-profile"], "energy_profile"),
])
def test_csv_json_parity(tmp_path, argv_tail, name):
    config = write_config(tmp_path, UNIT_CONFIG)
    main(argv_tail + ["--config", config, "--output", str(tmp_path),
                      "--format", "csv"])
    main(argv_tail + ["--config", config, "--output", str(tmp_path),
                      "--format", "json"])
    csv_table = read_table(tmp_path / f"{name}.csv")
    json_table = read_table(tmp_path / f"{name}.json")
    assert csv_table == json_table


def test_output_directory_is_created(tmp_path):
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.0]})
    nested = tmp_path / "deep" / "nested"
    assert main(["ik", "--config", config, "--output", str(nested)]) == 0
    assert (nested / "ik.csv").exists()


def test_twelve_significant_digits(tmp_path):
    config = write_config(tmp_path, UNIT_CONFIG)
    main(["singularities", "--config", config, "--output", str(tmp_path)])
    text = (tmp_path / "singularities.csv").read_text()
    assert "0.785398163397" in text
    assert "0.7853981633974" not in text


def test_write_table_rounds_raw_cells_alike_in_both_formats(tmp_path):
    # The commands hand the writer raw cells; it alone rounds each float,
    # numpy's too, to 12 significant digits and passes the rest as they are.
    columns = ["a", "b", "c", "d", "e"]
    row = [0.1 + 0.2, np.float64(1) / 3, None, 1, "Stable"]
    for fmt in ("csv", "json"):
        _write_table(SimpleNamespace(format=fmt, output=tmp_path), "table",
                     columns, [row], head={"scale": 2.0 / 3},
                     foot={"alpha_sing": None})
    assert (tmp_path / "table.csv").read_text().splitlines() == [
        "# scale,0.666666666667", "a,b,c,d,e",
        "0.3,0.333333333333,NONE,1,Stable", "alpha_sing,NONE"]
    document = json.loads((tmp_path / "table.json").read_text())
    assert document == {"scale": 0.666666666667, "rows": [dict(zip(
        columns, [0.3, 0.333333333333, None, 1, "Stable"]))],
        "alpha_sing": None}
    assert type(document["rows"][0]["d"]) is int


# ---------------------------------------------------------------------------
# configuration errors (exit code 2)


@pytest.mark.parametrize("command, config_data, fragment", [
    ("ik", {"alphas": [0.0]}, "geometry"),
    ("ik", UNIT_CONFIG, "alphas"),
    ("ik", {**UNIT_CONFIG, "alphas": []}, "alphas"),
    ("ik", {**UNIT_CONFIG, "alphas": [0.0], "surprise": 1}, "surprise"),
    ("singularities", {"geometry": {"h1": 1, "h2": -1, "h3": 1,
                                    "l1": 1, "l2": 1}}, "geometry.h2"),
    ("singularities", {"geometry": {"h1": 1, "h2": 1, "h3": 1, "l1": 1}},
     "geometry.l2"),
    ("singularities", {"geometry": {"h1": 1, "h2": 1, "h3": 1, "l1": 1,
                                    "l2": 1, "l3": 1}}, "geometry.l3"),
    ("pose", {**UNIT_CONFIG, "alphas": [0.0], "stack": {"lambda": 1.5}},
     "stack.lambda"),
    ("pose", {**UNIT_CONFIG, "alphas": [0.0, "x"]}, "alphas[1]"),
    ("energy-profile", {**UNIT_CONFIG, "springs": {"k1": -2.0}}, "springs"),
    ("energy-profile", {**UNIT_CONFIG, "springs": {"kk": 1.0}}, "springs.kk"),
    ("energy-profile", {**UNIT_CONFIG, "samples": 1}, "samples"),
    ("optimize", {"resolutions": {"lambda": 1}}, "resolutions.lambda"),
    ("optimize", {"resolutions": {"depth": 3}}, "resolutions.depth"),
    ("optimize", {"workers": 0}, "workers"),
    ("energy-profile", {**UNIT_CONFIG, "springs": {"rest_fraction": "0.4"}},
     "springs.rest_fraction"),
    ("optimize", {"springs": {"k1": True}}, "springs.k1"),
    ("optimize", {"springs": {"k2": "2"}}, "springs.k2"),
    # The design box is fixed: no config names it, not even to restate it.
    ("optimize", {"bounds": {"l1": [0.0, 4.5], "h1": [0.0, 1.0],
                             "h2": [0.0, 2.0], "lambda": [0.05, 1.0]}},
     "bounds"),
    ("optimize", {"bounds": {}}, "bounds"),
    # Past the limits, rejected before the profile or the grid is allocated.
    ("energy-profile", {**UNIT_CONFIG, "samples": 10**12}, "samples"),
    ("optimize", {"resolutions": dict.fromkeys(("h1", "h2", "l1", "lambda"),
                                               10**6)}, "resolutions"),
    ("optimize", {"resolutions": {"h1": 10**6}}, "resolutions"),
])
def test_config_errors_exit_2(tmp_path, capsys, command, config_data,
                              fragment):
    config = write_config(tmp_path, config_data)
    assert main([command, "--config", config, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


@pytest.mark.parametrize("command", ["pose", "ik"])
@pytest.mark.parametrize("alphas, field", [
    ([math.inf], "alphas[0]"),
    ([0.0, -math.inf], "alphas[1]"),
    ([0.0, 0.5, math.nan], "alphas[2]"),
])
def test_non_finite_angles_exit_2(tmp_path, capsys, command, alphas, field):
    # json writes these as Infinity and NaN, which json.load accepts.
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": alphas})
    assert main([command, "--config", config, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert not (tmp_path / f"{command}.csv").exists()


def test_energy_profile_overflowing_rest_length_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"geometry": dict.fromkeys(
        ("h1", "h2", "h3", "l1", "l2"), 1e308)})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: geometry:") and "rest length" in err


@pytest.mark.parametrize("dims", [
    {"h1": 1.0, "h2": 1.0, "h3": 1.0, "l1": 1e308, "l2": 1e308},
    dict.fromkeys(("h1", "h2", "h3", "l1", "l2"), 1e200),
], ids=["wide", "huge"])
def test_energy_profile_overflowing_energy_exits_2(tmp_path, capsys, dims):
    # The rest length is finite, but the stretched springs' energies are not.
    config = write_config(tmp_path, {"geometry": dims})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: geometry:") and "overflow" in err
    assert not (tmp_path / "energy_profile.csv").exists()


def test_malformed_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["ik", "--config", str(path),
                 "--output", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_range_text_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path), "--range", "abc"]) == 2
    assert "range" in capsys.readouterr().err


def test_samples_flag_below_two_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, UNIT_CONFIG)
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path), "--samples", "1"]) == 2
    assert "samples" in capsys.readouterr().err


def exit_code(argv):
    """``main``'s return value, or the code of the exit argparse takes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in ("pose", "ik", "singularities", "energy-profile", "optimize")
    for flag in ("--samples=9", "--range=0,1", "--workers=1")
    if (command, flag) not in {("energy-profile", "--samples=9"),
                               ("energy-profile", "--range=0,1"),
                               ("optimize", "--workers=1")}])
def test_flag_of_another_subcommand_exits_2(tmp_path, capsys, command, flag):
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.0]})
    assert exit_code([command, "--config", config, "--output", str(tmp_path),
                      flag]) == 2
    assert flag.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, fragment", [
    ("singularities", {"springs": {"k1": "x"}}, "springs.k1"),
    ("singularities", {"samples": 1}, "samples"),
    ("energy-profile", {"alphas": [0.0, None]}, "alphas[1]"),
    ("energy-profile", {"workers": 0}, "workers"),
    ("pose", {"resolutions": {"h1": 1.5}}, "resolutions.h1"),
    ("ik", {"bounds": {"h2": [0.0, 3.0]}}, "bounds"),
    ("ik", {"stack": {"lambda": 2.0}}, "stack.lambda"),
    ("ik", {"range": "wide"}, "range"),
    ("optimize", {"geometry": {"h1": 1}}, "geometry.h2"),
])
def test_keys_a_subcommand_does_not_read_are_validated(
        tmp_path, capsys, command, extra, fragment):
    # One config may serve several subcommands, so each validates all keys.
    config = {**UNIT_CONFIG, "alphas": [0.0],
              "resolutions": {"h1": 2, "h2": 2, "l1": 2, "lambda": 2}}
    path = write_config(tmp_path, {**config, **extra})
    assert main([command, "--config", path, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err


def test_flags_are_validated_as_config_keys(tmp_path, capsys):
    # A flag replaces the key of its name, and is checked in its place.
    config = write_config(tmp_path, {**UNIT_CONFIG, "samples": "many",
                                     "range": None})
    assert main(["energy-profile", "--config", config, "--output",
                 str(tmp_path), "--samples", "3", "--range=-0.5,0.5"]) == 0
    assert len(read_table(tmp_path / "energy_profile.csv")["rows"]) == 3
    assert main(["energy-profile", "--config", config, "--output",
                 str(tmp_path), "--range=a,b", "--samples", "3"]) == 2
    assert "config error: range:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# designs at the edge of the float range: an error naming the field, never a
# traceback or a written inf


def test_stack_whose_levels_underflow_exits_2(tmp_path, capsys):
    # lambda**2 scales the third level's dimensions to 0.
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.1],
                                     "stack": {"lambda": 1e-200}})
    assert main(["pose", "--config", config, "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: stack.lambda:")
    assert not (tmp_path / "pose.csv").exists()


def test_optimize_with_overflowing_spring_energies_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {
        "springs": {"k1": 1e308, "k2": 1e308},
        "resolutions": {"h1": 2, "h2": 3, "l1": 3, "lambda": 2}})
    assert main(["optimize", "--config", config, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: springs:") and "overflow" in err
    assert not (tmp_path / "best.csv").exists()


@pytest.mark.parametrize("argv_range", [
    ["--range=-1e308,1e308"], ["--range=-inf,0"], []])
def test_energy_profile_range_of_infinite_width_exits_3(tmp_path, capsys,
                                                        argv_range):
    config = write_config(tmp_path, {**UNIT_CONFIG, "range": [-1e308, 1e308]})
    assert main(["energy-profile", "--config", config,
                 "--output", str(tmp_path)] + argv_range) == 3
    assert capsys.readouterr().err.startswith("range error:")


@pytest.mark.parametrize("command", ["singularities", "energy-profile"])
def test_dimensions_too_far_apart_exit_2(tmp_path, capsys, command):
    # Scaled by a power of two, every coefficient of the quartic underflows.
    config = write_config(tmp_path, {"geometry": {
        "h1": 1e200, "h2": 1e-300, "h3": 1e-300, "l1": 1e308, "l2": 1e-300}})
    assert main([command, "--config", config, "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: geometry:")


@pytest.mark.parametrize("command, config_data", [
    ("pose", {"geometry": {"h1": 1, "h2": 1e308, "h3": 1e308, "l1": 1,
                           "l2": 1}, "alphas": [0.3]}),
    ("ik", {"geometry": {"h1": 1, "h2": 1e308, "h3": 1e308, "l1": 1,
                         "l2": 1}, "alphas": [0.3]}),
    # The segment's own points are finite, but the stacked frames are not.
    ("pose", {"geometry": {"h1": 1e-200, "h2": 3, "h3": 1e308, "l1": 3,
                           "l2": 1e-320}, "alphas": [3.1],
              "stack": {"lambda": 1.0}}),
], ids=["pose", "ik", "pose-stack"])
def test_coordinates_past_the_float_range_exit_2(tmp_path, capsys, command,
                                                 config_data):
    config = write_config(tmp_path, config_data)
    assert main([command, "--config", config, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: geometry:") and "overflow" in err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("data", [
    b'{"samples": 1' + b"0" * 5000 + b"}",  # past the parser's digit limit
    b'{"geometry": {"h1": 1' + b"0" * 400 + b"}}",  # past the float range
    b'{"geometry": "\xe9"}',  # not UTF-8
], ids=["long-integer", "huge-integer", "latin-1"])
def test_undecodable_config_exits_2(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["singularities", "--config", str(path),
                 "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# fuzz: any config, any flag, on grids of at most 3 samples per axis


def mostly(valid, other, odds=7):
    """``valid`` ``odds`` times as often as ``other``."""
    return st.sampled_from([True] * odds + [False]).flatmap(
        lambda pick_valid: valid if pick_valid else other)


JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.just([]), st.just({}), st.just([1.0, 2.0]))
ODD = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-320, 1e-200, 1e200, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.integers(-3, 3), st.floats(), JUNK)
# Counts stay small, so that no grid has more than 3 samples per axis.
COUNTS = mostly(st.integers(2, 3), st.one_of(st.integers(-1, 1), ODD))


def number(lo, hi):
    return mostly(st.floats(lo, hi), ODD, odds=15)


def section(fields, partial=True):
    """Mostly an object with every field; else one with an unknown key, a
    subset of the fields, or a value that is not an object."""
    complete = st.fixed_dictionaries(fields)
    odd = [complete.map(lambda d: {**d, "bogus": 1}), ODD]
    if partial:
        odd.append(st.fixed_dictionaries({}, optional=fields))
    return mostly(complete, st.one_of(*odd))


GEOMETRY = section({f: number(0.0, 4.0) for f in ("h1", "h3")}
                   | {f: number(0.05, 4.0) for f in ("h2", "l1", "l2")})
# Key: (chance of being present in quarters, values).
KEYS = {
    "geometry": (3, GEOMETRY),
    "alphas": (3, mostly(st.lists(number(-4.0, 4.0), min_size=1, max_size=3),
                         st.one_of(st.lists(ODD, max_size=2), ODD))),
    "springs": (2, section({"k1": number(0.1, 10.0), "k2": number(0.1, 10.0),
                            "rest_fraction": number(0.05, 0.95)})),
    "stack": (2, section({"lambda": number(0.05, 1.0)})),
    "samples": (2, COUNTS),
    "range": (1, mostly(st.tuples(number(-2.0, 0.0), number(0.01, 2.0)).map(list),
                        st.one_of(st.lists(ODD, max_size=3), ODD))),
    "workers": (1, COUNTS),
    # Every axis is given, so no default resolution enlarges the grid.
    "resolutions": (4, section({axis: COUNTS for axis
                                in ("h1", "h2", "l1", "lambda")}, partial=False)),
}


@st.composite
def configs(draw):
    config = {key: draw(values) for key, (chance, values) in KEYS.items()
              if draw(st.integers(0, 3)) < chance}
    if draw(st.integers(0, 7)) == 0:
        config["surprise"] = draw(ODD)
    return config


COMMON_FLAGS = ["--degrees", "--format=json"]
OWN_FLAGS = {
    "energy-profile": ["--samples=2", "--samples=3", "--samples=1",
                       "--samples=x", "--range=-0.5,0.5", "--range=0.5,0.5",
                       "--range=-1e308,1e308", "--range=nan,1", "--range=a,b",
                       "--range=1"],
    "optimize": ["--workers=1", "--workers=2", "--workers=0"],
}


@st.composite
def commands(draw):
    """A subcommand and flags: mostly its own, rarely another's."""
    command = draw(st.sampled_from(["pose", "ik", "singularities",
                                    "energy-profile", "optimize"]))
    own = COMMON_FLAGS + OWN_FLAGS.get(command, [])
    every = COMMON_FLAGS + sum(OWN_FLAGS.values(), [])
    flags = draw(mostly(st.lists(st.sampled_from(own), max_size=2),
                        st.lists(st.sampled_from(every), max_size=2)))
    return [command, *flags]


@settings(max_examples=300, deadline=None)
@given(command=commands(), config=mostly(configs(), ODD, odds=15))
def test_any_config_exits_with_a_documented_code(command, config):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = exit_code([*command, "--config", str(path),
                          "--output", str(Path(scratch) / "out")])
    assert code in (0, 2, 3)


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path, {**UNIT_CONFIG, "alphas": [0.0]})
    result = subprocess.run(
        [sys.executable, "-m", "tenseg", "ik", "--config", config,
         "--output", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "ik.csv").exists()


MODULE_PROBE = """\
import sys
import tenseg.cli
code = tenseg.cli.main(sys.argv[1:])
print(code, sorted({"concurrent.futures.process", "multiprocessing",
                    "numpy.polynomial", "json", "dataclasses"}
                   & set(sys.modules)))
"""


def test_optimize_loads_no_process_pool(tmp_path, small_resolutions):
    # The sweep runs in one process: neither the CLI nor a sweep imports the
    # pool's modules, and --workers is still accepted (and ignored).  The
    # energy rule is a table, so numpy.polynomial is not loaded either; json
    # is, to read the config.  The records are not dataclasses, so that
    # module stays unloaded too (numpy does not import it).
    config = write_config(tmp_path, small_resolutions)
    result = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, "optimize", "--workers", "2",
         "--config", config, "--output", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 ['json']"
    assert (tmp_path / "best.csv").exists()


def test_default_csv_sweep_loads_no_json(tmp_path):
    # Without a config and with CSV output nothing reads or writes JSON.
    result = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, "optimize", "--output",
         str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "best.csv").exists()
