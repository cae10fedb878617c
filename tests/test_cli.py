"""End-to-end tests of the command-line interface (in-process via ``main``)."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from tenseg import (SegmentGeometry, SegmentState, SpringParams,
                    cable_lengths, energy, segment_points, singular_angles,
                    stack_forward, tapered_stack, total_energy)
from tenseg.cli import main, read_table
from tenseg.singularity import SingularitySet

from conftest import STABLE_FLAT, UNIT, UNSTABLE_TALL

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_singularities_match_goldens(tmp_path, name, fmt):
    # Designs on the kernel's fallback (a tangency, triple roots) and the
    # half turn; CI runs the same comparison on the installed CLI.
    assert main(["singularities", "--config", str(GOLDEN / name / "config.json"),
                 "--format", fmt, "--output", str(tmp_path)]) == 0
    written = (tmp_path / f"singularities.{fmt}").read_bytes()
    assert written == (GOLDEN / name / f"singularities.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_energy_profile_matches_goldens(tmp_path, name, fmt):
    # Every total_energy digit of these files equals 30-digit quadrature's.
    assert main(["energy-profile", "--config",
                 str(GOLDEN / name / "config.json"),
                 "--format", fmt, "--output", str(tmp_path)]) == 0
    written = (tmp_path / f"energy_profile.{fmt}").read_bytes()
    assert written == (GOLDEN / name / f"energy_profile.{fmt}").read_bytes()


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
    assert main(["optimize", "--config", config, "--output", str(tmp_path),
                 "--workers", "1"]) == 0
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


def test_optimize_bounds_restatement_allowed(tmp_path, small_resolutions):
    config = write_config(tmp_path, {
        **small_resolutions,
        "bounds": {"l1": [0.0, 4.5], "h1": [0.0, 1.0],
                   "h2": [0.0, 2.0], "lambda": [0.05, 1.0]}})
    assert main(["optimize", "--config", config, "--output", str(tmp_path),
                 "--workers", "1"]) == 0


def test_optimize_bounds_override_rejected(tmp_path, capsys,
                                           small_resolutions):
    config = write_config(tmp_path, {**small_resolutions,
                                     "bounds": {"l1": [0.0, 9.0]}})
    assert main(["optimize", "--config", config, "--output", str(tmp_path),
                 "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "bounds.l1" in err and "fixed" in err


def test_optimize_worker_count_does_not_change_bytes(tmp_path):
    # Two chunks' worth of designs, merged identically either way.
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
          "--format", "json", "--workers", "1"])
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
    ("optimize", {"bounds": {"l1": ["a", 1]}}, "bounds.l1"),
    ("optimize", {"bounds": {"h1": [False, 1]}}, "bounds.h1"),
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
