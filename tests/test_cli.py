"""End-to-end CLI behavior through subprocesses: exit codes, files, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc import cli, scenario
from ris_vlc.scenario import (
    AP_COUNT_CAP,
    BLOCKER_COUNT_CAP,
    CSV_HEADER,
    PANEL_COUNT_CAP,
    USER_COUNT_CAP,
    ConfigError,
    StudyStatistics,
)


def test_help_exits_zero():
    r = run_cli("--help")
    assert r.returncode == 0
    assert "simulate" in r.stdout and "optimize" in r.stdout


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1  # missing subcommand
    assert run_cli("simulate").returncode == 1  # missing required --scenario
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("simulate", "--scenario", "x.json", "--bogus").returncode == 1
    assert run_cli("optimize", "--algorithm", "annealing").returncode == 1
    assert run_cli("reproduce", "everything").returncode == 1


# flags a command does not read are usage errors, not silently ignored
DEAD_FLAGS = [
    ("optimize", "--trials", "3"),
    ("optimize", "--format", "json"),
    ("noma", "--trials", "3"),
    ("noma", "--format", "json"),
    ("mimo", "--scenario", "/nonexistent.json"),
    ("mimo", "--trials", "3"),
    ("mimo", "--format", "json"),
    ("reproduce", "blockage", "--format", "json"),
]


@pytest.mark.parametrize("args", DEAD_FLAGS, ids=" ".join)
def test_flags_a_command_does_not_read_exit_one(args):
    r = run_cli(*args)
    assert r.returncode == 1
    assert f"unrecognized arguments: {' '.join(args[-2:])}" in r.stderr
    assert r.stdout == ""


def test_validation_errors_exit_two(tmp_path, small_scenario_path):
    r = run_cli("simulate", "--scenario", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    assert "error" in r.stderr

    bad = tmp_path / "bad.json"
    bad.write_text('{"room": {"celing_height": 3}}')
    r = run_cli("simulate", "--scenario", str(bad))
    assert r.returncode == 2
    assert "celing_height" in r.stderr

    syntax = tmp_path / "syntax.json"
    syntax.write_text("{not json}")
    r = run_cli("simulate", "--scenario", str(syntax))
    assert r.returncode == 2
    assert "line 1" in r.stderr

    # one user is too few for the NOMA pair sweep
    single = tmp_path / "single.json"
    single.write_text(json.dumps({
        "aps": [{"position": [2.5, 2.5, 3.0]}],
        "users": [{"position": [1.0, 1.0, 0.75]}],
        "room": {"wall_patch_size": 0.5},
    }))
    r = run_cli("noma", "--scenario", str(single))
    assert r.returncode == 2
    assert "two users" in r.stderr


def test_simulate_csv_to_stdout(small_scenario_path):
    r = run_cli("simulate", "--scenario", small_scenario_path, "--trials", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # two users per trial


def test_simulate_json_summary(small_scenario_path):
    r = run_cli("simulate", "--scenario", small_scenario_path, "--trials", "3",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["trials"] == 3
    assert payload["mean_sum_rate_bps"] > 0.0


def test_simulate_out_file_matches_stdout(tmp_path, small_scenario_path):
    out = tmp_path / "run.csv"
    r = run_cli("simulate", "--scenario", small_scenario_path, "--trials", "3",
                "--out", str(out))
    assert r.returncode == 0
    assert "simulate: 3 trials" in r.stdout  # summary line replaces the document
    direct = run_cli("simulate", "--scenario", small_scenario_path, "--trials", "3")
    assert out.read_text() == direct.stdout
    # no stray temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".ris-vlc-")] == []


def test_simulate_seed_changes_output(tmp_path):
    # the shared fixture pins every position, so randomness needs a scenario
    # with sampled users and a redrawn blocker population
    config = tmp_path / "random.json"
    config.write_text(json.dumps({
        "room": {"wall_patch_size": 0.5},
        "aps": [{"position": [2.5, 2.5, 3.0]}],
        "users": [{"count": 2}],
        "blockers": {"count": 2},
    }))
    a = run_cli("simulate", "--scenario", str(config), "--trials", "3")
    b = run_cli("simulate", "--scenario", str(config), "--trials", "3",
                "--seed", "43")
    assert a.returncode == b.returncode == 0
    assert a.stdout != b.stdout


def test_identical_command_lines_are_byte_identical(small_scenario_path):
    args = ("simulate", "--scenario", small_scenario_path, "--trials", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_thread_count_does_not_change_bytes(small_scenario_path):
    args = ("simulate", "--scenario", small_scenario_path, "--trials", "8")
    env1 = {**os.environ, "RIS_VLC_THREADS": "1"}
    env4 = {**os.environ, "RIS_VLC_THREADS": "4"}
    a = run_cli(*args, env=env1)
    b = run_cli(*args, env=env4)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_noma_reports_pair_and_beats_tdma(small_scenario_path):
    r = run_cli("noma", "--scenario", small_scenario_path)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert len(payload["user_indices"]) == 2
    assert payload["gains"][0] <= payload["gains"][1]
    assert payload["noma_sum_bits"] > 0.0
    assert len(payload["power_coefficients"]) == 2


def test_mimo_capacity_curve_monotone():
    r = run_cli("mimo", "--sources", "2", "--detectors", "2", "--elements", "8")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    caps = payload["capacity_bits"]
    assert len(caps) == len(payload["peak_grid"]) == 10
    assert all(b >= a for a, b in zip(caps, caps[1:]))
    bad = run_cli("mimo", "--sources", "0")
    assert bad.returncode == 2


def test_reproduce_orientation_payload():
    r = run_cli("reproduce", "orientation", "--trials", "2000")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["samples"] == 2000
    assert 0.0 <= payload["fraction_excluded"] <= 1.0


def test_reproduce_blockage_small_run():
    r = run_cli("reproduce", "blockage", "--trials", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert set(payload["blocker_counts"]) == {"5", "15"}
    assert payload["blocker_counts"]["5"]["trials"] == 4


def test_optimize_single_mirror_beats_baseline(small_scenario_path):
    r = run_cli("optimize", "--scenario", small_scenario_path, "--algorithm", "pso")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["achieved_sum_rate_bps"] >= payload["baseline_sum_rate_bps"]
    assert payload["algorithm"] == "pso" and payload["mode"] == "identical"
    panel = payload["panels"][0]
    assert len(panel["yaw_deg"]) == 1 and len(panel["yaw_deg"][0]) == 1
    assert abs(panel["yaw_deg"][0][0]) <= 90.0


# sha256 of stdout for cheap runs of each command, recorded on x86-64 with
# Python 3.11 and NumPy 2.4. A refactor must leave every digit as it was;
# a change meant to alter results updates these digests on purpose.
GOLDEN_STDOUT = [
    pytest.param(("simulate", "--scenario", "{small}", "--trials", "5"),
                 "4fa6a6898d90a62980949f688277d429d72c9d0745712edab4187cdf22cc15d2", id="simulate"),
    pytest.param(("simulate", "--scenario", "{small}", "--trials", "5", "--format", "json"),
                 "19e78b03ff75a06eec1819927015dc41a40eedcc0e4bc404b19543892c4af7d8", id="simulate-json"),
    pytest.param(("reproduce", "blockage", "--trials", "5"),
                 "cbdeb28b72386e0aabdf90aad727ada3d7fb3bc4dd5063af6b5b4b24169fdf06", id="blockage"),
    pytest.param(("reproduce", "orientation", "--trials", "2000"),
                 "c0dc8395f071063bd4599a8f61ac69f988f40c591684281bfb82eea6fa45189e", id="orientation"),
    pytest.param(("noma",), "11cb54da2d694004b8db941ea561406b7ffcda156fe2c503b1839a93b9b743c6",
                 id="noma"),
    pytest.param(("mimo",), "c9c63525bcb27bc1c5741179eacfa08932da2ac0a5a2cfc16984d85ea1a382f8",
                 id="mimo"),
    pytest.param(("optimize", "--algorithm", "sca", "--mode", "identical"),
                 "a3564ba800239de6cbc1d0044e8af68919421ef8e72add72f02a6ccea49bbdc3", id="optimize-sca"),
    pytest.param(("optimize", "--algorithm", "pso", "--mode", "per-element"),
                 "0acb2b6137cc4f4b17df4a813a87ac7c82adcd44fac97127742e6444f28b87e8", id="optimize-pso"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_STDOUT)
def test_stdout_matches_golden_digest(args, digest, small_scenario_path):
    r = run_cli(*(small_scenario_path if a == "{small}" else a for a in args))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


_RIS = '"center": [0.0, 2.5, 1.5], "normal": [1.0, 0.0, 0.0]'

# Documents the loader must refuse, and the key its message must name.
# Non-finite numbers are written as the JSON text Python's parser accepts.
REFUSED_DOCUMENTS = [
    pytest.param('{"constraints": {"peak": 1e999}}', "constraints.peak", id="peak-1e999"),
    pytest.param('{"room": {"length": NaN}}', "room.length", id="length-nan"),
    pytest.param('{"noise": {"psd": NaN}}', "noise.psd", id="psd-nan"),
    pytest.param('{"room": {"wall_patch_size": Infinity}}', "room.wall_patch_size", id="patch-inf"),
    pytest.param('{"aps": [{"position": [2.5, 2.5, -Infinity]}]}', "aps[0].position[2]", id="ap-neg-inf"),
    pytest.param('{"users": [{}, {"count": -1}]}', "users[1].count", id="user-count-negative"),
    pytest.param('{"users": [{"count": 2.7}]}', "users[0].count", id="user-count-fraction"),
    pytest.param('{"users": [{"count": 2.0}]}', "users[0].count", id="user-count-float"),
    pytest.param('{"users": [{"count": true}]}', "users[0].count", id="user-count-bool"),
    pytest.param('{"users": [{"count": "2"}]}', "users[0].count", id="user-count-string"),
    pytest.param('{"blockers": {"count": -1}}', "blockers.count", id="blocker-count-negative"),
    pytest.param('{"blockers": {"count": 2.5}}', "blockers.count", id="blocker-count-fraction"),
    pytest.param('{"blockers": {"count": false}}', "blockers.count", id="blocker-count-bool"),
    pytest.param('{"ris": [{%s, "rows": 2.5}]}' % _RIS, "ris[0].rows", id="rows-fraction"),
    pytest.param('{"ris": [{%s, "rows": 0}]}' % _RIS, "ris[0].rows", id="rows-zero"),
    pytest.param('{"ris": [{%s, "cols": -2}]}' % _RIS, "ris[0].cols", id="cols-negative"),
    pytest.param('{"ris": [{%s, "cols": true}]}' % _RIS, "ris[0].cols", id="cols-bool"),
    pytest.param('{"blockers": {"count": 2, "radius": 2.6}}', "blockers.radius", id="radius-over-room"),
    pytest.param('{"room": {"length": 8.0, "width": 2.0}, "blockers": {"count": 1, "radius": 1.2}}',
                 "blockers.radius", id="radius-over-width"),
    pytest.param('{"aps": [{"position": [2.5, 2.5, 3]}], "users": [{"count": 0}]}', "users", id="no-users"),
    pytest.param('{"room": {"length": "6"}}', "room.length", id="length-string"),
    pytest.param('{"room": {"length": true}}', "room.length", id="length-bool"),
    pytest.param('{"room": {"length": null}}', "room.length", id="length-null"),
    pytest.param('{"noise": {"psd": "1e-20"}}', "noise.psd", id="psd-string"),
    pytest.param('{"aps": [{"position": ["1", 1, 2]}]}', "aps[0].position[0]", id="ap-position-string"),
    pytest.param('{"aps": [{"position": [2.5, 2.5]}]}', "aps[0].position", id="ap-position-short"),
    pytest.param('{"users": [{"fov_deg": "85"}]}', "users[0].fov_deg", id="fov-string"),
    pytest.param('{"users": [{"orientation": {"polar_deg": "5"}}]}', "users[0].orientation.polar_deg",
                 id="polar-string"),
    pytest.param('{"ris": [{%s, "yaw_deg": "10"}]}' % _RIS, "ris[0].yaw_deg", id="yaw-string"),
    pytest.param('{"blockers": {"positions": [["1", 1]]}}', "blockers.positions[0][0]",
                 id="blocker-xy-string"),
    pytest.param('{"aps": {}, "users": [{}]}', "'aps'", id="aps-object"),
    pytest.param('{"aps": "", "users": [{}]}', "'aps'", id="aps-string"),
    pytest.param('{"aps": 5}', "'aps'", id="aps-number"),
    pytest.param('{"aps": {"position": [1, 1, 2]}}', "'aps'", id="aps-one-table"),
    pytest.param('{"users": "ab"}', "'users'", id="users-string"),
    pytest.param('{"ris": {}}', "'ris'", id="ris-object"),
    pytest.param('{"ris": 2}', "'ris'", id="ris-number"),
    pytest.param('{"blockers": {"positions": {}}}', "'blockers.positions'", id="positions-object"),
    pytest.param('{"blockers": {"positions": 3}}', "'blockers.positions'", id="positions-number"),
    # a table section that is not a table is refused before any of its keys is read
    pytest.param('{"blockers": []}', "'blockers'", id="blockers-list"),
    pytest.param('{"blockers": 5}', "'blockers'", id="blockers-number"),
    pytest.param('{"blockers": null}', "'blockers'", id="blockers-null"),
    pytest.param('{"room": []}', "'room'", id="room-list"),
    pytest.param('{"noise": 5}', "'noise'", id="noise-number"),
    pytest.param('{"aps": [3]}', "'aps[0]'", id="ap-number"),
    pytest.param('{"users": [{"orientation": []}]}', "'users[0].orientation'", id="user-orientation-list"),
    # `normal` is required on a panel, so only its reader can name the key of a zero normal
    pytest.param('{"aps": [{"position": [2.5, 2.5, 3.0], "normal": [0, 0, 0]}]}', "aps[0].normal", id="ap-normal-zero"),
    pytest.param('{"ris": [{"center": [0.0, 2.5, 1.5], "normal": [0, 0, 0]}]}', "ris[0].normal", id="ris-normal-zero"),
    pytest.param('{"room": {"celing": NaN}}', "room.celing", id="unknown-key-nan"),
    # list sections are capped before any item is read
    pytest.param('{"aps": [%s]}' % ", ".join(["{}"] * (AP_COUNT_CAP + 1)), "'aps'", id="aps-over-cap"),
    pytest.param('{"users": [%s]}' % ", ".join(['{"count": 0}'] * (USER_COUNT_CAP + 1)), "'users'",
                 id="user-sections-over-cap"),
    pytest.param('{"ris": [%s]}' % ", ".join(["{}"] * (PANEL_COUNT_CAP + 1)), "'ris'", id="panels-over-cap"),
    pytest.param('{"blockers": {"positions": [%s]}}' % ", ".join(["[1, 1]"] * (BLOCKER_COUNT_CAP + 1)),
                 "'blockers.positions'", id="positions-over-cap"),
    pytest.param('{"blockers": {"count": %d, "positions": [[1, 1], [2, 2]]}}' % (BLOCKER_COUNT_CAP - 1),
                 "'blockers.positions'", id="positions-plus-count-over-cap"),
    # each axis is under its cap, so the product rule names both
    pytest.param('{"ris": [{%s, "rows": 65536, "cols": 65536}]}' % _RIS, "ris[0].rows and ris[0].cols",
                 id="rows-times-cols-over-cap"),
    # a mistyped value is echoed short
    pytest.param(json.dumps({"room": {"length": "x" * 10000}}), "room.length", id="length-long-string"),
    # radii whose squared reach overflows in the occlusion test, on documents that load without them
    pytest.param('{"aps": [{"position": [2.5, 2.5, 3.0]}], "users": [{"body_radius": 1e300}]}',
                 "users[0].body_radius", id="body-radius-1e300"),
    pytest.param('{"aps": [{"position": [2.5, 2.5, 3.0]}], "users": [{}], '
                 '"blockers": {"radius": 1e300, "positions": [[1, 1]]}}', "blockers.radius", id="blocker-radius-1e300"),
    # an offset past the floor diagonal puts the body outside the room wherever the device stands
    pytest.param('{"aps": [{"position": [2.5, 2.5, 3.0]}], "users": [{"body_offset": 1e300}]}',
                 "users[0].body_offset", id="body-offset-1e300"),
]

# Extreme finite values that crashed `simulate` or let it print inf or nan
_AP = '"position": [2.5, 2.5, 3.0]'
EXTREME_VALUES = [
    *((f'{{"aps": [{{{_AP}, "half_intensity_angle_deg": {v}}}]}}', "aps[0].half_intensity_angle_deg", v)
      for v in ("1e-320", "1e-300", "1e-30")),
    *((f'{{"users": [{{"fov_deg": {v}}}]}}', "users[0].fov_deg", v) for v in ("1e-320", "1e-300")),
    *((f'{{"noise": {{"bandwidth": {v}}}}}', "noise.bandwidth", v) for v in ("1e-320", "1e-300")),
    *((f'{{"constraints": {{"peak": {v}}}}}', "constraints.peak", v) for v in ("1e300", "1.7e308")),
    *((f'{{"users": [{{"{k}": {v}}}]}}', f"users[0].{k}", v)
      for k in ("area", "refractive_index") for v in ("1e300", "1.7e308")),
    *((f'{{"ris": [{{{_RIS}, "{k}": {v}}}]}}', f"ris[0].{k}", v)
      for k in ("element_size", "beam_spread_deg") for v in ("1e300", "1.7e308")),
    *((f'{{"ris": [{{{_RIS}, "beam_spread_deg": {v}}}]}}', "ris[0].beam_spread_deg", v) for v in ("1e-320", "1e-300")),
    *((f'{{"room": {{"{k}": 1.7e308}}}}', f"room.{k}", "1.7e308") for k in ("length", "width", "height")),
    # negative sizes, refused beside the range checks of the same values
    *((f'{{"ris": [{{{_RIS}, "{k}": {v}}}]}}', f"ris[0].{k}", v)
      for k, v in (("element_size", "-0.1"), ("beam_spread_deg", "-2.0"))),
    ('{"room": {"wall_patch_size": 1e-320}}', "room.wall_patch_size", "1e-320"),
    # refused before allocating: 6e9 patches, 8e9 mirror elements
    ('{"room": {"wall_patch_size": 1e-4}}', "room.wall_patch_size", "1e-4"),
    (f'{{"ris": [{{{_RIS}, "rows": 1000000000}}]}}', "ris[0].rows", "1e9"),
    # count caps, refused before the users are listed or the blockers drawn
    ('{"users": [{"count": 1000000000}]}', "users[0].count", "1e9"),
    ('{"users": [{"count": 200}, {"count": 57}]}', "users[1].count", "257"),
    ('{"blockers": {"count": 1000000000}}', "blockers.count", "1e9"),
    ('{"blockers": {"count": 1025}}', "blockers.count", "1025"),
    # 301-digit integers: their messages print them short, and rows and cols are refused one axis at a time
    (f'{{"users": [{{"count": {10**300}}}]}}', "users[0].count", "1e300"),
    (f'{{"users": [{{"count": {-10**300}}}]}}', "users[0].count", "-1e300"),
    (f'{{"blockers": {{"count": {10**300}}}}}', "blockers.count", "1e300"),
    (f'{{"ris": [{{{_RIS}, "rows": {10**300}}}]}}', "ris[0].rows", "1e300"),
    (f'{{"ris": [{{{_RIS}, "rows": {10**300}, "cols": {10**300}}}]}}', "ris[0].rows", "1e300 x 1e300"),
    (f'{{"ris": [{{{_RIS}, "cols": {10**300}}}]}}', "ris[0].cols", "1e300"),
    (f'{{"users": [{{"count": {10**400}}}]}}', "users[0].count", "1e400"),
    # a rejection sampler that would accept almost no polar angle never returns
    ('{"orientation": {"std_polar_deg": 1e30}}', "orientation.std_polar_deg", "1e30"),
]
REFUSED_DOCUMENTS += [pytest.param(text, key, id=f"{key}={value}") for text, key, value in EXTREME_VALUES]


@pytest.mark.parametrize("text, key", REFUSED_DOCUMENTS)
def test_refused_documents_exit_two_naming_the_key(tmp_path, text, key):
    path = tmp_path / "refused.json"
    path.write_text(text)
    r = run_cli("simulate", "--scenario", str(path), "--trials", "1", "--format", "json")
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert r.stdout == ""
    assert key in r.stderr and "Traceback" not in r.stderr
    assert len(r.stderr.strip()) < 200


def test_boundary_counts_and_sizes_are_accepted(tmp_path):
    # zero counts and a population that exactly spans the room are valid
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "aps": [{"position": [2.5, 2.5, 3.0]}],
        "users": [{"count": 0}, {"count": 1}],
        "blockers": {"count": 1, "radius": 2.5},
        "ris": [{"center": [0.0, 2.5, 1.5], "normal": [1.0, 0.0, 0.0], "rows": 1, "cols": 1}],
        "room": {"wall_patch_size": 0.5},
    }))
    r = run_cli("simulate", "--scenario", str(path), "--trials", "1", "--format", "json")
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout)


def test_oversized_grid_is_refused_naming_resolution_and_dimension():
    # 181 points on each of 128 axes: refused before the point count is computed
    r = run_cli("optimize", "--algorithm", "grid", "--mode", "per-element")
    assert r.returncode == 2 and r.stdout == ""
    message = r.stderr.strip()
    assert len(message) < 200 and "Traceback" not in message
    assert "181 points per axis" in message and "128 dimensions" in message


def test_non_finite_output_exits_two_instead_of_writing_invalid_json(monkeypatch, capsys, small_scenario_path):
    nan_stats = StudyStatistics(1, math.nan, 0.0, 1.0, math.nan, math.nan, math.nan)
    monkeypatch.setattr(cli.scn, "study_statistics", lambda results: nan_stats)
    monkeypatch.setattr(cli.scn, "blockage_study", lambda *args, **kwargs: {5: nan_stats})
    for argv in (["simulate", "--scenario", small_scenario_path, "--trials", "1", "--format", "json"],
                 ["reproduce", "blockage", "--trials", "1"]):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "not JSON compliant" in out.err
    with pytest.raises(ValueError):
        cli._json_text({"rate": math.inf})


# Every section, with a pinned and a sampled user, a fixed and a drawn blocker, and a 2 x 2 panel.
_FUZZ_DOCUMENT = {
    "room": {"length": 5.0, "width": 5.0, "height": 3.0, "wall_reflectance": 0.7, "wall_patch_size": 0.5},
    "aps": [{"position": [2.5, 2.5, 3.0], "normal": [0.0, 0.0, -1.0], "half_intensity_angle_deg": 60.0,
             "optical_power_w": 2.0}],
    "users": [{"position": [4.0, 2.5, 0.75], "area": 1e-4, "fov_deg": 85.0, "filter_gain": 1.0,
               "refractive_index": 1.5, "body_offset": 0.36, "body_radius": 0.15, "body_height": 1.65,
               "orientation": {"polar_deg": 10.0, "azimuth_deg": -90.0}},
              {"count": 1, "height": 0.75}],
    "blockers": {"count": 1, "radius": 0.15, "height": 1.65, "positions": [[3.7, 2.45]]},
    "ris": [{"center": [5.0, 3.5, 1.5], "normal": [-1.0, 0.0, 0.0], "rows": 2, "cols": 2, "element_size": 0.1,
             "reflectivity": 0.95, "beam_spread_deg": 2.0, "yaw_deg": 5.0, "roll_deg": -5.0}],
    "noise": {"psd": 5e-20, "bandwidth": 2e7},
    "constraints": {"peak": 2.0, "average_total": 2.0},
    "orientation": {"mean_polar_deg": 41.0, "std_polar_deg": 9.0},
}


def _number_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            yield path + (key,)
        yield from _number_paths(child, path + (key,))


def _key(path):
    """The JSON key a refusal must name: a vector component or position pair names its vector or list."""
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    return re.sub(r"(\[\d+\])+$", "", text)


def _finite_output(text, fmt):
    if fmt == "json":
        return all(v is None or math.isfinite(v) for v in json.loads(text).values())
    return all(math.isfinite(float(x)) for line in text.splitlines()[1:] for x in line.split(","))


# Counts are drawn small or just past their caps: `users[i].count` and `blockers.count` allocate per item.
_VALUES = st.one_of(st.sampled_from([1e-320, 1e-300, 1e-30, 1e30, 1e300, 1.7e308, -1e-300, -1.7e308, 0.0]),
                    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2, 64),
                    st.sampled_from([USER_COUNT_CAP + 1, BLOCKER_COUNT_CAP + 1, 10**9]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(_number_paths(_FUZZ_DOCUMENT))), _VALUES)
def test_any_one_value_gives_finite_output_or_a_refusal_naming_its_key(path, value):
    doc = copy.deepcopy(_FUZZ_DOCUMENT)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as scratch:
        scenario = os.path.join(scratch, "fuzz.json")
        with open(scenario, "w") as handle:
            json.dump(doc, handle)
        for fmt in ("csv", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["simulate", "--scenario", scenario, "--trials", "1", "--format", fmt])
            if code == 0:
                assert _finite_output(out.getvalue(), fmt), (path, value, fmt)
            else:
                assert code == 2 and out.getvalue() == "", (path, value, fmt, code)
                # a value the loader accepts can still push one link's SNR past the float range (users[0].area
                # 1e152 here); the rate refuses it at run time, naming the gain, peak and noise, not the key
                message = err.getvalue()
                assert _key(path) in message or "SNR of a link overflows" in message, (path, value, fmt, message)


# Each number of `_FUZZ_DOCUMENT` set alone to each of these: tiny, huge, negative, zero and past the count caps
_CENSUS_VALUES = (1e-320, 1e-300, 1e-30, 1e30, 1e300, 1.7e308, -1e-300, -1.7e308, 0.0, -1.0,
                  0.5, 2, 1025, 257, 10**9, 1e-4, 1e4, -0.1, 100.0, 7.1)


def test_every_census_document_loads_or_is_refused_naming_its_key_from_one_build(monkeypatch):
    builds, original = [], scenario._scenario_from_document
    monkeypatch.setattr(scenario, "_scenario_from_document", lambda *args: builds.append(args) or original(*args))
    paths, refused = list(_number_paths(_FUZZ_DOCUMENT)), 0
    for path in paths:
        for value in _CENSUS_VALUES:
            doc = copy.deepcopy(_FUZZ_DOCUMENT)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            builds.clear()
            try:
                scenario.load_scenario(json.dumps(doc))
            except ConfigError as exc:
                message = f"ris-vlc: error: {exc}"  # as the CLI prints it
                assert _key(path) in message and len(message) < 200, (path, value, message)
                refused += 1
            assert len(builds) == 1, (path, value, len(builds))
    assert 0 < refused < len(paths) * len(_CENSUS_VALUES)
