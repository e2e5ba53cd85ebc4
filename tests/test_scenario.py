"""Scenario configuration, Monte-Carlo trials, and the built-in studies."""

import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from conftest import occluders_of, run_cli, wall_gain_oracle
from hypothesis import given
from hypothesis import strategies as st

from ris_vlc.channel import LedTx, PdRx, WallPatchSet, incidence_cosine, los_gain
from ris_vlc.geometry import CylinderSet, Room, segments_blocked, unit
from ris_vlc.metrics import IntensityConstraints, NoiseModel, link_rate, sum_rate
from ris_vlc.orientation import DeviceOrientation, OrientationModel
from ris_vlc.ris import MIRROR_ELEMENT_CAP, MirrorArray
from ris_vlc import scenario
from ris_vlc.scenario import (
    AP_COUNT_CAP,
    BLOCKER_COUNT_CAP,
    CSV_HEADER,
    PANEL_COUNT_CAP,
    USER_COUNT_CAP,
    BlockerPopulation,
    ConfigError,
    Scenario,
    StudyStatistics,
    TrialResult,
    UserSpec,
    benchmark_scenario,
    blockage_study,
    blocked_benchmark_scenario,
    load_scenario,
    orientation_benchmark_scenario,
    orientation_study,
    realize,
    run_study,
    run_trial,
    single_mirror_benchmark_scenario,
    study_statistics,
    trials_to_csv,
)


# ------------------------------------------------------------------- pieces


def test_user_spec_receiver_requires_realization():
    with pytest.raises(ValueError):
        UserSpec().receiver()
    user = UserSpec(position=(1.0, 1.0, 0.75),
                    fixed_orientation=DeviceOrientation(polar=0.0, azimuth=0.0))
    rx = user.receiver()
    np.testing.assert_array_equal(rx.position, [1.0, 1.0, 0.75])


@pytest.mark.parametrize("terms, message", [
    (dict(area=-1.0), "detector area must be positive"),
    (dict(fov=5.0), "field of view must lie in"),
    (dict(filter_gain=7.0), "filter gain must lie in"),
    (dict(refractive_index=0.5), "refractive index must be >= 1"),
])
def test_user_spec_refuses_receiver_terms_when_built(terms, message):
    # orientation_study reads the template's FoV without building a receiver
    with pytest.raises(ValueError, match=message):
        UserSpec(**terms)


def _body_rows(user, ap=(4.0, 2.5, 3.0)):
    """The (bases, radii, heights) rows `_link_table` hands to the row-paired test for one user's links,
    and whether that user's LoS is visible."""
    calls, original = [], scenario.segments_blocked_each

    def spy(origins, ends, bases, radius, height):
        calls.append((bases, radius, height))
        return original(origins, ends, bases, radius, height)

    s = Scenario(aps=(LedTx(position=ap),), users=(user,), wall_patch_size=2.5)
    with mock.patch.object(scenario, "segments_blocked_each", spy):
        (link,) = s.evaluate_links()
    (rows,) = calls
    return rows, link.los_visible


def test_user_body_sits_on_the_azimuth_side():
    user = UserSpec(position=(2.0, 2.5, 0.75),
                    fixed_orientation=DeviceOrientation(polar=0.3, azimuth=0.0),
                    body_offset=0.36, body_radius=0.2, body_height=1.5)
    (bases, radii, heights), visible = _body_rows(user)
    assert len(bases) > 0 and not visible  # the body cuts the LoS to the AP on its side
    np.testing.assert_allclose(bases, [[2.36, 2.5, 0.0]] * len(bases), atol=1e-12)
    assert set(radii.tolist()) == {0.2} and set(heights.tolist()) == {1.5}
    # without self-blockage no row is tested, and the same link is visible
    (bases, radii, heights), visible = _body_rows(dataclasses.replace(user, self_blockage=False))
    assert bases.shape == (0, 3) and radii.shape == heights.shape == (0,) and visible


@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
def test_body_base_is_the_scalar_cos_sin_expression(x, y, azimuth, offset):
    user = UserSpec(position=(x, y, 0.75), fixed_orientation=DeviceOrientation(polar=0.2, azimuth=azimuth),
                    body_offset=offset)
    (bases, _, _), _ = _body_rows(user, ap=(2.5, 2.5, 3.0))
    want = [x + offset * math.cos(azimuth), y + offset * math.sin(azimuth), 0.0]
    assert len(bases) and bases.tolist() == [want] * len(bases)


def test_blocker_population_validation():
    with pytest.raises(ValueError):
        BlockerPopulation(count=-1)
    with pytest.raises(ValueError):
        BlockerPopulation(count=3, radius=0.0)
    BlockerPopulation(count=BLOCKER_COUNT_CAP)
    with pytest.raises(ValueError, match="cap"):
        BlockerPopulation(count=BLOCKER_COUNT_CAP + 1)
    with pytest.raises(ValueError, match="squared reach overflows"):
        BlockerPopulation(count=0, radius=1e300)
    with pytest.raises(ValueError, match="squared reach overflows"):
        UserSpec(body_radius=1e300)


@pytest.mark.parametrize("kwargs, message", [
    (dict(users=(UserSpec(height=math.nan),)), "vector components must be finite, got [ 0.  0. nan]"),
    (dict(users=(UserSpec(height=math.inf),)), "vector components must be finite, got [ 0.  0. inf]"),
    (dict(users=(UserSpec(height=-5.0),)), "users[0].height (0.0, 0.0, -5.0) is outside the room: z < 0"),
    # the first offender in the order APs, users, blockers, panels is reported
    (dict(aps=(LedTx(position=(2.5, 2.5, 3.0)), LedTx(position=(2.5, 2.5, 3.00000001))),
          users=(UserSpec(height=math.nan),)),
     "aps[1].position [2.5        2.5        3.00000001] is outside the room: z > room.height 3"),
    (dict(users=(UserSpec(position=(1.0, 1.0, 0.5)), UserSpec(height=4.0)),
          blockers=CylinderSet([(7.0, 1.0, 0.0)])),
     "users[1].height (0.0, 0.0, 4.0) is outside the room: z > room.height 3"),
    (dict(blockers=CylinderSet([(2.0, 2.0, 0.0), (7.0, 1.0, 0.0)])),
     "blockers[1] base [7. 1. 0.] is outside the room: x > room.length 5"),
    (dict(aps=(LedTx(position=(-2e-9, 2.5, 3.0)),)),
     "aps[0].position [-2.0e-09  2.5e+00  3.0e+00] is outside the room: x < 0"),
    (dict(users=(UserSpec(body_offset=math.hypot(5.0, 5.0)), UserSpec(body_offset=7.1))),
     "users[1].body_offset 7.1 m puts the body outside the room: it exceeds the floor diagonal 7.07107 m"),
])
def test_placement_refusals_name_the_first_offender(kwargs, message):
    with pytest.raises(ValueError) as info:
        Scenario(room=Room(5.0, 5.0, 3.0), **kwargs)
    assert str(info.value) == message


def test_placement_tolerance_matches_room_contains():
    for x in (-1e-9, 5.0 + 1e-9, 0.0, 5.0):
        Scenario(aps=(LedTx(position=(x, 2.5, 3.0)),))
        assert Room().contains([(x, 2.5, 3.0)])[0]


def test_scenario_rejects_out_of_room_placements():
    room = Room(5.0, 5.0, 3.0)
    with pytest.raises(ValueError):
        Scenario(room=room, aps=(LedTx(position=(6.0, 2.5, 3.0)),))
    with pytest.raises(ValueError):
        Scenario(room=room, users=(UserSpec(position=(1.0, 1.0, 3.5)),))
    with pytest.raises(ValueError):
        Scenario(room=room, blockers=CylinderSet([(5.5, 1.0, 0.0)]))
    with pytest.raises(ValueError):
        Scenario(room=room, ris_panels=(
            MirrorArray(panel_center=(-0.5, 2.5, 1.5), base_normal=(1, 0, 0)),))
    with pytest.raises(ValueError):
        Scenario(room=room, wall_reflectance=1.2)


_NAN = math.nan
_ORIGIN = (1.0, 1.0, 1.0)


@pytest.mark.parametrize("build", [
    lambda: Room(length=_NAN),
    lambda: NoiseModel(psd=_NAN),
    lambda: IntensityConstraints(peak=_NAN),
    lambda: LedTx(position=_ORIGIN, optical_power=_NAN),
    lambda: PdRx(position=_ORIGIN, area=_NAN),
    lambda: PdRx(position=_ORIGIN, refractive_index=_NAN),
    lambda: Scenario(wall_patch_size=_NAN),
    lambda: BlockerPopulation(count=1, radius=_NAN),
    lambda: CylinderSet([_ORIGIN], radii=_NAN),
    lambda: UserSpec(body_radius=_NAN),
    lambda: MirrorArray(panel_center=_ORIGIN, base_normal=(1, 0, 0), element_size=_NAN),
    lambda: MirrorArray(panel_center=_ORIGIN, base_normal=(1, 0, 0), beam_spread=_NAN),
    lambda: OrientationModel(std_polar=_NAN),
    lambda: WallPatchSet([_ORIGIN], [(1, 0, 0)], [_NAN], [0.5]),
], ids=["room-length", "noise-psd", "peak", "optical-power", "pd-area", "refractive-index",
        "wall-patch-size", "population-radius", "cylinder-radius", "body-radius", "element-size",
        "beam-spread", "std-polar", "patch-area"])
def test_validators_refuse_nan(build):
    with pytest.raises(ValueError):
        build()


_PANEL = dict(panel_center=_ORIGIN, base_normal=(1, 0, 0))


@pytest.mark.parametrize("build, message", [
    (lambda: LedTx(position=_ORIGIN, half_intensity_angle=1e-30), "cosine rounds to 1"),
    (lambda: PdRx(position=_ORIGIN, fov=1e-300), "concentrator"),
    (lambda: PdRx(position=_ORIGIN, refractive_index=1e300), "concentrator"),
    (lambda: PdRx(position=_ORIGIN, area=1e300), "concentrator"),
    (lambda: load_scenario('{"users": [{"fov_deg": 1e-300}]}'), "concentrator"),
    (lambda: NoiseModel(bandwidth=1e-320), "variance"),
    (lambda: NoiseModel(psd=5e-20, bandwidth=1e-300), "variance"),
    (lambda: NoiseModel(psd=1e300, bandwidth=1e300), "variance"),
    (lambda: IntensityConstraints(peak=1e300), "squared"),
    (lambda: MirrorArray(**_PANEL, element_size=1e300), "finite area"),
    (lambda: MirrorArray(**_PANEL, element_size=1e-300), "finite area"),
    (lambda: MirrorArray(**_PANEL, element_size=-0.1), "positive"),
    (lambda: MirrorArray(**_PANEL, beam_spread=1e-300), "beam spread"),
    (lambda: MirrorArray(**_PANEL, beam_spread=1e300), "beam spread"),
    (lambda: MirrorArray(**_PANEL, beam_spread=-0.03), "positive"),
    (lambda: MirrorArray(**_PANEL, rows=1 << 9, cols=1 << 8), "cap"),
    (lambda: OrientationModel(std_polar=1e30), "draws"),
    (lambda: WallPatchSet.for_room(Room(), 1e-4), "cap"),
    (lambda: WallPatchSet.for_room(Room(1.7e308), 0.5), "cap"),
    (lambda: unit((1e300, 1e300, 0.0)), "finite"),
    (lambda: unit((1e-300, 0.0, 0.0)), "nonzero"),
], ids=["narrow-beam", "fov", "refractive-index", "area", "user-fov", "bandwidth-zero-variance",
        "subnormal-variance", "infinite-variance", "peak", "element-size", "element-area-zero",
        "element-size-negative", "beam-spread-small", "beam-spread-large", "beam-spread-negative", "element-cap",
        "std-polar", "patch-cap", "room-overflow", "unit-overflow", "unit-underflow"])
def test_validators_refuse_values_whose_derived_terms_leave_the_float_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_caps_refuse_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "indices", no_allocation)
    monkeypatch.setattr(np, "full", no_allocation)
    with pytest.raises(ValueError, match="above the cap"):
        WallPatchSet.for_room(Room(), 1e-4)
    with pytest.raises(ValueError, match="exceed the cap"):
        MirrorArray(**_PANEL, rows=10**9)
    monkeypatch.undo()
    tiles = WallPatchSet.tiling(Room(), 0.05)
    assert sum(nu * nv for _, nu, nv in tiles) == len(WallPatchSet.for_room(Room(), 0.05)) == 24000


def test_link_rate_refuses_an_snr_past_the_float_range():
    assert math.isfinite(link_rate(1e150, IntensityConstraints(peak=1.0), NoiseModel(psd=1.0, bandwidth=1.0)))
    for gain in (1e155, 1e160):
        with pytest.raises(ValueError, match="SNR of a link overflows"):
            link_rate(gain, IntensityConstraints(peak=1.0), NoiseModel(psd=1.0, bandwidth=1.0))


def test_csv_refuses_non_finite_values():
    ok = TrialResult(np.ones(1), np.ones(1), np.zeros(1), np.ones(1), 1.0, np.ones(1, bool), np.ones(1, bool))
    assert trials_to_csv([ok]).startswith(CSV_HEADER)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            trials_to_csv([ok, dataclasses.replace(ok, h_ris=np.array([bad]))])


# ------------------------------------------------------------ configuration


def test_load_scenario_full_document(small_scenario_text):
    s = load_scenario(small_scenario_text)
    assert s.room.length == 5.0 and s.room.width == 5.0 and s.room.height == 3.0
    assert s.wall_reflectance == 0.7
    assert s.wall_patch_size == 0.5
    assert len(s.aps) == 1
    np.testing.assert_array_equal(s.aps[0].position, [2.5, 2.5, 3.0])
    assert s.aps[0].optical_power == 2.0
    assert len(s.users) == 2
    assert s.users[0].fixed_orientation.azimuth == pytest.approx(math.radians(-90.0))
    assert len(s.blockers) == 1
    assert s.blocker_population is None
    assert len(s.ris_panels) == 1
    assert s.ris_panels[0].rows == 1 and s.ris_panels[0].element_size == 0.3
    assert s.noise.variance == pytest.approx(1e-12)
    assert s.constraints.peak == 2.0
    assert s.orientation_model.mean_polar == pytest.approx(math.radians(41.0))


def test_load_scenario_defaults_from_empty_document():
    s = load_scenario("{}")
    assert s.room.length == 5.0 and s.room.height == 3.0
    assert s.aps == () and s.users == ()
    assert s.noise.psd == 1e-21 and s.noise.bandwidth == 20e6


def test_load_scenario_user_count_replicates_template():
    s = load_scenario(json.dumps({"users": [{"count": 3, "fov_deg": 60.0}]}))
    assert len(s.users) == 3
    assert all(u.fov == pytest.approx(math.radians(60.0)) for u in s.users)
    assert all(u.position is None for u in s.users)


def test_load_scenario_blockers_pinned_plus_population():
    s = load_scenario(json.dumps({
        "blockers": {"count": 4, "radius": 0.2, "positions": [[1.0, 2.0]]}
    }))
    assert s.blockers.bases.tolist() == [[1.0, 2.0, 0.0]]
    assert s.blockers.radii.tolist() == [0.2] and s.blockers.heights.tolist() == [1.65]
    assert s.blocker_population == BlockerPopulation(count=4, radius=0.2, height=1.65)


def test_load_scenario_rejects_unknown_keys_with_location():
    with pytest.raises(ConfigError, match=r"room.*celing_height"):
        load_scenario(json.dumps({"room": {"celing_height": 3.0}}))
    with pytest.raises(ConfigError, match=r"aps\[0\].*power"):
        load_scenario(json.dumps({"aps": [{"position": [1, 1, 3], "power": 2.0}]}))
    with pytest.raises(ConfigError, match=r"top level.*walls"):
        load_scenario(json.dumps({"walls": {}}))
    with pytest.raises(ConfigError, match=r"users\[0\].orientation"):
        load_scenario(json.dumps({"users": [{"orientation": {"polar": 10}}]}))


def test_an_integer_past_the_float_range_is_refused_as_not_finite():
    with pytest.raises(ConfigError, match=r"^users\[0\]\.count must be a finite number$"):
        load_scenario('{"users": [{"count": %d}]}' % 10**400)


def test_list_sections_at_their_caps_load():
    ap = {"position": [2.5, 2.5, 3.0]}
    panel = {"center": [0.0, 2.5, 1.5], "normal": [1, 0, 0], "rows": 1, "cols": 1}
    s = load_scenario(json.dumps({"aps": [ap] * AP_COUNT_CAP, "users": [{"count": 1}] * USER_COUNT_CAP,
                                  "ris": [panel] * PANEL_COUNT_CAP,
                                  "blockers": {"count": 24, "positions": [[2.0, 2.0]] * (BLOCKER_COUNT_CAP - 24)}}))
    assert (len(s.aps), len(s.users), len(s.ris_panels)) == (AP_COUNT_CAP, USER_COUNT_CAP, PANEL_COUNT_CAP)
    assert len(s.blockers) + s.blocker_population.count == BLOCKER_COUNT_CAP


def test_panel_element_product_is_capped_at_load():
    panel = {"center": [0.0, 2.5, 1.5], "normal": [1, 0, 0]}
    s = load_scenario(json.dumps({"ris": [{**panel, "rows": 256, "cols": 256}]}))
    assert s.ris_panels[0].element_count == MIRROR_ELEMENT_CAP
    with pytest.raises(ConfigError, match=r"^ris\[0\]\.rows and ris\[0\]\.cols give 256 x 257 "):
        load_scenario(json.dumps({"ris": [{**panel, "rows": 256, "cols": 257}]}))
    with pytest.raises(ConfigError, match=r"give 8 x 8193 "):  # the panel's default fills the absent axis
        load_scenario(json.dumps({"ris": [{**panel, "cols": 8193}]}))


def test_load_scenario_reports_json_position():
    with pytest.raises(ConfigError, match=r"line 2, column"):
        load_scenario('{\n  "room": }')


def test_load_scenario_wraps_validation_errors():
    with pytest.raises(ConfigError, match="outside the room"):
        load_scenario(json.dumps({"aps": [{"position": [9.0, 1.0, 3.0]}]}))
    with pytest.raises(ConfigError, match=r"positions\[0\]"):
        load_scenario(json.dumps({"blockers": {"positions": [[1.0, 2.0, 0.0]]}}))
    with pytest.raises(ConfigError):
        load_scenario(json.dumps({"ris": [{"center": [0, 2, 1]}]}))  # missing normal


@pytest.mark.parametrize("value", ["false", 0, None, 1, "true", [], {}])
def test_load_scenario_self_blockage_accepts_json_booleans_only(tmp_path, value):
    doc = {"users": [{"position": [1.0, 1.0, 0.75]}, {"self_blockage": value}]}
    with pytest.raises(ConfigError, match=r"users\[1\]\.self_blockage"):
        load_scenario(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("simulate", "--scenario", str(path))
    assert r.returncode == 2 and "users[1].self_blockage" in r.stderr


def test_load_scenario_self_blockage_booleans():
    users = load_scenario(json.dumps({"users": [{"self_blockage": False}, {"self_blockage": True}, {}]})).users
    assert [u.self_blockage for u in users] == [False, True, True]


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_benchmark_config_file_matches_builder():
    # configs/benchmark.json must stay in sync with benchmark_scenario()
    import pathlib

    text = (pathlib.Path(__file__).resolve().parent.parent / "configs"
            / "benchmark.json").read_text()
    loaded = load_scenario(text)
    built = benchmark_scenario()
    assert loaded.room == built.room
    assert loaded.wall_reflectance == built.wall_reflectance
    assert loaded.wall_patch_size == built.wall_patch_size
    assert len(loaded.aps) == len(built.aps) == 1
    np.testing.assert_array_equal(loaded.aps[0].position, built.aps[0].position)
    np.testing.assert_array_equal(loaded.aps[0].normal, built.aps[0].normal)
    assert loaded.aps[0].half_intensity_angle == built.aps[0].half_intensity_angle
    assert loaded.aps[0].optical_power == built.aps[0].optical_power
    assert len(loaded.users) == len(built.users) == 4
    for lu, bu in zip(loaded.users, built.users):
        assert lu.position is None and bu.position is None
        assert lu.height == bu.height and lu.area == bu.area and lu.fov == bu.fov
        assert lu.self_blockage == bu.self_blockage
        assert (lu.body_offset, lu.body_radius, lu.body_height) == (
            bu.body_offset, bu.body_radius, bu.body_height)
    assert loaded.blocker_population == built.blocker_population
    assert len(loaded.ris_panels) == len(built.ris_panels) == 1
    lp, bp = loaded.ris_panels[0], built.ris_panels[0]
    np.testing.assert_array_equal(lp.panel_center, bp.panel_center)
    np.testing.assert_array_equal(lp.base_normal, bp.base_normal)
    assert (lp.rows, lp.cols, lp.element_size) == (bp.rows, bp.cols, bp.element_size)
    assert (lp.reflectivity, lp.beam_spread) == (bp.reflectivity, bp.beam_spread)
    np.testing.assert_array_equal(lp.yaw, bp.yaw)
    assert loaded.noise == built.noise
    assert loaded.constraints == built.constraints
    assert loaded.orientation_model == built.orientation_model


# ------------------------------------------------------------------- trials


def _tiny_scenario():
    return Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(2.5, 2.5, 3.0)),),
        users=(UserSpec(), UserSpec(position=(4.0, 2.5, 0.75))),
        blocker_population=BlockerPopulation(count=2),
        ris_panels=(MirrorArray(panel_center=(5.0, 3.5, 1.5), base_normal=(-1, 0, 0),
                                rows=2, cols=2, element_size=0.1),),
        wall_patch_size=0.5,
    )


def test_realize_fills_every_unpinned_field():
    s = _tiny_scenario()
    assert not s.is_realized
    r = realize(s, np.random.default_rng(0))
    assert r.is_realized
    assert r.blocker_population is None
    assert len(r.blockers) == 2
    for base, radius in zip(r.blockers.bases, r.blockers.radii):
        assert s.room.contains([base])[0]
        # margin keeps the full cylinder inside
        assert base[0] >= radius
        assert base[0] <= s.room.length - radius
    # pinned user position survives; sampled one lands inside the room
    np.testing.assert_array_equal(r.users[1].position, [4.0, 2.5, 0.75])
    assert s.room.contains([r.users[0].position])[0]
    assert r.users[0].position[2] == s.users[0].height
    # wall tiling is shared, not rebuilt
    assert r.wall_patches is s.wall_patches


def _population_draws_per_blocker(scenario, rng):
    """The per-blocker loop `realize` used before drawing all bases in one call."""
    pop = scenario.blocker_population
    out = []
    for _ in range(pop.count):
        x = rng.uniform(pop.radius, scenario.room.length - pop.radius)
        y = rng.uniform(pop.radius, scenario.room.width - pop.radius)
        out.append([x, y, 0.0])
    return out


@pytest.mark.parametrize("count", [0, 1, 5, 15])
def test_realize_population_draws_match_per_blocker_loop(count):
    # a non-square room tells length from width; the pinned blocker stays first
    pinned = CylinderSet([(1.0, 1.0, 0.0)], radii=0.2, heights=1.9)
    s = Scenario(room=Room(6.0, 3.5, 3.0), blockers=pinned,
                 blocker_population=BlockerPopulation(count=count, radius=0.3, height=1.2))
    for seed in range(200):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        r = realize(s, rng)
        want = _population_draws_per_blocker(s, oracle_rng)
        assert r.blockers.bases[:1].tolist() == [[1.0, 1.0, 0.0]]
        assert r.blockers.bases[1:].tolist() == want
        assert r.blockers.radii.tolist() == [0.2] + [0.3] * count
        assert r.blockers.heights.tolist() == [1.9] + [1.2] * count
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_run_trial_sum_rate_is_the_in_order_sum_of_sum_rate():
    # from 8 users on, a pairwise np.add.reduce differed from sum_rate's in-order sum in the last bits
    s = dataclasses.replace(benchmark_scenario(), users=tuple(UserSpec() for _ in range(20)), ris_panels=())
    for seed in range(30):
        assert run_trial(s, seed).sum_rate == sum_rate(realize(s, np.random.default_rng(seed)))


def test_realize_empty_population_draws_nothing():
    # a zero count never draws, so even a radius wider than the room passes
    s = Scenario(blocker_population=BlockerPopulation(count=0, radius=4.0))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert len(realize(s, rng).blockers) == 0
    assert rng.bit_generator.state == before


def test_run_trial_deterministic_and_consistent():
    s = _tiny_scenario()
    seed = np.random.SeedSequence([42, 0])
    a = run_trial(s, seed)
    b = run_trial(s, np.random.SeedSequence([42, 0]))
    for field_name in ("h_los", "h_wall", "h_ris", "rates", "los_visible", "fov_ok"):
        np.testing.assert_array_equal(getattr(a, field_name), getattr(b, field_name))
    assert a.sum_rate == b.sum_rate
    assert a.rates.shape == (2,)
    assert a.sum_rate == pytest.approx(float(np.sum(a.rates)), rel=1e-15)
    # single shared AP: both users split its airtime
    gains = a.h_los + a.h_wall + a.h_ris
    for i in range(2):
        want = link_rate(float(gains[i]), s.constraints, s.noise) / 2.0
        assert a.rates[i] == pytest.approx(want, rel=1e-12)


def test_run_trial_distinct_seeds_differ():
    s = _tiny_scenario()
    a = run_trial(s, np.random.SeedSequence([42, 0]))
    b = run_trial(s, np.random.SeedSequence([42, 1]))
    assert not np.array_equal(a.h_los, b.h_los)


def test_run_study_thread_count_does_not_change_results():
    s = _tiny_scenario()
    serial = run_study(s, 12, master_seed=7, threads=1)
    threaded = run_study(s, 12, master_seed=7, threads=4)
    assert len(serial) == len(threaded) == 12
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.h_ris, b.h_ris)
        assert a.sum_rate == b.sum_rate
    with pytest.raises(ValueError):
        run_study(s, 0)
    with pytest.raises(ValueError, match="users"):
        run_study(dataclasses.replace(s, users=()), 1)


def test_evaluate_links_requires_realization_and_aps():
    with pytest.raises(ValueError):
        _tiny_scenario().evaluate_links()
    bare = Scenario(users=(UserSpec(position=(1, 1, 0.75),
                                    fixed_orientation=DeviceOrientation(0.0, 0.0)),))
    with pytest.raises(ValueError):
        bare.evaluate_links()


def test_evaluate_links_serving_ap_maximizes_total_gain():
    s = Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(1.0, 2.5, 3.0)), LedTx(position=(4.0, 2.5, 3.0))),
        users=(UserSpec(position=(3.9, 2.5, 0.75),
                        fixed_orientation=DeviceOrientation(0.0, 0.0),
                        self_blockage=False),),
        wall_patch_size=0.5,
    )
    links = s.evaluate_links()
    assert links[0].serving_ap == 1  # the nearer AP wins
    assert links[0].total_gain == pytest.approx(
        links[0].h_los + links[0].h_wall + links[0].h_ris, rel=1e-15
    )


def test_evaluate_links_matches_direct_channel_calls():
    # user 0 sits behind the pinned cylinder and keeps AP 0; user 1 has a
    # clear LoS to the corner AP 1
    base = blocked_benchmark_scenario()
    clear = UserSpec(position=(1.0, 1.0, 0.75), fixed_orientation=DeviceOrientation(0.2, 0.5),
                     self_blockage=False)
    s = dataclasses.replace(
        base,
        aps=base.aps + (LedTx(position=(0.5, 0.5, 3.0)),),
        users=base.users + (clear,),
    )
    links = s.evaluate_links()
    assert [(link.serving_ap, link.los_visible) for link in links] == [(0, False), (1, True)]
    for link, user in zip(links, s.users):
        ap, rx = s.aps[link.serving_ap], user.receiver()
        occluders = occluders_of(s, user)
        blocked = segments_blocked(ap.position[None, :], rx.position[None, :], occluders)[0]
        assert link.los_visible == (not blocked)
        assert link.h_los == (0.0 if blocked else los_gain(ap, rx))
        assert link.h_wall == wall_gain_oracle(ap, rx, s.wall_patches, occluders)
        cos_t = incidence_cosine(ap.position, rx.position, rx.orientation)
        assert link.fov_ok == (cos_t >= math.cos(rx.fov))
    assert links[0].h_los == 0.0 and links[1].h_los > 0.0


def test_evaluate_links_rejects_wrong_angle_count():
    s = realize(_tiny_scenario(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        s.evaluate_links(ris_angles=[(0.0, 0.0), (0.1, 0.1)])  # one panel only


# --------------------------------------------------------------- statistics


def _fake_result(rates, visible, fov_ok):
    rates = np.asarray(rates, dtype=float)
    return TrialResult(
        h_los=np.zeros_like(rates), h_wall=np.zeros_like(rates),
        h_ris=np.zeros_like(rates), rates=rates,
        sum_rate=float(np.sum(rates)),
        los_visible=np.asarray(visible, dtype=bool),
        fov_ok=np.asarray(fov_ok, dtype=bool),
    )


def test_study_statistics_hand_computed():
    results = [
        _fake_result([4.0, 2.0], [True, False], [True, True]),
        _fake_result([6.0, 0.0], [True, True], [False, True]),
    ]
    stats = study_statistics(results)
    assert stats.trials == 2
    assert stats.mean_sum_rate == pytest.approx(6.0)
    assert stats.std_sum_rate == pytest.approx(0.0)
    assert stats.fraction_los_visible == pytest.approx(3 / 4)
    # one of three visible links is outside the FoV
    assert stats.fraction_fov_excluded == pytest.approx(1 / 3)
    assert stats.mean_user_rate_los == pytest.approx((4.0 + 6.0 + 0.0) / 3)
    assert stats.mean_user_rate_nlos == pytest.approx(2.0)


def test_study_statistics_nan_for_empty_populations():
    stats = study_statistics([_fake_result([1.0], [True], [True])])
    assert math.isnan(stats.mean_user_rate_nlos)
    d = stats.to_dict()
    assert d["mean_user_rate_nlos_bps"] is None
    assert d["mean_user_rate_los_bps"] == pytest.approx(1.0)
    # the dict round-trips through JSON (NaN-free)
    json.dumps(d)


def test_blockage_study_is_keyed_by_count_and_paired():
    s = _tiny_scenario()
    stats = blockage_study(s, trials=6, blocker_counts=(0, 3), master_seed=5)
    assert sorted(stats) == [0, 3]
    assert all(v.trials == 6 for v in stats.values())
    again = blockage_study(s, trials=6, blocker_counts=(0, 3), master_seed=5)
    assert stats[0].mean_sum_rate == again[0].mean_sum_rate
    assert stats[3].mean_sum_rate == again[3].mean_sum_rate
    # zero blockers cannot produce less rate than three under paired seeds
    assert stats[0].mean_sum_rate >= stats[3].mean_sum_rate


# ---------------------------------------------------------- orientation study


def test_orientation_study_trivial_fractions():
    # device face-up directly under the AP: never excluded
    under = Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(2.5, 2.5, 3.0)),),
        users=(UserSpec(position=(2.5, 2.5, 0.75),
                        fixed_orientation=DeviceOrientation(0.0, 0.0),
                        self_blockage=False),),
        wall_patch_size=0.5,
    )
    assert orientation_study(under, samples=500) == 0.0

    # narrow-FoV device pointed away from a side AP: always excluded
    away = Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(0.5, 2.5, 3.0)),),
        users=(UserSpec(position=(4.5, 2.5, 0.75), fov=math.radians(10.0),
                        fixed_orientation=DeviceOrientation(0.0, 0.0),
                        self_blockage=False),),
        wall_patch_size=0.5,
    )
    assert orientation_study(away, samples=500) == 1.0


def test_orientation_study_deterministic_and_validated():
    s = orientation_benchmark_scenario()
    a = orientation_study(s, samples=2000, master_seed=3)
    b = orientation_study(s, samples=2000, master_seed=3)
    assert a == b
    assert 0.0 <= a <= 1.0
    with pytest.raises(ValueError):
        orientation_study(s, samples=0)
    with pytest.raises(ValueError):
        orientation_study(Scenario(), samples=10)


def test_orientation_study_counts_only_visible_links():
    # a blocker wall between AP and the pinned user kills every sample
    s = Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(0.5, 2.5, 3.0)),),
        users=(UserSpec(position=(4.5, 2.5, 0.75),
                        fixed_orientation=DeviceOrientation(0.0, 0.0),
                        self_blockage=False),),
        blockers=CylinderSet([(2.5, 2.5, 0.0)], radii=0.4, heights=3.0),
        wall_patch_size=0.5,
    )
    assert math.isnan(orientation_study(s, samples=200))


# ------------------------------------------------------------------ builders


def test_benchmark_builders_shapes():
    b = benchmark_scenario()
    assert len(b.users) == 4 and b.blocker_population.count == 5
    assert b.ris_panels[0].element_count == 64
    o = orientation_benchmark_scenario()
    assert len(o.users) == 1 and len(o.aps) == 1
    blocked = blocked_benchmark_scenario()
    assert blocked.users[0].position is not None
    assert len(blocked.blockers) == 1
    single = single_mirror_benchmark_scenario()
    assert single.ris_panels[0].element_count == 1
    # the blocked deployment really has no LoS on any trial
    trial = run_trial(blocked, np.random.SeedSequence([42, 0]))
    assert not trial.los_visible[0]
    assert trial.h_los[0] == 0.0


# -------------------------------------------------------------------- output


def test_trials_to_csv_round_trips_floats():
    s = _tiny_scenario()
    results = run_study(s, 2, master_seed=1, threads=1)
    text = trials_to_csv(results)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    # repr round-trip: parsing the text recovers the exact float
    assert float(first[2]) == results[0].h_los[0]
    assert float(first[5]) == results[0].rates[0]
    assert first[6] in {"0", "1"} and first[7] in {"0", "1"}


def _blame_document():
    """Every section, with three APs, users and panels; each test below plants one bad value."""
    panel = {"center": [0.0, 2.5, 1.5], "normal": [1.0, 0.0, 0.0], "rows": 2, "cols": 2, "element_size": 0.1,
             "reflectivity": 0.9, "beam_spread_deg": 2.0, "yaw_deg": 1.0, "roll_deg": 1.0}
    user = {"position": [1.0, 1.0, 0.75], "area": 1e-4, "fov_deg": 80.0, "body_offset": 0.3,
            "orientation": {"polar_deg": 10.0, "azimuth_deg": 20.0}}
    return {"room": {"length": 5.0, "width": 5.0, "height": 3.0, "wall_patch_size": 0.5},
            "aps": [{"position": [2.5, 2.5, 3.0], "half_intensity_angle_deg": 60.0}] * 3,
            "users": [dict(user) for _ in range(3)],
            "blockers": {"count": 2, "radius": 0.2, "positions": [[1.0, 2.0], [3.0, 3.0]]},
            "ris": [dict(panel) for _ in range(3)],
            "noise": {"psd": 5e-20, "bandwidth": 2e7}}


@pytest.fixture
def document_loads(monkeypatch):
    """Each document `load_scenario` builds a scenario from."""
    calls, original = [], scenario._scenario_from_document

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(scenario, "_scenario_from_document", counting)
    return calls


@pytest.mark.parametrize("path, value", [
    (("ris", 2, "reflectivity"), 2.0),  # the panel's constructor refuses it
    (("users", 1, "area"), -1.0),
    (("users", 2, "body_offset"), 1e300),  # the scenario refuses it across sections and names it
])
def test_a_refusal_names_its_key_from_one_build_of_the_document(document_loads, path, value):
    doc = _blame_document()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")
    with pytest.raises(ConfigError, match=re.escape(f" at {name}:")) as info:
        load_scenario(json.dumps(doc))
    assert info.value.key == name
    assert len(document_loads) == 1


@pytest.fixture
def left_out(monkeypatch):
    """The keyword each retry of a refused constructor leaves to its default, in order."""
    tried, passes = [], scenario._passes

    def spy(make, kwargs, name):
        tried.append(name)
        return passes(make, kwargs, name)

    monkeypatch.setattr(scenario, "_passes", spy)
    return tried


def test_a_constructor_refusal_leaves_out_each_key_of_its_section_in_order_until_one_passes(left_out):
    # users[1] holds position, area, fov_deg, body_offset and orientation: `position` left out still fails
    doc = _blame_document()
    doc["users"][1]["area"] = -1.0
    with pytest.raises(ConfigError, match=re.escape("configuration validation error at users[1].area: ")):
        load_scenario(json.dumps(doc))
    assert left_out == ["position", "area"]


def _document_at_every_cap():
    """64 APs, 256 users with their orientation, 1 024 blocker positions and 16 panels of 8 x 8."""
    doc = _blame_document()
    doc["aps"] = doc["aps"][:1] * AP_COUNT_CAP
    doc["users"] = [dict(doc["users"][0]) for _ in range(USER_COUNT_CAP)]
    doc["blockers"] = {"radius": 0.2, "positions": [[1.0 + i / 1e3, 2.0] for i in range(BLOCKER_COUNT_CAP)]}
    doc["ris"] = [{**doc["ris"][0], "rows": 8, "cols": 8} for _ in range(PANEL_COUNT_CAP)]
    return doc


@pytest.mark.parametrize("key, value, named", [
    ("body_offset", 1e300, "users[255].body_offset"),  # past the floor diagonal
    ("position", [1.0, 1.0, 9.0], "users[255].position"),  # above the ceiling
])
def test_a_cross_section_refusal_at_every_cap_builds_the_document_once(document_loads, key, value, named):
    doc = _document_at_every_cap()
    doc["users"][-1][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at {named}: {named} ")):
        load_scenario(json.dumps(doc))
    assert len(document_loads) == 1


@pytest.mark.parametrize("users, named", [
    # the scenario numbers users after `count` expands them; the document holds each refused one at users[1]
    ([{"count": 2}, {"body_offset": 1e300}], "users[1].body_offset"),
    ([{"count": 3}, {"position": [9.0, 1.0, 0.8]}], "users[1].position"),
    ([{"count": 2}, {"height": 9.0}], "users[1].height"),  # a default position, placed at its height
    ([{"count": 0}, {"position": [9.0, 1.0, 0.8]}], "users[1].position"),  # the scenario's first user
    ([{"count": 2}, {"count": 2, "body_offset": 1e300}], "users[1].body_offset"),  # the first of its copies
])
def test_a_refusal_after_count_expands_names_the_users_entry_of_the_document(document_loads, users, named):
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at {named}: {named} ")):
        load_scenario(json.dumps({"aps": [{"position": [2.5, 2.5, 0.25]}], "users": users}))
    assert len(document_loads) == 1


@pytest.mark.parametrize("key, value, tried", [
    # the scenario's wall checks name no key; only the room's wall keys are left out in turn, in document order
    ("wall_reflectance", 2.0, ["wall_patch_size", "wall_reflectance"]),
    # the room is built with its tiling checked, so its dimensions are left out before the patch size
    ("wall_patch_size", -1.0, ["length", "width", "height", "wall_patch_size"]),
])
def test_a_wall_refusal_at_every_cap_names_its_room_key_from_one_build(document_loads, left_out, key, value, tried):
    doc = _document_at_every_cap()
    doc["room"] = doc.pop("room")
    doc["room"][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at room.{key}: ")):
        load_scenario(json.dumps(doc))
    assert left_out == tried
    assert len(document_loads) == 1


@pytest.mark.parametrize("doc, named, message", [
    # required keys, which the scenario names with the room bound they cross
    ({"aps": [{"position": [9.0, 1.0, 2.9]}]}, "aps[0].position",
     "aps[0].position [9.  1.  2.9] is outside the room: x > room.length 5"),
    ({"ris": [{"center": [9.0, 1.0, 1.0], "normal": [-1.0, 0.0, 0.0]}]}, "ris[0].center",
     "ris[0].center [9. 1. 1.] is outside the room: x > room.length 5"),
    # the scenario calls a fixed blocker a base; the document holds it as an entry of blockers.positions
    ({"blockers": {"positions": [[1.0, 1.0], [9.0, 1.0]]}}, "blockers.positions",
     "blockers.positions[1] [9. 1. 0.] is outside the room: x > room.length 5"),
    # a default height above a low room: the user is named, and the room key in the message
    ({"room": {"height": 0.5}, "users": [{}]}, "users[0].height",
     "users[0].height (0.0, 0.0, 0.75) is outside the room: z > room.height 0.5"),
])
def test_a_placement_refusal_names_the_document_key_and_the_room_key_from_one_build(document_loads, doc, named,
                                                                                    message):
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at {named}: {message}")):
        load_scenario(json.dumps({"aps": [{"position": [2.5, 2.5, 0.25]}], **doc}))
    assert len(document_loads) == 1
