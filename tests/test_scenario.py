"""Scenario configuration, Monte-Carlo trials, and the built-in studies."""

import collections
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from conftest import occluders_of, realized_scenario, receiver_of, run_cli, sections_of, wall_gain_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc.channel import (LedTx, PdRx, WallPatchSet, check_receiver_terms, incidence_cosine, lambertian_index,
                             los_gain)
from ris_vlc.geometry import CylinderSet, Room, check_cylinder_size, segments_blocked, unit
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
    TrialDraw,
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


def test_user_spec_carries_the_concentrator_gain_of_its_receiver():
    # a trial reads each user's receiver terms from its template, without building a PdRx
    for fov, index in [(math.radians(85.0), 1.5), (math.radians(30.0), 1.0), (math.pi / 2.0, 2.2)]:
        user = UserSpec(fov=fov, refractive_index=index)
        rx = PdRx(position=(1.0, 1.0, 0.75), fov=fov, refractive_index=index)
        assert user.concentrator == rx.concentrator == check_receiver_terms(1e-4, fov, 1.0, index)


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
        (visible,) = s.evaluate_links().los_visible
    (rows,) = calls
    return rows, visible


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
    (lambda: WallPatchSet.for_room(Room(), 1e-4, 0.7), "cap"),
    (lambda: WallPatchSet.for_room(Room(1e70), 1e-250, 0.7), "cap"),
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
        WallPatchSet.for_room(Room(), 1e-4, 0.7)
    with pytest.raises(ValueError, match="exceed the cap"):
        MirrorArray(**_PANEL, rows=10**9)
    monkeypatch.undo()
    tiles = WallPatchSet.tiling(Room(), 0.05)
    assert sum(nu * nv for nu, nv in tiles) == len(WallPatchSet.for_room(Room(), 0.05, 0.7)) == 24000


_ROOM_FIELDS = ("length", "width", "height", "wall_patch_size")
_AP = LedTx(position=(2.5, 2.5, 3.0))


# One row per keyed check of each constructor: a check of one field names it, a check of several names them all.
@pytest.mark.parametrize("build, key", [
    (lambda: Room(-1.0), "length"),
    (lambda: Room(5.0, 0.0, 3.0), "width"),  # a combined check names the first field that fails
    (lambda: Room(5.0, 5.0, math.nan), "height"),
    (lambda: Room(math.inf, 5.0, 3.0), "length"),
    (lambda: CylinderSet([[1.0, 2.0]]), "bases"),
    (lambda: CylinderSet([(1.0, math.inf, 0.0)]), "bases"),
    (lambda: CylinderSet([(1.0, 1.0, 0.0)], radii=[0.1, 0.2]), ("bases", "radii", "heights")),
    (lambda: CylinderSet([(1.0, 1.0, 0.0)], heights=[0.0]), "heights"),
    (lambda: WallPatchSet([[0, 0]], [[1, 0, 0]], [1.0], [0.5]), "centers"),
    (lambda: WallPatchSet([[math.nan, 0, 0]], [[1, 0, 0]], [1.0], [0.5]), "centers"),
    (lambda: WallPatchSet([[0, 0, 0]], [[0, 0, 0]], [1.0], [0.5]), "normals"),
    (lambda: WallPatchSet([[0, 0, 0]], [[1, 0, 0]], [0.0], [0.5]), "areas"),
    (lambda: WallPatchSet([[0, 0, 0]], [[1, 0, 0]], [1.0], [1.5]), "reflectances"),
    (lambda: WallPatchSet([[0, 0, 0]], [[1, 0, 0]], [1.0, 1.0], [0.5]),
     ("centers", "normals", "areas", "reflectances")),
    (lambda: check_cylinder_size(0.0, -1.0, "body", ("body_radius", "body_height")), "body_radius"),
    (lambda: check_cylinder_size(0.1, 0.0, "blocker", ("radius", "height")), "height"),
    (lambda: check_cylinder_size(1e300, 1.0, "blocker", ("radius", "height")), "radius"),
    (lambda: LedTx(position=(1.0, 1.0, 1.0), optical_power=-1.0), "optical_power"),
    (lambda: LedTx(position=(1.0, 1.0)), "position"),
    (lambda: LedTx(position=(1.0, 1.0, 1.0), normal=(0.0, 0.0, 0.0)), "normal"),
    (lambda: LedTx(position=(1.0, 1.0, 1.0), normal=(1e300, 1e300, 0.0)), "normal"),
    (lambda: LedTx(position=(1.0, 1.0, 1.0), half_intensity_angle=2.0, optical_power=-1.0), "half_intensity_angle"),
    (lambda: lambertian_index(1e-30), "half_intensity_angle"),
    (lambda: check_receiver_terms(-1.0, 5.0, 1.0, 1.5), "area"),
    (lambda: check_receiver_terms(1e-4, 5.0, 1.0, 1.5), "fov"),
    (lambda: check_receiver_terms(1e-4, 1.0, 7.0, 1.5), "filter_gain"),
    (lambda: check_receiver_terms(1e-4, 1.0, 1.0, 0.5), "refractive_index"),
    (lambda: check_receiver_terms(1e300, 1.0, 1.0, 1.5), ("area", "fov", "refractive_index")),
    (lambda: PdRx(position=(1.0, 1.0, 1.0), fov=1e-300), ("area", "fov", "refractive_index")),
    (lambda: WallPatchSet.tiling(Room(), -1.0), "wall_patch_size"),
    (lambda: WallPatchSet.tiling(Room(), 1e-4), _ROOM_FIELDS),
    (lambda: WallPatchSet.for_room(Room(1e70), 1e-250, 0.7), _ROOM_FIELDS),
    (lambda: MirrorArray(**_PANEL | dict(panel_center=(0.0, 1.0))), "panel_center"),
    (lambda: MirrorArray(**_PANEL | dict(base_normal=(0.0, 0.0, 0.0))), "base_normal"),
    (lambda: MirrorArray(**_PANEL, rows=0, cols=0), "rows"),
    (lambda: MirrorArray(**_PANEL, cols=0), "cols"),
    (lambda: MirrorArray(**_PANEL, rows=1 << 9, cols=1 << 8), ("rows", "cols")),
    (lambda: MirrorArray(**_PANEL, element_size=-0.1, reflectivity=2.0), "element_size"),
    (lambda: MirrorArray(**_PANEL, reflectivity=2.0), "reflectivity"),
    (lambda: MirrorArray(**_PANEL, beam_spread=1e-300), "beam_spread"),
    (lambda: MirrorArray(**_PANEL, rows=2, cols=2, yaw=np.zeros((2, 3))), "yaw"),
    (lambda: MirrorArray(**_PANEL, rows=2, cols=2, roll=np.zeros(3)), "roll"),
    (lambda: DeviceOrientation(polar=2.0, azimuth=7.0), "polar"),
    (lambda: DeviceOrientation(polar=0.0, azimuth=7.0), "azimuth"),
    (lambda: OrientationModel(std_polar=-1.0), "std_polar"),
    (lambda: OrientationModel(mean_polar=2.0), "mean_polar"),
    (lambda: OrientationModel(std_polar=1e30), ("mean_polar", "std_polar")),
    (lambda: NoiseModel(psd=-1.0, bandwidth=-1.0), "psd"),
    (lambda: NoiseModel(bandwidth=0.0), "bandwidth"),
    (lambda: NoiseModel(psd=1e300, bandwidth=1e300), ("psd", "bandwidth")),
    (lambda: IntensityConstraints(peak=0.0, average_total=0.0), "peak"),
    (lambda: IntensityConstraints(average_total=-1.0), "average_total"),
    (lambda: IntensityConstraints(peak=1e300), "peak"),
    (lambda: UserSpec(position=(1.0, 1.0)), "position"),
    (lambda: UserSpec(body_offset=-1.0), "body_offset"),
    (lambda: UserSpec(body_radius=1e300), "body_radius"),
    (lambda: UserSpec(body_height=0.0), "body_height"),
    (lambda: UserSpec(area=1e300), ("area", "fov", "refractive_index")),
    (lambda: BlockerPopulation(count=-1), "count"),
    (lambda: BlockerPopulation(count=BLOCKER_COUNT_CAP + 1), "count"),
    (lambda: BlockerPopulation(count=1, radius=0.0), "radius"),
    (lambda: BlockerPopulation(count=1, height=-1.0), "height"),
    (lambda: Scenario(wall_reflectance=2.0), "wall_reflectance"),
    (lambda: Scenario(wall_patch_size=0.0), "wall_patch_size"),
    (lambda: Room(1e200, 5.0, 3.0), _ROOM_FIELDS[:3]),
    (lambda: Room(5.0, np.float64(1e77), 3.0), _ROOM_FIELDS[:3]),  # NumPy scalars square without a RuntimeWarning
    (lambda: Scenario(room=Room(1e30, 5.0, 3.0)), _ROOM_FIELDS),
    # checks across fields of several parts name the scenario's path to the value
    (lambda: Scenario(aps=(LedTx(position=(9.0, 1.0, 3.0)),)), "aps[0].position"),
    (lambda: Scenario(aps=(_AP,), users=(UserSpec(height=math.nan),)), "users[0].height"),
    (lambda: Scenario(aps=(_AP,), users=(UserSpec(body_offset=1e300),)), "users[0].body_offset"),
    (lambda: Scenario(aps=(_AP,), blocker_population=BlockerPopulation(1, radius=3.0)), "blockers.radius"),
], ids=lambda value: value if isinstance(value, str) else "+".join(value) if isinstance(value, tuple) else None)
def test_each_constructor_check_names_the_field_or_fields_it_refuses(build, key):
    with pytest.raises(ConfigError) as refused:
        build()
    assert refused.value.key == key


def test_a_scenario_whose_walls_tile_past_the_cap_is_refused_when_built():
    with pytest.raises(ConfigError, match=r"gives 2.4e\+33 patches, above the cap of \d+$") as refused:
        Scenario(room=Room(1e30, 5.0, 3.0), aps=(_AP,), users=(UserSpec(),))
    assert refused.value.key == _ROOM_FIELDS


def test_link_rate_refuses_an_snr_past_the_float_range():
    assert math.isfinite(link_rate(1e150, IntensityConstraints(peak=1.0), NoiseModel(psd=1.0, bandwidth=1.0)))
    for gain in (1e155, 1e160):
        with pytest.raises(ValueError, match="SNR of a link overflows"):
            link_rate(gain, IntensityConstraints(peak=1.0), NoiseModel(psd=1.0, bandwidth=1.0))


def test_csv_refuses_non_finite_values():
    ok = TrialResult(np.ones(1), np.ones(1), np.zeros(1), np.ones(1), 1.0, np.ones(1, bool), np.ones(1, bool),
                     np.zeros(1, int))
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
    with pytest.raises(ConfigError, match=r" at ris\[0\]: ris\[0\]\.rows and ris\[0\]\.cols: 256 x 257 ") as both:
        load_scenario(json.dumps({"ris": [{**panel, "rows": 256, "cols": 257}]}))
    assert both.value.key == "ris[0]"  # neither key alone is at fault, so the panel is named
    with pytest.raises(ConfigError, match=r" at ris\[0\]\.cols: 8 x 8193 ") as one:  # the default fills the absent axis
        load_scenario(json.dumps({"ris": [{**panel, "cols": 8193}]}))
    assert one.value.key == "ris[0].cols"


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


def test_realize_fills_every_unpinned_field(monkeypatch):
    s = _tiny_scenario()
    r = realize(s, np.random.default_rng(0))
    assert type(r) is TrialDraw and r._fields == ("blockers", "positions", "orientations")
    assert r.positions.shape == (2, 3) and r.positions.dtype == np.float64
    assert [type(o) for o in r.orientations] == [DeviceOrientation] * 2
    assert len(r.blockers) == 2  # the population, placed; the template keeps its count
    for base, radius in zip(r.blockers.bases, r.blockers.radii):
        assert s.room.contains([base])[0]
        # margin keeps the full cylinder inside
        assert base[0] >= radius
        assert base[0] <= s.room.length - radius
    # pinned user position survives; sampled one lands inside the room
    np.testing.assert_array_equal(r.positions[1], [4.0, 2.5, 0.75])
    assert s.room.contains([r.positions[0]])[0]
    assert r.positions[0, 2] == s.users[0].height
    # wall tiling is the template's, not rebuilt per trial
    s.wall_patches
    monkeypatch.setattr(WallPatchSet, "for_room", None)
    assert run_trial(s, 0).sum_rate > 0.0


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
        result, total = run_trial(s, seed), 0.0
        for rate in result.rates.tolist():
            total += rate
        assert result.sum_rate == total == sum_rate(realized_scenario(s, np.random.default_rng(seed)))


def test_realize_empty_population_draws_nothing():
    # a zero count never draws, so even a radius wider than the room passes
    s = Scenario(blocker_population=BlockerPopulation(count=0, radius=4.0))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert len(realize(s, rng).blockers) == 0
    assert rng.bit_generator.state == before


def test_a_pinned_scenario_refuses_to_evaluate_what_a_trial_would_draw():
    # a realized scenario used to evaluate without its blocker population: `sum_rate` read 2716119.526438994 with
    # 200 population blockers as without them. The link table now refuses whatever `realize` would draw, while a
    # trial still draws it
    base = blocked_benchmark_scenario()
    crowded = dataclasses.replace(base, blocker_population=BlockerPopulation(count=200))
    refusal = r"^blockers.count 200 blockers are drawn per trial, so the scenario has no links to evaluate; run trials$"
    for evaluate in (lambda: sum_rate(crowded), lambda: next(crowded.evaluate_population([([0.0], [0.0])], 1))):
        with pytest.raises(ValueError, match=refusal):
            evaluate()
    assert sum_rate(base) == 2716119.526438994
    assert sum_rate(dataclasses.replace(base, blocker_population=BlockerPopulation(count=0))) == sum_rate(base)
    assert len(realize(crowded, np.random.default_rng(1)).blockers) == 201
    assert run_trial(crowded, 1).sum_rate < run_trial(base, 1).sum_rate == sum_rate(base)
    # a drawn user is named first, by its index after `count` expansion
    pinned = {"position": [4.0, 2.5, 0.75], "orientation": {"polar_deg": 0.0}, "count": 2}
    doc = {"aps": [{"position": [2.5, 2.5, 3.0]}], "users": [pinned, {}], "blockers": {"count": 3}}
    with pytest.raises(ValueError, match=r"^user 2 is unsampled: its position or orientation is drawn per trial, "):
        sum_rate(load_scenario(json.dumps(doc)))


_XY = st.floats(0.3, 4.7)
_PANELS = (MirrorArray((0.0, 2.5, 1.5), (1.0, 0.0, 0.0), 2, 2), MirrorArray((2.5, 5.0, 1.4), (0.0, -1.0, 0.0), 3, 4))


@st.composite
def _templates(draw):
    """Pinned and drawn users, with and without self-blockage, 0, 1 or 15 population blockers, 1-2 APs and
    0-2 panels."""
    users = []
    for _ in range(draw(st.integers(1, 3))):
        position = (draw(_XY), draw(_XY), 0.75) if draw(st.booleans()) else None
        orientation = (DeviceOrientation(draw(st.floats(0.0, math.pi / 2.0)), draw(st.floats(-math.pi, math.pi)))
                       if draw(st.booleans()) else None)
        users.append(UserSpec(position=position, fixed_orientation=orientation, self_blockage=draw(st.booleans())))
    aps = (LedTx(position=(2.5, 2.5, 3.0)), LedTx(position=(1.0, 4.0, 2.8)))[:draw(st.integers(1, 2))]
    fixed = CylinderSet([(3.7, 2.45, 0.0)] if draw(st.booleans()) else [])
    return Scenario(room=Room(5.0, 5.0, 3.0), aps=aps, users=tuple(users), blockers=fixed,
                    blocker_population=BlockerPopulation(count=draw(st.sampled_from((0, 1, 15)))),
                    ris_panels=_PANELS[:draw(st.integers(0, 2))], wall_patch_size=0.5)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(_templates(), st.integers(0, 2**32 - 1))
def test_a_trial_equals_the_realized_scenario_it_replaced(template, seed):
    # the draw consumes the stream as the scenario-building oracle does, and pins the same values
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    draw, want = realize(template, rng), realized_scenario(template, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert draw.positions.tolist() == [user.position.tolist() for user in want.users]
    assert draw.orientations == tuple(user.fixed_orientation for user in want.users)
    assert all(_same_bits(getattr(draw.blockers, name), getattr(want.blockers, name))
               for name in ("bases", "radii", "heights"))
    got, links = run_trial(template, seed), want.evaluate_links()
    for name in ("h_los", "h_wall", "h_ris", "rates", "los_visible", "fov_ok", "serving_ap"):
        assert _same_bits(getattr(got, name), getattr(links, name)), name
    assert got.sum_rate == links.sum_rate


def test_a_trial_builds_no_scenario_user_or_receiver(monkeypatch):
    builds = collections.Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            builds[cls.__name__] += 1
            init(self, *args, **kwargs)
        return counted

    template = dataclasses.replace(_tiny_scenario(), users=(UserSpec(), UserSpec(position=(4.0, 2.5, 0.75)),
                                                            UserSpec(self_blockage=False)))
    for cls in (Scenario, UserSpec, PdRx):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    realized_scenario(template, np.random.default_rng(0))  # the spies see the oracle's builds
    assert builds == {"Scenario": 1, "UserSpec": 3}
    builds.clear()
    results = run_study(template, 5, master_seed=3)
    assert len(results) == 5 and builds == {}


@pytest.mark.parametrize("gap", [1e-160, 0.0])
def test_an_ap_and_a_user_too_close_for_the_los_gain_are_refused_by_name(gap):
    # d**2 = 1e-320 made the LoS gain inf, refused by a message naming neither end; the legs' floor holds it
    ap = LedTx(position=(0.0, 2.5, 2.0), normal=(1.0, 0.0, 0.0))
    face = DeviceOrientation(math.pi / 2.0, math.pi)
    others = (UserSpec(position=(1.0, 1.0, 0.75), fixed_orientation=face),) * 2
    s = Scenario(aps=(LedTx(position=(2.5, 2.5, 3.0)), ap),
                 users=others + (UserSpec(position=(gap, 2.5, 2.0), fixed_orientation=face),))
    message = rf"^aps\[1\] and user 2 coincide: {gap:.3g} m apart, under the 1.22e-77 m that keeps a gain's 1/d\*\*2 " \
              "finite$"
    with pytest.raises(ValueError, match=message):
        s.evaluate_links()
    with pytest.raises(ValueError, match=message):
        run_trial(s, 0)


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
    result = s.evaluate_links()
    assert result.serving_ap.tolist() == [1]  # the nearer AP wins
    total = s._link_table.h_los + s._link_table.h_wall  # no panels
    assert total[0, 1] > total[0, 0]
    assert result.rates[0] == pytest.approx(
        link_rate(float(result.h_los[0] + result.h_wall[0] + result.h_ris[0]), s.constraints, s.noise), rel=1e-15
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
    assert list(zip(links.serving_ap.tolist(), links.los_visible.tolist())) == [(0, False), (1, True)]
    for u, user in enumerate(s.users):
        ap, rx = s.aps[links.serving_ap[u]], receiver_of(user)
        occluders = occluders_of(s, user)
        blocked = segments_blocked(ap.position[None, :], rx.position[None, :], occluders)[0]
        assert links.los_visible[u] == (not blocked)
        assert links.h_los[u] == (0.0 if blocked else los_gain(ap, rx))
        assert links.h_wall[u] == wall_gain_oracle(ap, rx, s.wall_patches, occluders)
        cos_t = incidence_cosine(ap.position, rx.position, rx.orientation)
        assert links.fov_ok[u] == (cos_t >= math.cos(rx.fov))
    assert links.h_los[0] == 0.0 and links.h_los[1] > 0.0


def test_a_blocker_population_wider_than_the_room_is_refused_at_construction():
    ap, user = LedTx(position=(2.5, 2.5, 3.0)), UserSpec()
    with pytest.raises(ConfigError, match=r"^blockers\.radius 3\.0 is more than half of room\.length or "
                                          r"room\.width$") as refused:
        Scenario(aps=(ap,), users=(user,), blocker_population=BlockerPopulation(1, radius=3.0))
    assert refused.value.key == "blockers.radius"
    narrow = Room(8.0, 2.0, 3.0)
    with pytest.raises(ConfigError, match=r"^blockers\.radius 1\.2 "):
        Scenario(room=narrow, aps=(LedTx(position=(4.0, 1.0, 3.0)),), users=(user,),
                 blocker_population=BlockerPopulation(1, radius=1.2))
    # a population that exactly spans the room, or draws none, still runs
    for population in (BlockerPopulation(1, radius=2.5), BlockerPopulation(0, radius=3.0)):
        s = Scenario(aps=(ap,), users=(user,), blocker_population=population)
        assert len(run_study(s, 2)) == 2


def test_evaluate_links_rejects_wrong_angle_count():
    s = realized_scenario(_tiny_scenario(), np.random.default_rng(0))
    for angles in ([(0.0, 0.0), (0.1, 0.1)], []):  # one panel only
        with pytest.raises(ValueError, match=rf"^expected 1 \(yaw, roll\) pairs, got {len(angles)}$"):
            s.evaluate_links(ris_angles=angles)


# --------------------------------------------------------------- statistics


def _fake_result(rates, visible, fov_ok):
    rates = np.asarray(rates, dtype=float)
    return TrialResult(
        h_los=np.zeros_like(rates), h_wall=np.zeros_like(rates),
        h_ris=np.zeros_like(rates), rates=rates,
        sum_rate=float(np.sum(rates)),
        los_visible=np.asarray(visible, dtype=bool),
        fov_ok=np.asarray(fov_ok, dtype=bool),
        serving_ap=np.zeros(len(rates), dtype=int),
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


@pytest.mark.parametrize("path, value, named", [
    (("users", 1, "area"), -1.0, "users[1].area"),
    (("users", 2, "orientation", "azimuth_deg"), 400.0, "users[2].orientation.azimuth_deg"),
    (("aps", 1, "optical_power_w"), -1.0, "aps[1].optical_power_w"),
    (("ris", 2, "reflectivity"), 2.0, "ris[2].reflectivity"),
    (("ris", 0, "rows"), 65536, "ris[0]"),  # rows x cols: the panel holds both keys
    (("blockers", "height"), 0.0, "blockers.height"),
    (("noise", "psd"), 1e302, "noise"),  # the variance: the section holds both keys
    (("room", "wall_reflectance"), 2.0, "room.wall_reflectance"),
])
def test_a_refused_document_builds_each_sections_constructor_at_most_once(constructor_builds, path, value, named):
    doc = json.loads(json.dumps(_blame_document()))  # its entries share one AP table and orientation tables
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at {named}: ")) as refused:
        load_scenario(json.dumps(doc))
    assert refused.value.key == named
    sections = sections_of(doc)
    assert all(n <= sections[name] for name, n in constructor_builds.items()), constructor_builds


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


@pytest.mark.parametrize("key, value", [("wall_reflectance", 2.0), ("wall_patch_size", -1.0)])
def test_a_wall_refusal_at_every_cap_names_its_room_key_from_one_build(document_loads, constructor_builds, key, value):
    # the scenario checks the walls, after every section before it is built, each once
    doc = _document_at_every_cap()
    doc["room"][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"configuration validation error at room.{key}: ")):
        load_scenario(json.dumps(doc))
    assert constructor_builds == sections_of(doc)
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
