"""Lambertian LoS and wall first-reflection gains against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc.channel import (
    LedTx,
    PdRx,
    WallPatchSet,
    incidence_cosine,
    lambertian_index,
    los_gain,
)
from ris_vlc import geometry
from ris_vlc.geometry import CylinderSet, Room
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.scenario import wall_first_reflection_gain


TX = LedTx(position=(2.5, 2.5, 3.0), normal=(0.0, 0.0, -1.0),
           half_intensity_angle=math.radians(60.0), optical_power=2.0)
RX = PdRx(position=(1.5, 2.0, 0.85),
          orientation=DeviceOrientation(polar=math.radians(30.0), azimuth=2.0),
          area=1e-4, fov=math.radians(85.0), filter_gain=1.0, refractive_index=1.5)


def test_lambertian_index_values():
    assert lambertian_index(math.radians(60.0)) == pytest.approx(1.0, rel=1e-12)
    # -1 / log2(cos 30 deg), worked out by hand
    assert lambertian_index(math.radians(30.0)) == pytest.approx(4.818841679306421, rel=1e-12)


def test_lambertian_index_rejects_out_of_range():
    for bad in (0.0, math.pi / 2, -0.1):
        with pytest.raises(ValueError):
            lambertian_index(bad)


@pytest.mark.parametrize("phi_deg, lit", [(89.0, True), (91.0, False), (135.0, False), (179.0, False)])
def test_los_gain_zero_behind_emitter(phi_deg, lit):
    # a receiver `phi` off the LED's boresight, facing it sideways inside a 90-degree FoV
    phi = math.radians(phi_deg)
    rx = PdRx(position=TX.position + (math.sin(phi), 0.0, -math.cos(phi)),
              orientation=DeviceOrientation(polar=math.pi / 2, azimuth=math.pi), fov=math.pi / 2)
    assert (los_gain(TX, rx) > 0.0) is lit


def test_concentrator_gain_values():
    # 1.5**2 / sin(85 deg)**2
    assert PdRx(position=(0, 0, 0), fov=math.radians(85.0), refractive_index=1.5).concentrator == pytest.approx(
        2.2672220990524927, rel=1e-12
    )
    assert PdRx(position=(0, 0, 0), fov=math.pi / 2, refractive_index=1.0).concentrator == pytest.approx(1.0)


def test_los_gain_zero_past_the_field_of_view():
    # the LED straight above a device tilted 84 or 86 degrees: incidence equals the tilt, against an 85-degree FoV
    def tilted(polar_deg):
        orientation = DeviceOrientation(polar=math.radians(polar_deg), azimuth=0.0)
        return PdRx(position=(2.5, 2.5, 0.85), orientation=orientation, fov=math.radians(85.0))

    assert los_gain(TX, tilted(84.0)) > 0.0
    assert los_gain(TX, tilted(86.0)) == 0.0


def test_incidence_cosine_matches_direct_dot_product():
    c = incidence_cosine((2.5, 2.5, 3.0), (1.5, 2.0, 0.85), RX.orientation)
    assert c == pytest.approx(0.7762913377948941, rel=1e-12)


def test_pdrx_validation():
    o = DeviceOrientation(polar=0.0, azimuth=0.0)
    with pytest.raises(ValueError):
        PdRx(position=(0, 0, 0), orientation=o, area=-1e-4, fov=1.0,
             filter_gain=1.0, refractive_index=1.5)
    with pytest.raises(ValueError):
        PdRx(position=(0, 0, 0), orientation=o, area=1e-4, fov=math.pi,
             filter_gain=1.0, refractive_index=1.5)
    with pytest.raises(ValueError):
        PdRx(position=(0, 0, 0), orientation=o, area=1e-4, fov=1.0,
             filter_gain=1.5, refractive_index=1.5)
    with pytest.raises(ValueError):
        PdRx(position=(0, 0, 0), orientation=o, area=1e-4, fov=1.0,
             filter_gain=1.0, refractive_index=0.9)


def test_ledtx_validation_and_order():
    with pytest.raises(ValueError):
        LedTx(position=(0, 0, 3), half_intensity_angle=0.0)
    with pytest.raises(ValueError):
        LedTx(position=(0, 0, 3), optical_power=-1.0)
    assert TX.lambertian_order == pytest.approx(1.0, rel=1e-12)


def test_los_gain_refuses_an_infinite_gain():
    # 1e-160 m apart: d**2 underflows to a subnormal and the Lambertian gain overflows
    tx = LedTx(position=(0.0, 0.0, 1e-160))
    with pytest.raises(ValueError, match="channel gain must be finite and nonnegative, got inf"):
        los_gain(tx, PdRx(position=(0.0, 0.0, 0.0)))


def test_los_gain_hand_value():
    # (m+1) A / (2 pi d**2) cos(phi)**m T G cos(theta) worked out by hand for
    # the fixed TX/RX pair above
    assert los_gain(TX, RX) == pytest.approx(8.463945441881713e-06, rel=1e-9)


def test_los_gain_zero_cases():
    # receiver above the emitter plane: emission cosine <= 0
    high_rx = PdRx(position=(2.5, 2.0, 3.5), orientation=RX.orientation,
                   area=1e-4, fov=math.radians(85.0), filter_gain=1.0,
                   refractive_index=1.5)
    assert los_gain(TX, high_rx) == 0.0

    # device tilted so the AP falls outside the field of view
    tilted = PdRx(position=(1.5, 2.0, 0.85),
                  orientation=DeviceOrientation(polar=math.radians(89.9) / 2 + 0.7,
                                                azimuth=-1.14),
                  area=1e-4, fov=math.radians(20.0), filter_gain=1.0,
                  refractive_index=1.5)
    assert los_gain(TX, tilted) == 0.0


def test_los_gain_rejects_coincident_endpoints():
    with pytest.raises(ValueError, match="coincide"):
        los_gain(TX, PdRx(position=TX.position))


def test_wall_single_patch_hand_value():
    # rho (m+1) A / (2 pi**2 d1**2 d2**2) dA cos(phi1)**m cos(t1) cos(phi2)
    # cos(t2) T G for one 0.01 m**2 patch at (0, 2, 1.5) facing +x
    ps = WallPatchSet([(0.0, 2.0, 1.5)], [(1.0, 0.0, 0.0)], [0.01], [0.6])
    assert wall_first_reflection_gain(TX, RX, ps) == pytest.approx(1.2406173178436825e-09, rel=1e-9)


def test_wall_gain_sums_over_patches():
    def patches(*centers):
        n = len(centers)
        return WallPatchSet(centers, [(1.0, 0.0, 0.0)] * n, [0.01] * n, [0.6] * n)

    lone1 = wall_first_reflection_gain(TX, RX, patches((0.0, 2.0, 1.5)))
    lone2 = wall_first_reflection_gain(TX, RX, patches((0.0, 3.0, 1.2)))
    both = wall_first_reflection_gain(TX, RX, patches((0.0, 2.0, 1.5), (0.0, 3.0, 1.2)))
    assert both == pytest.approx(lone1 + lone2, rel=1e-12)
    assert lone2 > 0.0


def test_wall_gain_occlusion_zeroes_contribution():
    ps = WallPatchSet([(0.0, 2.0, 1.5)], [(1.0, 0.0, 0.0)], [0.01], [0.6])
    # cylinder across the AP -> patch leg
    first_leg = CylinderSet([(1.25, 2.25, 0.0)], radii=0.3, heights=2.6)
    assert wall_first_reflection_gain(TX, RX, ps, blockers=first_leg) == 0.0
    # cylinder across the patch -> device leg
    second_leg = CylinderSet([(0.75, 2.0, 0.0)], radii=0.3, heights=1.6)
    assert wall_first_reflection_gain(TX, RX, ps, blockers=second_leg) == 0.0


def test_wall_gain_skips_patches_facing_away():
    # patch normal pointing into the wall sees neither endpoint
    ps = WallPatchSet([(0.0, 2.0, 1.5)], [(-1.0, 0.0, 0.0)], [0.01], [0.6])
    assert wall_first_reflection_gain(TX, RX, ps) == 0.0


def test_wall_patch_set_tiles_all_four_walls():
    from ris_vlc.geometry import Room

    room = Room(5.0, 4.0, 3.0)
    ps = WallPatchSet.for_room(room, reflectance=0.7, patch_size=0.5)
    assert len(ps) > 0
    assert np.sum(ps.areas) == pytest.approx(2 * (5.0 + 4.0) * 3.0, rel=1e-12)
    # all centers sit on a wall plane, inside the room bounds
    on_x = np.isclose(ps.centers[:, 0], 0.0) | np.isclose(ps.centers[:, 0], 5.0)
    on_y = np.isclose(ps.centers[:, 1], 0.0) | np.isclose(ps.centers[:, 1], 4.0)
    assert np.all(on_x | on_y)
    assert np.all(ps.reflectances == 0.7)
    # normals all point inward
    assert np.all(room.contains(ps.centers + 0.01 * ps.normals))


def test_wall_patch_set_order_is_reproducible():
    from ris_vlc.geometry import Room

    room = Room(5.0, 5.0, 3.0)
    a = WallPatchSet.for_room(room, reflectance=0.7, patch_size=0.3)
    b = WallPatchSet.for_room(room, reflectance=0.7, patch_size=0.3)
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.areas, b.areas)


@pytest.mark.parametrize("centers, normals, areas, reflectances, message", [
    ([(0, 0, 0)], [(1, 0, 0)], [0.0], [0.5], "area must be positive"),
    ([(0, 0, 0)], [(1, 0, 0)], [0.01], [1.2], "reflectance must lie in"),
    ([(0, 0, 0)], [(0, 0, 0)], [0.01], [0.5], "normals must be nonzero and finite"),
    ([(0, 0, 0)], [(math.inf, 0, 0)], [0.01], [0.5], "normals must be nonzero and finite"),
    ([(0, 0, 0)], [(1e300, 1e300, 0)], [0.01], [0.5], "normals must be nonzero and finite"),
    ([(0, math.nan, 0)], [(1, 0, 0)], [0.01], [0.5], "centers must be finite"),
    ([(0, 0, 0), (1, 0, 0)], [(1, 0, 0)], [0.01, 0.01], [0.5, 0.5], "unequal row counts"),
    ([(0, 0, 0)], [(1, 0, 0)], [0.01, 0.01], [0.5], "unequal row counts"),
], ids=["zero-area", "reflectance", "zero-normal", "infinite-normal", "overflowing-normal", "nan-center",
        "normal-rows", "area-rows"])
def test_wall_patch_validation(centers, normals, areas, reflectances, message):
    with pytest.raises(ValueError, match=message):
        WallPatchSet(centers, normals, areas, reflectances)


def test_wall_patch_set_scales_normals_to_unit_length():
    ps = WallPatchSet([(0, 0, 0), (0, 1, 0)], [(2, 0, 0), (0, 3, 4)], [0.01, 0.01], [0.5, 0.5])
    np.testing.assert_array_equal(ps.normals, [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8)])


_PATCH_ARRAYS = ("centers", "normals", "areas", "reflectances")


def _for_room_loop(room, patch_size, reflectance):
    """Reference tiling: one patch at a time, each normal scaled by `geometry.unit`.

    This is the per-patch loop that `WallPatchSet.for_room` replaced with
    one array expression per wall; it returns the arrays.
    """
    patches = []
    for wall in room.walls():
        nu = max(1, round(wall.u_len / patch_size))
        nv = max(1, round(wall.v_len / patch_size))
        du, dv = wall.u_len / nu, wall.v_len / nv
        for j in range(nv):
            for i in range(nu):
                center = (
                    wall.origin
                    + wall.u_axis * ((i + 0.5) * du)
                    + wall.v_axis * ((j + 0.5) * dv)
                )
                patches.append((center, geometry.unit(wall.normal), du * dv, reflectance))
    n = len(patches)
    arrays = {"centers": np.zeros((n, 3)), "normals": np.zeros((n, 3)),
              "areas": np.zeros(n), "reflectances": np.zeros(n)}
    for k, row in enumerate(patches):
        for name, value in zip(_PATCH_ARRAYS, row):
            arrays[name][k] = value
    return arrays


def _assert_same_bits(pset, arrays):
    for name in _PATCH_ARRAYS:
        got, want = getattr(pset, name), arrays[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "dims, patch_size",
    [
        ((5.0, 5.0, 3.0), 0.05),  # 24 000 patches
        ((7.3, 4.1, 2.9), 0.07),  # sizes that do not divide the walls evenly
        ((5.0, 4.0, 3.0), 0.5),
        ((2.0, 1.5, 1.0), 3.0),  # patch larger than every wall: one per wall
        ((1.0, 0.3, 2.5), 0.7),  # patch larger than the short walls only
    ],
)
def test_for_room_matches_per_patch_loop(dims, patch_size):
    room = Room(*dims)
    arrays = _for_room_loop(room, patch_size, 0.7)
    _assert_same_bits(WallPatchSet.for_room(room, patch_size, 0.7), arrays)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(st.floats(0.2, 6.0), st.floats(0.2, 6.0), st.floats(0.2, 4.0)),
    patch_size=st.floats(0.2, 8.0),
    reflectance=st.floats(0.0, 1.0),
)
def test_for_room_matches_per_patch_loop_on_random_rooms(dims, patch_size, reflectance):
    room = Room(*dims)
    arrays = _for_room_loop(room, patch_size, reflectance)
    _assert_same_bits(WallPatchSet.for_room(room, patch_size, reflectance), arrays)


def test_wall_patch_set_empty_and_reflectance_refusals():
    room = Room(7.3, 4.1, 2.9)
    empty = WallPatchSet([], [], [], [])
    assert len(empty) == 0 and empty.centers.shape == (0, 3)
    assert wall_first_reflection_gain(TX, RX, empty) == 0.0
    rows = ([[0, 0, 1], [0, 0, 2]], [[1, 0, 0], [1, 0, 0]])
    assert len(WallPatchSet(*rows, [1.0, 1.0], [0.5, 0.5])) == 2
    for i, name in enumerate(("centers", "normals")):  # a flat list of six numbers is not two rows
        flat = list(rows)
        flat[i] = np.ravel(rows[i]).tolist()
        with pytest.raises(ValueError, match=rf"patch {name} must be a \(K, 3\) array"):
            WallPatchSet(*flat, [1.0, 1.0], [0.5, 0.5])

    for bad in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError):
            WallPatchSet.for_room(room, reflectance=bad)
    with pytest.raises(ValueError):
        WallPatchSet.for_room(room, patch_size=0.0)
