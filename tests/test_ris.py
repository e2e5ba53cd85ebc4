"""Mirror-array geometry and reflected-lobe gains."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris_vlc.channel import LedTx, PdRx
from ris_vlc.geometry import CylinderSet, unit
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.ris import ANGLE_LIMIT, MirrorArray
from ris_vlc.scenario import element_gains


def _one_element(base_normal, yaw=0.0, roll=0.0) -> MirrorArray:
    return MirrorArray(panel_center=(0.0, 0.0, 0.0), base_normal=base_normal, rows=1, cols=1, yaw=yaw, roll=roll)


def test_mirror_normal_hand_value():
    # base normal +x: n = (cos g cos w, sin g cos w, -sin w) at yaw g, roll w
    n = _one_element((1.0, 0.0, 0.0), yaw=0.3, roll=-0.2).normals()[0]
    np.testing.assert_allclose(
        n,
        [0.9362933635841992, 0.28962947762551555, 0.19866933079506122],
        rtol=1e-12,
    )


def test_mirror_normal_identity_at_zero_angles():
    base = unit((0.2, -0.5, 0.8))
    np.testing.assert_allclose(_one_element(base).normals()[0], base, atol=1e-15)


@given(
    st.floats(-ANGLE_LIMIT, ANGLE_LIMIT),
    st.floats(-ANGLE_LIMIT, ANGLE_LIMIT),
)
def test_mirror_normal_is_unit_length(yaw, roll):
    n = _one_element((0.0, 1.0, 0.0), yaw=yaw, roll=roll).normals()[0]
    assert np.linalg.norm(n) == pytest.approx(1.0, rel=1e-12)


def test_mirror_array_validation():
    with pytest.raises(ValueError):
        MirrorArray(panel_center=(0, 0, 0), base_normal=(1, 0, 0), rows=0)
    with pytest.raises(ValueError):
        MirrorArray(panel_center=(0, 0, 0), base_normal=(1, 0, 0), element_size=0.0)
    with pytest.raises(ValueError):
        MirrorArray(panel_center=(0, 0, 0), base_normal=(1, 0, 0), reflectivity=1.2)
    with pytest.raises(ValueError):
        MirrorArray(panel_center=(0, 0, 0), base_normal=(1, 0, 0), beam_spread=0.0)


def test_mirror_array_angle_clamping_and_broadcast():
    arr = MirrorArray(panel_center=(0, 0, 0), base_normal=(1, 0, 0), rows=2, cols=3,
                      yaw=2.0, roll=-2.0)
    assert arr.yaw.shape == (2, 3)
    np.testing.assert_array_equal(arr.yaw, np.full((2, 3), ANGLE_LIMIT))
    np.testing.assert_array_equal(arr.roll, np.full((2, 3), -ANGLE_LIMIT))
    with pytest.raises(ValueError):
        arr.with_angles(np.zeros((3, 2)), np.zeros((3, 2)))


def test_element_centers_grid_layout():
    arr = MirrorArray(panel_center=(0.0, 0.0, 1.0), base_normal=(0.0, 0.0, 1.0),
                      rows=2, cols=2, element_size=0.1)
    centers = arr.element_centers
    assert centers.shape == (4, 3)
    np.testing.assert_allclose(np.mean(centers, axis=0), [0.0, 0.0, 1.0], atol=1e-15)
    # pairwise spacing along each grid axis equals the element size
    d = np.linalg.norm(centers[0] - centers[1])
    assert d == pytest.approx(0.1, rel=1e-12)
    # all centers lie in the panel plane
    np.testing.assert_allclose((centers - arr.panel_center) @ arr.base_normal, 0.0,
                               atol=1e-15)


def test_element_centers_row_major_order():
    arr = MirrorArray(panel_center=(0.0, 0.0, 0.0), base_normal=(0.0, 0.0, 1.0),
                      rows=2, cols=3, element_size=1.0)
    centers = arr.element_centers
    # row-major: the first `cols` entries share the same v offset
    v = np.cross(arr.base_normal, centers[1] - centers[0])
    first_row = centers[:3]
    assert np.ptp(first_row @ unit(v)) < 1e-12


TX = LedTx(position=(-1.0, 0.0, 1.2),
           normal=unit((1.0, 0.0, -1.2)),
           half_intensity_angle=math.radians(60.0), optical_power=2.0)
RX = PdRx(position=(0.9, 0.1, 1.1),
          orientation=DeviceOrientation(polar=math.pi / 2, azimuth=math.pi),
          area=1e-4, fov=math.radians(85.0), filter_gain=1.0, refractive_index=1.5)
ARR = MirrorArray(panel_center=(0.0, 0.0, 0.0), base_normal=(0.0, 0.0, 1.0),
                  rows=1, cols=1, element_size=0.1, reflectivity=0.95,
                  beam_spread=math.radians(2.0))


def test_mirror_element_gain_hand_value():
    # rho (m+1)A_m/(2 pi d1**2) cos t1 * exp(-psi**2/2s**2)/(2 pi s**2 d2**2)
    # * A cos t2 G, worked out by hand for the fixed geometry above
    got = element_gains(TX, ARR, RX)[0]
    assert got == pytest.approx(1.1204339454029585e-06, rel=1e-9)


def _lone_element_gain(tx, array, rx, center, yaw, roll):
    """One element's gain from a 1 x 1 panel at its center and angles."""
    one = dataclasses.replace(array, panel_center=center, rows=1, cols=1, yaw=float(yaw), roll=float(roll))
    return element_gains(tx, one, rx)[0]


def test_element_gains_match_single_element_calls():
    arr = MirrorArray(panel_center=(0.0, 0.0, 0.0), base_normal=(0.0, 0.0, 1.0),
                      rows=2, cols=2, element_size=0.1, reflectivity=0.95,
                      beam_spread=math.radians(2.0),
                      yaw=np.array([[0.0, 0.05], [-0.03, 0.1]]),
                      roll=np.array([[0.02, 0.0], [0.04, -0.06]]))
    gains = element_gains(TX, arr, RX)
    assert gains.shape == (4,)
    for i, center in enumerate(arr.element_centers):
        yaw = arr.yaw.ravel()[i]
        roll = arr.roll.ravel()[i]
        assert gains[i] == pytest.approx(_lone_element_gain(TX, arr, RX, center, yaw, roll), rel=1e-12)


def test_element_gains_angle_overrides_broadcast():
    gains_stored = element_gains(TX, ARR, RX)
    gains_same = element_gains(TX, ARR, RX, yaw=0.0, roll=0.0)
    np.testing.assert_array_equal(gains_stored, gains_same)
    # overrides clamp like the constructor does
    clamped = element_gains(TX, ARR, RX, yaw=2.0, roll=0.0)
    built = element_gains(TX, ARR.with_angles(2.0, 0.0), RX)
    np.testing.assert_array_equal(clamped, built)


def test_aligned_mirror_beats_perturbed_angles():
    # steer the element's specular direction exactly at the receiver, then
    # check small misalignments only lose gain
    best = None
    grid = np.linspace(-0.6, 0.6, 121)
    for yaw in grid:
        for roll in grid:
            h = element_gains(TX, ARR, RX, yaw=yaw, roll=roll)[0]
            if best is None or h > best[0]:
                best = (h, yaw, roll)
    h0, yaw0, roll0 = best
    assert h0 > 0.0
    for dy, dr in ((0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3)):
        assert element_gains(TX, ARR, RX, yaw=yaw0 + dy, roll=roll0 + dr)[0] < h0


def test_element_gain_blocked_legs():
    first_leg = CylinderSet([(-0.5, 0.0, 0.0)], radii=0.2, heights=1.5)
    assert element_gains(TX, ARR, RX, first_leg)[0] == 0.0
    second_leg = CylinderSet([(0.45, 0.05, 0.0)], radii=0.2, heights=1.5)
    assert element_gains(TX, ARR, RX, second_leg)[0] == 0.0
    off_path = CylinderSet([(5.0, 5.0, 0.0)], radii=0.2, heights=1.5)
    assert element_gains(TX, ARR, RX, off_path)[0] == pytest.approx(1.1204339454029585e-06, rel=1e-9)


def test_element_gain_zero_when_receiver_faces_away():
    rx_away = PdRx(position=(0.9, 0.1, 1.1),
                   orientation=DeviceOrientation(polar=math.pi / 2, azimuth=0.0),
                   area=1e-4, fov=math.radians(85.0), filter_gain=1.0,
                   refractive_index=1.5)
    assert element_gains(TX, ARR, rx_away)[0] == 0.0
