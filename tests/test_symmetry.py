"""Symmetries of the square room as oracles that do not depend on the code's past.

The `==` oracles elsewhere compare the code with earlier versions of itself,
so a convention error present since the first version passes all of them:
the sign of yaw on one wall, the order of the wall tiling, or the frame of an
oblique panel. Two maps of the 5 x 5 m room carry a realized deployment onto
another one whose every gain must be the same:

- a 90 degree rotation about the vertical axis through the room's center:
  positions, AP and panel normals and blocker bases rotate, each device
  azimuth gains pi/2, and the mirror angle matrices stay as they are;
- the reflection x -> L - x: normals reflect, each device azimuth b becomes
  pi - b, and each panel's columns reverse while its yaw changes sign and its
  roll stays;
- the reflection y -> W - y, the one of the three that keeps the frame of a
  ceiling panel (its horizontal axis falls back to h = x, which the other two
  maps turn or reverse): normals reflect, each device azimuth b becomes -b,
  a wall panel maps as in x -> L - x, and a ceiling panel's rows reverse while
  its yaw and its roll both change sign.

Only the order of floating-point sums changes (the wall patches of the
mapped room are the same set in another order), so the gains agree to a
relative 1e-9, with an absolute floor for gains in the subnormal range.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc.channel import LedTx
from ris_vlc.geometry import CylinderSet
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.ris import ANGLE_LIMIT, MirrorArray
from ris_vlc.scenario import benchmark_scenario, realize

SIDE = 5.0
RTOL, ATOL = 1e-9, 1e-290

# the benchmark deployment with a second, off-axis AP, fixed blockers and a panel on three of the four walls
TEMPLATE = dataclasses.replace(
    benchmark_scenario(),
    aps=(LedTx(position=(2.5, 2.5, 3.0)), LedTx(position=(1.2, 3.6, 2.8), normal=(0.2, -0.1, -1.0))),
    blockers=CylinderSet([(1.5, 1.0, 0.0), (3.6, 3.9, 0.0)], radii=[0.2, 0.3], heights=[1.2, 1.9]),
    ris_panels=(MirrorArray((0.0, 2.5, 1.5), (1.0, 0.0, 0.0), 3, 4),
                MirrorArray((SIDE, 1.5, 1.2), (-1.0, 0.0, 0.0), 2, 3),
                MirrorArray((3.0, 0.0, 1.8), (0.0, 1.0, 0.0), 2, 2)),
)
# plus a ceiling panel facing down and an uplight that lights it; its 0.3 rad beam spread gives about 60 % of
# its (user, AP) links a gain above 1e-12 under random angles
CEILING = dataclasses.replace(
    TEMPLATE, aps=TEMPLATE.aps + (LedTx(position=(1.0, 4.0, 1.0), normal=(0.3, -0.3, 1.0)),),
    ris_panels=TEMPLATE.ris_panels + (MirrorArray((3.2, 3.4, 2.9), (0.0, 0.0, -1.0), 3, 4, beam_spread=0.3),))


def _rotate(point):
    """The 90 degree rotation about the room's vertical center axis, on a point or (n, 3) points."""
    p = np.asarray(point, dtype=float)
    return np.stack([SIDE - p[..., 1], p[..., 0], p[..., 2]], axis=-1)


def _turn(vector):
    v = np.asarray(vector, dtype=float)
    return np.array([-v[1], v[0], v[2]])


def _mirror(point, axis=0):
    """The reflection x -> L - x (axis 0) or y -> W - y (axis 1), on a point or (n, 3) points."""
    p = np.array(point, dtype=float)
    p[..., axis] = SIDE - p[..., axis]
    return p


def _flip(vector, axis=0):
    v = np.array(vector, dtype=float)
    v[axis] = -v[axis]
    return v


def _wall_or_ceiling(panel):
    """The angles of `panel` under y -> W - y. The ceiling frame (b = -z, h = x) is kept, so its element rows,
    which run along -y, reverse, and n = (-sin(yaw) sin(roll), cos(yaw) sin(roll), -cos(roll)) asks for both
    signs; a wall panel's horizontal axis reverses, as under x -> L - x."""
    if panel.base_normal[2] != 0.0:
        return dict(yaw=-panel.yaw[::-1], roll=-panel.roll[::-1])
    return dict(yaw=-panel.yaw[:, ::-1], roll=panel.roll[:, ::-1])


def _mapped(s, point, vector, azimuth, angles):
    """The realized scenario `s` with every point, direction, device azimuth and panel angle pair mapped."""
    users = tuple(dataclasses.replace(
        user, position=point(user.position),
        fixed_orientation=DeviceOrientation(user.fixed_orientation.polar, azimuth(user.fixed_orientation.azimuth)))
        for user in s.users)
    aps = tuple(dataclasses.replace(ap, position=point(ap.position), normal=vector(ap.normal)) for ap in s.aps)
    panels = tuple(dataclasses.replace(panel, panel_center=point(panel.panel_center),
                                       base_normal=vector(panel.base_normal), **angles(panel))
                   for panel in s.ris_panels)
    blockers = CylinderSet(point(s.blockers.bases), s.blockers.radii, s.blockers.heights)
    return dataclasses.replace(s, users=users, aps=aps, ris_panels=panels, blockers=blockers)


MAPS = {
    "rotation": (_rotate, _turn, lambda b: math.remainder(b + math.pi / 2.0, 2.0 * math.pi),
                 lambda panel: dict(yaw=panel.yaw, roll=panel.roll)),
    "reflection": (_mirror, _flip, lambda b: math.remainder(math.pi - b, 2.0 * math.pi),
                   lambda panel: dict(yaw=-panel.yaw[:, ::-1], roll=panel.roll[:, ::-1])),
    "y-reflection": (lambda p: _mirror(p, 1), lambda v: _flip(v, 1), lambda b: -b, _wall_or_ceiling),
}


def _deployment(seed, template=TEMPLATE):
    """A realized trial of `template` with per-element mirror angles drawn from the same seed."""
    rng = np.random.default_rng(seed)
    s = realize(template, rng)
    panels = tuple(panel.with_angles(*rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT, (2, panel.rows, panel.cols)))
                   for panel in s.ris_panels)
    return dataclasses.replace(s, ris_panels=panels)


def _assert_same_gains(s, mapped):
    for name in ("h_los", "h_wall"):  # every (user, AP) link, not only the serving ones
        np.testing.assert_allclose(getattr(mapped._link_table, name), getattr(s._link_table, name),
                                   rtol=RTOL, atol=ATOL, err_msg=name)
    got, want = mapped.evaluate_links(), s.evaluate_links()
    assert np.array_equal(got.serving_ap, want.serving_ap)
    assert np.array_equal(got.los_visible, want.los_visible) and np.array_equal(got.fov_ok, want.fov_ok)
    for name in ("h_ris", "rates"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=ATOL, err_msg=name)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_quarter_turn_of_the_room_keeps_every_gain(seed):
    s = _deployment(seed)
    _assert_same_gains(s, _mapped(s, *MAPS["rotation"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_mirror_image_of_the_room_keeps_every_gain(seed):
    s = _deployment(seed)
    _assert_same_gains(s, _mapped(s, *MAPS["reflection"]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_mirror_image_across_y_keeps_every_gain_with_a_ceiling_panel(seed):
    s = _deployment(seed, CEILING)
    _assert_same_gains(s, _mapped(s, *MAPS["y-reflection"]))


def test_the_maps_move_every_panel_onto_another_wall():
    s = _deployment(0)
    for name, expected in [("rotation", [(0.0, 1.0), (0.0, -1.0), (-1.0, 0.0)]),
                           ("reflection", [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])]:
        mapped = _mapped(s, *MAPS[name])
        assert [tuple(panel.base_normal[:2]) for panel in mapped.ris_panels] == expected, name
        assert mapped.room == s.room and len(mapped.wall_patches) == len(s.wall_patches)
