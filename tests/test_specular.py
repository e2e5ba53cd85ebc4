"""Closed-form specular steering: the mirror angles that send the LED's light onto the receiver.

An element whose normal bisects the incoming direction u1 (LED to element) and the outgoing one u2
(element to receiver), n = unit(u2 - u1), reflects u1 onto u2. `MirrorArray._frame`'s yaw-then-roll
normal has a closed-form inverse: yaw about z leaves a normal's z component alone, so the roll alone
fixes n_z = b_z cos w + (h x b)_z sin w, and the yaw then turns the horizontal part onto n's.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc import metrics
from ris_vlc.optimize import PsoParams, ScaParams, optimize_mirror_angles
from ris_vlc.ris import ANGLE_LIMIT, MirrorArray, _mirror_normals
from ris_vlc.scenario import blocked_benchmark_scenario, single_mirror_benchmark_scenario


def _wrap(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def specular_angles(frame, normal):
    """The (yaw, roll) inside +-pi/2 whose `_mirror_normals` in `frame` is the unit `normal`, or None.

    With c = h x b, n = Rz(yaw) (b cos w + c sin w). As b, h, c are orthonormal and h is level,
    (b_z, c_z) = (cos d, sin d) for some d, and at w = d + t the unyawed normal is z cos t + e sin t
    with e = c cos d - b sin d level. So cos t = n_z, sin t = +-|n_xy|, and the yaw turns +-e onto
    n's level part. Of the two roots, the one whose yaw and roll both lie in +-pi/2.
    """
    b, h = frame
    c = np.cross(h, b)
    d = math.atan2(c[2], b[2])
    e = c * math.cos(d) - b * math.sin(d)
    level = math.hypot(normal[0], normal[1])
    for sign in (1.0, -1.0):
        roll = _wrap(d + math.atan2(sign * level, normal[2]))
        yaw = _wrap(math.atan2(normal[1], normal[0]) - math.atan2(sign * e[1], sign * e[0]))
        if abs(yaw) <= ANGLE_LIMIT and abs(roll) <= ANGLE_LIMIT:
            return yaw, roll
    return None


def _unit(v):
    return v / np.linalg.norm(v)


def specular_pairs(scenario):
    """Per-element (yaw, roll) matrices steering every element from the one LED onto the one user."""
    (ap,), (user,) = scenario.aps, scenario.users
    pairs = []
    for panel in scenario.ris_panels:
        angles = []
        for center in panel.element_centers:
            normal = _unit(_unit(user.position - center) - _unit(center - ap.position))
            angles.append(specular_angles(panel._frame, normal))
        yaw, roll = np.array(angles).T.reshape(2, panel.rows, panel.cols)
        pairs.append((yaw, roll))
    return pairs


_PANEL_NORMALS = {
    "wall": st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]),
    "ceiling": st.just((0.0, 0.0, -1.0)),
    "oblique": st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.2, 1.2).filter(lambda t: abs(t) > 0.05)).map(
        lambda a: (math.cos(a[0]) * math.cos(a[1]), math.sin(a[0]) * math.cos(a[1]), math.sin(a[1]))),
}
_INSIDE = st.floats(-0.95 * ANGLE_LIMIT, 0.95 * ANGLE_LIMIT)


@pytest.mark.parametrize("kind", _PANEL_NORMALS)
@settings(max_examples=200, deadline=None)
@given(data=st.data(), yaw=_INSIDE, roll=_INSIDE)
def test_closed_form_angles_rebuild_the_bisector_and_reflect_u1_onto_u2(kind, data, yaw, roll):
    frame = MirrorArray(panel_center=(0.0, 0.0, 0.0), base_normal=data.draw(_PANEL_NORMALS[kind]))._frame
    target = _mirror_normals(yaw, roll, *frame)  # a normal the panel reaches
    # light arriving on the mirror's face along u1 leaves along its reflection u2
    polar, azimuth = data.draw(st.floats(0.0, 1.4)), data.draw(st.floats(-math.pi, math.pi))
    tangent = _unit(np.cross(target, (1.0, 0.0, 0.0) if abs(target[0]) < 0.9 else (0.0, 1.0, 0.0)))
    spin = math.cos(azimuth) * tangent + math.sin(azimuth) * np.cross(target, tangent)
    u1 = -math.cos(polar) * target + math.sin(polar) * spin
    u2 = u1 - 2.0 * np.dot(u1, target) * target
    normal = _unit(u2 - u1)

    angles = specular_angles(frame, normal)
    assert angles is not None
    rebuilt = _mirror_normals(*angles, *frame)
    assert np.abs(rebuilt - normal).max() <= 1e-12
    assert np.abs(u1 - 2.0 * np.dot(u1, rebuilt) * rebuilt - u2).max() <= 1e-12


SEARCHES = [
    ("sca", "identical", dict(sca_params=ScaParams(population=10, iterations=20))),
    ("pso", "per-element", dict(pso_params=PsoParams(population=10, iterations=20))),
    ("grid", "identical", dict(grid_resolution=181)),
]


@pytest.mark.parametrize("build", [blocked_benchmark_scenario, single_mirror_benchmark_scenario],
                         ids=["blocked", "single-mirror"])
def test_no_search_beats_the_closed_form(build):
    scenario = build()
    closed_form = metrics.sum_rate(scenario, specular_pairs(scenario))
    wall_only = metrics.sum_rate(dataclasses.replace(scenario, ris_panels=()))
    found = {f"{algorithm} {mode} seed {seed}": optimize_mirror_angles(scenario, algorithm, mode, seed=seed,
                                                                     **params).sum_rate
             for algorithm, mode, params in SEARCHES for seed in ((1, 2) if algorithm != "grid" else (0,))}
    print(f"closed form {closed_form / wall_only:.2f}x wall-only; searches: "
          + ", ".join(f"{name} {rate / wall_only:.2f}x" for name, rate in found.items()))
    assert all(rate <= closed_form for rate in found.values())
