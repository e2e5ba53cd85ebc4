"""Dead-zone studies against closed forms that share no code with the simulator.

LoS blockage: K cylinders of radius r and height H are dropped independently
and uniformly on [r, L - r] x [r, W - r]. One blocks the AP -> device segment
exactly when its axis lies within r of the segment's xy shadow below height H:
a stadium of area 2 r l + pi r**2, where l is the xy length of that shadow.
With the stadium inside the base region,

    P(LoS clear) = (1 - (2 r l + pi r**2) / ((L - 2 r)(W - 2 r)))**K.

FoV exclusion: a device pinned where the AP lies at polar angle theta_d
from it, tilted by a and facing azimuth b, sees the AP at incidence cos
theta = sin a sin theta_d cos(b - phi_d) + cos a cos theta_d. With b uniform,

    P(cos theta < cos FoV | a) = 1 - arccos(x) / pi,
    x = (cos FoV - cos a cos theta_d) / (sin a sin theta_d), clipped to [-1, 1],

and the excluded fraction is its mean over the truncated Laplace density of a.

Body blockage: the body is a cylinder of radius r whose axis stands d > r from
the device along b. Where the link's xy shadow runs past that disc below the
body's top, the body cuts the link exactly when |b - phi_d| <= w = arcsin(r / d),
so the visible share is 1 - 2 w / (2 pi). The visible links are those with
|b - phi_d| > w, so the excluded fraction among them is the mean of
(pi - max(arccos(x), w)) / (pi - w) over a.
"""

import math

import numpy as np
import pytest

from ris_vlc.channel import LedTx
from ris_vlc.geometry import Room
from ris_vlc.orientation import DeviceOrientation, OrientationModel
from ris_vlc import scenario
from ris_vlc.scenario import BlockerPopulation, Scenario, UserSpec, orientation_study, run_study


# a non-square room, so a draw with length and width swapped misses the stadium at x in [3.75, 4.65]
_ROOM = Room(6.0, 4.0, 3.0)
_AP = (3.0, 2.0, 3.0)
_DEVICE = (4.5, 2.0, 0.75)
_TRIALS = 2000


def _clear_probability(count: int, radius: float, height: float) -> float:
    (ax, ay, az), (dx, dy, dz) = _AP, _DEVICE
    below = min(1.0, (height - dz) / (az - dz))  # share of the segment, from the device, under the tops
    ends = [(dx, dy), (dx + below * (ax - dx), dy + below * (ay - dy))]  # the xy shadow
    for axis, size in enumerate((_ROOM.length, _ROOM.width)):  # the stadium lies inside the base region
        assert radius <= min(e[axis] for e in ends) - radius and max(e[axis] for e in ends) + radius <= size - radius
    stadium = 2.0 * radius * math.dist(*ends) + math.pi * radius**2
    return (1.0 - stadium / ((_ROOM.length - 2.0 * radius) * (_ROOM.width - 2.0 * radius))) ** count


@pytest.mark.parametrize("count, seed", [(5, 11), (15, 12)])
def test_los_clear_fraction_matches_the_stadium_formula(count, seed):
    population = BlockerPopulation(count=count)
    user = UserSpec(position=_DEVICE, fixed_orientation=DeviceOrientation(polar=0.0, azimuth=0.0),
                    self_blockage=False)
    s = Scenario(room=_ROOM, aps=(LedTx(position=_AP),), users=(user,), blocker_population=population,
                 wall_patch_size=3.0)
    clear = sum(bool(trial.los_visible[0]) for trial in run_study(s, _TRIALS, master_seed=seed))
    p = _clear_probability(count, population.radius, population.height)
    z = (clear - _TRIALS * p) / math.sqrt(_TRIALS * p * (1.0 - p))
    print(f"K = {count}: {clear}/{_TRIALS} clear against P = {p:.4f}, z = {z:+.2f}")
    assert abs(z) <= 4.0


def _excluded_probability(model: OrientationModel, fov: float, theta_d: float, arc: float = 0.0) -> float:
    """P(cos theta < cos FoV | |b - phi_d| > arc) by Gauss-Legendre quadrature over a in [0, pi/2], split
    where the integrand has a kink: the Laplace peak, and where x reaches -1 or 1 (a = |theta_d -+ FoV|)."""
    mu, b = model.mean_polar, model.std_polar / math.sqrt(2.0)  # the Laplace scale
    kinks = {mu, abs(theta_d - fov), theta_d + fov}
    cuts = sorted({0.0, math.pi / 2} | {c for c in kinks if 0.0 < c < math.pi / 2})
    nodes, weights = np.polynomial.legendre.leggauss(96)
    mass = excluded = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        a, w = lo + (hi - lo) * (nodes + 1.0) / 2.0, weights * (hi - lo) / 2.0
        density = w * np.exp(-np.abs(a - mu) / b)
        x = (math.cos(fov) - np.cos(a) * math.cos(theta_d)) / (np.sin(a) * math.sin(theta_d))
        mass += density.sum()
        excluded += (density * (math.pi - np.maximum(np.arccos(np.clip(x, -1.0, 1.0)), arc))).sum() / (math.pi - arc)
    return excluded / mass


_SAMPLES = 200_000
_FOV_CASES = {  # room, AP, pinned device, FoV, orientation model
    "corner-led": (Room(5.0, 5.0, 3.0), (0.0, 0.0, 2.0), (4.0, 3.0, 0.75), 85.0, OrientationModel()),
    "ceiling-led": (_ROOM, _AP, _DEVICE, 60.0, OrientationModel(math.radians(30.0), math.radians(15.0))),
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("case", sorted(_FOV_CASES))
def test_fov_excluded_fraction_matches_the_quadrature(case, seed):
    room, ap, device, fov_deg, model = _FOV_CASES[case]
    user = UserSpec(position=device, fov=math.radians(fov_deg), self_blockage=False)
    s = Scenario(room=room, aps=(LedTx(position=ap),), users=(user,), orientation_model=model, wall_patch_size=3.0)
    d = np.subtract(ap, device)
    p = _excluded_probability(model, user.fov, math.acos(d[2] / np.linalg.norm(d)))
    got = orientation_study(s, _SAMPLES, master_seed=seed)  # no blockers: every link is visible
    z = (got - p) / math.sqrt(p * (1.0 - p) / _SAMPLES)
    print(f"{case}, seed {seed}: excluded {got:.5f} against P = {p:.5f}, z = {z:+.2f}")
    assert abs(z) <= 4.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("case", sorted(_FOV_CASES))
def test_body_blockage_matches_the_arc(monkeypatch, case, seed):
    room, ap, device, fov_deg, model = _FOV_CASES[case]
    user = UserSpec(position=device, fov=math.radians(fov_deg))  # self-blockage on, the default body
    s = Scenario(room=room, aps=(LedTx(position=ap),), users=(user,), orientation_model=model, wall_patch_size=3.0)
    d = np.subtract(ap, device)
    run = math.hypot(d[0], d[1])  # the xy length of the link
    reach = user.body_offset + user.body_radius  # the far side of the body's disc, from the device
    assert user.body_radius < user.body_offset and reach < run
    assert device[2] + d[2] * reach / run <= user.body_height  # the link is below the top across the disc
    arc = math.asin(user.body_radius / user.body_offset)
    p = 1.0 - 2.0 * arc / (2.0 * math.pi)
    q = _excluded_probability(model, user.fov, math.acos(d[2] / np.linalg.norm(d)), arc)
    blocked, original = [], scenario.segments_blocked_each

    def spy(*args):
        hit = original(*args)
        blocked.append(int(np.count_nonzero(hit)))
        return hit

    monkeypatch.setattr(scenario, "segments_blocked_each", spy)
    got = orientation_study(s, _SAMPLES, master_seed=seed)
    visible = _SAMPLES - sum(blocked)  # the body is the only blocker
    z_seen = (visible - _SAMPLES * p) / math.sqrt(_SAMPLES * p * (1.0 - p))
    z_excluded = (got - q) / math.sqrt(q * (1.0 - q) / visible)
    print(f"{case}, seed {seed}: visible {visible / _SAMPLES:.5f} against {p:.5f}, z = {z_seen:+.2f}; "
          f"excluded {got:.5f} against {q:.5f}, z = {z_excluded:+.2f}")
    assert abs(z_seen) <= 4.0 and abs(z_excluded) <= 4.0
