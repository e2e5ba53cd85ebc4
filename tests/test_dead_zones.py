"""Dead-zone studies against closed forms that share no code with the simulator.

LoS blockage: K cylinders of radius r and height H are dropped independently
and uniformly on [r, L - r] x [r, W - r]. One blocks the AP -> device segment
exactly when its axis lies within r of the segment's xy shadow below height H:
a stadium of area 2 r l + pi r**2, where l is the xy length of that shadow.
With the stadium inside the base region,

    P(LoS clear) = (1 - (2 r l + pi r**2) / ((L - 2 r)(W - 2 r)))**K.
"""

import math

import pytest

from ris_vlc.channel import LedTx
from ris_vlc.geometry import Room
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.scenario import BlockerPopulation, Scenario, UserSpec, run_study

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
