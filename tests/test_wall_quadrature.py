"""The first-order wall reflection against an independent quadrature of the integral it discretizes.

`Scenario` sums the diffuse bounce over wall patches at their centers. The oracle below integrates
the same first-bounce model over each wall with a tensor Gauss-Legendre rule, the wall's height
split at the receiver, and every gate (LED half-space, wall sides, FoV) applied pointwise. It uses
NumPy only and shares no code with `channel.py`.
"""

import math

import numpy as np
import pytest

from ris_vlc.channel import LedTx
from ris_vlc.geometry import Room
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.scenario import Scenario, UserSpec


LENGTH, WIDTH, HEIGHT, RHO = 5.0, 5.0, 3.0, 0.7
AREA, FOV, LENS_INDEX = 1e-4, math.radians(85.0), 1.5  # the UserSpec receiver defaults
BOUND = 2e-3  # |relative error| at 0.02 m patches
_CORNER_NORMAL = np.array([1.0, 1.0, -0.5]) / math.sqrt(2.25)


def quadrature_wall_gain(led, led_normal, rx, polar, azimuth, nodes):
    """rho (m+1) A / (2 pi^2) * integral over the four walls of
    cos^m(phi1) cos(t1) cos(phi2) cos(t2) G / (d1^2 d2^2) dA, for a Lambertian order m = 1 LED."""
    led, led_normal, rx = (np.asarray(v, dtype=float) for v in (led, led_normal, rx))
    rx_normal = np.array([math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
                          math.cos(polar)])
    concentrator = LENS_INDEX**2 / math.sin(FOV) ** 2
    x, w = np.polynomial.legendre.leggauss(nodes)

    def rule(a, b):
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    total = 0.0
    for axis, plane, inward in ((0, 0.0, 1.0), (0, LENGTH, -1.0), (1, 0.0, 1.0), (1, WIDTH, -1.0)):
        s, ws = rule(0.0, WIDTH if axis == 0 else LENGTH)
        (z_lo, wz_lo), (z_hi, wz_hi) = rule(0.0, rx[2]), rule(rx[2], HEIGHT)
        z, wz = np.concatenate([z_lo, z_hi]), np.concatenate([wz_lo, wz_hi])
        point = np.zeros((len(s), len(z), 3))
        point[..., axis] = plane
        point[..., 1 - axis] = s[:, None]
        point[..., 2] = z[None, :]
        wall_normal = np.zeros(3)
        wall_normal[axis] = inward
        to_wall, to_rx = point - led, rx - point
        d1, d2 = np.linalg.norm(to_wall, axis=-1), np.linalg.norm(to_rx, axis=-1)
        cos_phi1 = to_wall @ led_normal / d1
        cos_t1 = -(to_wall @ wall_normal) / d1
        cos_phi2 = to_rx @ wall_normal / d2
        cos_t2 = -(to_rx @ rx_normal) / d2
        seen = (cos_phi1 > 0.0) & (cos_t1 > 0.0) & (cos_phi2 > 0.0) & (cos_t2 >= math.cos(FOV)) & (cos_t2 >= 0.0)
        integrand = np.where(seen, cos_phi1 * cos_t1 * cos_phi2 * cos_t2 / (d1**2 * d2**2), 0.0)
        total += float(ws @ integrand @ wz)
    return RHO * 2.0 * AREA / (2.0 * math.pi**2) * concentrator * total


def simulated_wall_gain(led, led_normal, rx, polar, azimuth, patch_size):
    user = UserSpec(position=rx, fixed_orientation=DeviceOrientation(polar, azimuth), self_blockage=False)
    scenario = Scenario(room=Room(LENGTH, WIDTH, HEIGHT), aps=(LedTx(position=led, normal=led_normal),),
                        users=(user,), wall_reflectance=RHO, wall_patch_size=patch_size)
    return scenario.evaluate_links()[0].h_wall


CASES = {
    # the ceiling-center LED of benchmark_scenario over a face-up receiver 0.3 m from two walls
    "face-up-near-corner": ((2.5, 2.5, 3.0), (0.0, 0.0, -1.0), (0.3, 0.3, 0.75), 0.0, 0.0),
    # the same LED over a receiver tilted 30 degrees toward the x = 0, y = 5 corner
    "tilted": ((2.5, 2.5, 3.0), (0.0, 0.0, -1.0), (3.5, 1.5, 0.85), math.radians(30.0), math.radians(135.0)),
    # the wall-corner LED of orientation_benchmark_scenario over a face-up receiver
    "corner-led": ((0.0, 0.0, 2.0), _CORNER_NORMAL, (3.0, 4.0, 0.75), 0.0, 0.0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_wall_patch_sum_converges_to_the_quadrature(case):
    reference = quadrature_wall_gain(*case, nodes=300)
    # the oracle itself: doubling the nodes moves it by a tenth of the bound at most
    assert abs(quadrature_wall_gain(*case, nodes=600) / reference - 1.0) <= BOUND / 10.0
    errors = {size: simulated_wall_gain(*case, size) / reference - 1.0 for size in (0.25, 0.1, 0.02)}
    print("wall gain vs quadrature: " + ", ".join(f"{size} m {e:+.2e}" for size, e in errors.items()))
    assert abs(errors[0.02]) <= BOUND
