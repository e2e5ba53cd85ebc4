"""Shared fixtures: a CLI runner, a small scenario document, the occluders of one user's links,
the whole-pass polar-angle sampler and the parallel-branch capacity bound."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ris_vlc.geometry import CylinderSet
from ris_vlc.orientation import POLAR_MAX

# Single-element mirror deployment with a pinned user; cheap to simulate and
# exercises every config section.
SMALL_SCENARIO = {
    "room": {"length": 5.0, "width": 5.0, "height": 3.0, "wall_reflectance": 0.7,
             "wall_patch_size": 0.5},
    "aps": [{"position": [2.5, 2.5, 3.0], "half_intensity_angle_deg": 60.0,
             "optical_power_w": 2.0}],
    "users": [
        {"position": [4.0, 2.5, 0.75],
         "orientation": {"polar_deg": 0.0, "azimuth_deg": -90.0}},
        {"position": [1.5, 1.5, 0.75],
         "orientation": {"polar_deg": 10.0, "azimuth_deg": 30.0}},
    ],
    "blockers": {"positions": [[3.7, 2.45]]},
    "ris": [{"center": [5.0, 3.5, 1.5], "normal": [-1.0, 0.0, 0.0],
             "rows": 1, "cols": 1, "element_size": 0.3}],
    "noise": {"psd": 5e-20, "bandwidth": 2e7},
    "constraints": {"peak": 2.0, "average_total": 2.0},
    "orientation": {"mean_polar_deg": 41.0, "std_polar_deg": 9.0},
}


@pytest.fixture
def small_scenario_text():
    return json.dumps(SMALL_SCENARIO)


@pytest.fixture
def small_scenario_path(tmp_path, small_scenario_text):
    path = tmp_path / "small.json"
    path.write_text(small_scenario_text)
    return str(path)


def run_cli(*args, env=None, cwd=None):
    """Run the CLI in a subprocess; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "ris_vlc.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def cli():
    return run_cli


def occluders_of(scenario, user) -> CylinderSet:
    """The scenario blockers, plus the realized user's body row when it self-blocks: the
    body stands `body_offset` from the device along the device-normal azimuth."""
    if not user.self_blockage:
        return scenario.blockers
    azimuth, (x, y, _) = user.fixed_orientation.azimuth, user.position
    body = (x + user.body_offset * math.cos(azimuth), y + user.body_offset * math.sin(azimuth), 0.0)
    blockers = scenario.blockers
    return CylinderSet(np.vstack([blockers.bases, body]), np.append(blockers.radii, user.body_radius),
                       np.append(blockers.heights, user.body_height))


def whole_pass_polar_angles(model, rng, n):
    """`orientation.sample_polar_angles` as it was: each rejection pass draws its
    max(n - have, 16) uniforms in one call, so its temporaries grow with n."""
    if model.std_polar == 0.0:
        return np.full(n, model.mean_polar)
    out = np.empty(n)
    have = 0
    while have < n:
        u = rng.uniform(size=max(n - have, 16))
        w = u - 0.5
        with np.errstate(divide="ignore"):
            draw = model.mean_polar - model.scale * np.sign(w) * np.log1p(-2.0 * np.abs(w))
        keep = draw[(draw >= 0.0) & (draw <= POLAR_MAX)]
        take = min(len(keep), n - have)
        out[have : have + take] = keep[:take]
        have += take
    return out


def parallel_branch_bits(gains, peak, noise_variance) -> float:
    """Capacity of decoupled branches, sum over g of 1/2 log2(1 + 2 g^2 X^2 / (2 pi e sigma^2)):
    the per-branch peak-intensity bound that the `mimo` docstring sums, written from the formula."""
    g = np.asarray(gains, dtype=float)
    return float(np.sum(0.5 * np.log2(1.0 + 2.0 * g * g * peak * peak / (2.0 * np.pi * np.e * noise_variance))))
