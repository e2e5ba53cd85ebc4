"""Shared fixtures: a CLI runner, a small scenario document, spies on the loader's constructors, the
occluders of one user's links, the single-link leg and wall-gain oracles, the whole-pass polar-angle
sampler and the parallel-branch capacity bound."""

import collections
import functools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ris_vlc import scenario
from ris_vlc.channel import ReflectionLegs, _legs, _wall_gain, checked_gain
from ris_vlc.geometry import CylinderSet, segments_blocked
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


# the constructors `scenario._scenario_from_document` builds a document with
LOADER_CONSTRUCTORS = ("Room", "LedTx", "DeviceOrientation", "UserSpec", "BlockerPopulation", "CylinderSet",
                       "MirrorArray", "NoiseModel", "IntensityConstraints", "OrientationModel", "Scenario")


def _counted(builds, name, make, *args, **kwargs):
    builds[name] += 1
    return make(*args, **kwargs)


@pytest.fixture
def constructor_builds(monkeypatch):
    """A Counter of the calls of each loader constructor, by name."""
    builds = collections.Counter()
    for name in LOADER_CONSTRUCTORS:
        monkeypatch.setattr(scenario, name, functools.partial(_counted, builds, name, getattr(scenario, name)))
    return builds


def sections_of(doc) -> collections.Counter:
    """The builds of each loader constructor that loading `doc` takes: one per section or list entry."""
    users = doc.get("users", [])
    return collections.Counter({**dict.fromkeys(LOADER_CONSTRUCTORS, 1), "LedTx": len(doc.get("aps", [])),
                                "UserSpec": len(users), "DeviceOrientation": sum("orientation" in u for u in users),
                                "MirrorArray": len(doc.get("ris", []))})


def retries(builds, doc) -> int:
    """Constructor calls past one per section or list entry of `doc`."""
    sections = sections_of(doc)
    return sum(max(0, n - sections[name]) for name, n in builds.items())


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


def reflection_legs_oracle(tx, points, rx, blockers=CylinderSet()) -> ReflectionLegs:
    """`channel.reflection_legs` as it was, a leg-blockage rule of its own: one link's unblocked legs,
    then both legs of its lit rows against `blockers` in one `segments_blocked` call, the LED side first."""
    d1, u1, cos_phi1, d2, u2, cos_t2, clear = (a[0, 0] for a in vars(_legs((tx,), points, (rx,))).values())
    clear = clear.copy()
    lit = np.flatnonzero(clear)
    if blockers and lit.size:
        via = points[lit]
        hit = segments_blocked(np.vstack([np.broadcast_to(tx.position, via.shape), via]),
                               np.vstack([via, np.broadcast_to(rx.position, via.shape)]), blockers)
        clear[lit] = ~hit.reshape(2, -1).any(axis=0)
    return ReflectionLegs(d1, u1, cos_phi1, d2, u2, cos_t2, clear)


def wall_gain_oracle(tx, rx, patches, blockers=CylinderSet()) -> float:
    """`channel.wall_first_reflection_gain` as it was: the patch sum over `reflection_legs_oracle`."""
    legs = reflection_legs_oracle(tx, patches.centers, rx, blockers)
    return checked_gain(_wall_gain(tx.lambertian_order, rx, patches, legs))


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
