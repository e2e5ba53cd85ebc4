"""Random device-orientation model for handheld optical receivers.

The photodetector normal of a handheld device is parameterized by a polar
angle alpha (tilt from vertical) and an azimuth beta (horizontal facing of
the tilt). Measurement studies of handheld use report alpha concentrated
around 41 degrees with a standard deviation near 9 degrees and well fit by
a Laplace distribution, while beta is uniform over [-pi, pi]. Alpha is
truncated to [0, pi/2]: the detector never faces below the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import ConfigError, Vec3

POLAR_MAX = math.pi / 2.0
# rejection sampling draws 1 / acceptance Laplace values per polar angle
MIN_ACCEPTANCE = 0.01


@dataclass(frozen=True)
class DeviceOrientation:
    """A sampled device attitude: polar tilt and azimuth, in radians."""

    polar: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.polar <= POLAR_MAX:
            raise ConfigError(f"polar angle {self.polar} outside [0, pi/2]", "polar")
        if not -math.pi <= self.azimuth <= math.pi:
            raise ConfigError(f"azimuth {self.azimuth} outside [-pi, pi]", "azimuth")

    @property
    def normal(self) -> Vec3:
        """Unit detector normal (sin a cos b, sin a sin b, cos a)."""
        sa = math.sin(self.polar)
        return np.array(
            [sa * math.cos(self.azimuth), sa * math.sin(self.azimuth), math.cos(self.polar)]
        )


@dataclass(frozen=True)
class OrientationModel:
    """Truncated-Laplace polar angle plus uniform azimuth.

    `std_polar` is the standard deviation of the untruncated Laplace, so the
    scale is b = std / sqrt(2). Truncation to [0, pi/2] shifts the realized
    moments slightly; no correction is applied. `std_polar = 0` degenerates
    to a point mass at `mean_polar`, useful for pinning orientations in
    controlled experiments.
    """

    mean_polar: float = math.radians(41.0)
    std_polar: float = math.radians(9.0)

    def __post_init__(self):
        if not self.std_polar >= 0.0:
            raise ConfigError("std_polar must be nonnegative", "std_polar")
        if not 0.0 <= self.mean_polar <= POLAR_MAX:
            raise ConfigError("mean_polar must lie inside the truncation window [0, pi/2]", "mean_polar")
        if self.std_polar > 0.0 and not self.acceptance >= MIN_ACCEPTANCE:  # else the sampler all but hangs
            raise ConfigError(f"only {self.acceptance:.3g} of the polar Laplace draws fall in [0, pi/2], below "
                              f"{MIN_ACCEPTANCE}", ("mean_polar", "std_polar"))

    @property
    def scale(self) -> float:
        return self.std_polar / math.sqrt(2.0)

    @property
    def acceptance(self) -> float:
        """Share of untruncated Laplace draws inside [0, pi/2]: the rejection sampler's yield."""
        b = self.scale
        return 1.0 - 0.5 * math.exp(-(POLAR_MAX - self.mean_polar) / b) - 0.5 * math.exp(-self.mean_polar / b)


def sample_polar_angles(model: OrientationModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw `n` truncated-Laplace polar angles by rejection.

    Acceptance is near 1 for the default parameters (the window covers many
    scales around the mean), so the loop rarely iterates more than once.
    Each pass draws max(n - have, 16) uniforms in blocks of
    `geometry._CHUNK_CELLS`, all of them, so the temporaries stay bounded
    and the generator ends where one whole-pass draw would leave it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if model.std_polar == 0.0:
        return np.full(n, model.mean_polar)
    out = np.empty(n)
    have = 0
    while have < n:
        need = max(n - have, 16)
        for lo in range(0, need, geometry._CHUNK_CELLS):
            w = rng.uniform(size=min(need - lo, geometry._CHUNK_CELLS)) - 0.5
            with np.errstate(divide="ignore"):  # u == 0.0 maps to -inf and is rejected
                draw = model.mean_polar - model.scale * np.sign(w) * np.log1p(-2.0 * np.abs(w))
            keep = draw[(draw >= 0.0) & (draw <= POLAR_MAX)]
            take = min(len(keep), n - have)
            out[have : have + take] = keep[:take]
            have += take
    return out


def sample_orientation(model: OrientationModel, rng: np.random.Generator) -> DeviceOrientation:
    """One orientation draw: polar first, then azimuth (fixed stream order)."""
    polar = float(sample_polar_angles(model, rng, 1)[0])
    azimuth = float(rng.uniform(-math.pi, math.pi))
    return DeviceOrientation(polar=polar, azimuth=azimuth)
