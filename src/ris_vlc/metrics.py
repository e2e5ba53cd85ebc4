"""Link and network rates for intensity-modulated optical links.

Intensity modulation with direct detection carries information on a real,
nonnegative signal with a peak constraint, so the familiar Shannon formula
does not apply directly. The per-link rate uses the standard
peak-intensity capacity bound

    rate = B * 1/2 * log2(1 + 2 h**2 X**2 / (2 pi e sigma**2))

with peak intensity X and noise variance sigma**2 = N0 * B. The same
integrand serves single links, network sum rates, and per-subchannel
MIMO sums, so every module reports rates on one scale.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channel import checked_gain
from .geometry import ConfigError


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian receiver noise: PSD and bandwidth."""

    psd: float = 1e-21
    bandwidth: float = 20e6

    def __post_init__(self):
        if not (self.psd > 0.0 and self.bandwidth > 0.0):
            raise ConfigError("noise PSD and bandwidth must be positive", "bandwidth" if self.psd > 0.0 else "psd")
        if not sys.float_info.min <= self.variance < math.inf:  # rates divide by it
            raise ConfigError(f"noise variance psd * bandwidth = {self.variance} must be a normal, finite float",
                              ("psd", "bandwidth"))

    @property
    def variance(self) -> float:
        return self.psd * self.bandwidth


@dataclass(frozen=True)
class IntensityConstraints:
    """Peak per-source intensity X and total average budget p_o, in watts."""

    peak: float = 2.0
    average_total: float = 2.0

    def __post_init__(self):
        if not (self.peak > 0.0 and self.average_total > 0.0):
            raise ConfigError("intensity constraints must be positive", "average_total" if self.peak > 0.0 else "peak")
        if not self.peak * self.peak < math.inf:  # a link rate squares it
            raise ConfigError(f"peak intensity {self.peak} must be finite when squared", "peak")


def link_rate(h, constraints: IntensityConstraints, noise: NoiseModel) -> float:
    """Achievable rate in bits/s of one link under the peak-intensity bound."""
    value = checked_gain(h)
    try:
        snr_term = 2.0 * (value * constraints.peak) ** 2 / (2.0 * math.pi * math.e * noise.variance)
    except OverflowError:
        snr_term = math.inf
    rate = noise.bandwidth * 0.5 * math.log2(1.0 + snr_term)
    if not rate < math.inf:
        raise ValueError(f"the SNR of a link overflows: gain {value} at peak intensity {constraints.peak} "
                         f"over noise variance {noise.variance}")
    return rate


def _airtime_shared_rates(serving, gains, constraints: IntensityConstraints, noise: NoiseModel) -> np.ndarray:
    """Each user's link_rate(gain) / (users its AP serves in its row), on (..., users) arrays; refusals name users."""
    rates = []
    for index, gain in enumerate(gains.ravel().tolist()):
        try:
            rates.append(link_rate(gain, constraints, noise))
        except ValueError as exc:
            raise ValueError(f"user {index % gains.shape[-1]}: {exc}") from exc
    return np.reshape(rates, gains.shape) / (serving[..., :, None] == serving[..., None, :]).sum(axis=-1)


def _in_order_sum(values) -> float:
    """Left-to-right float sum: np.sum adds pairwise, and sum() compensates since Python 3.12."""
    return float(reduce(operator.add, values, 0.0))


def sum_rate(scenario, ris_angles=None) -> float:
    """Network sum rate over all users at the given mirror angles.

    Each user's total gain stacks the visible LoS component, the wall
    first-reflection component, and the mirror-array component evaluated at
    `ris_angles` (None keeps each panel's stored angles). Users sharing an
    access point split its airtime equally, so a user's rate is
    link_rate(total gain) / (number of co-served users).
    """
    return scenario.evaluate_links(ris_angles).sum_rate


def sum_rates(scenario, ris_angles, size: int) -> list[float]:
    """`sum_rate` of each candidate of a `Scenario.evaluate_population` angle population of `size`."""
    chunks = scenario.evaluate_population(ris_angles, size)
    return [_in_order_sum(rates) for serving, h_los, h_wall, h_ris, _, _ in chunks for rates in
            _airtime_shared_rates(serving, h_los + h_wall + h_ris, scenario.constraints, scenario.noise).tolist()]
