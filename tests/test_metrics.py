"""Noise, intensity constraints, and link and sum rates."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from ris_vlc.metrics import (
    IntensityConstraints,
    NoiseModel,
    _airtime_shared_rates,
    _in_order_sum,
    link_rate,
    sum_rate,
)


NOISE = NoiseModel(psd=5e-20, bandwidth=2e7)
CONSTRAINTS = IntensityConstraints(peak=2.0, average_total=2.0)


def test_noise_model_variance():
    assert NOISE.variance == pytest.approx(1e-12, rel=1e-15)
    with pytest.raises(ValueError):
        NoiseModel(psd=-1e-21, bandwidth=2e7)
    with pytest.raises(ValueError):
        NoiseModel(psd=1e-21, bandwidth=0.0)


def test_intensity_constraints_validation():
    with pytest.raises(ValueError):
        IntensityConstraints(peak=0.0, average_total=1.0)
    with pytest.raises(ValueError):
        IntensityConstraints(peak=1.0, average_total=-1.0)


def test_link_rate_hand_value():
    # B/2 log2(1 + 2 (h X)**2 / (2 pi e sigma**2)) at h=1e-6, X=2
    assert link_rate(1e-6, CONSTRAINTS, NOISE) == pytest.approx(
        5542436.953379444, rel=1e-12
    )


def test_link_rate_of_a_zero_gain_is_zero():
    assert link_rate(0.0, CONSTRAINTS, NOISE) == 0.0


@pytest.mark.parametrize("h", [-1e-9, math.nan])
def test_link_rate_refuses_a_negative_or_nan_gain(h):
    with pytest.raises(ValueError, match="channel gain must be finite and nonnegative"):
        link_rate(h, CONSTRAINTS, NOISE)


def test_link_rate_monotone_in_gain_and_peak():
    r1 = link_rate(1e-6, CONSTRAINTS, NOISE)
    r2 = link_rate(2e-6, CONSTRAINTS, NOISE)
    assert r2 > r1
    wider = IntensityConstraints(peak=4.0, average_total=4.0)
    assert link_rate(1e-6, wider, NOISE) > r1


def test_airtime_is_shared_within_ap_groups():
    serving, gains = np.array([0, 0, 1]), np.array([1e-6, 2e-6, 3e-6])
    got = _in_order_sum(_airtime_shared_rates(serving, gains, CONSTRAINTS, NOISE).tolist())
    want = (
        link_rate(1e-6, CONSTRAINTS, NOISE) / 2
        + link_rate(2e-6, CONSTRAINTS, NOISE) / 2
        + link_rate(3e-6, CONSTRAINTS, NOISE)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_airtime_is_shared_within_each_row():
    serving, gains = np.array([[0, 0, 1], [0, 1, 1]]), np.array([[1e-6, 2e-6, 3e-6]] * 2)
    got = _airtime_shared_rates(serving, gains, CONSTRAINTS, NOISE)
    rates = [link_rate(h, CONSTRAINTS, NOISE) for h in (1e-6, 2e-6, 3e-6)]
    assert got.tolist() == [[rates[0] / 2, rates[1] / 2, rates[2]], [rates[0], rates[1] / 2, rates[2] / 2]]


def test_a_refused_rate_names_its_user_within_its_row():
    serving, gains = np.zeros((2, 3), dtype=int), np.array([[1e-6, 1e-6, 1e-6], [1e-6, 1e155, 1e-6]])
    with pytest.raises(ValueError, match=r"^user 1: the SNR of a link overflows: gain 1e\+155 at peak"):
        _airtime_shared_rates(serving, gains, IntensityConstraints(peak=1.0), NoiseModel(psd=1.0, bandwidth=1.0))
    with pytest.raises(ValueError, match=r"^user 2: channel gain must be finite and nonnegative, got nan$"):
        _airtime_shared_rates(serving[0], np.array([0.0, 1e-6, math.nan]), CONSTRAINTS, NOISE)


@dataclass
class _StubScenario:
    sum_rate: float

    def evaluate_links(self, ris_angles=None):
        self.seen = ris_angles
        return self


def test_sum_rate_forwards_ris_angles():
    s = _StubScenario(1.5)
    assert sum_rate(s, ris_angles="token") == 1.5
    assert s.seen == "token"
