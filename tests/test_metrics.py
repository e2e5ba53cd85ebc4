"""Noise, intensity constraints, and link and sum rates."""

import math
from dataclasses import dataclass

import pytest

from ris_vlc.metrics import (
    IntensityConstraints,
    NoiseModel,
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


@dataclass
class _StubLink:
    serving_ap: int
    total_gain: float


@dataclass
class _StubScenario:
    links: list
    constraints: IntensityConstraints = CONSTRAINTS
    noise: NoiseModel = NOISE

    def evaluate_links(self, ris_angles=None):
        return self.links


def test_sum_rate_shares_airtime_within_ap_groups():
    links = [_StubLink(0, 1e-6), _StubLink(0, 2e-6), _StubLink(1, 3e-6)]
    got = sum_rate(_StubScenario(links))
    want = (
        link_rate(1e-6, CONSTRAINTS, NOISE) / 2
        + link_rate(2e-6, CONSTRAINTS, NOISE) / 2
        + link_rate(3e-6, CONSTRAINTS, NOISE)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_sum_rate_forwards_ris_angles():
    class _Recording(_StubScenario):
        def evaluate_links(self, ris_angles=None):
            self.seen = ris_angles
            return self.links

    s = _Recording([_StubLink(0, 1e-6)])
    sum_rate(s, ris_angles="token")
    assert s.seen == "token"
