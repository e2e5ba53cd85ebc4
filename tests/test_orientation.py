"""Truncated-Laplace device orientation sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import whole_pass_polar_angles
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc import geometry
from ris_vlc.orientation import (
    MIN_ACCEPTANCE,
    POLAR_MAX,
    DeviceOrientation,
    OrientationModel,
    sample_orientation,
    sample_polar_angles,
)


def test_device_orientation_normal_axes():
    up = DeviceOrientation(polar=0.0, azimuth=0.0)
    np.testing.assert_allclose(up.normal, [0.0, 0.0, 1.0], atol=1e-15)
    flat_x = DeviceOrientation(polar=math.pi / 2, azimuth=0.0)
    np.testing.assert_allclose(flat_x.normal, [1.0, 0.0, 0.0], atol=1e-15)
    flat_y = DeviceOrientation(polar=math.pi / 2, azimuth=math.pi / 2)
    np.testing.assert_allclose(flat_y.normal, [0.0, 1.0, 0.0], atol=1e-15)


def test_device_orientation_range_checks():
    with pytest.raises(ValueError):
        DeviceOrientation(polar=-0.01, azimuth=0.0)
    with pytest.raises(ValueError):
        DeviceOrientation(polar=POLAR_MAX + 0.01, azimuth=0.0)
    with pytest.raises(ValueError):
        DeviceOrientation(polar=0.5, azimuth=3.5)


class _StubUniform:
    """Generator stub: one `uniform(size=k)` call gives `values` repeated to length k."""

    def __init__(self, *values):
        self.values, self.calls = values, 0

    def uniform(self, size):
        self.calls += 1
        assert self.calls == 1, "the sampler drew twice: it rejected a u inside the window"
        return np.resize(np.array(self.values, dtype=float), size)


def _laplace(mu, b):
    return OrientationModel(mean_polar=mu, std_polar=b * math.sqrt(2.0))


@pytest.mark.parametrize("u, want, rel", [(0.5, 0.2, 1e-15), (0.25, 0.13068528194400547, 1e-12),
                                          (0.75, 0.26931471805599455, 1e-12)])
def test_sample_polar_angles_inverse_cdf_hand_values(u, want, rel):
    # mu - b sgn(u - 1/2) ln(1 - 2|u - 1/2|) at mu=0.2, b=0.1
    draws = sample_polar_angles(_laplace(0.2, 0.1), _StubUniform(u), 3)
    assert draws.tolist() == pytest.approx([want] * 3, rel=rel)


def test_sample_polar_angles_rejects_u_zero():
    # u = 0 maps to -inf: every other draw is dropped, and the rest fill the request
    draws = sample_polar_angles(_laplace(0.2, 0.1), _StubUniform(0.0, 0.25), 8)
    assert draws.tolist() == pytest.approx([0.13068528194400547] * 8, rel=1e-12)


@given(st.floats(0.12, 0.999), st.floats(0.12, 0.999))
def test_sample_polar_angles_inverse_cdf_monotone(u1, u2):
    # at mu=0.3, b=0.2 these u map inside [0, pi/2], so none is rejected
    lo, hi = sorted((u1, u2))
    draws = sample_polar_angles(_laplace(0.3, 0.2), _StubUniform(lo, hi), 2)
    assert draws[0] <= draws[1]


@given(st.floats(0.01, 0.99))
def test_sample_polar_angles_inverse_cdf_roundtrip(u):
    # cdf(icdf(u)) = u; at mu=0.7, b=0.15 these u map inside [0, pi/2]
    mu, b = 0.7, 0.15
    x = sample_polar_angles(_laplace(mu, b), _StubUniform(u), 1)[0]
    if x < mu:
        cdf = 0.5 * math.exp((x - mu) / b)
    else:
        cdf = 1.0 - 0.5 * math.exp(-(x - mu) / b)
    assert cdf == pytest.approx(u, rel=1e-9)


def test_orientation_model_defaults_and_scale():
    model = OrientationModel()
    assert model.mean_polar == pytest.approx(math.radians(41.0))
    assert model.std_polar == pytest.approx(math.radians(9.0))
    assert model.scale == pytest.approx(model.std_polar / math.sqrt(2.0), rel=1e-15)


def test_orientation_model_validation():
    with pytest.raises(ValueError):
        OrientationModel(mean_polar=-0.1)
    with pytest.raises(ValueError):
        OrientationModel(mean_polar=POLAR_MAX + 0.1)
    with pytest.raises(ValueError):
        OrientationModel(std_polar=-0.01)


def test_sample_polar_angles_stay_in_window():
    model = OrientationModel(mean_polar=math.radians(41.0), std_polar=math.radians(30.0))
    draws = sample_polar_angles(model, np.random.default_rng(3), 20000)
    assert draws.shape == (20000,)
    assert np.all(draws >= 0.0)
    assert np.all(draws <= POLAR_MAX)


def test_sample_polar_angles_point_mass_at_zero_std():
    model = OrientationModel(mean_polar=0.5, std_polar=0.0)
    draws = sample_polar_angles(model, np.random.default_rng(0), 100)
    np.testing.assert_array_equal(draws, np.full(100, 0.5))


def test_sample_polar_angles_deterministic_per_seed():
    model = OrientationModel()
    a = sample_polar_angles(model, np.random.default_rng(42), 1000)
    b = sample_polar_angles(model, np.random.default_rng(42), 1000)
    np.testing.assert_array_equal(a, b)


def _truncated_moments(mu, b):
    # quadrature oracle for the mean/std of Laplace(mu, b) truncated to
    # [0, pi/2]
    x = np.linspace(0.0, math.pi / 2, 200001)
    pdf = np.exp(-np.abs(x - mu) / b) / (2.0 * b)
    z = np.trapezoid(pdf, x)
    mean = np.trapezoid(x * pdf, x) / z
    var = np.trapezoid((x - mean) ** 2 * pdf, x) / z
    return mean, math.sqrt(var)


def test_sample_polar_angles_match_truncated_moments():
    model = OrientationModel()
    n = 200000
    draws = sample_polar_angles(model, np.random.default_rng(12345), n)
    mean, std = _truncated_moments(model.mean_polar, model.scale)
    # sampling error ~ std/sqrt(n); allow 4 sigma
    assert abs(float(np.mean(draws)) - mean) < 4.0 * std / math.sqrt(n)
    assert float(np.std(draws)) == pytest.approx(std, rel=0.02)


def test_sample_orientation_stream_and_ranges():
    model = OrientationModel()
    rng = np.random.default_rng(7)
    first = sample_orientation(model, rng)
    assert 0.0 <= first.polar <= POLAR_MAX
    assert -math.pi <= first.azimuth <= math.pi
    # identical seed reproduces the draw exactly
    again = sample_orientation(model, np.random.default_rng(7))
    assert again.polar == first.polar
    assert again.azimuth == first.azimuth


def test_sample_polar_angles_rejects_negative_count():
    with pytest.raises(ValueError):
        sample_polar_angles(OrientationModel(), np.random.default_rng(0), -1)


def _model_at(mean, acceptance):
    """The widest model at `mean` that keeps at least `acceptance` of its Laplace draws."""
    lo, hi = 1e-6, 1e6  # std_polar: the yield falls as it grows
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        try:
            ok = OrientationModel(mean, mid).acceptance >= acceptance
        except ValueError:  # below MIN_ACCEPTANCE
            ok = False
        lo, hi = (mid, hi) if ok else (lo, mid)
    return OrientationModel(mean, lo)


_MEANS = st.floats(0.0, POLAR_MAX)
# near the acceptance floor a request takes many rejection passes
_MODELS = st.one_of(st.builds(OrientationModel, _MEANS, st.floats(0.0, 1.5)),
                    st.builds(_model_at, _MEANS, st.floats(MIN_ACCEPTANCE, 3 * MIN_ACCEPTANCE)))
# (blocks, extra) for n = blocks * cells + extra: 0, 1, 15, 16, 17, one block -1, 0 and +1, 3 blocks + 5
_COUNTS = ((0, 0), (0, 1), (0, 15), (0, 16), (0, 17), (1, -1), (1, 0), (1, 1), (3, 5))


@settings(max_examples=150, deadline=None)
@given(_MODELS, st.sampled_from(_COUNTS), st.sampled_from([7, 1 << 14]), st.integers(0, 2**32 - 1))
def test_blockwise_sampler_equals_the_whole_pass_sampler(model, count, cells, seed):
    n = count[0] * cells + count[1]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_CHUNK_CELLS", cells)
        got = sample_polar_angles(model, got_rng, n)
    want = whole_pass_polar_angles(model, want_rng, n)
    assert got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_model_at_lands_near_the_acceptance_floor():
    for mean in (0.0, 0.7, POLAR_MAX):
        model = _model_at(mean, 1.5 * MIN_ACCEPTANCE)
        assert 1.5 * MIN_ACCEPTANCE <= model.acceptance < 1.5 * MIN_ACCEPTANCE * (1 + 1e-9)


@pytest.mark.parametrize("n", [100_000, 400_000, 1_600_000])
def test_sample_polar_angles_memory_beyond_the_angles_is_bounded(n):
    tracemalloc.start()
    try:
        sample_polar_angles(OrientationModel(), np.random.default_rng(1), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * n < 12 * 2**20  # the 8n bytes of angles returned
