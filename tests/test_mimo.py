"""Surface-assembled MIMO channels and intensity-constrained capacity bounds."""

import numpy as np
import pytest

from ris_vlc.metrics import IntensityConstraints
from ris_vlc.mimo import (
    MimoChannel,
    RegimeError,
    assemble_channel,
    qr_capacity,
)

from conftest import parallel_branch_bits

NAN = float("nan")


def test_assemble_channel_hand_value():
    g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # elements x detectors
    phi = np.array([0.5, 1.0, 0.0])
    h = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])  # elements x sources
    np.testing.assert_allclose(
        assemble_channel(g, phi, h), [[30.5, 34.0], [43.0, 48.0]], rtol=1e-15
    )


@pytest.mark.parametrize("phi", [np.diag([0.5, 1.0, 0.0]), 0.5, [[[1.0]]]], ids=["diagonal-matrix", "scalar", "3-D"])
def test_assemble_channel_takes_phi_only_as_its_diagonal_vector(phi):
    with pytest.raises(ValueError, match=r"^Phi must be its \(elements,\) diagonal vector, got shape "):
        assemble_channel(np.ones((3, 2)), phi, np.ones((3, 2)))


def test_assemble_channel_validation():
    g = np.ones((3, 2))
    h = np.ones((3, 2))
    with pytest.raises(ValueError):
        assemble_channel(g, np.array([0.5, 1.2, 0.0]), h)  # phi > 1
    with pytest.raises(ValueError):
        assemble_channel(-g, np.array([0.5, 1.0, 0.0]), h)
    with pytest.raises(ValueError):
        assemble_channel(g, np.array([0.5, 1.0]), h)  # length mismatch


def test_mimo_channel_shape_properties():
    rng = np.random.default_rng(0)
    ch = MimoChannel(
        source_to_surface=rng.uniform(size=(8, 3)),
        surface_coefficients=np.ones(8),
        surface_to_detector=rng.uniform(size=(8, 2)),
    )
    # assembled is detectors x sources
    assert ch.assembled.shape == (2, 3)
    np.testing.assert_array_equal(
        ch.assembled,
        assemble_channel(ch.surface_to_detector, np.ones(8), ch.source_to_surface),
    )


def test_parallel_capacity_hand_value():
    # a diagonal channel is two decoupled branches: the QR bound is their per-branch sum
    c = IntensityConstraints(peak=1.0, average_total=2.0)
    assert qr_capacity(np.diag([0.5, 1.2]), c, 0.1) == pytest.approx(0.8980139829003939, rel=1e-12)
    with pytest.raises(ValueError):
        qr_capacity(np.diag([0.5, -0.1]), c, 0.1)
    with pytest.raises(ValueError):
        qr_capacity(np.diag([0.5]), c, 0.0)


def test_qr_capacity_equals_parallel_for_diagonal():
    c = IntensityConstraints(peak=1.0, average_total=2.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = rng.uniform(0.0, 2.0, 4)
        qr = qr_capacity(np.diag(d), c, 0.3)
        par = parallel_branch_bits(d, c.peak, 0.3)
        assert qr == pytest.approx(par, rel=1e-12)


def test_qr_capacity_regime_gate():
    ch = np.full((3, 3), 0.5)
    ok = IntensityConstraints(peak=1.0, average_total=1.5)  # ratio exactly L/2
    qr_capacity(ch, ok, 0.1)
    tight = IntensityConstraints(peak=1.1, average_total=1.5)
    with pytest.raises(RegimeError):
        qr_capacity(ch, tight, 0.1)


def test_qr_capacity_monotone_in_peak_within_regime():
    rng = np.random.default_rng(9)
    ch = rng.uniform(0.1, 1.0, (4, 4))
    average = 2.0
    caps = [
        qr_capacity(ch, IntensityConstraints(peak=float(x), average_total=average), 0.2)
        for x in np.linspace(0.05, 1.0, 20)
    ]
    assert np.all(np.diff(caps) > 0.0)


def test_qr_capacity_input_validation():
    c = IntensityConstraints(peak=1.0, average_total=2.0)
    with pytest.raises(ValueError):
        qr_capacity(np.array([1.0, 2.0]), c, 0.1)  # not a matrix
    with pytest.raises(ValueError):
        qr_capacity(np.array([[1.0, -0.1], [0.2, 0.3]]), c, 0.1)


def test_qr_capacity_regime_flag():
    # average/peak 1.5 answers up to L = 3 sources
    channel = np.random.default_rng(2).uniform(0.1, 1.0, (4, 4))
    ok = IntensityConstraints(1.0, 1.5)
    assert qr_capacity(channel[:, :3], ok, 0.1) > 0.0
    with pytest.raises(RegimeError, match="L/2 = 2.0"):
        qr_capacity(channel, ok, 0.1)
    with pytest.raises(RegimeError):
        qr_capacity(channel[:, :3], IntensityConstraints(2.0, 1.5), 0.1)
    with pytest.raises(ValueError, match="noise variance must be positive"):
        qr_capacity(channel[:, :3], ok, 0.0)


def test_qr_capacity_invariant_to_row_sign_structure():
    # QR sign conventions must not affect the bound: scaling Q's columns by
    # -1 flips diag(R) signs, which abs() removes
    ch = np.array([[0.3, 0.7], [0.9, 0.2]])
    c = IntensityConstraints(peak=1.0, average_total=1.0)
    _, r = np.linalg.qr(ch)
    by_hand = parallel_branch_bits(np.abs(np.diag(r)), c.peak, 0.2)
    assert qr_capacity(ch, c, 0.2) == pytest.approx(by_hand, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda c: assemble_channel(np.ones((2, 2)), [NAN, 1.0], np.ones((2, 2))),
    lambda c: assemble_channel(np.ones((2, 2)), [1.0, 1.0], np.full((2, 2), NAN)),
    lambda c: MimoChannel(np.ones((2, 2)), [1.0, 1.0], np.array([[1.0, NAN], [1.0, 1.0]])),
    lambda c: qr_capacity(np.diag([NAN, 1.0]), c, 0.1),
    lambda c: qr_capacity(np.diag([0.5, 1.0]), c, NAN),
    lambda c: qr_capacity(np.array([[1.0, NAN], [0.2, 0.3]]), c, 0.1),
    lambda c: qr_capacity(np.eye(2), c, NAN),
], ids=["phi", "H", "channel", "parallel-gain", "parallel-noise", "qr-entry", "qr-noise"])
def test_nan_inputs_are_refused(call):
    with pytest.raises(ValueError, match="nonnegative|lie in|positive"):
        call(IntensityConstraints(peak=1.0, average_total=2.0))

