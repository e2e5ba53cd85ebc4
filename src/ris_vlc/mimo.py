"""Intensity-constrained MIMO capacity bounds for mirror-assisted links.

Sources, mirror elements, and detectors connect through nonnegative gain
matrices: a source-to-surface matrix H, a diagonal per-element coefficient
matrix Phi (amplitude attenuation in [0, 1]; intensity channels carry no
phase), and a surface-to-detector matrix G, giving the end-to-end channel

    HH = G^T Phi H    (detectors x sources).

Inputs are nonnegative with per-source peak X and a total average budget
p_o. A QR factorization HH = Q R triangularizes the coupling of overlapping
beams, and the capacity bound sums the per-branch peak-intensity bound over
the diagonal of R; decoupled beams are the case of orthogonal columns. The
bound holds in the regime p_o / X >= L/2 (L sources); outside it the bound
is not valid and the query is rejected rather than answered wrongly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import IntensityConstraints


class RegimeError(ValueError):
    """Raised when a capacity query falls outside the supported regime."""


def _per_branch_bits(gain: float, peak: float, noise_variance: float) -> float:
    return 0.5 * math.log2(1.0 + 2.0 * gain**2 * peak**2 / (2.0 * math.pi * math.e * noise_variance))


def assemble_channel(g: np.ndarray, phi, h: np.ndarray) -> np.ndarray:
    """End-to-end channel G^T Phi H with entrywise nonnegativity checks.

    `phi` is the diagonal of Phi, one entry in [0, 1] per element. Shapes:
    G is (elements x detectors), H is (elements x sources), result is
    (detectors x sources).
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if g.ndim != 2 or h.ndim != 2:
        raise ValueError("G and H must be matrices")
    if phi.ndim != 1:
        raise ValueError(f"Phi must be its (elements,) diagonal vector, got shape {phi.shape}")
    if g.shape[0] != phi.shape[0] or h.shape[0] != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: G {g.shape}, Phi {phi.shape}, H {h.shape} "
            "(G and H must have one row per surface element)"
        )
    if not (np.all(g >= 0.0) and np.all(h >= 0.0)):
        raise ValueError("gain matrices must be entrywise nonnegative")
    if not np.all((phi >= 0.0) & (phi <= 1.0)):
        raise ValueError("Phi entries must lie in [0, 1]")
    return g.T @ (phi[:, None] * h)


@dataclass(frozen=True, eq=False)
class MimoChannel:
    """Gain matrices of a source -> surface -> detector link."""

    source_to_surface: np.ndarray
    surface_coefficients: np.ndarray
    surface_to_detector: np.ndarray
    assembled: np.ndarray = field(init=False)  # (detectors, sources) G^T Phi H

    def __post_init__(self):
        object.__setattr__(self, "assembled", assemble_channel(
            self.surface_to_detector, self.surface_coefficients, self.source_to_surface))


def qr_capacity(channel: np.ndarray, c: IntensityConstraints, noise_variance: float) -> float:
    """Capacity bound of a coupled channel via QR triangularization.

    Factors the channel as Q R (Householder, diagonal flipped nonnegative
    for a deterministic factor) and sums per-branch bounds over the diagonal
    of R. Only the regime p_o / X >= L/2 is supported; outside it the bound
    does not hold and a RegimeError is raised.
    """
    if not noise_variance > 0.0:
        raise ValueError("noise variance must be positive")
    hh = np.asarray(channel, dtype=float)
    if hh.ndim != 2:
        raise ValueError("channel must be a matrix")
    if not np.all(hh >= 0.0):
        raise ValueError("channel entries must be nonnegative")
    sources = hh.shape[1]
    if not c.average_total / c.peak >= sources / 2.0:
        raise RegimeError(
            f"capacity bound requires average/peak >= L/2 = {sources / 2.0}, "
            f"got {c.average_total / c.peak}"
        )
    _, r = np.linalg.qr(hh, mode="reduced")
    diag = np.abs(np.diag(r))  # sign flips leave Q R unchanged; only r_ii**2 enters
    return float(sum(_per_branch_bits(float(d), c.peak, noise_variance) for d in diag))
