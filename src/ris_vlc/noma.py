"""Power-domain NOMA over optical links with SIC decoding.

Users sharing a transmitter are ordered by ascending channel gain and
superposed with power coefficients a_k, sum(a_k**2) = 1, where weaker
channels receive larger coefficients. Each user decodes and cancels every
weaker user's signal first, then decodes its own, leaving only
stronger-user interference:

    R_k = 1/2 log2(1 + a_k**2 P h_k**2 / (h_k**2 P sum_{i>k} a_i**2 + sigma**2))

in bits per channel use on electrical power P, with ideal SIC. Equal-share
TDMA on the same gains is the orthogonal baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

SUM_SQUARES_TOL = 1e-9


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of a constraint check that does not raise; `violation` names the failure."""

    ok: bool
    violation: Optional[str] = None


def order_users(gains: Sequence[float]) -> list[int]:
    """Indices that sort gains ascending; ties keep original order (stable)."""
    if len(gains) == 0:
        raise ValueError("gains list must be nonempty")
    return [int(i) for i in np.argsort(np.asarray(gains, dtype=float), kind="stable")]


@dataclass(frozen=True, eq=False)
class NomaAllocation:
    """Coefficients, total electrical power, and per-user gains (ascending order)."""

    coefficients: np.ndarray
    total_power: float
    user_gains: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        h = np.asarray(self.user_gains, dtype=float)
        if a.ndim != 1 or h.ndim != 1 or a.shape != h.shape or a.size == 0:
            raise ValueError("coefficients and gains must be nonempty 1-D arrays of equal length")
        if not self.total_power > 0.0:
            raise ValueError("total power must be positive")
        check = validate_allocation(a)
        if not check.ok:
            raise ValueError(check.violation)
        if not np.all(h >= 0.0):
            raise ValueError("user gains must be nonnegative")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "user_gains", h)

    @property
    def users(self) -> int:
        return self.coefficients.shape[0]


def validate_allocation(
    coefficients: Sequence[float], gains: Optional[Sequence[float]] = None
) -> ConstraintCheck:
    """Check the NOMA coefficient constraints without raising.

    Verifies sum(a**2) = 1 within 1e-9 and a_k in (0, 1]; when ascending
    gains accompany the coefficients, also verifies that coefficients are
    nonincreasing (better channels get less power).
    """
    a = np.asarray(coefficients, dtype=float)
    if a.ndim != 1 or a.size == 0:
        return ConstraintCheck(False, "coefficients must be a nonempty 1-D sequence")
    inside = (a > 0.0) & (a <= 1.0)  # False on NaN
    if not np.all(inside):
        bad = int(np.argmin(inside))
        return ConstraintCheck(False, f"coefficient a[{bad}]={a[bad]} outside (0, 1]")
    total = float(np.sum(a**2))
    if not abs(total - 1.0) <= SUM_SQUARES_TOL:
        return ConstraintCheck(False, f"sum of squared coefficients is {total}, not 1")
    if gains is not None:
        h = np.asarray(gains, dtype=float)
        if h.shape != a.shape:
            return ConstraintCheck(False, "gains must match coefficients in length")
        if not (np.all(h >= 0.0) and np.all(np.diff(h) >= 0.0)):
            return ConstraintCheck(False, "gains must be nonnegative and sorted ascending")
        if np.any(np.diff(a) > 0.0):
            bad = int(np.argmax(np.diff(a) > 0.0))
            return ConstraintCheck(
                False,
                f"coefficients must be nonincreasing over ascending gains; a[{bad}] < a[{bad + 1}]",
            )
    return ConstraintCheck(True, None)


def noma_rates(alloc: NomaAllocation, noise_variance: float) -> np.ndarray:
    """Per-user SIC rates in bits per channel use; requires users pre-ordered by ascending gain."""
    if not noise_variance > 0.0:
        raise ValueError("noise variance must be positive")
    h = alloc.user_gains
    if np.any(np.diff(h) < 0.0):
        raise ValueError("users must be ordered by ascending gain")
    a2 = alloc.coefficients**2
    p, sigma2 = float(alloc.total_power), float(noise_variance)
    rates = np.empty(alloc.users)
    for i, (gain, share) in enumerate(zip(h.tolist(), a2.tolist())):  # floats: a product overflows to inf, silently
        stronger = float(np.sum(a2[i + 1 :]))  # not yet decoded, treated as noise
        try:
            sinr = share * p * gain**2 / (gain**2 * p * stronger + sigma2)
        except OverflowError:  # a float power raises where an array's would warn
            sinr = math.inf
        if not math.isfinite(sinr):
            raise ValueError(f"gain {gain} gives an SINR that is not finite at power {p} over noise variance {sigma2}")
        rates[i] = 0.5 * math.log2(1.0 + sinr)
    return rates


def _snr(h: np.ndarray, total_power: float, noise_variance: float) -> np.ndarray:
    """P h**2 / sigma**2 per gain, refusing power or noise that is not positive and an SNR that is not finite."""
    if not (total_power > 0.0 and noise_variance > 0.0):
        raise ValueError("power and noise variance must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        snr = total_power * h**2 / noise_variance
    if not np.all(np.isfinite(snr)):
        raise ValueError(f"gain {h[np.argmin(np.isfinite(snr))]} gives an SNR that is not finite at power "
                         f"{total_power} over noise variance {noise_variance}")
    return snr


def tdma_equal_share_rates(
    gains: Sequence[float], total_power: float, noise_variance: float
) -> np.ndarray:
    """Orthogonal baseline: each user gets 1/K of the time at full power."""
    h = np.asarray(gains, dtype=float)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("gains must be a nonempty 1-D sequence")
    if not np.all(h >= 0.0):
        raise ValueError("gains must be nonnegative")
    return 0.5 * np.log2(1.0 + _snr(h, total_power, noise_variance)) / h.shape[0]


def best_two_user_allocation(
    gains: Sequence[float],
    total_power: float,
    noise_variance: float,
    steps: int = 199,
) -> Tuple[NomaAllocation, np.ndarray]:
    """Exhaustive 1-D sweep over the weak user's power share for K = 2.

    Sweeps a_1**2 over (1/2, 1) on `steps` points (a_1 >= a_2 by
    construction) and returns the allocation maximizing the sum rate,
    together with its per-user rates. Ties keep the earliest grid point.
    """
    h = np.asarray(gains, dtype=float)
    if h.shape != (2,):
        raise ValueError("the allocation sweep is defined for exactly two users")
    if np.any(np.diff(h) < 0.0):
        raise ValueError("users must be ordered by ascending gain")
    if steps < 1:
        raise ValueError("steps must be positive")
    _snr(h, total_power, noise_variance)  # refuses a gain the sweep cannot rate
    best_alloc = None
    best_rates = None
    best_sum = -math.inf
    for a1_sq in np.linspace(0.5, 1.0, steps + 2)[1:-1]:
        a = np.array([math.sqrt(a1_sq), math.sqrt(1.0 - a1_sq)])
        alloc = NomaAllocation(coefficients=a, total_power=total_power, user_gains=h)
        rates = noma_rates(alloc, noise_variance)
        total = float(np.sum(rates))
        if total > best_sum:
            best_sum = total
            best_alloc = alloc
            best_rates = rates
    return best_alloc, best_rates
