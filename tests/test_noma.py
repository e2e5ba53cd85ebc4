"""SIC power-domain NOMA rates and the allocation sweep."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ris_vlc.noma import (
    SUM_SQUARES_TOL,
    NomaAllocation,
    best_two_user_allocation,
    noma_rates,
    order_users,
    tdma_equal_share_rates,
    validate_allocation,
)


# sqrt of (0.5, 0.3, 0.2): valid descending coefficients over ascending gains
A3 = (0.7071067811865476, 0.5477225575051661, 0.4472135954999579)
NAN = math.nan


def test_order_users_ascending_and_stable():
    assert order_users([0.9, 0.3, 0.6]) == [1, 2, 0]
    assert order_users([0.5, 0.5, 0.1]) == [2, 0, 1]
    with pytest.raises(ValueError):
        order_users([])


def test_allocation_constructor_enforces_sum_of_squares():
    NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.3, 0.6, 0.9))
    bad = (0.71, 0.55, 0.45)  # sum of squares 0.9091
    with pytest.raises(ValueError):
        NomaAllocation(coefficients=bad, total_power=4.0, user_gains=(0.3, 0.6, 0.9))
    with pytest.raises(ValueError):
        NomaAllocation(coefficients=(1.0, 0.0001), total_power=4.0,
                       user_gains=(0.3, 0.6))  # off by ~1e-8
    with pytest.raises(ValueError):
        NomaAllocation(coefficients=(1.0, -0.1), total_power=4.0, user_gains=(0.3, 0.6))
    with pytest.raises(ValueError):
        NomaAllocation(coefficients=A3, total_power=0.0, user_gains=(0.3, 0.6, 0.9))


def test_allocation_tolerance_boundary():
    # a deviation below the 1e-9 tolerance is accepted
    eps = 4e-10
    a = (math.sqrt(0.5 + eps), math.sqrt(0.5))
    NomaAllocation(coefficients=a, total_power=1.0, user_gains=(0.1, 0.2))


# raw vectors, mostly flagged, and unit vectors nudged by up to a few times the 1e-9 tolerance
_COEFFICIENTS = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
    st.tuples(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4), st.floats(-4e-9, 4e-9)).map(
        lambda drawn: (np.array(drawn[0]) / np.linalg.norm(drawn[0]) * (1.0 + drawn[1])).tolist()),
)


@given(_COEFFICIENTS)
def test_allocation_refuses_exactly_what_validate_allocation_flags(coefficients):
    check = validate_allocation(coefficients)
    gains = np.linspace(0.1, 1.0, len(coefficients))
    if check.ok:
        NomaAllocation(coefficients=coefficients, total_power=1.0, user_gains=gains)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(check.violation)}$"):
            NomaAllocation(coefficients=coefficients, total_power=1.0, user_gains=gains)


@pytest.mark.parametrize("call", [
    lambda: validate_allocation([NAN, NAN]),
    lambda: validate_allocation(A3, gains=(0.3, NAN, 0.9)),
], ids=["coefficients", "gains"])
def test_validate_allocation_flags_nan(call):
    assert not call().ok


@pytest.mark.parametrize("call", [
    lambda: NomaAllocation(coefficients=(NAN, NAN), total_power=1.0, user_gains=(0.3, 0.6)),
    lambda: NomaAllocation(coefficients=A3, total_power=NAN, user_gains=(0.3, 0.6, 0.9)),
    lambda: NomaAllocation(coefficients=A3, total_power=1.0, user_gains=(0.3, NAN, 0.9)),
    lambda: noma_rates(NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.3, 0.6, 0.9)), NAN),
    lambda: tdma_equal_share_rates((0.3, NAN), 4.0, 0.5),
    lambda: tdma_equal_share_rates((0.3, 0.6), NAN, 0.5),
    lambda: tdma_equal_share_rates((0.3, 0.6), 4.0, NAN),
    lambda: best_two_user_allocation([NAN, 1.0], 1.0, 1.0),
    lambda: best_two_user_allocation([0.3, 0.9], NAN, 1.0),
    lambda: best_two_user_allocation([0.3, 0.9], 1.0, NAN),
], ids=["alloc-coefficients", "alloc-power", "alloc-gains", "noma-noise", "tdma-gain", "tdma-power",
        "tdma-noise", "sweep-gain", "sweep-power", "sweep-noise"])
def test_nan_inputs_are_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("gains, power, noise, bad", [
    ([1.0, math.inf], 1.0, 1.0, "inf"),
    ([1e200, 1e200], 1.0, 1e-12, "1e+200"),
    ([1e-3, 1e150], 2.0, 1e-12, "1e+150"),  # the weak user's rate is finite, the strong user's is not
], ids=["inf-gain", "equal-huge-gains", "huge-strong-gain"])
@pytest.mark.parametrize("call", [best_two_user_allocation, tdma_equal_share_rates], ids=["sweep", "tdma"])
def test_a_gain_whose_snr_is_not_finite_is_refused(call, gains, power, noise, bad):
    with pytest.raises(ValueError, match=rf"^gain {re.escape(bad)} gives an SNR that is not finite"):
        call(gains, power, noise)


@pytest.mark.parametrize("gains", [(1e-3, 1e200), (1e200, 1e200)], ids=["huge-strong-gain", "equal-huge-gains"])
def test_noma_rates_refuse_a_gain_whose_sinr_is_not_finite(gains):
    # the square of 1e200 overflows a float, so that user's SINR is not finite
    alloc = NomaAllocation(coefficients=(math.sqrt(0.6), math.sqrt(0.4)), total_power=1.0, user_gains=gains)
    with pytest.raises(ValueError, match=r"^gain 1e\+200 gives an SINR that is not finite at power 1.0 over noise"):
        noma_rates(alloc, 1e-12)


def test_validate_allocation_reports_reasons():
    assert validate_allocation(A3).ok
    assert validate_allocation(A3, gains=(0.3, 0.6, 0.9)).ok

    r = validate_allocation((0.9, 0.9))
    assert not r.ok and "not 1" in r.violation

    r = validate_allocation((1.0, 0.0))
    assert not r.ok and "outside (0, 1]" in r.violation

    r = validate_allocation(A3, gains=(0.9, 0.6, 0.3))
    assert not r.ok and "ascending" in r.violation

    # increasing coefficients over ascending gains
    r = validate_allocation(tuple(reversed(A3)), gains=(0.3, 0.6, 0.9))
    assert not r.ok and "nonincreasing" in r.violation


def test_noma_rates_hand_values():
    alloc = NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.3, 0.6, 0.9))
    rates = noma_rates(alloc, 0.5)
    np.testing.assert_allclose(
        rates,
        [0.16940095672587924, 0.3153068064969361, 0.5995613210068005],
        rtol=1e-12,
    )


def test_noma_strongest_user_is_interference_free():
    alloc = NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.3, 0.6, 0.9))
    rates = noma_rates(alloc, 0.5)
    a_last_sq = A3[-1] ** 2
    direct = 0.5 * math.log2(1.0 + a_last_sq * 4.0 * 0.9**2 / 0.5)
    assert rates[-1] == pytest.approx(direct, rel=1e-12)


def test_noma_rates_reject_invalid_inputs():
    alloc = NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.9, 0.6, 0.3))
    with pytest.raises(ValueError):
        noma_rates(alloc, 0.5)  # gains not ascending
    good = NomaAllocation(coefficients=A3, total_power=4.0, user_gains=(0.3, 0.6, 0.9))
    with pytest.raises(ValueError):
        noma_rates(good, 0.0)


def test_tdma_equal_share_hand_values():
    rates = tdma_equal_share_rates((0.3, 0.6, 0.9), 4.0, 0.5)
    np.testing.assert_allclose(
        rates,
        [0.13040142748789554, 0.32600944206873383, 0.48383971168548534],
        rtol=1e-12,
    )
    with pytest.raises(ValueError):
        tdma_equal_share_rates((), 4.0, 0.5)
    with pytest.raises(ValueError):
        tdma_equal_share_rates((0.3,), 0.0, 0.5)


def test_best_two_user_allocation_beats_tdma():
    gains = (0.3, 0.9)
    alloc, rates = best_two_user_allocation(gains, 4.0, 0.5)
    tdma = tdma_equal_share_rates(gains, 4.0, 0.5)
    assert float(np.sum(rates)) > float(np.sum(tdma))
    # weak user keeps the larger coefficient
    assert alloc.coefficients[0] > alloc.coefficients[1]
    assert float(np.sum(alloc.coefficients**2)) == pytest.approx(1.0, abs=SUM_SQUARES_TOL)


def test_best_two_user_allocation_sweeps_the_open_interval():
    # the sweep must stay inside a1**2 in (1/2, 1): both ends break a
    # constraint (equal split ties the coefficients; a2 = 0 is invalid)
    _, rates = best_two_user_allocation((1e-6, 5e-6), 2.0, 1e-13, steps=19)
    assert np.all(rates > 0.0)
    with pytest.raises(ValueError):
        best_two_user_allocation((0.3, 0.6, 0.9), 4.0, 0.5)
    with pytest.raises(ValueError):
        best_two_user_allocation((0.9, 0.3), 4.0, 0.5)
    with pytest.raises(ValueError):
        best_two_user_allocation((0.3, 0.9), 4.0, 0.5, steps=0)


def test_best_allocation_matches_manual_sweep():
    gains = np.array([0.3, 0.9])
    steps = 49
    best = -np.inf
    for a1_sq in np.linspace(0.5, 1.0, steps + 2)[1:-1]:
        a = np.array([math.sqrt(a1_sq), math.sqrt(1.0 - a1_sq)])
        alloc = NomaAllocation(coefficients=a, total_power=4.0, user_gains=gains)
        best = max(best, float(np.sum(noma_rates(alloc, 0.5))))
    _, rates = best_two_user_allocation(gains, 4.0, 0.5, steps=steps)
    assert float(np.sum(rates)) == pytest.approx(best, rel=1e-12)


@given(st.floats(0.51, 0.99), st.floats(0.05, 0.5), st.floats(1.1, 4.0))
def test_noma_rates_are_finite_and_positive(a1_sq, h1, ratio):
    a = np.array([math.sqrt(a1_sq), math.sqrt(1.0 - a1_sq)])
    gains = np.array([h1, h1 * ratio])
    alloc = NomaAllocation(coefficients=a, total_power=2.0, user_gains=gains)
    rates = noma_rates(alloc, 0.25)
    assert np.all(np.isfinite(rates))
    assert np.all(rates > 0.0)


@given(st.floats(1e-9, 1e-3), st.floats(1.0 + 1e-6, 1e6))
def test_distinct_gains_take_the_first_interior_point_at_the_benchmark_power_and_noise(h1, ratio):
    # the sum rate log2((P h1^2 + s2) / (a2^2 P h1^2 + s2)) + log2(1 + a2^2 P h2^2 / s2) grows with the strong
    # user's share a2^2 whenever h2 > h1, so the sweep keeps its first point, the smallest a1^2 = 1/2 + 1/2/200,
    # at benchmark_scenario()'s 2 W and noise variance 1e-12; from ratios near 1 + 1e-8 down, rounding in the
    # nearly flat sums can pick a later point
    alloc, rates = best_two_user_allocation([h1, h1 * ratio], 2.0, 1e-12)
    assert alloc.coefficients[0] == math.sqrt(0.5 + 0.5 / 200)
    assert rates.tolist() == noma_rates(alloc, 1e-12).tolist()
