"""The per-scenario link table against the per-link code it replaced.

`channel._legs` computes the unblocked legs of one point set over every
(user, AP) in one pass; it is checked against `reflection_legs_oracle` (the
single-link `channel.reflection_legs` as it was) on each link.

`_static_links_oracle` is `Scenario._static_links` as it was: for every
(user, AP) pair one LoS test, one wall `reflection_legs_oracle` test and one
test per panel, each against the scenario blockers plus that user's body.
`_evaluate_links_oracle` is `evaluate_links` as it was on top of it, with one
`_Link` record per candidate AP and `max` choosing the serving one. The
table tests each leg in three occlusion calls instead; blockage is a union
over cylinders tested cell by cell, so the comparisons demand equal bits.

`_angle_step_oracle` is `evaluate_links` before the angle-free factors moved
into the table: every candidate ran the whole `steered_gains` body on the
table's legs, built (rows*cols, 3) normals through `_coerce_angles` even for
one shared (yaw, roll), summed panels into `np.zeros` and took `np.argmax`.

`_per_candidate_links` is `evaluate_links` before the angle step took a
population: `_per_candidate_normals` and `_per_candidate_steered_gains` are
`MirrorArray.normals` and `ris.steered_gains` of one candidate, a float pair
giving one broadcast normal. A population of any size, cut into chunks
anywhere, must give each candidate the bits this per-candidate code gives it.

`evaluate_links` returns a `TrialResult` of (users,) columns, and
`evaluate_population` one per chunk with a leading candidate axis; `_user_links`
turns their columns back into the per-user `_Link` records that the code they
replaced built, in Python floats, so these oracles compare every field of every
user down to the bits.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (leg_columns, occluders_of, realized_scenario, receiver_of, reflection_legs_oracle,
                      wall_gain_oracle)
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc import channel, geometry, metrics, optimize, ris, scenario
from ris_vlc.channel import LedTx, PdRx, _legs, incidence_cosine, los_gain
from ris_vlc.geometry import CylinderSet, Room, segments_blocked
from ris_vlc.metrics import link_rate, sum_rate
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.ris import ANGLE_LIMIT, MirrorArray, steering_terms
from ris_vlc.scenario import (
    BlockerPopulation,
    Scenario,
    UserSpec,
    benchmark_scenario,
    blocked_benchmark_scenario,
    run_study,
    trials_to_csv,
)


_LEG_FIELDS = ("d1", "u1", "cos_phi1", "d2", "u2", "cos_t2", "clear")
_COLUMNS = ("serving_ap", "h_los", "h_wall", "h_ris", "los_visible", "fov_ok")


@dataclasses.dataclass(frozen=True)
class _Link:
    """One user's gain split and flags at one access point, as the per-user record the arrays replaced."""

    user_index: int
    serving_ap: int
    h_los: float
    h_wall: float
    h_ris: float
    los_visible: bool
    fov_ok: bool

    @property
    def total_gain(self) -> float:
        return self.h_los + self.h_wall + self.h_ris


def _user_links(columns):
    """One `_Link` per user from the serving AP, h_los, h_wall, h_ris, los_visible and fov_ok columns."""
    return [_Link(u, *row) for u, row in enumerate(zip(*(np.asarray(column).tolist() for column in columns)))]


def _links_of(result):
    """A `TrialResult`'s columns as `_user_links`."""
    return _user_links([getattr(result, name) for name in _COLUMNS])


def _population_links(chunks):
    """Per candidate its `_user_links`, from the (candidates, users) columns of `evaluate_population`'s chunks."""
    return [_user_links([getattr(chunk, name)[c] for name in _COLUMNS]) for chunk in chunks
            for c in range(len(chunk.sum_rate))]


def _static_links_oracle(s):
    """Per user, per AP: (h_los, h_wall, los_visible, fov_ok, legs per panel)."""
    table = []
    for user in s.users:
        rx = receiver_of(user)
        occluders = occluders_of(s, user)
        per_ap = []
        for ap in s.aps:
            visible = not segments_blocked(ap.position[None, :], rx.position[None, :], occluders)[0]
            h_los = los_gain(ap, rx) if visible else 0.0  # a blocked link gets 0
            h_wall = wall_gain_oracle(ap, rx, s.wall_patches, occluders)
            cos_t = incidence_cosine(ap.position, rx.position, rx.orientation)
            legs = tuple(reflection_legs_oracle(ap, panel.element_centers, rx, occluders) for panel in s.ris_panels)
            per_ap.append((h_los, h_wall, visible, cos_t >= math.cos(rx.fov), legs))
        table.append(per_ap)
    return table


def _evaluate_links_oracle(s, ris_angles=None):
    panels = s.ris_panels
    pairs = [(None, None)] * len(panels) if ris_angles is None else list(ris_angles)
    normals = [_per_candidate_normals(panel, yaw, roll) for panel, (yaw, roll) in zip(panels, pairs)]
    links = []
    for u, (user, per_ap) in enumerate(zip(s.users, _static_links_oracle(s))):
        rx = receiver_of(user)
        candidates = []
        for a, (ap, (h_los, h_wall, visible, fov_ok, legs)) in enumerate(zip(s.aps, per_ap)):
            h_ris = 0.0
            for panel, panel_legs, n in zip(panels, legs, normals):
                terms = steering_terms(ap.lambertian_order, panel, panel_legs)
                h_ris += float(np.add.reduce(_per_candidate_steered_gains(panel, rx, terms, n)))
            candidates.append(_Link(u, a, h_los, h_wall, h_ris, visible, fov_ok))
        links.append(max(candidates, key=lambda link: link.total_gain))
    return links


def _steered_gains_oracle(m, array, rx, legs, normals):
    """`ris.steered_gains` as it was: the angle-free factors recomputed on every call."""
    sigma = array.beam_spread

    u1_dot_n = np.einsum("...j,...j->...", legs.u1, normals)
    cos_t1 = -u1_dot_n
    refl = legs.u1 - 2.0 * u1_dot_n[..., None] * normals
    psi = np.arccos(np.clip(np.einsum("...j,...j->...", refl, legs.u2), -1.0, 1.0))
    ok = legs.clear & (cos_t1 > 0.0)

    capture = (
        (m + 1.0)
        * array.element_area
        / (2.0 * math.pi * legs.d1**2)
        * channel._lambertian_power(np.where(ok, legs.cos_phi1, 0.0), m)
        * np.where(ok, cos_t1, 0.0)
    )
    lobe = np.exp(-0.5 * (psi / sigma) ** 2) / (2.0 * math.pi * sigma**2 * legs.d2**2)
    gains = (
        array.reflectivity
        * capture
        * lobe
        * rx.area
        * np.where(ok, legs.cos_t2, 0.0)
        * rx.filter_gain
        * rx.concentrator
    )
    return np.where(ok, gains, 0.0)


def _mirror_normals_oracle(yaw, roll, b, h):
    """`ris._mirror_normals` as it was: (n, 3) normals for flat arrays, (3,) for floats."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    b0, b1, b2 = b[0] * cy - b[1] * sy, b[0] * sy + b[1] * cy, b[2]
    a0, a1, a2 = h[0] * cy - h[1] * sy, h[0] * sy + h[1] * cy, h[2]
    cw, sw = np.cos(roll), np.sin(roll)
    out = np.empty(np.shape(cy) + (3,))
    out[..., 0] = b0 * cw + (a1 * b2 - a2 * b1) * sw
    out[..., 1] = b1 * cw + (a2 * b0 - a0 * b2) * sw
    out[..., 2] = b2 * cw + (a0 * b1 - a1 * b0) * sw
    return out


def _normals_oracle(panel, yaw=None, roll=None):
    """`MirrorArray.normals` as it was: every override through `_coerce_angles`, one row per element."""
    def coerce(angles):
        a = np.asarray(angles, dtype=float)
        if a.ndim == 0:
            a = np.full((panel.rows, panel.cols), float(a))
        return np.clip(a, -ANGLE_LIMIT, ANGLE_LIMIT)

    yaw = (panel.yaw if yaw is None else coerce(yaw)).ravel()
    roll = (panel.roll if roll is None else coerce(roll)).ravel()
    return _mirror_normals_oracle(yaw, roll, *panel._frame)


def _per_candidate_normals(panel, yaw=None, roll=None):
    """`MirrorArray.normals` of one candidate: a float pair (np.float64 too) clamps like `np.clip`, and its one
    normal is a read-only broadcast view; anything else goes through `_normals_oracle`."""
    if isinstance(yaw, float) and isinstance(roll, float):
        yaw, roll = (min(max(a, -ANGLE_LIMIT), ANGLE_LIMIT) for a in (yaw, roll))
        return np.broadcast_to(_mirror_normals_oracle(yaw, roll, *panel._frame), (panel.element_count, 3))
    return _normals_oracle(panel, yaw, roll)


def _per_candidate_steered_gains(array, rx, terms, normals):
    """`ris.steered_gains` of one candidate's (rows*cols, 3) normals: (users, APs, elements) gains."""
    legs = terms.legs
    u1_dot_n = np.einsum("...j,...j->...", legs.u1, normals)
    cos_t1 = -u1_dot_n
    refl = legs.u1 - 2.0 * u1_dot_n[..., None] * normals
    psi = np.arccos(np.clip(np.einsum("...j,...j->...", refl, legs.u2), -1.0, 1.0))
    ok = legs.clear & (cos_t1 > 0.0)
    lobe = np.exp(-0.5 * (psi / array.beam_spread) ** 2) / terms.spread
    gains = (array.reflectivity * (terms.capture * np.where(ok, cos_t1, 0.0)) * lobe * rx.area * terms.cos_t2
             * rx.filter_gain * rx.concentrator)
    return np.where(ok, gains, 0.0)


def _per_candidate_links(s, ris_angles=None):
    """`Scenario.evaluate_links` of one candidate: the table's angle step, then the scalar tail."""
    panels = s.ris_panels
    pairs = [(None, None)] * len(panels) if ris_angles is None else list(ris_angles)
    table = s._link_table
    sums = [np.add.reduce(_per_candidate_steered_gains(panel, table.rx, terms, _per_candidate_normals(panel, yaw, roll)),
                          axis=-1).tolist() for panel, terms, (yaw, roll) in zip(panels, table.mirror_terms, pairs)]
    links = []
    columns = (table.h_los.tolist(), table.h_wall.tolist(), table.los_visible.tolist(), table.fov_ok.tolist())
    for u, (los, wall, visible, fov_ok) in enumerate(zip(*columns)):
        ris = [metrics._in_order_sum(panel_sums[u][a] for panel_sums in sums) for a in range(len(los))]
        totals = [h_los + h_wall + h_ris for h_los, h_wall, h_ris in zip(los, wall, ris)]
        a = totals.index(max(totals))
        links.append(_Link(u, a, los[a], wall[a], ris[a], visible[a], fov_ok[a]))
    return links


def _angle_step_oracle(s, ris_angles=None):
    panels = s.ris_panels
    pairs = [(None, None)] * len(panels) if ris_angles is None else list(ris_angles)
    table = s._link_table
    m = np.array([ap.lambertian_order for ap in s.aps]).reshape(1, -1, 1)
    h_ris = np.zeros(table.h_los.shape)
    for panel, terms, (yaw, roll) in zip(panels, table.mirror_terms, pairs):
        normals = _normals_oracle(panel, yaw, roll)
        h_ris += np.add.reduce(_steered_gains_oracle(m, panel, table.rx, terms.legs, normals), axis=-1)
    serving = np.argmax(table.h_los + table.h_wall + h_ris, axis=1)
    return [_Link(u, int(a), float(table.h_los[u, a]), float(table.h_wall[u, a]),
                  float(h_ris[u, a]), bool(table.los_visible[u, a]), bool(table.fov_ok[u, a]))
            for u, a in enumerate(serving)]


def _sum_rate_oracle(s, ris_angles=None, links=None):
    """The in-order airtime-shared sum over `links`, by default `_evaluate_links_oracle` at `ris_angles`."""
    links = _evaluate_links_oracle(s, ris_angles) if links is None else links
    served = [link.serving_ap for link in links]
    total = 0.0
    for link in links:
        total += link_rate(link.total_gain, s.constraints, s.noise) / served.count(link.serving_ap)
    return total


# ------------------------------------------------------------- strategies

_WALLS = (((0.0, None), (1.0, 0.0, 0.0)), ((5.0, None), (-1.0, 0.0, 0.0)),
          ((None, 0.0), (0.0, 1.0, 0.0)), ((None, 5.0), (0.0, -1.0, 0.0)))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _scenarios(draw):
    """Realized scenarios: 1-4 users, 1-3 APs, 0-2 wall panels, 0-15 blockers."""
    aps = [LedTx(position=(draw(_floats(0.3, 4.7)), draw(_floats(0.3, 4.7)), draw(_floats(2.0, 3.0))))
           for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()) and len(aps) > 1:  # an exact tie between two APs
        aps[1] = LedTx(position=aps[0].position)
    users = [
        UserSpec(
            position=(draw(_floats(0.3, 4.7)), draw(_floats(0.3, 4.7)), draw(_floats(0.3, 1.5))),
            fixed_orientation=DeviceOrientation(draw(_floats(0.0, 1.4)), draw(_floats(-math.pi, math.pi))),
            self_blockage=draw(st.booleans()),
            body_offset=draw(_floats(0.0, 0.6)),
            body_radius=draw(_floats(0.05, 0.4)),
            body_height=draw(_floats(0.5, 2.0)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    panels = []
    for _ in range(draw(st.integers(0, 2))):
        (x, y), normal = draw(st.sampled_from(_WALLS))
        center = (draw(_floats(1.0, 4.0)) if x is None else x, draw(_floats(1.0, 4.0)) if y is None else y,
                  draw(_floats(0.8, 2.2)))
        panels.append(MirrorArray(panel_center=center, base_normal=normal, rows=draw(st.integers(1, 4)),
                                  cols=draw(st.integers(1, 4)), element_size=draw(_floats(0.05, 0.2)),
                                  yaw=draw(_floats(-1.0, 1.0)), roll=draw(_floats(-1.0, 1.0))))
    rows = np.array([(draw(_floats(0.0, 5.0)), draw(_floats(0.0, 5.0)), 0.0, draw(_floats(0.05, 0.4)),
                      draw(_floats(0.5, 2.5))) for _ in range(draw(st.integers(0, 15)))]).reshape(-1, 5)
    blockers = CylinderSet(rows[:, :3], rows[:, 3], rows[:, 4])
    return Scenario(room=Room(5.0, 5.0, 3.0), aps=tuple(aps), users=tuple(users), blockers=blockers,
                    ris_panels=tuple(panels), wall_patch_size=draw(st.sampled_from([0.4, 0.5, 1.0])))


# ------------------------------------------------------------------- tests


@settings(max_examples=120, deadline=None)
@given(_scenarios())
def test_link_table_matches_per_link_loop(s):
    table = s._link_table
    want = _static_links_oracle(s)
    shape = (len(s.users), len(s.aps))
    for name in ("h_los", "h_wall", "los_visible", "fov_ok"):
        assert getattr(table, name).shape == shape, name
    for u, per_ap in enumerate(want):
        for a, (h_los, h_wall, visible, fov_ok, legs) in enumerate(per_ap):
            assert table.h_los[u, a] == h_los
            assert table.h_wall[u, a] == h_wall
            assert table.los_visible[u, a] == visible
            assert table.fov_ok[u, a] == fov_ok
            assert len(table.mirror_terms) == len(legs)
            for got, expected in zip((terms.legs for terms in table.mirror_terms), legs):
                for name in _LEG_FIELDS:  # the (user, AP) slice of the panel's broadcast record
                    field = getattr(got, name)
                    assert np.array_equal(np.broadcast_to(field, (*shape, *field.shape[2:]))[u, a],
                                          getattr(expected, name)), name
                    assert not field.flags.writeable, name


@settings(max_examples=60, deadline=None)
@given(_scenarios(), st.integers(0, 2**32 - 1))
def test_evaluate_links_and_sum_rate_match_per_link_loop(s, seed):
    rng = np.random.default_rng(seed)
    angle_sets = [None, [(float(y), float(r)) for y, r in rng.uniform(-2.0, 2.0, (len(s.ris_panels), 2))],
                  [tuple(rng.uniform(-2.0, 2.0, (2, p.rows, p.cols))) for p in s.ris_panels]]
    for angles in angle_sets:
        got = s.evaluate_links(angles)
        assert [vars(link) for link in _links_of(got)] == [vars(link) for link in _evaluate_links_oracle(s, angles)]
        assert got.serving_ap.dtype.kind == "i" and got.h_ris.dtype == np.float64 and got.los_visible.dtype == bool
        rate = sum_rate(s, angles)
        assert type(rate) is float and rate == got.sum_rate == _sum_rate_oracle(s, angles)


def test_no_panels_no_blockers_and_no_users():
    base = benchmark_scenario()
    user = UserSpec(position=(1.0, 2.0, 0.75), fixed_orientation=DeviceOrientation(0.3, 1.0))
    s = dataclasses.replace(base, users=(user, user), blocker_population=None, ris_panels=())
    table = s._link_table
    assert table.mirror_terms == ()
    assert table.los_visible.all() and table.h_los[0, 0] == table.h_los[1, 0] > 0.0
    assert [vars(link) for link in _links_of(s.evaluate_links())] == [vars(link) for link in _evaluate_links_oracle(s)]
    empty = dataclasses.replace(base, users=(), blocker_population=None)
    assert empty._link_table.h_los.shape == (0, 1)
    assert _links_of(empty.evaluate_links()) == [] and sum_rate(empty) == 0.0


def test_building_the_table_makes_three_occlusion_calls(monkeypatch):
    calls = []

    def counting(name, original):
        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return spy

    originals = {name: getattr(geometry, name) for name in ("segments_blocked", "segments_blocked_each")}
    for module in (geometry, channel, ris, scenario):
        for name, original in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, original))
    base = benchmark_scenario()
    two_aps = dataclasses.replace(base, aps=base.aps + (LedTx(position=(1.0, 1.0, 3.0)),),
                                  blocker_population=BlockerPopulation(count=15))
    for s in (base, two_aps):
        realized = realized_scenario(s, np.random.default_rng(5))
        calls.clear()
        realized._link_table
        assert calls == ["segments_blocked", "segments_blocked", "segments_blocked_each"]
        calls.clear()
        sum_rate(realized)
        assert calls == []


def test_an_order_numpy_roots_keeps_the_bits_of_its_single_link():
    # acos(0.25) gives an order of exactly 0.5, which NumPy takes as sqrt for a one-element
    # exponent but as pow() for a longer one; the table must match the per-link code either way
    rooted = LedTx(position=(1.5, 3.5, 3.0), half_intensity_angle=math.acos(0.25))
    assert rooted.lambertian_order == 0.5
    base = benchmark_scenario()
    s = dataclasses.replace(base, aps=base.aps + (rooted, LedTx(position=(4.0, 1.0, 2.8))),
                            blocker_population=BlockerPopulation(count=3))
    realized = realized_scenario(s, np.random.default_rng(11))
    table, want = realized._link_table, _static_links_oracle(realized)
    assert [[h_wall for _, h_wall, *_ in per_ap] for per_ap in want] == table.h_wall.tolist()
    angles = [(0.3, -0.2)] * len(realized.ris_panels)
    assert [vars(link) for link in _links_of(realized.evaluate_links(angles))] == \
        [vars(link) for link in _evaluate_links_oracle(realized, angles)]
    assert sum_rate(realized, angles) == _sum_rate_oracle(realized, angles)


@st.composite
def _links(draw):
    """0-3 users, 1-3 APs of any beam width and aim, and 1-30 points, some of them repeated."""
    xyz = st.tuples(_floats(0.0, 5.0), _floats(0.0, 5.0), _floats(0.0, 3.0))
    aim = st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0), _floats(-1.0, -0.1))
    aps = [LedTx(position=draw(xyz), normal=draw(aim), half_intensity_angle=draw(_floats(0.1, 1.5)))
           for _ in range(draw(st.integers(1, 3)))]
    tilt = st.builds(DeviceOrientation, _floats(0.0, math.pi / 2.0), _floats(-math.pi, math.pi))
    rxs = [PdRx(position=draw(xyz), orientation=draw(tilt), fov=draw(_floats(0.1, math.pi / 2.0)))
           for _ in range(draw(st.integers(0, 3)))]
    points = np.array(draw(st.lists(xyz, min_size=1, max_size=30)))
    return aps, points[draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=40))], rxs


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(_links())
def test_legs_equal_the_per_link_legs(case):
    aps, points, rxs = case
    try:
        want = [[reflection_legs_oracle(ap, points, rx) for ap in aps] for rx in rxs]
        led = [reflection_legs_oracle(ap, points, PdRx(position=(9.0, 9.0, 9.0))) for ap in aps]
    except ValueError as refused:
        assert "coincides" in str(refused)
        with pytest.raises(ValueError, match="coincides"):
            _legs(aps, points, *leg_columns(rxs))
        return
    got = _legs(aps, points, *leg_columns(rxs))
    led_side, rx_side = (1, len(aps), len(points)), (len(rxs), 1, len(points))
    lead = dict(d1=led_side, u1=led_side, cos_phi1=led_side, d2=rx_side, u2=rx_side, cos_t2=rx_side,
                clear=(len(rxs), len(aps), len(points)))
    for name, shape in lead.items():
        assert getattr(got, name).shape[:3] == shape and not getattr(got, name).flags.writeable, name
    for a, ap_legs in enumerate(led):  # LED-side fields hold even with no users
        for name in ("d1", "u1", "cos_phi1"):
            assert _same_bits(getattr(got, name)[0, a], getattr(ap_legs, name)), name
    for u, per_ap in enumerate(want):
        for a, legs in enumerate(per_ap):
            for name in _LEG_FIELDS:
                field = getattr(got, name)
                assert _same_bits(np.broadcast_to(field, (len(rxs), len(aps), *field.shape[2:]))[u, a],
                                  getattr(legs, name)), name


def test_legs_refuse_a_point_on_any_endpoint():
    aps = [LedTx(position=(2.5, 2.5, 3.0)), LedTx(position=(1.0, 1.0, 3.0))]
    rxs = [PdRx(position=(1.0, 1.0, 0.75)), PdRx(position=(4.0, 4.0, 0.75))]
    cases = [(ap.position, users) for ap in aps for users in (rxs, [])] + [(rx.position, rxs) for rx in rxs]
    for point, users in cases:
        with pytest.raises(ValueError, match="coincides"):
            _legs(aps, np.array([[0.0, 1.0, 1.0], point]), *leg_columns(users))


def test_one_legs_pass_per_point_set_per_table_and_none_per_sum_rate(monkeypatch):
    calls = []

    def spy(txs, points, *columns):
        calls.append(len(points))
        return _legs(txs, points, *columns)

    monkeypatch.setattr(scenario, "_legs", spy)
    base = benchmark_scenario()
    two = dataclasses.replace(base, aps=base.aps + (LedTx(position=(1.0, 1.0, 3.0)),),
                              ris_panels=base.ris_panels + (MirrorArray((2.5, 0.0, 1.5), (0.0, 1.0, 0.0), 2, 3),))
    for s in (base, two):
        realized = realized_scenario(s, np.random.default_rng(3))
        calls.clear()
        realized._link_table
        assert calls == [len(realized.wall_patches)] + [p.element_count for p in realized.ris_panels]
        calls.clear()
        sum_rate(realized)
        sum_rate(realized, [(0.1, -0.2)] * len(realized.ris_panels))
        assert calls == []


# ------------------------------------------------- the angle step on the table


def _fixed_deployments():
    """The 2-user x 2-AP x 2-panel table, and the blocked deployment with a second panel below its face-up
    receiver, which no leg of any link reaches (a fully dark panel)."""
    base = blocked_benchmark_scenario()
    other = UserSpec(position=(1.0, 4.0, 0.75), fixed_orientation=DeviceOrientation(0.6, 2.0))
    two = dataclasses.replace(base, aps=base.aps + (LedTx(position=(1.0, 1.0, 3.0)),), users=base.users + (other,),
                              ris_panels=base.ris_panels + (MirrorArray((0.0, 2.5, 1.5), (1.0, 0.0, 0.0), 2, 3),))
    dark = dataclasses.replace(base, ris_panels=base.ris_panels + (MirrorArray((0.0, 2.5, 0.3), (1.0, 0.0, 0.0),
                                                                               2, 2),))
    return two, dark


_FIXED = _fixed_deployments()
# past the clamp on either side, and the clamp itself
_CLAMPED = (2.0, -2.0, math.inf, -math.inf, ANGLE_LIMIT, -ANGLE_LIMIT)
_ANGLES = st.one_of(_floats(-2.0, 2.0), st.sampled_from(_CLAMPED + (0.0, -0.0)))


@st.composite
def _angle_sets(draw, panels):
    """None, or per panel a Python-float pair, an np.float64 pair or two per-element matrices."""
    kind = draw(st.sampled_from(("stored", "float", "float64", "matrices")))
    if kind == "stored":
        return None
    pairs = []
    for panel in panels:
        if kind == "matrices":
            n = panel.element_count
            pairs.append(tuple(np.array(draw(st.lists(_ANGLES, min_size=n, max_size=n))).reshape(panel.rows, panel.cols)
                               for _ in range(2)))
        else:
            pair = (draw(_ANGLES), draw(_ANGLES))
            pairs.append(pair if kind == "float" else tuple(map(np.float64, pair)))
    return pairs


def _same_links(got, want):
    """Equal records down to the bits: repr tells -0.0 from 0.0 and keeps every digit."""
    return [repr(vars(link)) for link in got] == [repr(vars(link)) for link in want]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED), _scenarios()), st.data())
def test_h_ris_matches_the_angle_step_it_replaced(s, data):
    angles = data.draw(_angle_sets(s.ris_panels))
    assert _same_links(_links_of(s.evaluate_links(angles)), _angle_step_oracle(s, angles))


@pytest.mark.parametrize("s, shape, dark", [(_FIXED[0], (2, 2, 2), []), (_FIXED[1], (1, 1, 2), [1])],
                         ids=["2x2x2", "dark-panel"])
def test_every_angle_kind_matches_the_angle_step_it_replaced(s, shape, dark):
    table = s._link_table
    assert (*table.h_los.shape, len(table.mirror_terms)) == shape  # (users, APs, panels)
    assert [i for i, terms in enumerate(table.mirror_terms) if not terms.legs.clear.any()] == dark
    rng = np.random.default_rng(8)
    pairs = [(y, r) for y in _CLAMPED for r in _CLAMPED] + [tuple(v) for v in rng.uniform(-2.0, 2.0, (40, 2))]
    angle_sets = [None]
    for y, r in pairs:
        angle_sets += [[pair] * len(s.ris_panels) for pair in ((float(y), float(r)), (np.float64(y), np.float64(r)))]
    angle_sets += [[tuple(rng.choice(_CLAMPED + (0.3,), (2, p.rows, p.cols))) for p in s.ris_panels]
                   for _ in range(10)]
    for angles in angle_sets:
        assert _same_links(_links_of(s.evaluate_links(angles)), _angle_step_oracle(s, angles)), angles


def test_a_shared_pair_gives_each_candidate_one_normal_as_a_read_only_view():
    panel = _FIXED[0].ris_panels[1]
    yaw, roll = np.array([0.3, 2.0, -0.0, math.nan]), np.array([-0.2, -math.inf, 0.0, 0.0])
    normals = panel.normals(yaw, roll)
    assert normals.shape == (4, panel.element_count, 3) and normals.strides[1] == 0
    assert not normals.flags.writeable
    for c in range(3):
        assert normals[c].tobytes() == _per_candidate_normals(panel, float(yaw[c]), float(roll[c])).tobytes()
    assert np.isnan(normals[3]).all() and np.isnan(_per_candidate_normals(panel, math.nan, 0.0)).all()


def test_one_candidate_is_a_population_of_one():
    panel = _FIXED[0].ris_panels[1]
    for yaw, roll in [(0.3, -0.2), (np.float64(2.0), np.full((panel.rows, panel.cols), -4.0)), (None, 0.1)]:
        got = panel.normals(*panel.candidate(yaw, roll))
        assert got.shape == (1, panel.element_count, 3)
        assert got[0].tobytes() == _per_candidate_normals(panel, yaw, roll).tobytes()
    with pytest.raises(ValueError, match=r"^angle matrix must have shape \(2, 2, 3\), got \(2, 3, 2\)$"):
        panel.normals(np.zeros((2, 3, 2)), np.zeros(2))


_TWO_BY_TWO = dataclasses.replace(  # a template: 4 drawn users, 2 APs, 2 panels and 6 drawn blockers
    benchmark_scenario(), aps=(LedTx(position=(2.5, 2.5, 3.0)), LedTx(position=(1.0, 4.0, 2.8))),
    ris_panels=benchmark_scenario().ris_panels + (MirrorArray((2.5, 5.0, 1.4), (0.0, -1.0, 0.0), 3, 4),),
    blocker_population=BlockerPopulation(count=6))
_REALIZED = st.builds(lambda seed: realized_scenario(_TWO_BY_TWO, np.random.default_rng(seed)),
                      st.integers(0, 2**32 - 1))


def _population(rng, panels, size):
    """Per panel a shared (size,) pair, (size, rows, cols) matrices, or a shared yaw with a roll matrix; a fifth
    of the angles sit on or past the clamp."""
    pairs = []
    for panel in panels:
        matrix = (size, panel.rows, panel.cols)
        pair = []
        for shape in [((size,), (size,)), (matrix, matrix), ((size,), matrix)][rng.integers(3)]:
            angles = rng.uniform(-2.0, 2.0, shape)
            special = rng.uniform(size=shape) < 0.2
            angles[special] = rng.choice(_CLAMPED + (0.0, -0.0), int(special.sum()))
            pair.append(angles)
        pairs.append(tuple(pair))
    return pairs


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED), _REALIZED, _scenarios()), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from((1, 1009, geometry._CHUNK_CELLS)))
def test_a_population_gives_each_candidate_the_per_candidate_bits(s, size, seed, cap):
    # a cap of 1 runs one candidate per chunk, and the prime 1009 cuts populations at uneven places
    pairs = _population(np.random.default_rng(seed), s.ris_panels, size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_CHUNK_CELLS", cap)
        chunks = list(s.evaluate_population(pairs, size))
    got = _population_links(chunks)
    rows = [(rates, total) for chunk in chunks for rates, total in zip(chunk.rates, chunk.sum_rate, strict=True)]
    assert len(got) == len(rows) == size
    for c, (rates, total) in enumerate(rows):
        one = [(float(yaw[c]) if yaw.ndim == 1 else yaw[c], float(roll[c]) if roll.ndim == 1 else roll[c])
               for yaw, roll in pairs]
        want = _per_candidate_links(s, one)
        assert _same_links(got[c], want), c
        single = s.evaluate_links(one)  # row 0 of a population of one: the same bits as row c of this one
        assert rates.dtype == single.rates.dtype and rates.tobytes() == single.rates.tobytes(), c
        assert type(total) is float and repr(total) == repr(single.sum_rate) == repr(sum_rate(s, one)), c
        assert total == _sum_rate_oracle(s, links=want), c


def test_candidates_of_one_population_switch_serving_ap():
    # AP 1 lights the blocked user directly; a 21 x 21 lattice of shared angles steers AP 0's light onto it 5 times
    base = blocked_benchmark_scenario()
    s = dataclasses.replace(base, aps=base.aps + (LedTx(position=(0.5, 4.5, 3.0)),))
    yaw, roll = (a.ravel() for a in np.meshgrid(*[np.linspace(-ANGLE_LIMIT, ANGLE_LIMIT, 21)] * 2, indexing="ij"))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_CHUNK_CELLS", 1009)
        chunks = list(s.evaluate_population([(yaw, roll)], len(yaw)))
    got, rates = _population_links(chunks), [rate for chunk in chunks for rate in chunk.sum_rate]
    assert [c for c, (link,) in enumerate(got) if link.serving_ap == 0] == [282, 283, 284, 303, 304]
    for c, links in enumerate(got):
        want = _per_candidate_links(s, [(float(yaw[c]), float(roll[c]))])
        assert _same_links(links, want), c
        assert rates[c] == _sum_rate_oracle(s, links=want) == s.evaluate_links([(yaw[c], roll[c])]).sum_rate


def test_each_candidate_shares_airtime_at_its_own_serving_aps():
    # a second user under AP 1 is always served there; the blocked user joins it except at the 5 candidates that
    # steer AP 0's light onto it, where each user has its AP to itself
    base = blocked_benchmark_scenario()
    near = UserSpec(position=(0.8, 4.2, 0.75), fixed_orientation=DeviceOrientation(0.0, 0.0))
    s = dataclasses.replace(base, aps=base.aps + (LedTx(position=(0.5, 4.5, 3.0)),), users=base.users + (near,))
    yaw, roll = (a.ravel() for a in np.meshgrid(*[np.linspace(-ANGLE_LIMIT, ANGLE_LIMIT, 21)] * 2, indexing="ij"))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_CHUNK_CELLS", 1009)
        chunks = list(s.evaluate_population([(yaw, roll)], len(yaw)))
    serving, rates = (np.concatenate([getattr(chunk, name) for chunk in chunks]) for name in ("serving_ap", "rates"))
    assert (serving[:, 1] == 1).all() and np.flatnonzero(serving[:, 0] == 0).tolist() == [282, 283, 284, 303, 304]
    for c, links in enumerate(_population_links(chunks)):
        shared = 1 if serving[c, 0] == 0 else 2
        assert rates[c].tolist() == [link_rate(link.total_gain, s.constraints, s.noise) / shared for link in links], c


def test_equal_totals_go_to_the_lowest_index():
    base = benchmark_scenario()
    twin = LedTx(position=(2.0, 3.0, 3.0))
    s = realized_scenario(dataclasses.replace(base, aps=(LedTx(position=(0.2, 0.2, 3.0)), twin, twin)),
                          np.random.default_rng(4))
    totals = s._link_table.h_los + s._link_table.h_wall
    assert (totals[:, 1] == totals[:, 2]).all() and (totals[:, 1] > totals[:, 0]).all()
    pairs = _population(np.random.default_rng(2), s.ris_panels, 12)
    for links in [_links_of(s.evaluate_links())] + _population_links(s.evaluate_population(pairs, 12)):
        assert [link.serving_ap for link in links] == [1] * len(s.users)
    result = s.evaluate_links()
    assert (result.rates == [link_rate(h, s.constraints, s.noise) / len(s.users)
                             for h in (result.h_los + result.h_wall + result.h_ris).tolist()]).all()


def test_a_nan_total_is_served_only_when_it_is_the_first():
    # `_legs` keeps each 1 / d**2 finite, but a 1e150 m**2 detector and a 1e-4 rad beam (order m = 1.4e8) still
    # overflow a wall term 2e-77 m from their AP, and a patch the beam misses turns the inf into NaN: the AP's
    # wall gain is NaN at every user, and `max` of the Python floats kept such a total only as the first. Served,
    # its rate is refused where the population forms its rates, so a population and `sum_rate` refuse it alike
    base = blocked_benchmark_scenario()
    base = dataclasses.replace(base, users=(dataclasses.replace(base.users[0], area=1e150),))
    near = LedTx(position=base.wall_patches.centers[0] + (2e-77, 0.0, 0.0), half_intensity_angle=1e-4)
    for aps in [base.aps + (near,), (near,) + base.aps]:
        s = dataclasses.replace(base, aps=aps)
        with np.errstate(over="ignore", invalid="ignore"):
            table = s._link_table
        assert np.isnan(table.h_wall[0, aps.index(near)]) and np.isfinite(table.h_wall[0, 1 - aps.index(near)])
        population = s.evaluate_population([(np.zeros(1), np.zeros(1))], 1)
        if aps[0] is near:
            for refused in (lambda: next(population), lambda: sum_rate(s)):
                with pytest.raises(ValueError, match=r"^user 0: channel gain must be finite and nonnegative, got nan$"):
                    refused()
        else:
            (got,) = _population_links(population)
            assert got[0].serving_ap == 0 and got == _links_of(s.evaluate_links([(0.0, 0.0)])) and sum_rate(s) > 0.0


def test_a_grid_block_population_stays_within_a_bounded_peak():
    s = blocked_benchmark_scenario()
    s.evaluate_links()  # the table is built once per scenario, outside the measurement
    points = np.random.default_rng(0).uniform(-ANGLE_LIMIT, ANGLE_LIMIT, (optimize._GRID_BLOCK, 2))
    objective = optimize._sum_rate_objective(s, "identical")
    tracemalloc.start()
    try:
        values = objective(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # unchunked, every (P, elements, 3) temporary of the angle step would hold the whole block: 96 MiB
    unchunked = optimize._GRID_BLOCK * s.ris_panels[0].element_count * 3 * 8
    assert len(values) == optimize._GRID_BLOCK and peak < 16 << 20 < unchunked


# sha256 of `trials_to_csv(run_study(benchmark_scenario() with `count` population
# blockers, 20 trials, master seed 7))`, recorded from the per-link code
_STUDY_DIGESTS = {
    0: "7a9ed4c5e411c10ea908bb2baa52d7be1fbfa2d2b67966ab45ac3c89f8c9c090",
    5: "85af5d9cb8fc64313c5d44b6800c9fb1a7ac338f5aa133cde1c27539fd4d2259",
    15: "47e2cab9e4d9a153880fed8c40dbf55f97690b25960f4738d105a628695c4168",
}


@pytest.mark.parametrize("count", sorted(_STUDY_DIGESTS))
def test_run_study_csv_matches_recorded_digest(count):
    s = dataclasses.replace(benchmark_scenario(), blocker_population=BlockerPopulation(count=count))
    text = trials_to_csv(run_study(s, 20, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == _STUDY_DIGESTS[count]
