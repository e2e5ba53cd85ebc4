"""The shared reflection-leg kernel against the per-path code it replaced.

`scenario.element_gains` and `scenario.wall_first_reflection_gain` are one
link's view of the link table's legs (`scenario._blocked_legs`).
`_element_gains_oracle` and `_wall_gain_oracle` are the mirror and wall gains
as they were before both moved onto shared legs: each computed its own
legs, FoV gate and leg blockage. `_mirror_normals` and `_horizontal_axis` are
the element normals as they were before the panel frame moved onto
`MirrorArray` and the cross product was written per component. The rewrites
keep every float expression in operand order, so the differential tests
demand equal bits, not closeness.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import occluders_of
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ris_vlc import channel, geometry, ris, scenario
from ris_vlc.channel import LedTx, PdRx, WallPatchSet, _legs
from ris_vlc.geometry import CylinderSet, Room, Vec3, as_vec3, segments_blocked, unit
from ris_vlc.metrics import sum_rate
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.ris import ANGLE_LIMIT, MirrorArray
from ris_vlc.scenario import UserSpec, blocked_benchmark_scenario, element_gains, wall_first_reflection_gain

ROOM = Room(5.0, 5.0, 3.0)


_Z = np.array([0.0, 0.0, 1.0])


def _horizontal_axis(base_normal: Vec3) -> Vec3:
    """In-panel horizontal axis: z cross n, with an x fallback for ceiling panels."""
    h = np.cross(_Z, base_normal)
    n = np.linalg.norm(h)
    if n < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    return h / n


def _mirror_normals(yaw: np.ndarray, roll: np.ndarray, base_normal: Vec3) -> np.ndarray:
    """Vectorized mirror normals for flat arrays of yaw/roll angles.

    Yaw rotates the base normal (and the horizontal axis) about vertical;
    roll then rotates about the yawed horizontal axis. The horizontal axis
    stays perpendicular to the yawed normal, so Rodrigues' formula loses its
    parallel term and the normal reduces to b' cos(w) + (a x b') sin(w).
    """
    b = unit(as_vec3(base_normal))
    h0 = _horizontal_axis(b)
    cy, sy = np.cos(yaw), np.sin(yaw)
    bp = np.stack([b[0] * cy - b[1] * sy, b[0] * sy + b[1] * cy, np.full_like(cy, b[2])], axis=-1)
    a = np.stack([h0[0] * cy - h0[1] * sy, h0[0] * sy + h0[1] * cy, np.full_like(cy, h0[2])], axis=-1)
    cw, sw = np.cos(roll)[..., None], np.sin(roll)[..., None]
    return bp * cw + np.cross(a, bp) * sw


def _cylinders(rows):
    """One `CylinderSet` of (base, radius, height) rows."""
    bases, radii, heights = zip(*rows) if rows else ((), (), ())
    return CylinderSet(bases, radii, heights)


def _blocked(tx, points, rx, blockers=CylinderSet()):
    """One link's legs through `points`, blockage in `clear`, as the link table computes them."""
    (legs,), _ = scenario._blocked_legs((tx,), (rx,), [None], blockers, [points])
    return legs


def _same_bits(got, want):
    """Equal shape, dtype and bytes: stricter than ==, which takes -0.0 for 0.0."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _clamped(angles, shape):
    return np.clip(np.broadcast_to(np.asarray(angles, dtype=float), shape), -ANGLE_LIMIT, ANGLE_LIMIT)


def _element_gains_oracle(tx, array, rx, blockers=CylinderSet(), yaw=None, roll=None):
    yaw_m = array.yaw if yaw is None else _clamped(yaw, (array.rows, array.cols))
    roll_m = array.roll if roll is None else _clamped(roll, (array.rows, array.cols))

    centers = array.element_centers
    normals = _mirror_normals(yaw_m.ravel(), roll_m.ravel(), array.base_normal)
    m = tx.lambertian_order
    sigma = array.beam_spread

    v1 = centers - tx.position
    d1 = np.linalg.norm(v1, axis=1)
    if np.any(d1 <= 0.0):
        raise ValueError("a mirror element coincides with the transmitter")
    u1 = v1 / d1[:, None]
    cos_phi1 = u1 @ tx.normal
    cos_t1 = -np.einsum("ij,ij->i", u1, normals)

    refl = u1 - 2.0 * np.einsum("ij,ij->i", u1, normals)[:, None] * normals

    v2 = rx.position - centers
    d2 = np.linalg.norm(v2, axis=1)
    if np.any(d2 <= 0.0):
        raise ValueError("a mirror element coincides with the receiver")
    u2 = v2 / d2[:, None]
    psi = np.arccos(np.clip(np.einsum("ij,ij->i", refl, u2), -1.0, 1.0))
    cos_t2 = -(u2 @ rx.orientation.normal)

    ok = (cos_phi1 > 0.0) & (cos_t1 > 0.0) & (cos_t2 >= math.cos(rx.fov)) & (cos_t2 >= 0.0)
    if blockers and np.any(ok):
        ok &= ~segments_blocked(np.broadcast_to(tx.position, centers.shape), centers, blockers)
    if blockers and np.any(ok):
        ok &= ~segments_blocked(centers, np.broadcast_to(rx.position, centers.shape), blockers)

    capture = (
        (m + 1.0)
        * array.element_area
        / (2.0 * math.pi * d1**2)
        * np.where(ok, cos_phi1, 0.0) ** m
        * np.where(ok, cos_t1, 0.0)
    )
    lobe = np.exp(-0.5 * (psi / sigma) ** 2) / (2.0 * math.pi * sigma**2 * d2**2)
    gains = (
        array.reflectivity
        * capture
        * lobe
        * rx.area
        * np.where(ok, cos_t2, 0.0)
        * rx.filter_gain
        * rx.concentrator
    )
    return np.where(ok, gains, 0.0)


def _wall_gain_oracle(tx, rx, pset, blockers=CylinderSet()):
    if len(pset) == 0:
        return 0.0

    m = tx.lambertian_order
    tx_pos, rx_pos = tx.position, rx.position

    v1 = pset.centers - tx_pos
    d1 = np.linalg.norm(v1, axis=1)
    if np.any(d1 <= 0.0):
        raise ValueError("a wall patch coincides with the transmitter")
    u1 = v1 / d1[:, None]
    cos_phi1 = u1 @ tx.normal
    cos_t1 = -np.einsum("ij,ij->i", u1, pset.normals)

    v2 = rx_pos - pset.centers
    d2 = np.linalg.norm(v2, axis=1)
    if np.any(d2 <= 0.0):
        raise ValueError("a wall patch coincides with the receiver")
    u2 = v2 / d2[:, None]
    cos_phi2 = np.einsum("ij,ij->i", u2, pset.normals)
    cos_t2 = -(u2 @ rx.orientation.normal)

    ok = (
        (cos_phi1 > 0.0)
        & (cos_t1 > 0.0)
        & (cos_phi2 > 0.0)
        & (cos_t2 >= math.cos(rx.fov))
        & (cos_t2 >= 0.0)
    )
    if blockers and np.any(ok):
        ok &= ~segments_blocked(np.broadcast_to(tx_pos, pset.centers.shape), pset.centers, blockers)
    if blockers and np.any(ok):
        ok &= ~segments_blocked(pset.centers, np.broadcast_to(rx_pos, pset.centers.shape), blockers)

    base = np.where(ok, cos_phi1, 0.0)
    terms = (
        pset.reflectances
        * (m + 1.0)
        * rx.area
        / (2.0 * math.pi**2 * d1**2 * d2**2)
        * pset.areas
        * base**m
        * np.where(ok, cos_t1, 0.0)
        * np.where(ok, cos_phi2, 0.0)
        * np.where(ok, cos_t2, 0.0)
        * rx.filter_gain
        * rx.concentrator
    )
    return float(np.add.reduce(terms))


# ----------------------------------------------------------------- strategies

_inside = st.tuples(st.floats(0.1, 4.9), st.floats(0.1, 4.9), st.floats(0.1, 2.9))
_direction = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda t: sum(x * x for x in t) > 1e-2
)
# (center on the wall plane, inward normal) of each wall, at a drawn (s, z)
_WALLS = (
    (lambda s, z: (0.0, s, z), (1.0, 0.0, 0.0)),
    (lambda s, z: (5.0, s, z), (-1.0, 0.0, 0.0)),
    (lambda s, z: (s, 0.0, z), (0.0, 1.0, 0.0)),
    (lambda s, z: (s, 5.0, z), (0.0, -1.0, 0.0)),
)


@st.composite
def _links(draw):
    """LED and photodiode anywhere in the room; receivers may face away."""
    tx = LedTx(position=draw(_inside), normal=unit(draw(_direction)),
               half_intensity_angle=draw(st.floats(0.2, 1.4)))
    rx = PdRx(position=draw(_inside),
              orientation=DeviceOrientation(draw(st.floats(0.0, math.pi / 2)),
                                            draw(st.floats(-math.pi, math.pi))),
              fov=draw(st.floats(0.3, math.pi / 2)))
    return tx, rx


@st.composite
def _blockers(draw, tx, rx, via):
    """0-3 cylinders: anywhere, or on the LED-to-`via` or `via`-to-receiver leg."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("anywhere", "first leg", "second leg")))
        if kind == "anywhere":
            xy = np.array(draw(st.tuples(st.floats(0.2, 4.8), st.floats(0.2, 4.8))))
        else:
            a, b = (tx.position, via) if kind == "first leg" else (via, rx.position)
            xy = (a + draw(st.floats(0.2, 0.8)) * (b - a))[:2]
        rows.append(((xy[0], xy[1], 0.0), draw(st.floats(0.05, 0.5)), draw(st.floats(0.5, 3.0))))
    return _cylinders(rows)


def _angle_override(shape):
    """None (stored angles), a scalar, or a full matrix; values beyond +-pi/2."""
    n = shape[0] * shape[1]
    return st.one_of(
        st.none(),
        st.floats(-4.0, 4.0),
        st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n).map(
            lambda v: np.array(v).reshape(shape)),
    )


# ceiling and floor panels (+-z, the x fallback axis) and normals tilted off
# vertical by a horizontal part on either side of the 1e-12 fallback threshold
_near_vertical = st.builds(
    lambda e, phi, up: (e * math.cos(phi), e * math.sin(phi), up),
    st.one_of(st.just(0.0), st.sampled_from((1e-13, 9.99e-13, 1.001e-12, 1e-11)), st.floats(1e-14, 1e-9)),
    st.floats(-math.pi, math.pi),
    st.sampled_from((1.0, -1.0)),
)
_off_wall_normals = st.one_of(_direction, _near_vertical)


@st.composite
def _panel_poses(draw):
    """(center, normal): on a wall facing in, or anywhere with an oblique or near-vertical normal."""
    if draw(st.booleans()):
        place, normal = draw(st.sampled_from(_WALLS))
        return place(draw(st.floats(0.5, 4.5)), draw(st.floats(0.3, 2.7))), normal
    return draw(_inside), draw(_off_wall_normals)


@st.composite
def _mirror_cases(draw):
    tx, rx = draw(_links())
    center, normal = draw(_panel_poses())
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    panel = MirrorArray(
        panel_center=center,
        base_normal=normal, rows=rows, cols=cols,
        element_size=draw(st.floats(0.05, 0.3)),
        reflectivity=draw(st.floats(0.0, 1.0)),
        beam_spread=draw(st.floats(0.01, 0.3)),
        yaw=draw(st.floats(-4.0, 4.0)), roll=draw(st.floats(-4.0, 4.0)),
    )
    for point in (tx.position, rx.position):  # the legs need distinct endpoints
        assume(np.linalg.norm(panel.element_centers - point, axis=1).min() > 1e-6)
    blockers = draw(_blockers(tx, rx, panel.panel_center))
    yaw = draw(_angle_override((rows, cols)))
    roll = draw(_angle_override((rows, cols)))
    return tx, panel, rx, blockers, yaw, roll


# ------------------------------------------------------- differential tests


@settings(max_examples=300, deadline=None)
@given(_mirror_cases())
def test_element_gains_match_pre_kernel_code(case):
    tx, panel, rx, blockers, yaw, roll = case
    want = _element_gains_oracle(tx, panel, rx, blockers, yaw=yaw, roll=roll)
    got = element_gains(tx, panel, rx, blockers, yaw=yaw, roll=roll)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normals_match_pre_change_code(data):
    _, normal = data.draw(_panel_poses())
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    panel = MirrorArray(panel_center=(2.5, 2.5, 1.5), base_normal=normal, rows=rows, cols=cols,
                        yaw=data.draw(st.floats(-4.0, 4.0)), roll=data.draw(st.floats(-4.0, 4.0)))
    yaw = data.draw(_angle_override((rows, cols)))
    roll = data.draw(_angle_override((rows, cols)))
    yaw_m = panel.yaw if yaw is None else _clamped(yaw, (rows, cols))
    roll_m = panel.roll if roll is None else _clamped(roll, (rows, cols))
    want = _mirror_normals(yaw_m.ravel(), roll_m.ravel(), panel.base_normal)
    got = panel.normals(yaw, roll)
    assert np.array_equal(got, want) and _same_bits(got, want)


@st.composite
def _wall_cases(draw):
    tx, rx = draw(_links())
    pset = WallPatchSet.for_room(ROOM, draw(st.sampled_from((0.4, 0.6, 1.0))),
                                 draw(st.floats(0.0, 1.0)))
    via = pset.centers[draw(st.integers(0, len(pset) - 1))]
    return tx, rx, pset, draw(_blockers(tx, rx, via))


@settings(max_examples=200, deadline=None)
@given(_wall_cases())
def test_wall_gain_matches_pre_kernel_code(case):
    tx, rx, pset, blockers = case
    assert wall_first_reflection_gain(tx, rx, pset, blockers) == _wall_gain_oracle(
        tx, rx, pset, blockers)


def test_leg_blockers_reach_the_clear_mask():
    # a tall cylinder halfway between LED and panel shadows part of the
    # panel, and a receiver facing away from the panel leaves nothing clear
    tx = LedTx(position=(2.5, 2.5, 2.9))
    panel = MirrorArray(panel_center=(0.0, 2.5, 1.5), base_normal=(1, 0, 0), rows=4, cols=4)
    rx = PdRx(position=(2.0, 2.5, 0.8), orientation=DeviceOrientation(1.2, math.pi))
    shadow = CylinderSet([(1.25, 2.6, 0.0)], radii=0.1, heights=3.0)
    open_legs = _blocked(tx, panel.element_centers, rx)
    cut_legs = _blocked(tx, panel.element_centers, rx, shadow)
    assert open_legs.clear.all() and 0 < cut_legs.clear.sum() < 16
    facing_away = PdRx(position=(2.0, 2.5, 0.8), orientation=DeviceOrientation(1.2, 0.0))
    assert not _blocked(tx, panel.element_centers, facing_away).clear.any()
    for blockers in (CylinderSet(), shadow):
        for r in (rx, facing_away):
            assert np.array_equal(element_gains(tx, panel, r, blockers),
                                  _element_gains_oracle(tx, panel, r, blockers))


def test_blocked_legs_are_read_only():
    tx = LedTx(position=(2.5, 2.5, 3.0))
    rx = PdRx(position=(1.0, 1.0, 0.75))
    legs = _blocked(tx, WallPatchSet.for_room(ROOM, 1.0).centers, rx, CylinderSet([(1.5, 1.5, 0.0)]))
    for name, array in vars(legs).items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        legs.clear = None


def test_blocked_legs_reject_points_on_an_endpoint():
    tx = LedTx(position=(2.5, 2.5, 3.0))
    rx = PdRx(position=(1.0, 1.0, 0.75))
    for point in (tx.position, rx.position):
        with pytest.raises(ValueError, match="coincides"):
            _blocked(tx, np.array([[0.0, 1.0, 1.0], point]), rx)


# ------------------------------------------------------ scenario static legs


def _two_user_scenario():
    """Blocked user behind a cylinder plus a self-blocking user, two APs, 2x3 panel."""
    base = blocked_benchmark_scenario()
    other = UserSpec(position=(1.0, 4.0, 0.75), fixed_orientation=DeviceOrientation(0.6, 2.0))
    panel = dataclasses.replace(base.ris_panels[0], rows=2, cols=3, yaw=0.0, roll=0.0)
    return dataclasses.replace(
        base,
        aps=base.aps + (LedTx(position=(1.0, 1.0, 3.0)),),
        users=base.users + (other,),
        ris_panels=(panel, MirrorArray(panel_center=(0.0, 2.5, 1.5), base_normal=(1, 0, 0),
                                       rows=1, cols=2)),
    )


def _angle_sets(scenario, count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            yield [(float(y), float(r)) for y, r in rng.uniform(-2.0, 2.0, (len(scenario.ris_panels), 2))]
        else:
            yield [tuple(rng.uniform(-2.0, 2.0, (2, p.rows, p.cols))) for p in scenario.ris_panels]


def test_evaluate_links_reuses_static_legs_across_angle_sets():
    s = _two_user_scenario()
    for angles in _angle_sets(s, 20, seed=3):
        reused = s.evaluate_links(angles)
        fresh = dataclasses.replace(s).evaluate_links(angles)
        assert [vars(a) for a in reused] == [vars(b) for b in fresh]
        # the cached path equals the per-link element gains of the code before the shared legs
        for link, user in zip(reused, s.users):
            ap, rx = s.aps[link.serving_ap], user.receiver()
            occluders = occluders_of(s, user)
            h_ris = 0.0
            for panel, (yaw, roll) in zip(s.ris_panels, angles):
                h_ris += float(np.add.reduce(_element_gains_oracle(ap, panel, rx, occluders, yaw=yaw, roll=roll)))
            assert link.h_ris == h_ris


def test_sum_rate_runs_no_blockage_test_once_static_links_exist(monkeypatch):
    s = _two_user_scenario()
    calls = []
    original = geometry.segments_blocked

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for module in (geometry, channel, ris, scenario):
        monkeypatch.setattr(module, "segments_blocked", counting)
    s._link_table
    assert calls  # building the static links does run the tests
    calls.clear()
    for angles in _angle_sets(s, 6, seed=4):
        sum_rate(s, angles)
    sum_rate(s)
    assert calls == []


def test_evaluate_links_computes_each_panels_normals_once(monkeypatch):
    s = _two_user_scenario()  # 2 users x 2 APs x 2 panels
    s._link_table
    calls = []
    original = ris._mirror_normals

    def counting(*args):
        calls.append(np.size(args[0]))
        return original(*args)

    monkeypatch.setattr(ris, "_mirror_normals", counting)
    for angles in [*_angle_sets(s, 4, seed=5), None]:
        calls.clear()
        s.evaluate_links(angles)
        # a float pair gives one normal, broadcast over the panel; matrices and stored angles one per element
        one_pair = angles is not None and isinstance(angles[0][0], float)
        assert calls == [1 if one_pair else panel.element_count for panel in s.ris_panels]


def test_evaluate_links_checks_pair_count_then_static_links_then_angle_shapes():
    s = _two_user_scenario()
    bad_shape = [(np.zeros((5, 5)), 0.0), (0.0, 0.0)]
    with pytest.raises(ValueError, match="expected 2"):
        s.evaluate_links([(0.0, 0.0)])
    with pytest.raises(ValueError, match="unsampled"):
        dataclasses.replace(s, users=s.users + (UserSpec(),)).evaluate_links(bad_shape)
    with pytest.raises(ValueError, match="angle matrix"):
        s.evaluate_links(bad_shape)


# -------------------------------------------------- one test over lit rows

# LED over the room, four points on the x = 0 wall and one above the LED,
# which the LED does not face; a receiver tilted toward the wall.
_TX = LedTx(position=(2.5, 2.5, 2.9))
_RX = PdRx(position=(2.0, 2.5, 0.8), orientation=DeviceOrientation(1.2, math.pi))
_POINTS = np.array([[0.0, 1.0, 1.5], [0.0, 2.0, 1.5], [0.0, 3.0, 1.5], [0.0, 4.0, 1.5], [0.0, 2.5, 2.95]])


def _high(x, y):
    """A cylinder from z = 1.6 up: it can cut only LED-side legs, which stay above z = 1.5."""
    return (x, y, 1.6), 0.05, 1.3


def _low(x, y):
    """A cylinder up to z = 1.2: it can cut only receiver-side legs, which stay below z = 1.5."""
    return (x, y, 0.0), 0.05, 1.2


# row 0: LED side only; row 1: receiver side only; row 2: both; row 3: neither
_LEG_CUTTERS = [_high(1.25, 1.75), _low(1.0, 2.25), _high(1.25, 2.75), _low(1.0, 2.75)]


def _clear_oracle(blockers):
    """`clear` as the two-call form gave it: the LED-side legs, then the receiver-side legs."""
    lit = _legs((_TX,), _POINTS, (_RX,)).clear[0, 0].copy()
    if blockers and np.any(lit):
        lit &= ~segments_blocked(np.broadcast_to(_TX.position, _POINTS.shape), _POINTS, blockers)
    if blockers and np.any(lit):
        lit &= ~segments_blocked(_POINTS, np.broadcast_to(_RX.position, _POINTS.shape), blockers)
    return lit


def test_clear_is_lit_and_neither_leg_blocked():
    lit = _legs((_TX,), _POINTS, (_RX,)).clear[0, 0]
    assert lit.tolist() == [True, True, True, True, False]
    cutters = _cylinders(_LEG_CUTTERS)
    first = segments_blocked(np.broadcast_to(_TX.position, _POINTS.shape), _POINTS, cutters)
    second = segments_blocked(_POINTS, np.broadcast_to(_RX.position, _POINTS.shape), cutters)
    assert (first[:4] & ~second[:4]).tolist() == [True, False, False, False]
    assert (~first[:4] & second[:4]).tolist() == [False, True, False, False]
    assert (first[:4] & second[:4]).tolist() == [False, False, True, False]
    for rows in ([], _LEG_CUTTERS[:1], _LEG_CUTTERS[1:2], _LEG_CUTTERS[2:], _LEG_CUTTERS):
        blockers = _cylinders(rows)
        clear = _blocked(_TX, _POINTS, _RX, blockers).clear[0, 0]
        assert np.array_equal(clear, _clear_oracle(blockers))
    assert clear.tolist() == [False, False, False, True, False]  # the last set is every cutter


def test_blocked_legs_test_lit_rows_once(monkeypatch):
    calls = []
    original = scenario.segments_blocked

    def counting(origins, ends, blockers):
        calls.append((np.array(origins), np.array(ends)))
        return original(origins, ends, blockers)

    monkeypatch.setattr(scenario, "segments_blocked", counting)
    _blocked(_TX, _POINTS, _RX, _cylinders(_LEG_CUTTERS))
    lit = _POINTS[:4]  # the point above the LED is not tested
    tx, rx = (np.broadcast_to(point, (len(lit) + 1, 3)) for point in (_TX.position, _RX.position))
    # the LED-side legs, then the receiver-side legs and the LoS segment
    assert len(calls) == 2 and all(np.array_equal(got, want) for got, want in zip(
        (*calls[0], *calls[1]), (tx[1:], lit, np.vstack([lit, tx[:1]]), rx)))
    calls.clear()
    _blocked(_TX, _POINTS[4:], _RX, _cylinders(_LEG_CUTTERS))  # nothing lit: the LoS segment alone
    assert [(len(origins), len(ends)) for origins, ends in calls] == [(0, 0), (1, 1)]
