"""The one-pass blockage test against the per-blocker code it replaced.

`_blocked_oracle` is `segments_blocked` as it was: one kernel call per
blocker, ORed into the result. `_blocked_each_oracle` is the old row-paired
form, and `_orientation_study_oracle` is `orientation_study` as it was,
drawing every stream up front with the whole-pass polar sampler and
expanding every sample's population draw with `np.repeat`. The rewrite
evaluates the same elementwise expressions on a (cylinders x rows) grid, so
the comparisons demand equal results, not close ones. `_discriminant_hits`
is the exact kernel as it was, with the circle window from the roots of
a t**2 + b t + c; it must agree with the kernel wherever rounding cannot
decide the answer.
"""

import dataclasses
import math
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from conftest import whole_pass_polar_angles
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ris_vlc import channel, geometry, scenario
from ris_vlc.channel import LedTx
from ris_vlc.geometry import CylinderSet, _segment_cylinder_hits, segments_blocked, segments_blocked_each
from ris_vlc.orientation import DeviceOrientation
from ris_vlc.scenario import (
    BlockerPopulation,
    UserSpec,
    benchmark_scenario,
    orientation_benchmark_scenario,
    orientation_study,
    run_study,
    trials_to_csv,
)


class _Cylinder(NamedTuple):
    """One cylinder, as the strategies place segments against it."""

    base_center: np.ndarray
    radius: float = 0.15
    height: float = 1.65


def _cylinder(base, radius=0.15, height=1.65):
    return _Cylinder(np.asarray(base, dtype=float), radius, height)


def _set(cylinders):
    """The `CylinderSet` of a list of `_Cylinder`s, in order."""
    return CylinderSet([c.base_center for c in cylinders], [c.radius for c in cylinders],
                       [c.height for c in cylinders])


def _blocked_oracle(origins, ends, blockers: CylinderSet):
    p0 = np.atleast_2d(np.asarray(origins, dtype=float))
    p1 = np.atleast_2d(np.asarray(ends, dtype=float))
    p0, p1 = np.broadcast_arrays(p0, p1)
    hit = np.zeros(p0.shape[0], dtype=bool)
    for base, radius, height in zip(blockers.bases, blockers.radii, blockers.heights):
        if np.all(hit):
            break
        hit |= _segment_cylinder_hits(p0, p1, base, radius, height)
    return hit


def _blocked_each_oracle(origins, ends, bases, radius, height):
    p0 = np.atleast_2d(np.asarray(origins, dtype=float))
    p1 = np.atleast_2d(np.asarray(ends, dtype=float))
    bases = np.atleast_2d(np.asarray(bases, dtype=float))
    p0, p1, bases = np.broadcast_arrays(p0, p1, bases)
    return _segment_cylinder_hits(p0, p1, bases, radius, height)


def _discriminant_hits(p0, p1, base, radius, height):
    d = p1 - p0
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    a = dx * dx + dy * dy
    planar = a > geometry._EPS_AXIS
    ox, oy = p0[:, 0] - base[..., 0], p0[:, 1] - base[..., 1]
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius**2
    z0, zlo = p0[:, 2], base[..., 2]
    zhi = zlo + height
    inside_slab = (z0 >= zlo) & (z0 <= zhi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_lo_z = np.where(np.abs(dz) > geometry._EPS_AXIS, (zlo - z0) / dz, np.where(inside_slab, -np.inf, np.inf))
        t_hi_z = np.where(np.abs(dz) > geometry._EPS_AXIS, (zhi - z0) / dz, np.where(inside_slab, np.inf, np.inf))
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    safe_a = np.where(planar, a, 1.0)
    circ_ok = planar & (disc >= 0.0)
    c_lo = np.where(circ_ok, (-b - root) / (2.0 * safe_a), np.where(~planar & (c <= 0.0), -np.inf, np.inf))
    c_hi = np.where(circ_ok, (-b + root) / (2.0 * safe_a), np.where(~planar & (c <= 0.0), np.inf, -np.inf))
    lo = np.maximum(np.maximum(np.minimum(t_lo_z, t_hi_z), c_lo), 0.0)
    hi = np.minimum(np.minimum(np.maximum(t_lo_z, t_hi_z), c_hi), 1.0)
    return lo <= hi


def _orientation_study_oracle(scn, samples, master_seed=42):
    template = scn.users[0] if scn.users else UserSpec()
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
    n = samples
    if template.position is None:
        x = rng.uniform(0.0, scn.room.length, n)
        y = rng.uniform(0.0, scn.room.width, n)
        z = np.full(n, template.height)
    else:
        x = np.full(n, template.position[0])
        y = np.full(n, template.position[1])
        z = np.full(n, template.position[2])
    device = np.stack([x, y, z], axis=1)
    if template.fixed_orientation is None:
        polar = whole_pass_polar_angles(scn.orientation_model, rng, n)
        azimuth = rng.uniform(-math.pi, math.pi, n)
    else:
        polar = np.full(n, template.fixed_orientation.polar)
        azimuth = np.full(n, template.fixed_orientation.azimuth)
    ap_positions = np.stack([ap.position for ap in scn.aps])
    d2 = ((device[:, None, :] - ap_positions[None, :, :]) ** 2).sum(axis=2)
    ap_xyz = ap_positions[np.argmin(d2, axis=1)]

    visible = ~_blocked_oracle(ap_xyz, device, scn.blockers)
    if template.self_blockage:
        body = device.copy()
        body[:, 0] += template.body_offset * np.cos(azimuth)
        body[:, 1] += template.body_offset * np.sin(azimuth)
        body[:, 2] = 0.0
        visible &= ~_blocked_each_oracle(ap_xyz, device, body, template.body_radius, template.body_height)
    if scn.blocker_population is not None and scn.blocker_population.count > 0:
        pop = scn.blocker_population
        bx = rng.uniform(pop.radius, scn.room.length - pop.radius, (n, pop.count))
        by = rng.uniform(pop.radius, scn.room.width - pop.radius, (n, pop.count))
        bases = np.stack([bx, by, np.zeros_like(bx)], axis=2).reshape(-1, 3)
        seg0 = np.repeat(ap_xyz, pop.count, axis=0)
        seg1 = np.repeat(device, pop.count, axis=0)
        hits = _blocked_each_oracle(seg0, seg1, bases, pop.radius, pop.height)
        visible &= ~hits.reshape(n, pop.count).any(axis=1)

    dvec = ap_xyz - device
    dist = np.linalg.norm(dvec, axis=1)
    cos_theta = (
        dvec[:, 0] / dist * np.sin(polar) * np.cos(azimuth)
        + dvec[:, 1] / dist * np.sin(polar) * np.sin(azimuth)
        + dvec[:, 2] / dist * np.cos(polar)
    )
    excluded = cos_theta < math.cos(template.fov)
    n_visible = int(np.sum(visible))
    if n_visible == 0:
        return math.nan
    return float(np.sum(visible & excluded) / n_visible)


# ------------------------------------------------------------- strategies

_coord = st.floats(-1.0, 6.0, allow_nan=False, allow_infinity=False)
_KINDS = ("random", "vertical", "level", "point", "surface", "tangent", "cap")


@st.composite
def _cylinders(draw):
    return [
        _cylinder(
            (draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)),
             draw(st.sampled_from([0.0, 0.25, draw(st.floats(0.0, 1.0))]))),
            radius=draw(st.floats(0.05, 1.0)),
            height=draw(st.floats(0.1, 3.0)),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]


@st.composite
def _segment(draw, blockers):
    """One segment, often placed exactly on a boundary case of a cylinder."""
    kind = draw(st.sampled_from(_KINDS))
    p0 = np.array([draw(_coord), draw(_coord), draw(_coord)])
    if kind == "random" or (kind in ("surface", "tangent", "cap") and not blockers):
        return p0, np.array([draw(_coord), draw(_coord), draw(_coord)])
    if kind == "vertical":  # no radial extent
        return p0, p0 + [0.0, 0.0, draw(st.floats(-3.0, 3.0))]
    if kind == "level":
        return p0, np.array([draw(_coord), draw(_coord), p0[2]])
    if kind == "point":
        return p0, p0.copy()
    c = draw(st.sampled_from(blockers))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    rim = c.base_center + [c.radius * math.cos(theta), c.radius * math.sin(theta), 0.0]
    if kind == "surface":  # endpoint on the lateral surface or a cap edge
        return p0, rim + [0.0, 0.0, draw(st.sampled_from([0.0, c.height, draw(st.floats(0.0, c.height))]))]
    if kind == "cap":  # endpoint on the top cap
        rho = draw(st.floats(0.0, 1.0)) * c.radius
        top = c.base_center + [rho * math.cos(theta), rho * math.sin(theta), c.height]
        return p0, top
    # tangent: a level chord touching the circle at `rim`, inside or at the slab
    z = draw(st.sampled_from([0.0, c.height, draw(st.floats(0.0, c.height))])) + c.base_center[2]
    along = np.array([-math.sin(theta), math.cos(theta), 0.0])
    touch = np.array([rim[0], rim[1], z])
    return touch - draw(st.floats(0.0, 3.0)) * along, touch + draw(st.floats(0.0, 3.0)) * along


@st.composite
def _case(draw):
    blockers = draw(_cylinders())
    n = draw(st.integers(0, 12))
    segments = [draw(_segment(blockers)) for _ in range(n)]
    p0 = np.array([s[0] for s in segments]).reshape(n, 3)
    p1 = np.array([s[1] for s in segments]).reshape(n, 3)
    return blockers, p0, p1


def _chunks(monkeypatch):
    """Run under the module block size and under a tiny one with ragged blocks."""
    for cells in (geometry._CHUNK_CELLS, 7):
        with monkeypatch.context() as m:
            m.setattr(geometry, "_CHUNK_CELLS", cells)
            yield


# ------------------------------------------------------------------ kernel


@settings(max_examples=300, deadline=None)
@given(_case())
def test_segments_blocked_matches_per_blocker_loop(case):
    blockers, p0, p1 = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            got = segments_blocked(p0, p1, _set(blockers))
            want = _blocked_oracle(p0, p1, _set(blockers))
            assert got.dtype == bool and got.shape == (len(p0),)
            assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(_case())
def test_segments_blocked_each_matches_per_cylinder_loop(case):
    blockers, p0, p1 = case
    n = len(p0)
    rng = np.random.default_rng(n)
    # K cylinders per row: each blocker's base, shifted per row
    bases = np.array([b.base_center + rng.uniform(-0.5, 0.5, 3) * [1, 1, 0] for b in blockers
                      for _ in range(n)]).reshape(len(blockers), n, 3)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            got = segments_blocked_each(p0, p1, bases.transpose(1, 0, 2), 0.4, 1.5)  # rows first
            want = np.zeros(n, dtype=bool)
            for k in range(len(blockers)):
                want |= _blocked_each_oracle(p0, p1, bases[k], 0.4, 1.5)
            assert got.dtype == bool and got.shape == (n,)
            assert np.array_equal(got, want)
            if blockers:
                one = segments_blocked_each(p0, p1, bases[0], 0.4, 1.5)
                assert np.array_equal(one, _blocked_each_oracle(p0, p1, bases[0], 0.4, 1.5))


@st.composite
def _rows_first_case(draw):
    """K in {0, 1, 5} cylinders per row, rows first, with one size for all rows or one per row;
    each row's segment is often placed on a boundary case of one of that row's cylinders."""
    k, n, per_row = draw(st.sampled_from([0, 1, 5])), draw(st.integers(0, 12)), draw(st.booleans())
    shared = (draw(st.floats(0.05, 1.0)), draw(st.floats(0.1, 3.0)))
    rows = []
    for _ in range(n):
        radius, height = (draw(st.floats(0.05, 1.0)), draw(st.floats(0.1, 3.0))) if per_row else shared
        cylinders = [_cylinder((draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)),
                                draw(st.sampled_from([0.0, 0.25]))), radius, height) for _ in range(k)]
        rows.append((cylinders, draw(_segment(cylinders)), radius, height))
    bases = np.array([[c.base_center for c in row[0]] for row in rows]).reshape(n, k, 3)
    p0, p1 = (np.array([row[1][j] for row in rows]).reshape(n, 3) for j in (0, 1))
    if per_row:
        return bases, p0, p1, np.array([row[2] for row in rows]), np.array([row[3] for row in rows])
    return bases, p0, p1, *shared


@settings(max_examples=300, deadline=None)
@given(_rows_first_case())
def test_rows_first_cylinders_match_the_or_of_the_row_paired_oracle(case):
    bases, p0, p1, radius, height = case
    want = np.zeros(len(p0), dtype=bool)
    for k in range(bases.shape[1]):
        want |= _blocked_each_oracle(p0, p1, bases[:, k], radius, height)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            got = segments_blocked_each(p0, p1, bases, radius, height)
            assert got.dtype == bool and got.shape == (len(p0),)
            assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(_case())
def test_segments_blocked_each_takes_one_size_per_row(case):
    # row i against the i-th cylinder of the list (cyclic), with that cylinder's own radius and height
    blockers, p0, p1 = case
    assume(blockers)
    rows = [blockers[i % len(blockers)] for i in range(len(p0))]
    bases = np.array([b.base_center for b in rows]).reshape(-1, 3)
    radius, height = np.array([b.radius for b in rows]), np.array([b.height for b in rows])
    want = np.array([_blocked_each_oracle(p0[i], p1[i], b.base_center, b.radius, b.height)[0]
                     for i, b in enumerate(rows)], dtype=bool)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            assert np.array_equal(segments_blocked_each(p0, p1, bases, radius, height), want)


@settings(max_examples=100, deadline=None)
@given(_cylinders(), st.lists(st.tuples(_coord, _coord, _coord), max_size=20), st.tuples(_coord, _coord, _coord))
def test_single_origin_broadcasts_like_the_loop(blockers, ends, origin):
    ends = np.array(ends, dtype=float).reshape(-1, 3)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            assert np.array_equal(segments_blocked(origin, ends, _set(blockers)),
                                  _blocked_oracle(origin, ends, _set(blockers)))
            bases = np.array([b.base_center for b in blockers]).reshape(-1, 1, 3)
            got = segments_blocked_each(origin, ends, bases.transpose(1, 0, 2), 0.3, 1.0)  # rows first
            want = np.zeros(len(ends), dtype=bool)
            for base in bases:
                want |= _blocked_each_oracle(origin, ends, base, 0.3, 1.0)
            assert np.array_equal(got, want)


def test_empty_inputs():
    blockers = CylinderSet([(1.0, 1.0, 0.0)])
    none = np.zeros((0, 3))
    assert segments_blocked(none, none, blockers).shape == (0,)
    assert segments_blocked(none, none, CylinderSet()).shape == (0,)
    assert segments_blocked_each(none, none, np.zeros((0, 3, 3)), 0.2, 1.0).shape == (0,)
    assert segments_blocked_each(none, none, none, 0.2, 1.0).shape == (0,)
    assert segments_blocked_each(none, none, none, np.zeros(0), np.zeros(0)).shape == (0,)  # no size to refuse
    ends = np.array([[0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
    assert not segments_blocked((0.0, 2.0, 1.0), ends, CylinderSet()).any()
    assert not segments_blocked_each((0.0, 2.0, 1.0), ends, np.zeros((2, 0, 3)), 0.2, 1.0).any()


def test_segments_blocked_each_refuses_sizes_as_cylinder_set_does():
    with pytest.raises(ValueError, match="squared reach overflows"):
        segments_blocked_each([[0, 0, 1]], [[5, 0, 1]], [2, 3, 0], 1e300, 1.0)
    origins, ends, bases = np.zeros((2, 3)), np.ones((2, 3)), np.zeros((2, 3))
    for radius, height in ((np.array([0.2, 1e300]), 1.0), (0.2, np.array([1.0, math.nan])), (0.0, 1.0), (0.2, -1.0)):
        with pytest.raises(ValueError):
            segments_blocked_each(origins, ends, bases, radius, height)


def test_tiny_height_change_does_not_overflow():
    # (zlo - z0) / dz overflows for a nonzero dz near the subnormal range;
    # np.where discards those rows, so the division must stay silent
    p0 = np.array([[0.0, 0.0, 1e-310]])
    p1 = np.array([[3.0, 0.0, 0.0]])
    base = np.array([1.5, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = _segment_cylinder_hits(p0, p1, base, 0.3, 1.0)
        assert not hit[0]  # the segment runs below the cylinder's base
        assert not segments_blocked(p0, p1, CylinderSet([base], radii=0.3, heights=1.0))[0]


def _grazes(p0, p1, base, radius):
    """Rows whose segment touches the circle in xy, or ends on it, to within 1e-6 of r: where rounding decides."""
    o0, o1 = p0[:, :2] - base[:2], p1[:, :2] - base[:2]
    d = o1 - o0
    a = np.einsum("ij,ij->i", d, d)
    t = np.clip(-np.einsum("ij,ij->i", o0, d) / np.where(a > 0.0, a, 1.0), 0.0, 1.0)
    near = [np.abs(np.linalg.norm(o, axis=1) - radius) <= 1e-6 * radius for o in (o0 + t[:, None] * d, o0, o1)]
    return near[0] | near[1] | near[2]


@settings(max_examples=300, deadline=None)
@given(_case())
def test_kernel_matches_the_discriminant_form_off_the_boundary(case):
    blockers, p0, p1 = case
    for b in blockers:
        got = _segment_cylinder_hits(p0, p1, b.base_center, b.radius, b.height)
        want = _discriminant_hits(p0, p1, b.base_center, b.radius, b.height)
        assert np.all((got == want) | _grazes(p0, p1, b.base_center, b.radius))


def test_level_chords_at_the_radius_and_its_float_neighbours():
    # a chord from x = -L to L at y = offset past a cylinder on the z axis meets it iff offset <= r; the
    # discriminant form cancelled to 0 there once L >> r, and read about half the chords one ulp out as hits
    rng = np.random.default_rng(5)
    r, half_length = rng.uniform(0.05, 0.6, 4000), rng.uniform(1.0, 10.0, 4000)
    for offset, inside in ((np.nextafter(r, 0.0), True), (r, True), (np.nextafter(r, 1.0), False)):
        p0 = np.stack([-half_length, offset, np.ones_like(r)], axis=1)
        hit = segments_blocked_each(p0, p0 * [-1.0, 1.0, 1.0], np.zeros(3), r, 2.0)
        assert hit.tolist() == [inside] * len(r)


def test_blocks_are_ragged_and_each_row_is_tested(monkeypatch):
    # 3 cylinders with 7 cells per block: 2 rows per block, the last block holds one
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 7)
    far = [_cylinder((9.0, 9.0, 0.0)), _cylinder((8.0, 9.0, 0.0))]
    x = np.arange(5.0)
    origins = np.stack([x, np.full(5, -1.0), np.full(5, 1.0)], axis=1)
    ends = origins + [0.0, 2.0, 0.0]
    for row in range(5):
        blockers = _set(far + [_cylinder((float(row), 0.0, 0.0), radius=0.1)])
        want = np.arange(5) == row
        assert np.array_equal(segments_blocked(origins, ends, blockers), want)
        assert np.array_equal(_blocked_oracle(origins, ends, blockers), want)


# -------------------------------------------------------------- 2-D reject

# 1e-06 squares to exactly _EPS_AXIS, so these xy steps give |d|^2 just below, on
# and just above the kernel's planar threshold when the segment starts at x = 0
_ROOT_EPS = math.sqrt(geometry._EPS_AXIS)
_AXIS_STEPS = (0.0, float(np.nextafter(_ROOT_EPS, 0.0)), _ROOT_EPS, float(np.nextafter(_ROOT_EPS, 1.0)), 3e-6)
_TANGENT_SCALES = (1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52)  # closest xy distance over r
_REJECT_KINDS = ("tangent", "surface", "near_vertical", "point")


@st.composite
def _reject_segment(draw, blockers):
    """One segment on a boundary of the 2-D reject, placed against one of `blockers`."""
    kind = draw(st.sampled_from(_REJECT_KINDS))
    c = draw(st.sampled_from(blockers))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    ring = np.array([math.cos(theta), math.sin(theta), 0.0])
    z = c.base_center[2] + draw(st.sampled_from([0.0, c.height, draw(st.floats(-0.5, c.height + 0.5))]))
    if kind == "tangent":  # an xy chord touching the circle at r, or one ulp-scale step in or out
        touch = c.base_center + c.radius * draw(st.sampled_from(_TANGENT_SCALES)) * ring
        touch[2] = z
        along = np.array([-ring[1], ring[0], draw(st.sampled_from([0.0, draw(st.floats(-1.0, 1.0))]))])
        return touch - draw(st.floats(0.0, 3.0)) * along, touch + draw(st.floats(0.0, 3.0)) * along
    if kind == "surface":  # an endpoint on the lateral surface, or on a cap rim when z is 0 or h
        end = c.base_center + c.radius * ring
        end[2] = z
        start = np.array([draw(st.floats(-2.5, 2.5)), draw(st.floats(-2.5, 2.5)), draw(st.floats(-0.5, 3.5))])
        return (start, end) if draw(st.booleans()) else (end, start)
    if kind == "near_vertical":
        axis, step = draw(st.sampled_from([0, 1])), draw(st.sampled_from(_AXIS_STEPS))
        if draw(st.booleans()):  # from 0.7 step outside the surface, one step toward the axis
            p0 = c.base_center + (c.radius + 0.7 * step) * ring
            p0[2] = z
            return p0, p0 - step * ring + [0.0, 0.0, draw(st.floats(-3.0, 3.0))]
        # starts on x = 0 or y = 0 and steps along that axis, so |d|^2 is exact
        p0 = c.base_center + c.radius * draw(st.floats(0.0, 1.5)) * ring
        p0[axis], p0[2] = 0.0, z
        p1 = p0 + [0.0, 0.0, draw(st.floats(-3.0, 3.0))]
        p1[axis] = step
        return p0, p1
    # point: a zero-length segment on, just inside or just outside the surface, or anywhere
    rho = draw(st.sampled_from([*_TANGENT_SCALES, 0.0, draw(st.floats(0.0, 3.0))]))
    point = c.base_center + c.radius * rho * ring
    point[2] = z
    return point, point.copy()


@st.composite
def _reject_case(draw):
    """Cylinders near the origin, boundary segments against them, and the scene shifted up to 1e3 m."""
    blockers = [
        _cylinder(
            (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)),
             draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0))]))),
            radius=draw(st.floats(0.05, 1.0)),
            height=draw(st.floats(0.1, 3.0)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    segments = [draw(_reject_segment(blockers)) for _ in range(draw(st.integers(1, 12)))]
    shift = np.zeros(3)
    if draw(st.booleans()):
        shift = np.array([draw(st.floats(-1e3, 1e3)) for _ in range(3)])
    blockers = [b._replace(base_center=b.base_center + shift) for b in blockers]
    p0 = np.array([seg[0] for seg in segments]) + shift
    p1 = np.array([seg[1] for seg in segments]) + shift
    return blockers, p0, p1


def _recording_kernel(monkeypatch):
    """Replace the exact kernel with a spy; returns the list its received cells land in, one array per call."""
    seen, kernel = [], geometry._segment_cylinder_hits

    def spy(p0, p1, base, radius, height):
        n = len(p0)
        seen.append(np.column_stack([p0, p1, base, np.broadcast_to(radius, n), np.broadcast_to(height, n)]))
        return kernel(p0, p1, base, radius, height)

    monkeypatch.setattr(geometry, "_segment_cylinder_hits", spy)
    return seen


@settings(max_examples=400, deadline=None)
@given(_reject_case())
def test_reject_matches_the_exact_kernel_on_boundary_segments(case):
    blockers, p0, p1 = case
    rows = [blockers[i % len(blockers)] for i in range(len(p0))]
    bases = np.array([b.base_center for b in rows])
    radius, height = np.array([b.radius for b in rows]), np.array([b.height for b in rows])
    with pytest.MonkeyPatch.context() as monkeypatch:
        for _ in _chunks(monkeypatch):
            assert np.array_equal(segments_blocked(p0, p1, _set(blockers)), _blocked_oracle(p0, p1, _set(blockers)))
            assert np.array_equal(segments_blocked_each(p0, p1, bases, radius, height),
                                  _blocked_each_oracle(p0, p1, bases, radius, height))


def test_reject_cases_straddle_the_planar_threshold():
    # the near-vertical steps of the strategy above land on each side of _EPS_AXIS, and on it
    areas = [step * step for step in _AXIS_STEPS[1:4]]
    assert areas[0] < geometry._EPS_AXIS == areas[1] < areas[2]


@settings(max_examples=200, deadline=None)
@given(_reject_case())
def test_reject_passes_every_hit_cell_to_the_kernel(case):
    blockers, p0, p1 = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _recording_kernel(monkeypatch)
        for _ in _chunks(monkeypatch):
            seen.clear()
            segments_blocked(p0, p1, _set(blockers))
            received = {row.tobytes() for cells in seen for row in cells}
            for b in blockers:
                radius, height = np.full(len(p0), b.radius), np.full(len(p0), b.height)
                base = np.broadcast_to(b.base_center, p0.shape)
                cells = np.column_stack([p0, p1, base, radius, height])
                for i in np.flatnonzero(_segment_cylinder_hits(p0, p1, base, radius, height)):
                    assert cells[i].tobytes() in received


def test_reject_prunes_most_cells_of_a_benchmark_trial(monkeypatch):
    s = dataclasses.replace(benchmark_scenario(), blocker_population=BlockerPopulation(count=15))
    grid, any_hits = [], geometry._any_hits

    def counting(origins, ends, bases, radius, height):
        rows = np.broadcast_shapes(np.atleast_2d(origins).shape, np.atleast_2d(ends).shape, (len(bases), 3))[0]
        grid.append(rows * bases.shape[1])
        return any_hits(origins, ends, bases, radius, height)

    monkeypatch.setattr(geometry, "_any_hits", counting)
    seen = _recording_kernel(monkeypatch)
    scenario.run_trial(s, 7)
    tested = sum(len(cells) for cells in seen)
    assert sum(grid) > 10_000 and 0 < tested < 0.2 * sum(grid)


def test_blocks_with_every_cell_rejected_make_no_kernel_call(monkeypatch):
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 7)  # 3 cylinders: 2 rows per block
    seen = _recording_kernel(monkeypatch)
    far = [_cylinder((9.0, 9.0, 0.0)), _cylinder((8.0, 9.0, 0.0))]
    x = np.arange(5.0)
    origins = np.stack([x, np.full(5, -1.0), np.full(5, 1.0)], axis=1)
    ends = origins + [0.0, 2.0, 0.0]
    got = segments_blocked(origins, ends, _set(far + [_cylinder((7.0, 0.0, 0.0))]))
    assert seen == [] and got.dtype == bool and got.shape == (5,) and not got.any()
    got = segments_blocked_each(origins, ends, np.array([9.0, 9.0, 0.0]), 0.2, 1.0)
    assert seen == [] and got.dtype == bool and got.shape == (5,) and not got.any()
    # only the last block holds a cell within reach, and only that cell is tested
    got = segments_blocked(origins, ends, _set(far + [_cylinder((4.0, 0.0, 0.0), radius=0.1)]))
    assert got.tolist() == [False] * 4 + [True]
    assert len(seen) == 1 and len(seen[0]) == 1


@pytest.mark.parametrize("dx", [1e-160, 1e-310, 5e-324])
def test_tiny_xy_step_raises_no_warning(dx):
    # |d|^2 underflows to a subnormal or to zero: the reject must not divide by it
    blocker = CylinderSet([(0.0, 0.1, 0.0)], radii=0.3, heights=1.0)
    p0 = np.array([[0.0, 0.0, 0.5], [0.0, 2.0, 0.5]])
    p1 = p0 + [[dx, 0.0, 0.2], [dx, 0.0, 0.2]]
    assert p1[0, 0] - p0[0, 0] == dx
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        assert segments_blocked(p0, p1, blocker).tolist() == [True, False]
        assert segments_blocked_each(p0, p1, blocker.bases[0], 0.3, 1.0).tolist() == [True, False]


# ------------------------------------------------------------------ studies


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 5])
@pytest.mark.parametrize("self_blockage", [True, False])
def test_orientation_study_matches_repeat_expansion(monkeypatch, seed, count, self_blockage):
    base = orientation_benchmark_scenario()
    s = dataclasses.replace(
        base,
        users=(dataclasses.replace(base.users[0], self_blockage=self_blockage),),
        blockers=CylinderSet([(2.0, 2.0, 0.0)], radii=0.3),
        blocker_population=BlockerPopulation(count=count) if count else None,
    )
    want = _orientation_study_oracle(s, 3000, master_seed=seed)
    assert orientation_study(s, 3000, master_seed=seed) == want
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 1001)  # many blocks, ragged last one
    assert orientation_study(s, 3000, master_seed=seed) == want


@pytest.mark.parametrize("fixed_orientation", [None, DeviceOrientation(0.3, 1.0)])
def test_orientation_study_pinned_user_matches_repeat_expansion(fixed_orientation):
    base = orientation_benchmark_scenario()
    user = dataclasses.replace(base.users[0], position=np.array([3.5, 4.0, 0.75]),
                               fixed_orientation=fixed_orientation)
    s = dataclasses.replace(base, users=(user,), blocker_population=BlockerPopulation(count=5))
    for seed in (1, 2, 3):
        assert orientation_study(s, 2000, master_seed=seed) == _orientation_study_oracle(s, 2000, master_seed=seed)


def test_orientation_study_multi_block_at_module_block_size():
    s = dataclasses.replace(orientation_benchmark_scenario(), blocker_population=BlockerPopulation(count=5))
    samples = 3 * geometry._CHUNK_CELLS // 5 + 17  # three full blocks and a ragged one
    assert orientation_study(s, samples, master_seed=9) == _orientation_study_oracle(s, samples, master_seed=9)


def _study_cases():
    base = orientation_benchmark_scenario()
    user, pinned = base.users[0], np.array([2.5, 2.5, 0.75])
    two_aps = (LedTx(position=(0.0, 0.0, 2.0)), LedTx(position=(4.0, 3.0, 3.0)))
    # equidistant from the pinned device; the blocker cuts only the second AP's link
    pair = (LedTx(position=(1.5, 2.5, 3.0)), LedTx(position=(3.5, 2.5, 3.0)))
    cut = CylinderSet([(3.0, 2.5, 0.0)], radii=0.1, heights=2.0)
    # the first and the last of three tie, the middle one is farther; again only the last one's link is cut
    three = (pair[0], LedTx(position=(2.5, 0.5, 3.0)), pair[1])
    fixed = CylinderSet([(2.0, 2.0, 0.0), (4.0, 1.0, 0.0)], radii=[0.3, 0.15])
    return {
        "two-aps": dataclasses.replace(base, aps=two_aps, blocker_population=BlockerPopulation(count=2)),
        "equidistant-pair": dataclasses.replace(base, aps=pair, blockers=cut,
                                                users=(dataclasses.replace(user, position=pinned, self_blockage=False),)),
        "equidistant-of-three": dataclasses.replace(base, aps=three, blockers=cut, users=(
            dataclasses.replace(user, position=pinned, self_blockage=False),)),
        "fixed-and-population": dataclasses.replace(base, blockers=fixed, blocker_population=BlockerPopulation(count=3)),
        "pinned-position": dataclasses.replace(base, users=(dataclasses.replace(user, position=pinned),),
                                               blocker_population=BlockerPopulation(count=1)),
    }


@pytest.mark.parametrize("case", ["two-aps", "equidistant-pair", "equidistant-of-three", "fixed-and-population",
                                  "pinned-position"])
@pytest.mark.parametrize("blocks", ["one-sample", "one-block", "one-block-plus-one"])
def test_orientation_study_blocks_match_the_oracle(case, blocks):
    s = _study_cases()[case]
    samples = {"one-sample": 1, "one-block": geometry._CHUNK_CELLS, "one-block-plus-one": geometry._CHUNK_CELLS + 1}
    for seed in (1, 2):
        got = orientation_study(s, samples[blocks], master_seed=seed)
        want = _orientation_study_oracle(s, samples[blocks], master_seed=seed)
        assert got == want or math.isnan(got) and math.isnan(want)
    if case.startswith("equidistant"):  # the tie goes to the first AP, whose link is clear
        assert not math.isnan(orientation_study(s, samples[blocks]))
        assert math.isnan(orientation_study(dataclasses.replace(s, aps=s.aps[::-1]), samples[blocks]))


@pytest.mark.parametrize("user", ["free", "pinned-position", "pinned-orientation"])
@pytest.mark.parametrize("count", [0, 5])
@pytest.mark.parametrize("blocks", [2, 25])
def test_orientation_study_matches_the_oracle_over_many_blocks(monkeypatch, user, count, blocks):
    base = orientation_benchmark_scenario()
    pins = {"free": {}, "pinned-position": {"position": np.array([3.5, 4.0, 0.75])},
            "pinned-orientation": {"fixed_orientation": DeviceOrientation(0.6, 1.0)}}  # body away from the AP
    s = dataclasses.replace(base, users=(dataclasses.replace(base.users[0], **pins[user]),),
                            blocker_population=BlockerPopulation(count=count) if count else None)
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 64)  # the sampler's blocks too
    samples = blocks * 64 - (blocks > 2) * 7  # the 25th block ragged
    for seed in (1, 2):
        assert orientation_study(s, samples, master_seed=seed) == _orientation_study_oracle(s, samples, seed)


@pytest.mark.parametrize("samples", [100_000, 400_000, 1_600_000])
def test_orientation_study_memory_beyond_the_draws_is_bounded(samples):
    s = dataclasses.replace(orientation_benchmark_scenario(), blocker_population=BlockerPopulation(count=5))
    tracemalloc.start()
    try:
        orientation_study(s, samples, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * samples < 12 * 2**20  # the polar angles are the only draws kept whole


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_study_matches_per_blocker_loop_at_any_threads(monkeypatch, seed):
    s = dataclasses.replace(benchmark_scenario(), blocker_population=BlockerPopulation(count=15))
    outputs = {threads: trials_to_csv(run_study(s, 4, master_seed=seed, threads=threads))
               for threads in (None, 1, 4)}
    assert outputs[None] == outputs[1] == outputs[4]
    for module in (geometry, channel, scenario):
        monkeypatch.setattr(module, "segments_blocked", _blocked_oracle)
    assert trials_to_csv(run_study(s, 4, master_seed=seed)) == outputs[1]
