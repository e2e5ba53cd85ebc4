"""Vector helpers, room geometry, and segment-cylinder occlusion."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_vlc.geometry import (
    CylinderBlocker,
    Room,
    as_vec3,
    los_visible,
    norm,
    segments_blocked,
    segments_blocked_each,
    unit,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_as_vec3_accepts_sequences_and_arrays():
    v = as_vec3((1.0, 2.0, 3.0))
    assert v.shape == (3,)
    assert v.dtype == np.float64
    np.testing.assert_array_equal(as_vec3([1, 2, 3]), v)


def test_as_vec3_rejects_wrong_length():
    with pytest.raises(ValueError):
        as_vec3((1.0, 2.0))


def test_norm_and_unit():
    assert norm(np.array([3.0, 4.0, 0.0])) == 5.0
    np.testing.assert_allclose(unit((0.0, 0.0, 2.0)), [0.0, 0.0, 1.0])


def test_unit_rejects_zero_vector():
    with pytest.raises(ValueError):
        unit((0.0, 0.0, 0.0))


def test_room_contains_with_tolerance():
    room = Room(5.0, 4.0, 3.0)
    assert room.contains((0.0, 0.0, 0.0))
    assert room.contains((5.0, 4.0, 3.0))
    assert room.contains((5.0 + 1e-10, 2.0, 1.0))
    assert not room.contains((5.1, 2.0, 1.0))
    assert not room.contains((2.0, -0.1, 1.0))


def test_room_contains_mask_matches_the_one_point_form():
    room = Room(5.0, 4.0, 3.0)
    rows = [np.random.default_rng(3).uniform(-0.5, 5.5, (40, 3))]
    for axis, wall in [(a, w) for a, hi in enumerate((5.0, 4.0, 3.0)) for w in (0.0, hi)]:
        for step in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9):  # the 1e-9 tolerance keeps +-1e-9 and drops +-2e-9
            point = np.array([2.5, 2.0, 1.5])
            point[axis] = wall + step
            rows.append(point[None])
    points = np.concatenate(rows)
    mask = room.contains(points)
    assert mask.dtype == bool and mask.shape == (len(points),)
    assert mask.tolist() == [room.contains(p) for p in points]
    assert 0 < mask.sum() < len(points)
    # a non-finite row is outside; one non-finite point is refused
    assert room.contains(np.array([[math.nan, 1.0, 1.0], [1.0, 1.0, 1.0]])).tolist() == [False, True]
    with pytest.raises(ValueError, match="finite"):
        room.contains((math.nan, 1.0, 1.0))


def test_room_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        Room(0.0, 4.0, 3.0)


def test_room_walls_cover_the_perimeter():
    room = Room(5.0, 4.0, 3.0)
    walls = room.walls()
    assert len(walls) == 4
    total_area = sum(w.u_len * w.v_len for w in walls)
    assert total_area == pytest.approx(2 * (5.0 + 4.0) * 3.0)
    for w in walls:
        # inward normals point into the room from each wall's origin
        probe = w.origin + 0.5 * w.u_len * w.u_axis + 0.5 * w.v_len * w.v_axis
        assert room.contains(probe + 0.01 * w.normal)


def test_cylinder_rejects_bad_shape():
    with pytest.raises(ValueError):
        CylinderBlocker(base_center=(0, 0, 0), radius=0.0)
    with pytest.raises(ValueError):
        CylinderBlocker(base_center=(0, 0, 0), height=-1.0)
    # the occlusion test squares r (1 + 1e-6) + 1e-12
    for radius in (1e300, 1.7e308, math.inf):
        with pytest.raises(ValueError, match="squared reach overflows"):
            CylinderBlocker(base_center=(0, 0, 0), radius=radius)
    CylinderBlocker(base_center=(0, 0, 0), radius=1e150)


CYL = CylinderBlocker(base_center=(0.0, 0.0, 0.0), radius=0.5, height=2.0)


@pytest.mark.parametrize(
    "p0,p1,expected",
    [
        # straight through the lateral surface at mid height
        ((-2, 0, 1), (2, 0, 1), True),
        # passes above the top cap
        ((-2, 0, 2.5), (2, 0, 2.5), False),
        # ends before reaching the cylinder
        ((-2, 0, 1), (-1, 0, 1), False),
        # starts inside
        ((0, 0, 1), (3, 0, 1), True),
        # offset beyond the radius
        ((-2, 0.7, 1), (2, 0.7, 1), False),
        # vertical drop through the top cap
        ((0.2, 0, 3), (0.2, 0, 1.5), True),
        # vertical segment entirely above
        ((0.2, 0, 3), (0.2, 0, 2.5), False),
        # entirely inside the cylinder
        ((-0.1, 0, 1), (0.1, 0, 1), True),
        # crosses the slab in z but misses the circle in xy
        ((2, 2, -1), (2, 2, 3), False),
        # grazing the top edge exactly through (0, 0, 2)
        ((-1, 0, 2), (1, 0, 2), True),
    ],
)
def test_ray_cylinder_cases(p0, p1, expected):
    assert (not los_visible(p0, p1, [CYL])) is expected
    # symmetric in segment direction
    assert (not los_visible(p1, p0, [CYL])) is expected


def test_ray_cylinder_rejects_degenerate_segment():
    with pytest.raises(ValueError):
        los_visible((1, 1, 1), (1, 1, 1), [CYL])


def _sampled_hit(p0, p1, blocker, n=4001):
    """Dense-sampling oracle: any sample point inside the closed cylinder."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = np.asarray(p0) + t * (np.asarray(p1) - np.asarray(p0))
    rel = pts - blocker.base_center
    in_circle = rel[:, 0] ** 2 + rel[:, 1] ** 2 <= blocker.radius**2
    in_slab = (pts[:, 2] >= blocker.base_center[2]) & (
        pts[:, 2] <= blocker.base_center[2] + blocker.height
    )
    return bool(np.any(in_circle & in_slab))


def test_segment_cylinder_against_dense_sampling():
    # random segments and cylinders; skip near-tangent cases where the
    # sampling oracle itself is ambiguous
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        p0 = rng.uniform(-2.0, 2.0, 3)
        p1 = rng.uniform(-2.0, 2.0, 3)
        base = rng.uniform(-1.0, 1.0, 3)
        blocker = CylinderBlocker(base_center=base, radius=rng.uniform(0.1, 0.8),
                                  height=rng.uniform(0.2, 2.0))
        if norm(p1 - p0) < 1e-6:
            continue
        grown = CylinderBlocker(base_center=base - np.array([0, 0, 1e-3]),
                                radius=blocker.radius + 1e-3,
                                height=blocker.height + 2e-3)
        shrunk = CylinderBlocker(base_center=base + np.array([0, 0, 1e-3]),
                                 radius=max(blocker.radius - 1e-3, 1e-6),
                                 height=max(blocker.height - 2e-3, 1e-6))
        if _sampled_hit(p0, p1, grown) != _sampled_hit(p0, p1, shrunk):
            continue  # tangent within tolerance; oracle unreliable
        assert (not los_visible(p0, p1, [blocker])) == _sampled_hit(p0, p1, blocker)
        checked += 1
    assert checked > 200


def test_segments_blocked_matches_scalar_loop():
    rng = np.random.default_rng(11)
    origins = rng.uniform(-2.0, 2.0, (64, 3))
    ends = rng.uniform(-2.0, 2.0, (64, 3))
    blockers = [
        CylinderBlocker(base_center=rng.uniform(-1.0, 1.0, 3), radius=0.3, height=1.0)
        for _ in range(4)
    ]
    got = segments_blocked(origins, ends, blockers)
    want = np.array(
        [any(not los_visible(o, e, [b]) for b in blockers) for o, e in zip(origins, ends)]
    )
    np.testing.assert_array_equal(got, want)


def test_segments_blocked_broadcasts_single_origin():
    ends = np.array([[2.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
    got = segments_blocked(np.array([-2.0, 0.0, 1.0]), ends, [CYL])
    np.testing.assert_array_equal(got, [True, False])


def test_segments_blocked_each_pairs_rows():
    origins = np.array([[-2.0, 0.0, 1.0], [-2.0, 0.0, 1.0]])
    ends = np.array([[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    bases = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])  # second cylinder far away
    got = segments_blocked_each(origins, ends, bases, radius=0.5, height=2.0)
    np.testing.assert_array_equal(got, [True, False])
    # consistent with the scalar test on the paired rows
    for i in range(2):
        b = CylinderBlocker(base_center=bases[i], radius=0.5, height=2.0)
        assert got[i] == (not los_visible(origins[i], ends[i], [b]))


def test_los_visible_requires_all_blockers_clear():
    far = CylinderBlocker(base_center=(0.0, 5.0, 0.0), radius=0.5, height=2.0)
    assert los_visible((-2, 0, 1), (2, 0, 1), [far])
    assert not los_visible((-2, 0, 1), (2, 0, 1), [far, CYL])
    assert los_visible((-2, 0, 1), (2, 0, 1), [])


@settings(max_examples=60)
@given(
    st.floats(-1.5, 1.5),
    st.floats(0.2, 2.5),
    st.floats(0.05, 0.6),
)
# one ulp outside the radius: a discriminant b**2 - 4ac rounds to 0 at |o| = 5 and reads a tangent
@example(offset=0.05000000000000001, z=1.0, radius=0.05)
def test_horizontal_segment_hits_iff_offset_within_radius(offset, z, radius):
    # a long horizontal chord at height z hits iff |offset| <= r and z in slab
    blocker = CylinderBlocker(base_center=(0.0, 0.0, 0.5), radius=radius, height=1.0)
    hit = not los_visible((-5.0, offset, z), (5.0, offset, z), [blocker])
    inside = abs(offset) <= radius and 0.5 <= z <= 1.5
    assert hit == inside
