"""Vector helpers, room geometry, and segment-cylinder occlusion."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_vlc.geometry import (
    CylinderSet,
    Room,
    as_vec3,
    norm,
    segments_blocked,
    segments_blocked_each,
    unit,
)


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
    points = [(0.0, 0.0, 0.0), (5.0, 4.0, 3.0), (5.0 + 1e-10, 2.0, 1.0), (5.1, 2.0, 1.0), (2.0, -0.1, 1.0),
              (math.nan, 1.0, 1.0)]
    want = [True, True, True, False, False, False]  # a non-finite row is outside
    for axis, wall in [(a, w) for a, hi in enumerate((5.0, 4.0, 3.0)) for w in (0.0, hi)]:
        for step in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9):  # the 1e-9 tolerance keeps +-1e-9 and drops +-2e-9
            point = [2.5, 2.0, 1.5]
            point[axis] = wall + step
            points.append(point)
            want.append(abs(step) < 2e-9 or (step > 0.0) == (wall == 0.0))
    mask = room.contains(points)
    assert mask.dtype == bool and mask.shape == (len(points),)
    assert mask.tolist() == want
    assert room.contains([]).shape == (0,)


@pytest.mark.parametrize("points", [(1.0, 1.0, 1.0), [[[1.0, 1.0, 1.0]]], [(1.0, 1.0)]],
                         ids=["one-point", "3-D", "two-columns"])
def test_room_contains_refuses_what_is_not_n_by_3(points):
    with pytest.raises(ValueError, match=r"^room points must be a \(K, 3\) array, got shape"):
        Room().contains(points)


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
        assert room.contains([probe + 0.01 * w.normal])[0]


def test_cylinder_rejects_bad_shape():
    with pytest.raises(ValueError, match="positive"):
        CylinderSet([(0, 0, 0)], radii=0.0)
    with pytest.raises(ValueError, match="positive"):
        CylinderSet([(0, 0, 0)], heights=-1.0)
    for radius in (math.nan, [0.2, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            CylinderSet([(0, 0, 0), (1, 1, 0)], radii=radius)
    # the occlusion test squares r (1 + 1e-6) + 1e-12
    for radius in (1e300, 1.7e308, math.inf):
        with pytest.raises(ValueError, match="squared reach overflows"):
            CylinderSet([(0, 0, 0)], radii=radius)
        with pytest.raises(ValueError, match="squared reach overflows"):  # the largest radius decides
            CylinderSet([(0, 0, 0), (1, 1, 0)], radii=[0.2, radius])
    CylinderSet([(0, 0, 0)], radii=1e150)
    with pytest.raises(ValueError, match="finite"):
        CylinderSet([(0, 0, 0), (math.nan, 1, 0)])
    with pytest.raises(ValueError, match="unequal row counts"):
        CylinderSet([(0, 0, 0), (1, 1, 0)], radii=[0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="unequal row counts"):
        CylinderSet([(0, 0, 0)], heights=[1.0, 2.0])


def test_cylinder_set_rows():
    cylinders = CylinderSet([(0, 0, 0), (1, 2, 0)], radii=[0.2, 0.3])
    assert len(cylinders) == 2 and len(CylinderSet()) == 0
    assert cylinders.bases.tolist() == [[0, 0, 0], [1, 2, 0]]
    assert cylinders.radii.tolist() == [0.2, 0.3] and cylinders.heights.tolist() == [1.65, 1.65]
    assert len(CylinderSet([], radii=-1.0)) == 0  # an empty set checks nothing


@pytest.mark.parametrize("bases", [[1, 2, 0, 3, 4, 0], [[1, 2, 0, 3, 4, 0]], [1, 2, 0], [[1, 2]], [[[1, 2, 0]]]])
def test_cylinder_set_refuses_bases_that_are_not_rows_of_three(bases):
    with pytest.raises(ValueError, match=r"cylinder bases must be a \(K, 3\) array"):
        CylinderSet(bases)


CYL = CylinderSet([(0.0, 0.0, 0.0)], radii=0.5, heights=2.0)


def _blocked(p0, p1, cylinders=CYL) -> bool:
    return bool(segments_blocked(p0, p1, cylinders)[0])


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
    assert _blocked(p0, p1) is expected
    # symmetric in segment direction
    assert _blocked(p1, p0) is expected


def _sampled_hit(p0, p1, base, radius, height, n=4001):
    """Dense-sampling oracle: any sample point inside the closed cylinder."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = np.asarray(p0) + t * (np.asarray(p1) - np.asarray(p0))
    rel = pts - base
    in_circle = rel[:, 0] ** 2 + rel[:, 1] ** 2 <= radius**2
    in_slab = (pts[:, 2] >= base[2]) & (pts[:, 2] <= base[2] + height)
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
        radius, height = rng.uniform(0.1, 0.8), rng.uniform(0.2, 2.0)
        if norm(p1 - p0) < 1e-6:
            continue
        grown = _sampled_hit(p0, p1, base - np.array([0, 0, 1e-3]), radius + 1e-3, height + 2e-3)
        shrunk = _sampled_hit(p0, p1, base + np.array([0, 0, 1e-3]), max(radius - 1e-3, 1e-6),
                              max(height - 2e-3, 1e-6))
        if grown != shrunk:
            continue  # tangent within tolerance; oracle unreliable
        assert _blocked(p0, p1, CylinderSet([base], radius, height)) == _sampled_hit(p0, p1, base, radius, height)
        checked += 1
    assert checked > 200


def test_segments_blocked_matches_scalar_loop():
    rng = np.random.default_rng(11)
    origins = rng.uniform(-2.0, 2.0, (64, 3))
    ends = rng.uniform(-2.0, 2.0, (64, 3))
    bases = rng.uniform(-1.0, 1.0, (4, 3))
    got = segments_blocked(origins, ends, CylinderSet(bases, radii=0.3, heights=1.0))
    want = np.array(
        [any(_blocked(o, e, CylinderSet([b], 0.3, 1.0)) for b in bases) for o, e in zip(origins, ends)]
    )
    np.testing.assert_array_equal(got, want)


def test_segments_blocked_broadcasts_single_origin():
    ends = np.array([[2.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
    got = segments_blocked(np.array([-2.0, 0.0, 1.0]), ends, CYL)
    np.testing.assert_array_equal(got, [True, False])


def test_segments_blocked_each_pairs_rows():
    origins = np.array([[-2.0, 0.0, 1.0], [-2.0, 0.0, 1.0]])
    ends = np.array([[2.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    bases = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])  # second cylinder far away
    got = segments_blocked_each(origins, ends, bases, radius=0.5, height=2.0)
    np.testing.assert_array_equal(got, [True, False])
    # consistent with the scalar test on the paired rows
    for i in range(2):
        assert got[i] == _blocked(origins[i], ends[i], CylinderSet([bases[i]], 0.5, 2.0))


def test_segments_blocked_needs_every_cylinder_clear():
    far = (0.0, 5.0, 0.0)
    assert not _blocked((-2, 0, 1), (2, 0, 1), CylinderSet([far], 0.5, 2.0))
    assert _blocked((-2, 0, 1), (2, 0, 1), CylinderSet([far, (0.0, 0.0, 0.0)], 0.5, 2.0))
    assert not _blocked((-2, 0, 1), (2, 0, 1), CylinderSet())


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
    hit = _blocked((-5.0, offset, z), (5.0, offset, z), CylinderSet([(0.0, 0.0, 0.5)], radius, 1.0))
    inside = abs(offset) <= radius and 0.5 <= z <= 1.5
    assert hit == inside
