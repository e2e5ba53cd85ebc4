"""3-D primitives for indoor optical link simulation.

Positions are numpy arrays of shape (3,) in meters, angles are radians.
Blockers (human bodies and other obstacles) are axis-aligned vertical
cylinders; a line-of-sight test reduces to segment/cylinder intersection.
Cylinders are closed: a segment endpoint lying exactly on the surface
counts as blocked, so boundary cases resolve deterministically.

Every blockage test is one array pass over an (N rows x K cylinders) grid,
in blocks of `_CHUNK_CELLS // K` rows, so memory stays bounded. Only cells
whose segment passes within r (1 + 1e-6) + 1e-12 of the cylinder axis in
xy reach the exact test; the margin keeps rounding from dropping a hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray

_EPS_AXIS = 1e-12
_ROOM_TOL = 1e-9  # meters past a wall, floor or ceiling that `Room.contains` still counts as inside
# (row, cylinder) cells per occlusion block, and samples per scenario.orientation_study block:
# with the 2-D reject, perfbench read the same blockage_mc work_per_s at 2**14-2**16
# (195-206/s), and blockage_mc peak_rss_mb 43.1-43.2 MiB at 2**14, 43.5-44.2 at 2**15, 44.5-44.6 at 2**16
_CHUNK_CELLS = 1 << 14


class ConfigError(ValueError):
    """An input refused. The message names the offense; `key` names what it refuses, if anything: a constructor's
    field, a tuple of the fields a check of several refuses together, or a document's JSON key."""

    def __init__(self, message: str, key: str | tuple[str, ...] = "") -> None:
        super().__init__(message)
        self.key = key


def as_vec3(value, key: str = "") -> Vec3:
    """Coerce a length-3 sequence to a float vector, validating finiteness; a refusal names `key`."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ConfigError(f"expected a 3-vector, got shape {v.shape}", key)
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"vector components must be finite, got {v}", key)
    return v


def as_points(value, what: str, key: str = "") -> np.ndarray:
    """Coerce a (K, 3) sequence of points to a float array; an empty sequence is no points. A refusal names `key`."""
    points = np.asarray(value, dtype=float)
    if points.shape == (0,):
        return points.reshape(0, 3)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ConfigError(f"{what} must be a (K, 3) array, got shape {points.shape}", key)
    return points


def norm(v: Vec3) -> float:
    return float(np.linalg.norm(v))


def unit(v: Vec3, key: str = "") -> Vec3:
    """Normalize to unit length; rejects input whose norm is zero or past the float range, naming `key`."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # refused below instead
        n = norm(v)
    if not 0.0 < n < math.inf:
        raise ConfigError(f"cannot normalize a vector of norm {n}: it must be nonzero and finite", key)
    return v / n


@dataclass(frozen=True)
class Room:
    """Rectangular room with the floor at z = 0.

    `x` spans [0, length], `y` spans [0, width], `z` spans [0, height].
    Walls enter channel computations only as diffuse reflectors; they never
    occlude links because all terminals live inside the room.
    """

    length: float = 5.0
    width: float = 5.0
    height: float = 3.0

    def __post_init__(self):
        for name in ("length", "width", "height"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError("room dimensions must be positive and finite", name)
        square = sum(x * x for x in map(float, (self.length, self.width, self.height)))  # floats: inf, no warning
        if not 2.0 * math.pi * math.pi * square * square < math.inf:  # bounds every wall term's 2 pi**2 d1**2 d2**2
            raise ConfigError(f"room {self.length:.6g} x {self.width:.6g} x {self.height:.6g} m is too large: 2 pi**2 "
                              "(length**2 + width**2 + height**2)**2 overflows", ("length", "width", "height"))

    def contains(self, points) -> np.ndarray:
        """(n, 3) rows: a mask, True within `_ROOM_TOL` of the room and False on non-finite rows."""
        p = as_points(points, "room points")
        return np.all((p >= -_ROOM_TOL) & (p <= np.array([self.length, self.width, self.height]) + _ROOM_TOL), axis=1)


class CylinderSet:
    """Finite vertical cylinders standing on their bases (human-body surrogates), as arrays.

    `bases` is (K, 3), `radii` and `heights` (K,); a scalar radius or height stands for every row.
    """

    def __init__(self, bases=(), radii=0.15, heights=1.65):
        self.bases = as_points(bases, "cylinder bases", "bases")
        sizes = [np.asarray(a, dtype=float) for a in (radii, heights)]
        if any(a.ndim and a.shape != (len(self.bases),) for a in sizes):
            raise ConfigError(f"cylinder bases, radii and heights have unequal row counts "
                              f"{[len(self.bases)] + [a.shape for a in sizes]}", ("bases", "radii", "heights"))
        if not np.all(np.isfinite(self.bases)):
            raise ConfigError("cylinder bases must be finite", "bases")
        self.radii, self.heights = (np.broadcast_to(a, (len(self.bases),)) for a in sizes)
        _check_cylinder_sizes(self.radii, self.heights)

    def __len__(self) -> int:
        return len(self.bases)


def _squared_reach(radius):
    """(r (1 + 1e-6) + 1e-12)**2: a segment farther than its root from a cylinder's axis in xy misses it."""
    return (radius * (1.0 + 1e-6) + 1e-12) ** 2


def check_cylinder_size(radius: float, height: float, what: str, keys: tuple[str, str]) -> None:
    """Refuse a radius or height that is not positive, or a radius whose squared reach is not finite,
    naming its field in `keys`, the (radius, height) fields of the `what` cylinder."""
    for value, key in zip((radius, height), keys):
        if not value > 0.0:
            raise ConfigError(f"{what} radius and height must be positive", key)
    try:  # a Python float raises where the occlusion test's arrays would give inf
        reach = _squared_reach(float(radius))
    except OverflowError:
        reach = math.inf
    if not reach < math.inf:
        raise ConfigError(f"{what} radius {radius:.3g} m is too large: its squared reach overflows", keys[0])


def _check_cylinder_sizes(radii, heights) -> None:
    """`check_cylinder_size` on arrays through their extremes: the smallest radius and height refuse a size
    that is not positive (NaN included), the largest radius an overflowing reach. No rows: nothing to check."""
    radii, heights = np.asarray(radii), np.asarray(heights)
    if radii.size and heights.size:
        check_cylinder_size(radii.min(), heights.min(), "cylinder", ("radii", "heights"))
        check_cylinder_size(radii.max(), heights.min(), "cylinder", ("radii", "heights"))


def _segment_cylinder_hits(
    p0: np.ndarray,
    p1: np.ndarray,
    base: np.ndarray,
    radius,
    height,
) -> np.ndarray:
    """Core occlusion test: row i of `p0`/`p1` against row i of `base`.

    Clips the parametric interval of the infinite-cylinder intersection
    against the height slab and the [0, 1] segment range, which covers
    lateral surface, caps, and interior passes. `base` broadcasts, so a
    single cylinder can be tested against many segments and vice versa.
    """
    d = p1 - p0
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    a = dx * dx + dy * dy
    planar = a > _EPS_AXIS

    ox = p0[:, 0] - base[..., 0]
    oy = p0[:, 1] - base[..., 1]

    # parametric window where z(t) lies inside the height slab
    z0 = p0[:, 2]
    zlo = base[..., 2]
    zhi = zlo + height
    inside_slab = (z0 >= zlo) & (z0 <= zhi)
    # level segments get sentinel windows: full for inside the slab, empty
    # outside; both sentinels must sit on the same side so the min/max
    # reordering below cannot flip an empty window into a full one
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_lo_z = np.where(np.abs(dz) > _EPS_AXIS, (zlo - z0) / dz, np.where(inside_slab, -np.inf, np.inf))
        t_hi_z = np.where(np.abs(dz) > _EPS_AXIS, (zhi - z0) / dz, np.where(inside_slab, np.inf, np.inf))
    z_lo = np.minimum(t_lo_z, t_hi_z)
    z_hi = np.maximum(t_lo_z, t_hi_z)

    # window where the xy-projection lies inside the circle: tc -/+ half about the closest xy point,
    # from the distance there; a discriminant b**2 - 4ac cancels to 0 near a tangent when |o| >> r
    safe_a = np.where(planar, a, 1.0)
    tc = -(ox * dx + oy * dy) / safe_a
    px, py = ox + tc * dx, oy + tc * dy
    dist = np.sqrt(px * px + py * py)
    half = np.sqrt(np.maximum((radius - dist) * (radius + dist), 0.0) / safe_a)
    circ_ok = planar & (dist <= radius)
    inside = ~planar & (ox * ox + oy * oy - radius**2 <= 0.0)  # a vertical segment's fixed xy point
    c_lo = np.where(circ_ok, tc - half, np.where(inside, -np.inf, np.inf))
    c_hi = np.where(circ_ok, tc + half, np.where(inside, np.inf, -np.inf))

    lo = np.maximum(np.maximum(z_lo, c_lo), 0.0)
    hi = np.minimum(np.minimum(z_hi, c_hi), 1.0)
    return lo <= hi


def _any_hits(origins, ends, bases: np.ndarray, radius, height) -> np.ndarray:
    """Row i is True where any of the K cylinders at `bases[i]` meets segment i.

    `bases` is (N, K, 3), or (1, K, 3) for a set all rows share; `radius`, `height` are scalars, (1, K) or (N,).
    The reject runs on each block's (K, rows) transpose, so inner loops run along rows. Only cells whose
    closest xy point (p0 when |d|^2 <= `_EPS_AXIS`, as in the kernel) is within r (1 + 1e-6) + 1e-12 of the
    axis reach the exact test; that margin dwarfs rounding, and elementwise ops give one test's bits per cell.
    """
    p0 = np.atleast_2d(np.asarray(origins, dtype=float))
    p1 = np.atleast_2d(np.asarray(ends, dtype=float))
    shape = np.broadcast_shapes(p0.shape, p1.shape, (len(bases), 3))
    if not (shape[0] and bases.shape[1]):  # no rows or no cylinders: nothing to test
        return np.zeros(shape[0], dtype=bool)
    p0, p1 = np.broadcast_to(p0, shape), np.broadcast_to(p1, shape)
    bases = np.broadcast_to(bases, shape[:1] + bases.shape[1:])
    sizes = [v[:, None] if v.ndim == 1 else v for v in (np.asarray(v, dtype=float) for v in (radius, height))]
    sizes.append(_squared_reach(sizes[0]))  # of the 2-D reject
    step = max(1, _CHUNK_CELLS // max(1, bases.shape[1]))
    hit = np.zeros(shape[0], dtype=bool)
    for lo in range(0, shape[0], step):
        rows = slice(lo, lo + step)
        base = bases[rows]
        r, h, reach = ((v[rows] if v.ndim and len(v) > 1 else v).T for v in sizes)  # a scalar stays one
        dx, dy = p1[rows, 0] - p0[rows, 0], p1[rows, 1] - p0[rows, 1]
        ox, oy = p0[rows, 0] - base[..., 0].T, p0[rows, 1] - base[..., 1].T
        a = dx * dx + dy * dy  # t = 0 where the kernel's planar test fails
        t = np.clip((ox * dx + oy * dy) / np.where(a > _EPS_AXIS, -a, -np.inf), 0.0, 1.0)
        k, i = np.nonzero((ox + t * dx) ** 2 + (oy + t * dy) ** 2 <= reach)
        if k.size:  # the exact test on the cells whose xy chord passes within r of the axis
            r, h = (np.broadcast_to(v, t.shape)[k, i] if v.ndim else v for v in (r, h))
            hit[lo + i[_segment_cylinder_hits(p0[lo + i], p1[lo + i], base[i, k], r, h)]] = True
    return hit


def segments_blocked(origins: np.ndarray, ends: np.ndarray, blockers: CylinderSet) -> np.ndarray:
    """Vectorized occlusion of many segments against a shared blocker set.

    `origins` and `ends` are (N, 3) arrays (a single (3,) vector
    broadcasts); returns a boolean (N,) array that is True where any
    blocker intersects the closed segment.
    """
    return _any_hits(origins, ends, blockers.bases[None], blockers.radii[None], blockers.heights[None])


def segments_blocked_each(
    origins: np.ndarray,
    ends: np.ndarray,
    bases: np.ndarray,
    radius,
    height,
) -> np.ndarray:
    """Row-paired occlusion: segment i against the cylinders based at row i.

    `bases` is (N, 3), one cylinder per row, or (N, K, 3), K cylinders per
    row, rows first as `Generator.uniform(size=(N, K))` draws them; a single
    (3,) base or segment broadcasts. `radius` and `height` are scalars or
    (N,) arrays, one size per row. Used when every sample carries its own
    cylinders (a user's body, a per-sample blocker draw), where a shared
    blocker set would force a Python-level loop. Sizes are refused as
    `CylinderSet` refuses them.
    """
    _check_cylinder_sizes(radius, height)
    bases = np.asarray(bases, dtype=float)
    return _any_hits(origins, ends, bases if bases.ndim == 3 else np.atleast_2d(bases)[:, None], radius, height)
