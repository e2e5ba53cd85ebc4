"""3-D primitives for indoor optical link simulation.

Positions are numpy arrays of shape (3,) in meters, angles are radians.
Blockers (human bodies and other obstacles) are axis-aligned vertical
cylinders; a line-of-sight test reduces to segment/cylinder intersection.
Cylinders are closed: a segment endpoint lying exactly on the surface
counts as blocked, so boundary cases resolve deterministically.

Every blockage test is one array pass over a (K cylinders x N rows) grid,
taken in row blocks of `_CHUNK_CELLS // K`, so memory stays bounded. Only
cells whose segment passes within r (1 + 1e-6) + 1e-12 of the cylinder axis
in xy reach the exact test; the margin keeps rounding from dropping a hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Vec3 = np.ndarray

_EPS_AXIS = 1e-12
# cylinder-row cells per occlusion block, and samples per scenario.orientation_study block:
# with the 2-D reject, perfbench read the same blockage_mc work_per_s at 2**14-2**16
# (195-206/s), and blockage_mc peak_rss_mb 43.1-43.2 MiB at 2**14, 43.5-44.2 at 2**15, 44.5-44.6 at 2**16
_CHUNK_CELLS = 1 << 14


def as_vec3(value) -> Vec3:
    """Coerce a length-3 sequence to a float vector, validating finiteness."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector components must be finite, got {v}")
    return v


def norm(v: Vec3) -> float:
    return float(np.linalg.norm(v))


def unit(v: Vec3) -> Vec3:
    """Normalize to unit length; rejects input whose norm is zero or past the float range."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # refused below instead
        n = norm(v)
    if not 0.0 < n < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {n}: it must be nonzero and finite")
    return v / n


def angle_between(a: Vec3, b: Vec3) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    c = float(np.dot(unit(a), unit(b)))
    return math.acos(min(1.0, max(-1.0, c)))


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
        if not (self.length > 0.0 and self.width > 0.0 and self.height > 0.0):
            raise ValueError("room dimensions must be positive")

    def contains(self, points, tol: float = 1e-9):
        """One (3,) point: a bool, refusing a non-finite point. (n, 3) rows: a mask, False on non-finite rows."""
        p = np.asarray(points, dtype=float)
        p = as_vec3(p) if p.ndim < 2 else p
        inside = np.all((p >= -tol) & (p <= np.array([self.length, self.width, self.height]) + tol), axis=-1)
        return bool(inside) if p.ndim == 1 else inside

    def walls(self) -> list["WallRect"]:
        """The four vertical walls with inward-facing normals."""
        lx, wy, hz = self.length, self.width, self.height
        return [
            WallRect(origin=np.array([0.0, 0.0, 0.0]), u_axis=np.array([0.0, 1.0, 0.0]),
                     u_len=wy, v_len=hz, normal=np.array([1.0, 0.0, 0.0])),
            WallRect(origin=np.array([lx, 0.0, 0.0]), u_axis=np.array([0.0, 1.0, 0.0]),
                     u_len=wy, v_len=hz, normal=np.array([-1.0, 0.0, 0.0])),
            WallRect(origin=np.array([0.0, 0.0, 0.0]), u_axis=np.array([1.0, 0.0, 0.0]),
                     u_len=lx, v_len=hz, normal=np.array([0.0, 1.0, 0.0])),
            WallRect(origin=np.array([0.0, wy, 0.0]), u_axis=np.array([1.0, 0.0, 0.0]),
                     u_len=lx, v_len=hz, normal=np.array([0.0, -1.0, 0.0])),
        ]


@dataclass(frozen=True, eq=False)
class WallRect:
    """A vertical wall rectangle: origin plus a horizontal axis and height."""

    origin: Vec3
    u_axis: Vec3
    u_len: float
    v_len: float
    normal: Vec3

    # the vertical axis is shared by every wall
    v_axis: Vec3 = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True, eq=False)
class CylinderBlocker:
    """Finite vertical cylinder standing on its base (human-body surrogate)."""

    base_center: Vec3
    radius: float = 0.15
    height: float = 1.65

    def __post_init__(self):
        object.__setattr__(self, "base_center", as_vec3(self.base_center))
        if not (self.radius > 0.0 and self.height > 0.0):
            raise ValueError("cylinder radius and height must be positive")


@dataclass(frozen=True)
class LinkGeometry:
    """Scalar geometry of one optical link."""

    distance: float
    irradiance_angle: float
    incidence_angle: float

    def __post_init__(self):
        if self.distance <= 0.0:
            raise ValueError("link distance must be positive")


def link_geometry(tx_pos: Vec3, tx_normal: Vec3, rx_pos: Vec3, rx_normal: Vec3) -> LinkGeometry:
    """Distance plus irradiance/incidence angles of the segment tx -> rx.

    The irradiance angle is measured at the transmitter between its normal
    and the outgoing direction; the incidence angle at the receiver between
    its normal and the reversed direction.
    """
    tx_pos, rx_pos = as_vec3(tx_pos), as_vec3(rx_pos)
    d = rx_pos - tx_pos
    dist = norm(d)
    if dist <= 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    return LinkGeometry(
        distance=dist,
        irradiance_angle=angle_between(as_vec3(tx_normal), d),
        incidence_angle=angle_between(as_vec3(rx_normal), -d),
    )


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
    b = 2.0 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius**2

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

    # window where the xy-projection lies inside the circle
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    safe_a = np.where(planar, a, 1.0)
    t_a = (-b - root) / (2.0 * safe_a)
    t_b = (-b + root) / (2.0 * safe_a)
    circ_ok = planar & (disc >= 0.0)
    c_lo = np.where(circ_ok, t_a, np.where(~planar & (c <= 0.0), -np.inf, np.inf))
    c_hi = np.where(circ_ok, t_b, np.where(~planar & (c <= 0.0), np.inf, -np.inf))

    lo = np.maximum(np.maximum(z_lo, c_lo), 0.0)
    hi = np.minimum(np.minimum(z_hi, c_hi), 1.0)
    return lo <= hi


def _any_hits(origins, ends, bases: np.ndarray, radius, height) -> np.ndarray:
    """Row i is True where any of the K cylinders at `bases[:, i]` meets segment i.

    `bases` is (K, N, 3) or (K, 1, 3); `radius`, `height` are scalars, (K, 1) or (N,).
    A cell is gathered for the exact test only if the segment's closest xy point, p0 when
    |d|^2 <= `_EPS_AXIS` as in the kernel, lies within r (1 + 1e-6) + 1e-12 of the axis;
    that margin dwarfs rounding, and elementwise ops give the bits of one test per cell.
    """
    p0 = np.atleast_2d(np.asarray(origins, dtype=float))
    p1 = np.atleast_2d(np.asarray(ends, dtype=float))
    shape = np.broadcast_shapes(p0.shape, p1.shape, bases.shape[1:])
    p0, p1 = np.broadcast_to(p0, shape), np.broadcast_to(p1, shape)
    bases = np.broadcast_to(bases, bases.shape[:1] + shape)
    sizes = [np.asarray(v, dtype=float) for v in (radius, height)]
    sizes.append((sizes[0] * (1.0 + 1e-6) + 1e-12) ** 2)  # squared reach of the 2-D reject
    step = max(1, _CHUNK_CELLS // max(1, len(bases)))
    hit = np.zeros(shape[0], dtype=bool)
    for lo in range(0, shape[0] if len(bases) else 0, step):  # no cylinders: nothing to test
        rows = slice(lo, lo + step)
        base = bases[:, rows]
        r, h, reach = (np.broadcast_to(v[..., rows] if v.ndim and v.shape[-1] > 1 else v, base.shape[:2])
                       for v in sizes)  # one value per (cylinder, row) cell
        dx, dy = p1[rows, 0] - p0[rows, 0], p1[rows, 1] - p0[rows, 1]
        ox, oy = p0[rows, 0] - base[..., 0], p0[rows, 1] - base[..., 1]
        a = dx * dx + dy * dy  # t = 0 where the kernel's planar test fails
        t = np.clip((ox * dx + oy * dy) / np.where(a > _EPS_AXIS, -a, -np.inf), 0.0, 1.0)
        k, i = np.nonzero((ox + t * dx) ** 2 + (oy + t * dy) ** 2 <= reach)
        if k.size:  # the exact test on the cells whose xy chord passes within r of the axis
            hit[lo + i[_segment_cylinder_hits(p0[lo + i], p1[lo + i], base[k, i], r[k, i], h[k, i])]] = True
    return hit


def segments_blocked(
    origins: np.ndarray, ends: np.ndarray, blockers: Sequence[CylinderBlocker]
) -> np.ndarray:
    """Vectorized occlusion of many segments against a shared blocker list.

    `origins` and `ends` are (N, 3) arrays (a single (3,) vector
    broadcasts); returns a boolean (N,) array that is True where any
    blocker intersects the closed segment.
    """
    # one (x, y, z, radius, height) row per blocker
    packed = np.array([(*b.base_center, b.radius, b.height) for b in blockers], dtype=float).reshape(-1, 5)
    return _any_hits(origins, ends, packed[:, None, :3], packed[:, 3:4], packed[:, 4:5])


def segments_blocked_each(
    origins: np.ndarray,
    ends: np.ndarray,
    bases: np.ndarray,
    radius,
    height,
) -> np.ndarray:
    """Row-paired occlusion: segment i against the cylinders based at row i.

    `bases` is (N, 3), one cylinder per row, or (K, N, 3), K cylinders per
    row; a single (3,) base or segment broadcasts. `radius` and `height` are
    scalars or (N,) arrays, one size per row. Used when every sample
    carries its own cylinders (a user's body, a per-sample blocker draw),
    where a shared blocker list would force a Python-level loop.
    """
    bases = np.asarray(bases, dtype=float)
    return _any_hits(origins, ends, bases if bases.ndim == 3 else np.atleast_2d(bases)[None], radius, height)


def ray_cylinder_intersect(origin: Vec3, end: Vec3, blocker: CylinderBlocker) -> bool:
    """True iff the closed segment origin -> end meets the closed cylinder."""
    return not los_visible(origin, end, [blocker])


def los_visible(tx_pos: Vec3, rx_pos: Vec3, blockers: Iterable[CylinderBlocker]) -> bool:
    """True iff no blocker intersects the tx -> rx segment."""
    tx, rx = as_vec3(tx_pos), as_vec3(rx_pos)
    if norm(rx - tx) <= 0.0:
        raise ValueError("segment endpoints coincide")
    return not bool(segments_blocked(tx[None, :], rx[None, :], list(blockers)).any())
