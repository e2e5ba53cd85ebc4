"""Mirror-array reconfigurable surface model.

A panel of small flat mirrors hangs on a wall; each element can yaw about
the wall's vertical axis and then roll about the yawed horizontal axis
(intrinsic order). An element redirects light specularly. The reflected
beam of a finite, slightly imperfect mirror is modeled as a narrow Gaussian
lobe of angular spread `beam_spread` about the specular direction:

    element gain = rho_m * [(m+1) A_m / (2 pi d1**2) * cos(phi1)**m * cos(t1)]
                   * [exp(-psi**2 / (2 sigma**2)) / (2 pi sigma**2 d2**2)]
                   * A_pd * cos(t2) * T * G(t2)

where the first bracket is the Lambertian capture of the element (exactly
the LoS gain of a detector of area A_m), psi is the angle between the
specular direction and the element-to-receiver direction, and the second
bracket integrates to ~1/d2**2 over solid angle so reflected power is
conserved up to rho_m. The lobe keeps the gain continuous in the mirror
angles, which metaheuristic optimizers need; as sigma -> 0 it sharpens
toward an ideal mirror.

Only the element normals (cos t1, the specular direction, psi) depend on
yaw and roll; `MirrorArray.normals` computes them, once per panel per angle
set in `Scenario.evaluate_links` (one normal for a shared pair). d1, d2,
cos(phi1), cos(t2), the FoV gate and leg blockage come as per-panel
(users, APs, elements) legs from `scenario._blocked_legs`, for a realized
scenario's link table or for one link. `steering_terms` turns them into the
factors no angle changes (capture prefix, lobe denominator, gated cos t2),
once per panel; `steered_gains` adds the angle step in the original product
order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Tuple

import numpy as np

from .channel import ReflectionLegs, _lambertian_power
from .geometry import Vec3, as_vec3, unit
# segments_blocked stays importable here: perfbench/spans.py wraps it at this name
from .geometry import segments_blocked  # noqa: F401

ANGLE_LIMIT = math.pi / 2.0
# elements per panel (256 x 256); the default panel has 64
MIRROR_ELEMENT_CAP = 1 << 16

_Z = np.array([0.0, 0.0, 1.0])


def _horizontal_axis(base_normal: Vec3) -> Vec3:
    """In-panel horizontal axis: z cross n, with an x fallback for ceiling panels."""
    h = np.cross(_Z, base_normal)
    n = np.linalg.norm(h)
    if n < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    return h / n


def _mirror_normals(yaw, roll, b: Vec3, h: Vec3) -> np.ndarray:
    """(n, 3) mirror normals for flat yaw/roll arrays in a panel frame (`MirrorArray._frame`); (3,) for floats.

    Yaw rotates the unit base normal b and the horizontal axis h about
    vertical; roll then rotates about the yawed axis a. That axis stays
    perpendicular to the yawed normal b', so Rodrigues' formula loses its
    parallel term: n = b' cos(w) + (a x b') sin(w), the cross written out.
    """
    cy, sy = np.cos(yaw), np.sin(yaw)
    b0, b1, b2 = b[0] * cy - b[1] * sy, b[0] * sy + b[1] * cy, b[2]
    a0, a1, a2 = h[0] * cy - h[1] * sy, h[0] * sy + h[1] * cy, h[2]
    cw, sw = np.cos(roll), np.sin(roll)
    out = np.empty(np.shape(cy) + (3,))
    out[..., 0] = b0 * cw + (a1 * b2 - a2 * b1) * sw
    out[..., 1] = b1 * cw + (a2 * b0 - a0 * b2) * sw
    out[..., 2] = b2 * cw + (a0 * b1 - a1 * b0) * sw
    return out


@dataclass(frozen=True, eq=False)
class MirrorArray:
    """Regular grid of square mirrors on a wall-mounted panel.

    Angle matrices are clamped into [-pi/2, pi/2] on construction, so any
    optimizer update passed through the type stays feasible. Scalars
    broadcast to the full grid; element centers are fixed (each mirror
    pivots about its own center).
    """

    panel_center: Vec3
    base_normal: Vec3
    rows: int = 8
    cols: int = 8
    element_size: float = 0.1
    reflectivity: float = 0.95
    beam_spread: float = math.radians(2.0)
    yaw: np.ndarray = field(default=0.0)
    roll: np.ndarray = field(default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "panel_center", as_vec3(self.panel_center))
        object.__setattr__(self, "base_normal", unit(as_vec3(self.base_normal)))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("mirror grid needs at least one row and one column")
        if self.rows * self.cols > MIRROR_ELEMENT_CAP:  # before the angle matrices allocate
            raise ValueError(f"{self.rows} x {self.cols} mirror elements exceed the cap of {MIRROR_ELEMENT_CAP}")
        if not (self.element_size > 0.0 and 0.0 < self.element_size * self.element_size < math.inf):
            raise ValueError("element size must be positive, with a finite area")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        if not (self.beam_spread > 0.0 and sys.float_info.min <= self.beam_spread * self.beam_spread < math.inf):
            raise ValueError(f"beam spread {self.beam_spread} rad must be positive, its square normal and finite")
        object.__setattr__(self, "yaw", self._coerce_angles(self.yaw))
        object.__setattr__(self, "roll", self._coerce_angles(self.roll))

    def _coerce_angles(self, angles) -> np.ndarray:
        a = np.asarray(angles, dtype=float)
        if a.ndim == 0:
            a = np.full((self.rows, self.cols), float(a))
        if a.shape != (self.rows, self.cols):
            raise ValueError(f"angle matrix must have shape {(self.rows, self.cols)}, got {a.shape}")
        clamped = np.clip(a, -ANGLE_LIMIT, ANGLE_LIMIT)
        clamped.flags.writeable = False
        return clamped

    @property
    def element_area(self) -> float:
        return self.element_size**2

    @property
    def element_count(self) -> int:
        return self.rows * self.cols

    @cached_property
    def element_centers(self) -> np.ndarray:
        """(rows*cols, 3) centers in row-major order, grid centered on the panel."""
        h0 = _horizontal_axis(self.base_normal)
        v0 = np.cross(self.base_normal, h0)
        r_idx, c_idx = np.meshgrid(np.arange(self.rows), np.arange(self.cols), indexing="ij")
        du = (c_idx.ravel() - (self.cols - 1) / 2.0) * self.element_size
        dv = (r_idx.ravel() - (self.rows - 1) / 2.0) * self.element_size
        return self.panel_center + du[:, None] * h0 + dv[:, None] * v0

    @cached_property
    def _frame(self) -> Tuple[Vec3, Vec3]:
        """(b, h) for `_mirror_normals`; unit() again, as it is not always a no-op on a unit vector."""
        b = unit(self.base_normal)
        return b, _horizontal_axis(b)

    def normals(self, yaw=None, roll=None) -> np.ndarray:
        """(rows*cols, 3) element normals at the stored angles or at clamped, broadcast overrides.

        A float pair (np.float64 too) clamps like `np.clip`; its one normal is a read-only broadcast view."""
        if isinstance(yaw, float) and isinstance(roll, float):
            yaw, roll = (min(max(a, -ANGLE_LIMIT), ANGLE_LIMIT) for a in (yaw, roll))
            return np.broadcast_to(_mirror_normals(yaw, roll, *self._frame), (self.element_count, 3))
        yaw_m = self.yaw if yaw is None else self._coerce_angles(yaw)
        roll_m = self.roll if roll is None else self._coerce_angles(roll)
        return _mirror_normals(yaw_m.ravel(), roll_m.ravel(), *self._frame)

    def with_angles(self, yaw, roll) -> "MirrorArray":
        """Same panel with new angle matrices (clamped by construction)."""
        return replace(self, yaw=yaw, roll=roll)


@dataclass(frozen=True, eq=False)
class SteeringTerms:
    """One panel's legs and the factors of its gains that no mirror angle changes."""

    legs: ReflectionLegs
    capture: np.ndarray  # (m+1) A / (2 pi d1**2) * cos(phi1)**m on clear legs
    spread: np.ndarray  # the lobe's denominator 2 pi sigma**2 d2**2
    cos_t2: np.ndarray  # cos(t2) on clear legs, else 0


def steering_terms(m, array: MirrorArray, legs: ReflectionLegs) -> SteeringTerms:
    """The angle-free factors of `steered_gains`; `m` is a float or a (1, APs, 1) column over the legs' rows.
    Gated on `clear`, not on the lit elements: the angle step zeroes and masks the unlit ones itself."""
    capture = (m + 1.0) * array.element_area / (2.0 * math.pi * legs.d1**2) * _lambertian_power(
        np.where(legs.clear, legs.cos_phi1, 0.0), m)
    spread = 2.0 * math.pi * array.beam_spread**2 * legs.d2**2
    return SteeringTerms(legs, capture, spread, np.where(legs.clear, legs.cos_t2, 0.0))


def steered_gains(array: MirrorArray, rx, terms: SteeringTerms, normals: np.ndarray) -> np.ndarray:
    """The angle step of a panel's gains: its `steering_terms` and `array.normals(yaw, roll)` to gains.

    The `rx` terms (`area`, `filter_gain`, `concentrator`) are floats for one link or (users, APs) columns
    over a link table's rows, with equal bits either way, as in `channel._wall_gain`."""
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
