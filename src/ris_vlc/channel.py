"""Optical channel gains for LED transmitters and photodiode receivers.

The direct link follows the generalized Lambertian model: an LED of
half-intensity angle `phi_half` radiates with intensity

    R(phi) = (m + 1) / (2 pi) * cos(phi)**m,    m = -1 / log2(cos(phi_half)),

which integrates to one over the transmit hemisphere. A detector of area
`A` at distance `d`, incidence angle `theta`, optical filter gain `T`, and
concentrator gain `G(theta) = f**2 / sin(fov)**2` inside the field of view
collects

    h = (m + 1) * A / (2 pi d**2) * cos(phi)**m * T * G(theta) * cos(theta)

and nothing outside the field of view. Wall reflections are modeled as a
sum of first-order diffuse bounces over small wall patches; higher-order
reflections carry negligible power and are excluded. Gains are plain
ratios of collected to emitted optical power (dimensionless).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    CylinderBlocker,
    Room,
    Vec3,
    as_vec3,
    los_visible,
    segments_blocked,
    unit,
)
from .orientation import DeviceOrientation


class PathKind(enum.Enum):
    LOS = "los"
    WALL_NLOS = "wall_nlos"
    RIS_NLOS = "ris_nlos"


@dataclass(frozen=True)
class ChannelGain:
    """Nonnegative power gain of one propagation path."""

    h: float
    path_kind: PathKind

    def __post_init__(self):
        if not (self.h >= 0.0 and math.isfinite(self.h)):
            raise ValueError(f"channel gain must be finite and nonnegative, got {self.h}")


@dataclass(frozen=True, eq=False)
class LedTx:
    """LED access point: position, boresight normal, beam width, power."""

    position: Vec3
    normal: Vec3 = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))
    half_intensity_angle: float = math.radians(60.0)
    optical_power: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "normal", unit(as_vec3(self.normal)))
        if not 0.0 < self.half_intensity_angle < math.pi / 2.0:
            raise ValueError("half-intensity angle must lie in (0, pi/2)")
        if not self.optical_power > 0.0:
            raise ValueError("optical power must be positive")

    @property
    def lambertian_order(self) -> float:
        return lambertian_index(self.half_intensity_angle)


@dataclass(frozen=True, eq=False)
class PdRx:
    """Photodiode receiver on a hand-held device.

    The detector normal comes from the device orientation; `filter_gain` is
    a constant transmittance approximation of the optical filter, and the
    concentrator uses the standard hemispheric-lens gain with refractive
    index `f`.
    """

    position: Vec3
    orientation: DeviceOrientation = DeviceOrientation(polar=0.0, azimuth=0.0)
    area: float = 1e-4
    fov: float = math.radians(85.0)
    filter_gain: float = 1.0
    refractive_index: float = 1.5

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        if not self.area > 0.0:
            raise ValueError("detector area must be positive")
        if not 0.0 < self.fov <= math.pi / 2.0:
            raise ValueError("field of view must lie in (0, pi/2]")
        if not 0.0 < self.filter_gain <= 1.0:
            raise ValueError("filter gain must lie in (0, 1]")
        if not self.refractive_index >= 1.0:
            raise ValueError("concentrator refractive index must be >= 1")

    @property
    def normal(self) -> Vec3:
        return self.orientation.normal

    @property
    def concentrator(self) -> float:
        """In-field concentrator gain f**2 / sin(fov)**2."""
        return self.refractive_index**2 / math.sin(self.fov) ** 2


def lambertian_index(half_intensity_angle: float) -> float:
    """Lambertian order m = -1 / log2(cos(phi_half)); 60 degrees gives m = 1."""
    if not 0.0 < half_intensity_angle < math.pi / 2.0:
        raise ValueError("half-intensity angle must lie in (0, pi/2)")
    return -1.0 / math.log2(math.cos(half_intensity_angle))


def radiant_intensity(m: float, phi: float) -> float:
    """Normalized Lambertian intensity (m+1)/(2 pi) * cos(phi)**m, zero behind."""
    c = math.cos(phi)
    if c <= 0.0:
        return 0.0
    return (m + 1.0) / (2.0 * math.pi) * c**m


def concentrator_gain(theta: float, f: float, fov: float) -> float:
    """Optical concentrator gain: f**2 / sin(fov)**2 inside the FoV, else 0."""
    if theta < 0.0 or theta > fov:
        return 0.0
    return f**2 / math.sin(fov) ** 2


def incidence_cosine(ap_pos: Vec3, user_pos: Vec3, orientation: DeviceOrientation) -> float:
    """Cosine of the incidence angle at a tilted device.

    With the device normal (sin a cos b, sin a sin b, cos a) and the link
    vector from user to access point, the cosine expands to

        cos(theta) = (dx/d) sin(a) cos(b) + (dy/d) sin(a) sin(b) + (dz/d) cos(a).
    """
    ap, user = as_vec3(ap_pos), as_vec3(user_pos)
    dvec = ap - user
    d = float(np.linalg.norm(dvec))
    if d <= 0.0:
        raise ValueError("access point and user positions coincide")
    c = float(np.dot(dvec / d, orientation.normal))
    return min(1.0, max(-1.0, c))


def los_gain(tx: LedTx, rx: PdRx, blockers: Iterable[CylinderBlocker] = ()) -> ChannelGain:
    """Line-of-sight Lambertian gain; zero when blocked or outside the FoV."""
    blockers = list(blockers)
    v = rx.position - tx.position
    d = float(np.linalg.norm(v))
    if d <= 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    cos_phi = float(np.dot(v / d, tx.normal))
    cos_theta = incidence_cosine(tx.position, rx.position, rx.orientation)
    if (
        cos_phi <= 0.0
        or cos_theta < math.cos(rx.fov)
        or cos_theta < 0.0
        or (blockers and not los_visible(tx.position, rx.position, blockers))
    ):
        return ChannelGain(0.0, PathKind.LOS)
    m = tx.lambertian_order
    h = (
        (m + 1.0)
        * rx.area
        / (2.0 * math.pi * d**2)
        * cos_phi**m
        * rx.filter_gain
        * rx.concentrator
        * cos_theta
    )
    return ChannelGain(h, PathKind.LOS)


@dataclass(frozen=True, eq=False)
class WallPatch:
    """Small diffusely reflecting wall element."""

    center: Vec3
    normal: Vec3
    area: float
    reflectance: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "normal", unit(as_vec3(self.normal)))
        if not self.area > 0.0:
            raise ValueError("patch area must be positive")
        if not 0.0 <= self.reflectance <= 1.0:
            raise ValueError("reflectance must lie in [0, 1]")


class WallPatchSet:
    """Packed array form of a wall discretization.

    Holds only the arrays `centers` and `normals` (n, 3), `areas` and
    `reflectances` (n,), so the reflection sum vectorizes. Indexing and
    iteration build `WallPatch` records from the arrays on demand, in the
    fixed construction order (summation order is part of the contract so
    results are bit-stable).
    """

    def __init__(self, patches: Sequence[WallPatch]):
        patches = list(patches)
        self.centers = np.array([p.center for p in patches], dtype=float).reshape(-1, 3)
        self.normals = np.array([p.normal for p in patches], dtype=float).reshape(-1, 3)
        self.areas = np.array([p.area for p in patches], dtype=float)
        self.reflectances = np.array([p.reflectance for p in patches], dtype=float)

    def __len__(self) -> int:
        return len(self.areas)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> WallPatch:
        return WallPatch(self.centers[i].copy(), self.normals[i], float(self.areas[i]),
                         float(self.reflectances[i]))

    @classmethod
    def coerce(cls, patches) -> "WallPatchSet":
        if isinstance(patches, cls):
            return patches
        return cls(list(patches))

    @classmethod
    def for_room(cls, room: Room, patch_size: float = 0.05, reflectance: float = 0.7) -> "WallPatchSet":
        """Tile the four vertical walls with near-square patches.

        Patch edges are the requested size rounded so each wall is covered
        exactly; ceiling and floor are not tiled (first-bounce model uses
        wall reflections only). Patches run wall by wall, row-major in (v, u).
        """
        if not patch_size > 0.0:
            raise ValueError("patch size must be positive")
        if not 0.0 <= reflectance <= 1.0:
            raise ValueError("reflectance must lie in [0, 1]")
        centers, normals, areas = [], [], []
        for wall in room.walls():
            nu = max(1, round(wall.u_len / patch_size))
            nv = max(1, round(wall.v_len / patch_size))
            du, dv = wall.u_len / nu, wall.v_len / nv
            j, i = np.indices((nv, nu)).reshape(2, -1, 1)
            centers.append(wall.origin + wall.u_axis * ((i + 0.5) * du) + wall.v_axis * ((j + 0.5) * dv))
            normals.append(np.tile(wall.normal, (nu * nv, 1)))
            areas.append(np.full(nu * nv, du * dv))
        pset = cls.__new__(cls)
        pset.centers, pset.normals, pset.areas = map(np.concatenate, (centers, normals, areas))
        pset.reflectances = np.full(len(pset.areas), reflectance, dtype=float)
        return pset


@dataclass(frozen=True, eq=False)
class ReflectionLegs:
    """Reflector-independent legs of LED -> point -> photodiode paths, one row per point.

    `d1`, `u1`, `cos_phi1`: LED-to-point length, unit direction and irradiance
    cosine; `d2`, `u2`, `cos_t2`: point-to-photodiode length, direction and
    incidence cosine. `clear` marks points the LED faces, seen inside the FoV,
    with neither leg blocked. Read-only, so one record serves many evaluations.
    """

    d1: np.ndarray
    u1: np.ndarray
    cos_phi1: np.ndarray
    d2: np.ndarray
    u2: np.ndarray
    cos_t2: np.ndarray
    clear: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False


def reflection_legs(tx: LedTx, points: np.ndarray, rx: PdRx,
                    blockers: Iterable[CylinderBlocker] = ()) -> ReflectionLegs:
    """Leg geometry and blockage of first-order reflections through (n, 3) `points`.

    Wall patches and mirror elements share it and add only the terms of their
    own normals: cos(t1) at the point, then cos(phi2) or the specular lobe.
    """
    return _reflection_legs(_led_legs(tx, points), tx, points, rx, blockers)


def _led_legs(tx: LedTx, points: np.ndarray):
    """`d1`, `u1` and `cos_phi1` of `reflection_legs`: they depend on the LED and the points only."""
    v1 = points - tx.position
    d1 = np.linalg.norm(v1, axis=1)
    if np.any(d1 <= 0.0):
        raise ValueError("a reflecting point coincides with the transmitter or the receiver")
    u1 = v1 / d1[:, None]
    return d1, u1, u1 @ tx.normal


def _reflection_legs(led, tx: LedTx, points: np.ndarray, rx: PdRx,
                     blockers: Iterable[CylinderBlocker] = ()) -> ReflectionLegs:
    """`reflection_legs` given its LED-side legs `led = _led_legs(tx, points)`, which receivers share."""
    blockers = list(blockers)
    d1, u1, cos_phi1 = led
    v2 = rx.position - points
    d2 = np.linalg.norm(v2, axis=1)
    if np.any(d2 <= 0.0):
        raise ValueError("a reflecting point coincides with the transmitter or the receiver")
    u2 = v2 / d2[:, None]
    cos_t2 = -(u2 @ rx.orientation.normal)
    clear = (cos_phi1 > 0.0) & (cos_t2 >= math.cos(rx.fov)) & (cos_t2 >= 0.0)
    lit = np.flatnonzero(clear)
    if blockers and lit.size:  # both legs of the lit rows in one test, the LED-side legs first
        via = points[lit]
        hit = segments_blocked(np.vstack([np.broadcast_to(tx.position, via.shape), via]),
                               np.vstack([via, np.broadcast_to(rx.position, via.shape)]), blockers)
        clear[lit] = ~hit.reshape(2, -1).any(axis=0)
    return ReflectionLegs(d1, u1, cos_phi1, d2, u2, cos_t2, clear)


def wall_first_reflection_gain(
    tx: LedTx,
    rx: PdRx,
    patches,
    blockers: Iterable[CylinderBlocker] = (),
) -> ChannelGain:
    """First-order diffuse wall reflection gain, summed over patches.

    Each patch contributes

        rho * (m+1) * A / (2 pi**2 d1**2 d2**2) * dA
            * cos(phi1)**m * cos(t1) * cos(phi2) * cos(t2) * T * G(t2)

    with the transmitter-side irradiance/incidence pair (phi1, t1) and the
    receiver-side pair (phi2, t2). Terms vanish when any cosine is negative,
    the receiver-side incidence leaves the FoV, or a blocker occludes either
    sub-segment. Patches are summed in construction order.
    """
    pset = WallPatchSet.coerce(patches)
    return _wall_gain(tx, rx, pset, reflection_legs(tx, pset.centers, rx, blockers))


def _wall_gain(tx: LedTx, rx: PdRx, pset: WallPatchSet, legs: ReflectionLegs) -> ChannelGain:
    """The patch sum of `wall_first_reflection_gain` over legs whose `clear` already holds blockage."""
    cos_t1 = -np.einsum("ij,ij->i", legs.u1, pset.normals)
    cos_phi2 = np.einsum("ij,ij->i", legs.u2, pset.normals)
    ok = legs.clear & (cos_t1 > 0.0) & (cos_phi2 > 0.0)

    m = tx.lambertian_order
    terms = (
        pset.reflectances
        * (m + 1.0)
        * rx.area
        / (2.0 * math.pi**2 * legs.d1**2 * legs.d2**2)
        * pset.areas
        * np.where(ok, legs.cos_phi1, 0.0) ** m
        * np.where(ok, cos_t1, 0.0)
        * np.where(ok, cos_phi2, 0.0)
        * np.where(ok, legs.cos_t2, 0.0)
        * rx.filter_gain
        * rx.concentrator
    )
    return ChannelGain(float(np.add.reduce(terms)), PathKind.WALL_NLOS)
