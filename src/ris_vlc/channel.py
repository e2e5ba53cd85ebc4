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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Room, Vec3, as_points, as_vec3, unit
# segments_blocked stays importable here: perfbench/spans.py wraps it at this name
from .geometry import segments_blocked  # noqa: F401
from .orientation import DeviceOrientation


def checked_gain(h) -> float:
    """A path gain as a float, refusing one that is negative or not finite."""
    h = float(h)
    if not (h >= 0.0 and math.isfinite(h)):
        raise ValueError(f"channel gain must be finite and nonnegative, got {h}")
    return h


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
        lambertian_index(self.half_intensity_angle)  # refuses an angle it cannot turn into an order
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
    concentrator: float = field(init=False)  # in-field gain f**2 / sin(fov)**2

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "concentrator",
                           check_receiver_terms(self.area, self.fov, self.filter_gain, self.refractive_index))


def check_receiver_terms(area: float, fov: float, filter_gain: float, refractive_index: float) -> float:
    """Refuse receiver terms `PdRx` cannot use, else return their in-field concentrator gain f**2 / sin(fov)**2.
    Scalar math, as every realized user re-checks its own."""
    if not area > 0.0:
        raise ValueError("detector area must be positive")
    if not 0.0 < fov <= math.pi / 2.0:
        raise ValueError("field of view must lie in (0, pi/2]")
    if not 0.0 < filter_gain <= 1.0:
        raise ValueError("filter gain must lie in (0, 1]")
    if not refractive_index >= 1.0:
        raise ValueError("concentrator refractive index must be >= 1")
    try:
        concentrator = refractive_index**2 / math.sin(fov) ** 2
    except ArithmeticError:  # f**2 overflows, or sin(fov)**2 underflows to 0
        concentrator = math.inf
    collection = area * concentrator
    if not collection * collection < math.inf:  # a link rate squares the gain this scales
        raise ValueError("detector area times concentrator gain f**2 / sin(fov)**2 must be finite when squared")
    return concentrator


def lambertian_index(half_intensity_angle: float) -> float:
    """Lambertian order m = -1 / log2(cos(phi_half)); 60 degrees gives m = 1."""
    if not 0.0 < half_intensity_angle < math.pi / 2.0:
        raise ValueError("half-intensity angle must lie in (0, pi/2)")
    if math.cos(half_intensity_angle) == 1.0:
        raise ValueError(f"half-intensity angle {half_intensity_angle} rad is too narrow: its cosine rounds to 1")
    return -1.0 / math.log2(math.cos(half_intensity_angle))


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


def los_gain(tx: LedTx, rx: PdRx) -> float:
    """Unblocked line-of-sight Lambertian gain; zero outside the FoV or behind the LED."""
    v = rx.position - tx.position
    d = float(np.linalg.norm(v))
    if d <= 0.0:
        raise ValueError("transmitter and receiver positions coincide")
    cos_phi = float(np.dot(v / d, tx.normal))
    cos_theta = incidence_cosine(tx.position, rx.position, rx.orientation)
    if cos_phi <= 0.0 or cos_theta < math.cos(rx.fov) or cos_theta < 0.0:
        return 0.0
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
    return checked_gain(h)


# patches per room: 24 000 tile a 5 x 5 x 3 m room at 5 cm; 1e-4 m would ask for 6e9 (144 GB of centers)
WALL_PATCH_CAP = 1 << 18


class WallPatchSet:
    """Small diffusely reflecting wall elements as arrays, so the reflection sum vectorizes.

    `centers` and unit `normals` are (n, 3), `areas` and `reflectances` (n,). Rows keep
    their construction order: summation order is part of the contract so results are
    bit-stable.
    """

    def __init__(self, centers, normals, areas, reflectances):
        self.centers, normals = as_points(centers, "patch centers"), as_points(normals, "patch normals")
        self.areas, self.reflectances = (np.asarray(a, dtype=float).reshape(-1) for a in (areas, reflectances))
        rows = [len(self.centers), len(normals), len(self.areas), len(self.reflectances)]
        if len(set(rows)) > 1:
            raise ValueError(f"patch centers, normals, areas and reflectances have unequal row counts {rows}")
        with np.errstate(over="ignore"):  # refused below instead
            lengths = np.linalg.norm(normals, axis=1)
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("patch centers must be finite")
        if not np.all((lengths > 0.0) & (lengths < math.inf)):
            raise ValueError("patch normals must be nonzero and finite")
        if not np.all(self.areas > 0.0):
            raise ValueError("patch area must be positive")
        if not np.all((self.reflectances >= 0.0) & (self.reflectances <= 1.0)):
            raise ValueError("reflectance must lie in [0, 1]")
        self.normals = normals / lengths[:, None]

    def __len__(self) -> int:
        return len(self.areas)

    @classmethod
    def for_room(cls, room: Room, patch_size: float = 0.05, reflectance: float = 0.7) -> "WallPatchSet":
        """Tile the four vertical walls with near-square patches.

        Patch edges are the requested size rounded so each wall is covered
        exactly; ceiling and floor are not tiled (first-bounce model uses
        wall reflections only). Patches run wall by wall, row-major in (v, u).
        """
        centers, normals, areas = [], [], []
        for wall, nu, nv in cls.tiling(room, patch_size):
            du, dv = wall.u_len / nu, wall.v_len / nv
            j, i = np.indices((nv, nu)).reshape(2, -1, 1)
            centers.append(wall.origin + wall.u_axis * ((i + 0.5) * du) + wall.v_axis * ((j + 0.5) * dv))
            normals.append(np.tile(wall.normal, (nu * nv, 1)))
            areas.append(np.full(nu * nv, du * dv))
        areas = np.concatenate(areas)
        return cls(np.concatenate(centers), np.concatenate(normals), areas, np.full(len(areas), reflectance))

    @staticmethod
    def tiling(room: Room, patch_size: float):
        """(wall, nu, nv) per wall of `for_room`, refusing more than `WALL_PATCH_CAP` patches before any allocation."""
        if not patch_size > 0.0:
            raise ValueError("wall patch size must be positive")
        walls = room.walls()  # np.rint rounds half to even like round(), and takes an infinite ratio
        counts = [(max(1.0, np.rint(w.u_len / patch_size)), max(1.0, np.rint(w.v_len / patch_size))) for w in walls]
        total = sum(float(nu) * float(nv) for nu, nv in counts)  # a Python float product overflows to inf silently
        if not total <= WALL_PATCH_CAP:
            raise ValueError(f"wall patch size {patch_size} m tiles the walls into {total:.3g} patches, "
                             f"above the cap of {WALL_PATCH_CAP}")
        return [(wall, int(nu), int(nv)) for wall, (nu, nv) in zip(walls, counts)]


@dataclass(frozen=True, eq=False)
class ReflectionLegs:
    """Reflector-independent legs of LED -> point -> photodiode paths.

    `d1`, `u1`, `cos_phi1`: LED-to-point length, unit direction and irradiance
    cosine; `d2`, `u2`, `cos_t2`: point-to-photodiode length, direction and
    incidence cosine. `clear` marks points the LED faces, seen inside the FoV,
    with neither leg blocked. `_legs` shapes the LED-side fields (1, APs, n), the
    receiver-side ones (users, 1, n) and `clear` (users, APs, n). Read-only, so
    one record serves many evaluations.
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


def _legs(txs: Sequence[LedTx], points: np.ndarray, rxs: Sequence[PdRx]) -> ReflectionLegs:
    """Unblocked legs from every LED in `txs` through one (n, 3) point set to every receiver in `rxs`.

    Each cosine is one matrix-vector product per LED or receiver over exactly these points, because
    BLAS rounds a row by its place in the matrix: legs over concatenated point sets differ in bits."""
    v1 = points - np.array([tx.position for tx in txs]).reshape(-1, 1, 3)
    v2 = np.array([rx.position for rx in rxs]).reshape(-1, 1, 3) - points
    d1, d2 = np.linalg.norm(v1, axis=-1), np.linalg.norm(v2, axis=-1)
    if np.any(d1 <= 0.0) or np.any(d2 <= 0.0):
        raise ValueError("a reflecting point coincides with the transmitter or the receiver")
    u1, u2 = v1 / d1[..., None], v2 / d2[..., None]
    cos_phi1 = (u1 @ np.array([tx.normal for tx in txs]).reshape(-1, 3, 1))[None, ..., 0]
    cos_t2 = -(u2 @ np.array([rx.orientation.normal for rx in rxs]).reshape(-1, 3, 1))[:, None, :, 0]
    cos_fov = np.array([math.cos(rx.fov) for rx in rxs]).reshape(-1, 1, 1)
    clear = (cos_phi1 > 0.0) & (cos_t2 >= cos_fov) & (cos_t2 >= 0.0)
    return ReflectionLegs(d1[None], u1[None], cos_phi1, d2[:, None], u2[:, None], cos_t2, clear)


def _lambertian_power(cos_phi1: np.ndarray, m) -> np.ndarray:
    """cos_phi1 ** m, each LED's order (one, or a (1, APs, 1) column over axis -2) as a Python float:
    NumPy roots or squares a one-element exponent of 0.5 or 2 but calls pow() for a longer one."""
    orders = [float(order) for order in np.ravel(m)]
    if len(orders) == 1:
        return cos_phi1 ** orders[0]
    return np.stack([cos_phi1[..., a, :] ** order for a, order in enumerate(orders)], axis=-2)


def _wall_gain(m, rx, pset: WallPatchSet, legs: ReflectionLegs):
    """First-order diffuse wall reflection gain, summed over patches in construction order.

    Each patch contributes

        rho * (m+1) * A / (2 pi**2 d1**2 d2**2) * dA
            * cos(phi1)**m * cos(t1) * cos(phi2) * cos(t2) * T * G(t2)

    with the transmitter-side irradiance/incidence pair (phi1, t1) and the
    receiver-side pair (phi2, t2). Terms vanish when any cosine is negative,
    or outside `legs.clear`, which already holds the FoV gate and leg blockage.
    `m` and the `rx` terms are floats for one link or (users, APs) columns over
    the rows of `_legs`, with equal bits either way (see `_lambertian_power`).
    """
    cos_t1 = -np.einsum("...j,...j->...", legs.u1, pset.normals)
    cos_phi2 = np.einsum("...j,...j->...", legs.u2, pset.normals)
    ok = legs.clear & (cos_t1 > 0.0) & (cos_phi2 > 0.0)

    terms = (
        pset.reflectances
        * (m + 1.0)
        * rx.area
        / (2.0 * math.pi**2 * legs.d1**2 * legs.d2**2)
        * pset.areas
        * _lambertian_power(np.where(ok, legs.cos_phi1, 0.0), m)
        * np.where(ok, cos_t1, 0.0)
        * np.where(ok, cos_phi2, 0.0)
        * np.where(ok, legs.cos_t2, 0.0)
        * rx.filter_gain
        * rx.concentrator
    )
    return np.add.reduce(terms, axis=-1)
