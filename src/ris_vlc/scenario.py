"""Scenario assembly, configuration ingestion, and the Monte-Carlo engine.

A scenario bundles a room, LED access points, users, blockers, mirror
panels, wall discretization, noise, and intensity constraints. Users and
blockers may be *templates*: a user without a position (or without a fixed
orientation) and every population blocker get fresh uniform draws each
trial, which is how the deployment studies randomize. A fully realized
scenario (every position and orientation pinned) evaluates deterministically.

Each user may carry a body cylinder at a fixed horizontal offset from the
device along the device-normal azimuth (the screen faces its holder, so
the trunk sits on that side). The body occludes that user's own links -
direct, wall-reflected, and mirror-reflected alike - exactly like any
other blocker.

Reproducibility: trial i of a study derives its generator from
SeedSequence([master_seed, i]), so results are independent of execution
order; study outputs are collected in trial order.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .channel import (LedTx, PdRx, WallPatchSet, _legs, _wall_gain, check_receiver_terms, checked_gain,
                      incidence_cosine, los_gain)
from .geometry import ConfigError, CylinderSet, Room, Vec3, as_vec3, segments_blocked, segments_blocked_each
# link_rate stays importable here: perfbench/spans.py wraps it at this name
from .metrics import IntensityConstraints, NoiseModel, _airtime_shared_rates, _in_order_sum, link_rate  # noqa: F401
from .orientation import DeviceOrientation, OrientationModel, sample_orientation, sample_polar_angles
from .ris import MIRROR_ELEMENT_CAP, MirrorArray, SteeringTerms, steered_gains, steering_terms

# stays defined here: perfbench/worker.py reads it; run_study ignores it
THREADS_ENV_VAR = "RIS_VLC_THREADS"

DEFAULT_USER_HEIGHT = 0.75
DEFAULT_BODY_OFFSET = 0.36
DEFAULT_BODY_RADIUS = 0.15
DEFAULT_BODY_HEIGHT = 1.65
# count caps, refused before any per-item allocation: the link table grows as users x APs x
# points, and every trial and every orientation_study sample draws the whole blocker population;
# the loader also caps its list sections, so that no document makes it read or build without bound
USER_COUNT_CAP = 1 << 8
BLOCKER_COUNT_CAP = 1 << 10
AP_COUNT_CAP = 1 << 6
PANEL_COUNT_CAP = 1 << 4


@dataclass(frozen=True, eq=False)
class UserSpec:
    """One user's receiver template plus body-blockage parameters.

    `position` None means "sample uniformly over the floor at `height` each
    trial"; `fixed_orientation` None means "sample from the scenario's
    orientation model each trial".
    """

    position: Optional[Vec3] = None
    height: float = DEFAULT_USER_HEIGHT
    area: float = 1e-4
    fov: float = math.radians(85.0)
    filter_gain: float = 1.0
    refractive_index: float = 1.5
    fixed_orientation: Optional[DeviceOrientation] = None
    self_blockage: bool = True
    body_offset: float = DEFAULT_BODY_OFFSET
    body_radius: float = DEFAULT_BODY_RADIUS
    body_height: float = DEFAULT_BODY_HEIGHT

    def __post_init__(self):
        if self.position is not None:
            object.__setattr__(self, "position", as_vec3(self.position, "position"))
        if not self.body_offset >= 0.0:
            raise ConfigError("body offset must be nonnegative", "body_offset")
        geometry.check_cylinder_size(self.body_radius, self.body_height, "body", ("body_radius", "body_height"))
        check_receiver_terms(self.area, self.fov, self.filter_gain, self.refractive_index)

    def receiver(self) -> PdRx:
        if self.position is None or self.fixed_orientation is None:
            raise ValueError("user is not realized: position or orientation still unsampled")
        return PdRx(
            position=self.position,
            orientation=self.fixed_orientation,
            area=self.area,
            fov=self.fov,
            filter_gain=self.filter_gain,
            refractive_index=self.refractive_index,
        )


def _body_xy(device: np.ndarray, cos_b, sin_b, offset: float):
    """Floor center (x, y) of the body `offset` from a (3,) device, or from (n, 3) devices, along the azimuth."""
    return device[..., 0] + offset * cos_b, device[..., 1] + offset * sin_b


@dataclass(frozen=True)
class BlockerPopulation:
    """Non-user blockers redrawn each trial: count and common dimensions."""

    count: int
    radius: float = 0.15
    height: float = 1.65

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("blocker count must be nonnegative", "count")
        if self.count > BLOCKER_COUNT_CAP:
            raise ConfigError(f"blocker count {self.count:.6g} exceeds the cap of {BLOCKER_COUNT_CAP}", "count")
        geometry.check_cylinder_size(self.radius, self.height, "blocker", ("radius", "height"))


@dataclass(frozen=True, eq=False)
class _LinkTable:
    """Angle-independent link data: (users, APs) arrays, per panel its (users, APs, elements) steering terms."""

    h_los: np.ndarray
    h_wall: np.ndarray
    los_visible: np.ndarray
    fov_ok: np.ndarray
    mirror_terms: Tuple[SteeringTerms, ...]
    rx: SimpleNamespace  # `area`, `filter_gain` and `concentrator` as (users, 1, 1) columns


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one Monte-Carlo trial over all users: per user the gain split, flags and rate at its serving AP."""

    h_los: np.ndarray
    h_wall: np.ndarray
    h_ris: np.ndarray
    rates: np.ndarray
    sum_rate: float
    los_visible: np.ndarray
    fov_ok: np.ndarray
    serving_ap: np.ndarray


@dataclass(frozen=True)
class StudyStatistics:
    """Aggregates of a Monte-Carlo study.

    `fraction_fov_excluded` is the share of LoS-visible user links whose
    incidence angle exceeds the receiver FoV; the user-rate means split the
    population into links with visible LoS and links living on reflections
    alone. Empty populations yield NaN means.
    """

    trials: int
    mean_sum_rate: float
    std_sum_rate: float
    fraction_los_visible: float
    fraction_fov_excluded: float
    mean_user_rate_los: float
    mean_user_rate_nlos: float

    def to_dict(self) -> dict:
        def _clean(x: float):
            return None if math.isnan(x) else x

        return {
            "trials": self.trials,
            "mean_sum_rate_bps": self.mean_sum_rate,
            "std_sum_rate_bps": self.std_sum_rate,
            "fraction_los_visible": self.fraction_los_visible,
            "fraction_fov_excluded": _clean(self.fraction_fov_excluded),
            "mean_user_rate_los_bps": _clean(self.mean_user_rate_los),
            "mean_user_rate_nlos_bps": _clean(self.mean_user_rate_nlos),
        }


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete simulation input; immutable once constructed."""

    room: Room = field(default_factory=Room)
    aps: Tuple[LedTx, ...] = ()
    users: Tuple[UserSpec, ...] = ()
    blockers: CylinderSet = field(default_factory=CylinderSet)
    blocker_population: Optional[BlockerPopulation] = None
    ris_panels: Tuple[MirrorArray, ...] = ()
    wall_reflectance: float = 0.7
    wall_patch_size: float = 0.05
    noise: NoiseModel = field(default_factory=NoiseModel)
    constraints: IntensityConstraints = field(default_factory=IntensityConstraints)
    orientation_model: OrientationModel = field(default_factory=OrientationModel)

    def __post_init__(self):
        for name in ("aps", "users", "ris_panels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        WallPatchSet.tiling(self.room, self.wall_patch_size)  # scalar math: `realize` rebuilds every trial's copy
        if not 0.0 <= self.wall_reflectance <= 1.0:
            raise ConfigError("wall reflectance must lie in [0, 1]", "wall_reflectance")
        placed = [(f"aps[{i}].position", ap.position) for i, ap in enumerate(self.aps)]
        placed += [(f"users[{i}].position", u.position) if u.position is not None
                   else (f"users[{i}].height", (0.0, 0.0, u.height)) for i, u in enumerate(self.users)]
        placed += [(f"blockers[{i}] base", base) for i, base in enumerate(self.blockers.bases)]
        placed += [(f"ris[{i}].center", p.panel_center) for i, p in enumerate(self.ris_panels)]
        outside = np.flatnonzero(~self.room.contains([point for _, point in placed]))
        if outside.size:  # name the first offender, and the first bound it crosses
            name, point = placed[outside[0]]
            xyz = as_vec3(point, name)  # refuses a non-finite point
            axis = int(np.argmin(self.room.contains(np.diag(xyz))))  # the first coordinate outside on its own
            value, dim = xyz[axis], ("length", "width", "height")[axis]
            side = f"{'xyz'[axis]} < 0" if value < 0.0 else f"{'xyz'[axis]} > room.{dim} {getattr(self.room, dim):.6g}"
            raise ConfigError(f"{name} {point} is outside the room: {side}", name)
        reach = math.hypot(self.room.length, self.room.width)
        for i, user in enumerate(self.users):
            if user.body_offset > reach:
                name = f"users[{i}].body_offset"
                raise ConfigError(f"{name} {user.body_offset:.6g} m puts the body outside the room: "
                                  f"it exceeds the floor diagonal {reach:.6g} m", name)
        pop = self.blocker_population  # realize draws its bases at least one radius from each wall
        if pop is not None and pop.count > 0 and 2.0 * pop.radius > min(self.room.length, self.room.width):
            raise ConfigError(f"blockers.radius {pop.radius} is more than half of room.length or room.width",
                              "blockers.radius")

    @cached_property
    def wall_patches(self) -> WallPatchSet:
        return WallPatchSet.for_room(self.room, self.wall_patch_size, self.wall_reflectance)

    @property
    def is_realized(self) -> bool:
        return all(
            u.position is not None and u.fixed_orientation is not None for u in self.users
        )

    # ---------------------------------------------------------------- gains

    @cached_property
    def _link_table(self) -> _LinkTable:
        """Angle-independent link data of a realized scenario: `_blocked_legs` of the wall patches, then of
        each panel, against the scenario blockers and each self-blocking user's body."""
        if not self.is_realized:
            raise ValueError("scenario has unsampled users; run trials instead of evaluating")
        if not self.aps:
            raise ValueError("scenario has no access points")
        rxs = tuple(user.receiver() for user in self.users)
        bodies = [(*_body_xy(user.position, math.cos(user.fixed_orientation.azimuth),
                             math.sin(user.fixed_orientation.azimuth), user.body_offset),
                   0.0, user.body_radius, user.body_height) if user.self_blockage else None for user in self.users]
        sets = [self.wall_patches.centers] + [panel.element_centers for panel in self.ris_panels]
        (wall, *mirrors), visible = _blocked_legs(self.aps, rxs, bodies, self.blockers, sets)
        shape = visible.shape
        m = np.array([ap.lambertian_order for ap in self.aps]).reshape(1, -1, 1)
        columns = SimpleNamespace(**{name: np.array([getattr(rx, name) for rx in rxs]).reshape(-1, 1, 1)
                                     for name in ("area", "filter_gain", "concentrator")})
        pairs = [(ap, rx) for rx in rxs for ap in self.aps]
        h_los = np.array([los_gain(ap, rx) if seen else 0.0  # a blocked link gets 0
                          for (ap, rx), seen in zip(pairs, visible.ravel())]).reshape(shape)
        fov_ok = np.array([incidence_cosine(ap.position, rx.position, rx.orientation) >= math.cos(rx.fov)
                           for ap, rx in pairs], dtype=bool).reshape(shape)
        return _LinkTable(h_los, _wall_gain(m, columns, self.wall_patches, wall), visible, fov_ok,
                          tuple(steering_terms(m, panel, leg) for panel, leg in zip(self.ris_panels, mirrors)), columns)

    def evaluate_links(self, ris_angles=None) -> TrialResult:
        """`evaluate_population` of one candidate, with each user's airtime-shared rate, as a `TrialResult`.

        `ris_angles` is None (stored angles) or a sequence of (yaw, roll)
        pairs aligned with `ris_panels` (scalars broadcast per panel).
        """
        pairs = [(None, None)] * len(self.ris_panels) if ris_angles is None else list(ris_angles)
        ones = [panel.candidate(*pair) for panel, pair in zip(self.ris_panels, pairs)]
        chunk = next(self.evaluate_population(ones + pairs[len(ones):], 1))  # extra pairs meet its count check
        serving, h_los, h_wall, h_ris, los_visible, fov_ok = (column[0] for column in chunk)
        rates = _airtime_shared_rates(serving, h_los + h_wall + h_ris, self.constraints, self.noise)
        return TrialResult(h_los, h_wall, h_ris, rates, _in_order_sum(rates.tolist()), los_visible, fov_ok, serving)

    def evaluate_population(self, ris_angles, size: int) -> Iterator[tuple]:
        """Per chunk of at most `geometry._CHUNK_CELLS` (candidate, user, AP, element) cells of `size` candidates, the
        (candidates, users) serving AP, then h_los, h_wall, h_ris, los_visible and fov_ok at it. `ris_angles` holds
        a `MirrorArray.normals` (yaw, roll) population per panel. A user's AP has the first largest total gain."""
        panels, pairs = self.ris_panels, list(ris_angles)
        if len(pairs) != len(panels):
            raise ValueError(f"expected {len(panels)} (yaw, roll) pairs, got {len(pairs)}")
        table = self._link_table  # raises on unsampled users or no APs
        user = np.arange(len(table.h_los))
        step = max(1, geometry._CHUNK_CELLS // max(1, table.h_los.size * sum(p.element_count for p in panels)))
        for lo in range(0, size, step):
            rows = slice(lo, min(lo + step, size))
            h_ris = np.zeros((rows.stop - lo, *table.h_los.shape))  # panels add in order, as floats would
            for panel, terms, (yaw, roll) in zip(panels, table.mirror_terms, pairs):
                gains = steered_gains(panel, table.rx, terms, panel.normals(yaw[rows], roll[rows]))
                h_ris = h_ris + np.add.reduce(gains, axis=-1)
            totals = table.h_los + table.h_wall + h_ris
            totals[..., 1:][np.isnan(totals[..., 1:])] = -math.inf  # a NaN wins only as the first, as max() did
            serving = np.argmax(totals, axis=-1)
            yield (serving, table.h_los[user, serving], table.h_wall[user, serving],
                   h_ris[np.arange(len(h_ris))[:, None], user, serving], table.los_visible[user, serving],
                   table.fov_ok[user, serving])


def _blocked_legs(aps, rxs, bodies, blockers: CylinderSet, point_sets):
    """Each point set's `_legs` with blockage in `clear`, and the (users, APs) LoS visibility.

    `bodies` holds one (x, y, z, radius, height) row per receiver, or None for a receiver without
    self-blockage. Three occlusion calls: the blockers cut (1) the gated LED-side legs once per (AP, point),
    and (2) the gated receiver-side legs once per (user, point) and the LoS segments; (3) each body cuts
    its own receiver's segments. Blockage is a union over cylinders tested cell by cell, so the masks
    equal one test per link.
    """
    legs = [_legs(aps, points, rxs) for points in point_sets]  # never over the concatenation: bits
    points, gate = np.concatenate(point_sets), np.concatenate([leg.clear for leg in legs], axis=2)
    shape = gate.shape[:2]
    ap_xyz = np.array([ap.position for ap in aps])
    rx_xyz = np.array([rx.position for rx in rxs]).reshape(-1, 3)
    a, r = np.nonzero(gate.any(axis=0))
    led = np.zeros(gate.shape[1:], dtype=bool)
    led[a, r] = segments_blocked(ap_xyz[a], points[r], blockers)  # (1)
    u, a, r = np.nonzero(gate)
    v, p = np.nonzero(gate.any(axis=1))
    los_u, los_a = np.indices(shape).reshape(2, -1)
    owner, n, k = np.concatenate([u, v, los_u]), len(u), len(u) + len(v)
    starts = np.concatenate([ap_xyz[a], points[p], ap_xyz[los_a]])  # LED-side, receiver-side, LoS
    ends = np.concatenate([points[r], rx_xyz[v], rx_xyz[los_u]])
    hit = np.concatenate([led[a, r], segments_blocked(starts[n:], ends[n:], blockers)])  # (2)
    own = np.flatnonzero(np.array([body is not None for body in bodies], dtype=bool)[owner])
    cyl = np.array([(0.0,) * 5 if body is None else body for body in bodies]).reshape(-1, 5)[owner[own]]
    hit[own] |= segments_blocked_each(starts[own], ends[own], cyl[:, :3], cyl[:, 3], cyl[:, 4])  # (3)
    rx_hit = np.zeros((len(rxs), len(points)), dtype=bool)
    rx_hit[v, p] = hit[n:k]
    clear = np.zeros_like(gate)
    clear[u, a, r] = ~(hit[:n] | rx_hit[u, r])
    masks = np.split(clear, np.cumsum([len(points) for points in point_sets])[:-1], axis=2)
    return [dataclasses.replace(leg, clear=mask) for leg, mask in zip(legs, masks)], ~hit[k:].reshape(shape)


def wall_first_reflection_gain(tx: LedTx, rx: PdRx, patches: WallPatchSet,
                               blockers: CylinderSet = CylinderSet()) -> float:
    """First-order diffuse wall reflection gain of one link (`channel._wall_gain`), on the link table's legs."""
    (legs,), _ = _blocked_legs((tx,), (rx,), [None], blockers, [patches.centers])
    return checked_gain(_wall_gain(tx.lambertian_order, rx, patches, legs)[0, 0])


def element_gains(tx: LedTx, array: MirrorArray, rx: PdRx, blockers: CylinderSet = CylinderSet(),
                  yaw=None, roll=None) -> np.ndarray:
    """Per-element reflected-path gains of one link, row-major over the grid, on the link table's legs.

    `yaw`/`roll` override the stored matrices (scalars broadcast) so that
    optimizer candidates evaluate without rebuilding the panel.
    """
    (legs,), _ = _blocked_legs((tx,), (rx,), [None], blockers, [array.element_centers])
    normals = array.normals(*array.candidate(yaw, roll))
    return steered_gains(array, rx, steering_terms(tx.lambertian_order, array, legs), normals)[0, 0, 0]


# --------------------------------------------------------------------- trials


def run_trial(scenario: Scenario, trial_seed) -> TrialResult:
    """Realize one random deployment and evaluate it.

    Draw order is fixed: population blocker positions first, then per user
    (in declaration order) its position and its orientation. Users with
    pinned positions/orientations keep them; fixed blockers never move.
    """
    return realize(scenario, np.random.default_rng(trial_seed)).evaluate_links()


def realize(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """Sample every unpinned position/orientation into a concrete scenario."""
    blockers, pop, room = scenario.blockers, scenario.blocker_population, scenario.room
    if pop is not None and pop.count > 0:
        # keep cylinders fully inside: base at least one radius from each wall;
        # row-major draws give the same (x, y) stream as one call per coordinate
        xy = rng.uniform([pop.radius] * 2, [room.length - pop.radius, room.width - pop.radius],
                         size=(pop.count, 2))
        blockers = CylinderSet(np.concatenate([blockers.bases, np.column_stack([xy, np.zeros(pop.count)])]),
                               np.append(blockers.radii, [pop.radius] * pop.count),
                               np.append(blockers.heights, [pop.height] * pop.count))
    users = []
    for user in scenario.users:
        position = user.position
        if position is None:
            x = rng.uniform(0.0, room.length)
            y = rng.uniform(0.0, room.width)
            position = np.array([x, y, user.height])
        orientation = user.fixed_orientation
        if orientation is None:
            orientation = sample_orientation(scenario.orientation_model, rng)
        users.append(
            dataclasses.replace(user, position=position, fixed_orientation=orientation)
        )
    realized = dataclasses.replace(
        scenario,
        users=tuple(users),
        blockers=blockers,
        blocker_population=None,
    )
    # share the parent's wall tiling; identical input, avoids per-trial rebuild
    realized.__dict__["wall_patches"] = scenario.wall_patches
    return realized


def run_study(
    scenario: Scenario,
    trials: int,
    master_seed: int = 42,
    threads: Optional[int] = None,
) -> list[TrialResult]:
    """Run independent trials with counter-derived seeds, in trial order.

    Every trial gets its own SeedSequence([master_seed, index]). Trials run
    in order on the calling thread; `threads` is accepted and ignored, so
    existing callers keep working. A scenario without users is refused.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not scenario.users:
        raise ValueError("scenario has no users")
    return [run_trial(scenario, np.random.SeedSequence([master_seed, i])) for i in range(trials)]


def study_statistics(results: Sequence[TrialResult]) -> StudyStatistics:
    """Aggregate trial results into study-level statistics."""
    sums = np.array([r.sum_rate for r in results])
    visible = np.concatenate([r.los_visible for r in results])
    fov_ok = np.concatenate([r.fov_ok for r in results])
    rates = np.concatenate([r.rates for r in results])

    n_visible = int(np.sum(visible))
    frac_excluded = float(np.sum(visible & ~fov_ok) / n_visible) if n_visible else math.nan
    mean_los = float(np.mean(rates[visible])) if n_visible else math.nan
    n_blocked = int(np.sum(~visible))
    mean_nlos = float(np.mean(rates[~visible])) if n_blocked else math.nan
    return StudyStatistics(
        trials=len(results),
        mean_sum_rate=float(np.mean(sums)),
        std_sum_rate=float(np.std(sums)),
        fraction_los_visible=float(np.mean(visible)),
        fraction_fov_excluded=frac_excluded,
        mean_user_rate_los=mean_los,
        mean_user_rate_nlos=mean_nlos,
    )


def blockage_study(
    scenario: Scenario,
    trials: int,
    blocker_counts: Sequence[int] = (5, 15),
    master_seed: int = 42,
) -> dict[int, StudyStatistics]:
    """Rerun the scenario at several non-user blocker counts (paired seeds)."""
    out = {}
    for count in blocker_counts:
        pop = scenario.blocker_population or BlockerPopulation(count=0)
        varied = dataclasses.replace(
            scenario, blocker_population=dataclasses.replace(pop, count=int(count))
        )
        out[int(count)] = study_statistics(run_study(varied, trials, master_seed))
    return out


def orientation_study(scenario: Scenario, samples: int, master_seed: int = 42) -> float:
    """Fraction of LoS-visible links whose incidence angle exceeds the FoV.

    Samples independent (position, orientation) realizations of the first
    user template against the nearest access point, applying body and
    population blockers per sample, in blocks of `geometry._CHUNK_CELLS`
    samples. The streams keep one layout on one PCG64 generator: x at 0,
    y at n, the polar angles next, then azimuth, the population's x
    (n x count, row-major) and its y; a stream the template pins is not
    drawn and the later ones move up. `uniform` takes one 64-bit output
    per double, so `advance` on a copy opens each stream at its offset and
    every block draws its rows in order. Only the polar angles are drawn
    whole, since rejection decides how many outputs they use. Each block
    writes its bodies and its (rows, count) population draw into rows-first
    buffers, as `segments_blocked_each` reads them; a lone AP broadcasts.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not scenario.aps:
        raise ValueError("scenario has no access points")
    template = scenario.users[0] if scenario.users else UserSpec()
    bits = np.random.PCG64(np.random.SeedSequence([master_seed, 0]))  # default_rng's bits
    rng = np.random.Generator(bits)

    def stream(skip: int) -> np.random.Generator:  # `skip` outputs past where `rng` stands
        return np.random.Generator(copy.deepcopy(bits).advance(skip))

    n, room, pop = samples, scenario.room, scenario.blocker_population
    if template.position is None:
        xs, ys = stream(0), stream(n)
        bits.advance(2 * n)
    if template.fixed_orientation is None:
        polar = sample_polar_angles(scenario.orientation_model, rng, n)
    else:
        polar = np.full(n, template.fixed_orientation.polar)
    count = pop.count if pop is not None else 0
    if count:  # each sample gets its own blocker draw, after the azimuth stream
        skip = n if template.fixed_orientation is None else 0
        bxs, bys = stream(skip), stream(skip + n * count)

    ap_positions = np.stack([ap.position for ap in scenario.aps])
    ap_xyz = ap_positions[0]  # a lone AP is every sample's nearest
    body, bases = (np.zeros((min(n, geometry._CHUNK_CELLS), k, 3)) for k in (1, count))  # rows first, z = 0
    visible, excluded = 0, 0
    for lo in range(0, n, geometry._CHUNK_CELLS):
        rows = slice(lo, lo + geometry._CHUNK_CELLS)
        size = len(polar[rows])
        if template.position is None:
            device = np.stack([xs.uniform(0.0, room.length, size), ys.uniform(0.0, room.width, size),
                               np.full(size, template.height)], axis=1)
        else:
            device = np.broadcast_to(template.position, (size, 3))
        azimuth = (rng.uniform(-math.pi, math.pi, size) if template.fixed_orientation is None
                   else np.full(size, template.fixed_orientation.azimuth))
        if len(ap_positions) > 1:  # squared distances summed in x, y, z order; argmin keeps ties on the first AP
            dx, dy, dz = (device[:, j, None] - ap_positions[:, j] for j in range(3))
            ap_xyz = ap_positions[np.argmin(dx * dx + dy * dy + dz * dz, axis=1)]

        seen = ~segments_blocked(ap_xyz, device, scenario.blockers)
        cos_b, sin_b = np.cos(azimuth), np.sin(azimuth)
        if template.self_blockage:
            body[:size, 0, 0], body[:size, 0, 1] = _body_xy(device, cos_b, sin_b, template.body_offset)
            seen &= ~segments_blocked_each(ap_xyz, device, body[:size], template.body_radius, template.body_height)
        if count:
            bases[:size, :, 0] = bxs.uniform(pop.radius, room.length - pop.radius, (size, count))
            bases[:size, :, 1] = bys.uniform(pop.radius, room.width - pop.radius, (size, count))
            seen &= ~segments_blocked_each(ap_xyz, device, bases[:size], pop.radius, pop.height)

        dx, dy, dz = (ap_xyz[..., j] - device[:, j] for j in range(3))
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        sin_a = np.sin(polar[rows])
        cos_theta = dx / dist * sin_a * cos_b + dy / dist * sin_a * sin_b + dz / dist * np.cos(polar[rows])
        visible += int(np.count_nonzero(seen))
        excluded += int(np.count_nonzero(seen & (cos_theta < math.cos(template.fov))))

    if visible == 0:
        return math.nan
    return excluded / visible


# ------------------------------------------------------------- configuration

_TOP_KEYS = {"room", "aps", "users", "blockers", "ris", "noise", "constraints", "orientation"}


def _number(value, where: str) -> float:
    """A finite JSON number (integer or float, not a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {reprlib.repr(value)}", where)
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an integer past the float range
        raise ConfigError(f"{where} must be a finite number", where)
    return float(value)


def _degrees(value, where: str) -> float:
    return math.radians(_number(value, where))


def _vector(value, where: str) -> Vec3:
    """A JSON list of exactly three numbers."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{where} must be a list of 3 numbers, got {reprlib.repr(value)}", where)
    return as_vec3([_number(x, f"{where}[{k}]") for k, x in enumerate(value)])


def _flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {reprlib.repr(value)}", where)
    return value


def _list(value, where: str, cap: int) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"section '{where}' must be a list, got {reprlib.repr(value)}", where)
    if len(value) > cap:
        raise ConfigError(f"section '{where}' has {len(value)} entries, above the cap of {cap}", where)
    return value


def _count(value, where: str, minimum: int = 1, maximum: float = math.inf) -> int:
    """A JSON integer (not a boolean) in [minimum, maximum]."""
    if not minimum <= _number(value, where) <= maximum:
        raise ConfigError(f"{where} must lie in [{minimum}, {maximum}], got {value:.6g}", where)
    if not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}", where)
    return value


# Field tables: JSON key -> (dataclass keyword, reader). An absent key keeps
# the dataclass default, so every default is written once, on its dataclass.
# The room section also holds the scenario's wall keywords.
_ROOM = {key: (key, _number) for key in ("length", "width", "height", "wall_reflectance", "wall_patch_size")}
_AP = {
    "position": ("position", _vector),
    "normal": ("normal", _vector),
    "half_intensity_angle_deg": ("half_intensity_angle", _degrees),
    "optical_power_w": ("optical_power", _number),
}
_USER = {
    "position": ("position", _vector),
    "height": ("height", _number),
    "area": ("area", _number),
    "fov_deg": ("fov", _degrees),
    "filter_gain": ("filter_gain", _number),
    "refractive_index": ("refractive_index", _number),
    "self_blockage": ("self_blockage", _flag),
    "body_offset": ("body_offset", _number),
    "body_radius": ("body_radius", _number),
    "body_height": ("body_height", _number),
}
_USER_ORIENTATION = {"polar_deg": ("polar", _degrees), "azimuth_deg": ("azimuth", _degrees)}
_BLOCKERS = {"radius": ("radius", _number), "height": ("height", _number)}
_RIS = {
    "center": ("panel_center", _vector),
    "normal": ("base_normal", _vector),
    "rows": ("rows", partial(_count, maximum=MIRROR_ELEMENT_CAP)),  # one axis at a time, so a refusal names it
    "cols": ("cols", partial(_count, maximum=MIRROR_ELEMENT_CAP)),
    "element_size": ("element_size", _number),
    "reflectivity": ("reflectivity", _number),
    "beam_spread_deg": ("beam_spread", _degrees),
    "yaw_deg": ("yaw", _degrees),
    "roll_deg": ("roll", _degrees),
}
_NOISE = {"psd": ("psd", _number), "bandwidth": ("bandwidth", _number)}
_CONSTRAINTS = {"peak": ("peak", _number), "average_total": ("average_total", _number)}
_ORIENTATION = {"mean_polar_deg": ("mean_polar", _degrees), "std_polar_deg": ("std_polar", _degrees)}


def _fields(section, table: dict, where: str, extra=()) -> dict:
    """Keyword arguments read from the keys of `section` that are present.

    Keys outside `table` and `extra` are refused; `extra` names the keys
    of the section that the caller reads itself.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"section '{where or 'top level'}' must be a key/value table", where)
    unknown = sorted(set(section) - set(table) - set(extra))
    if unknown:
        paths = [f"{where}.{key}" if where else key for key in unknown]
        raise ConfigError(f"unknown key(s) in '{where or 'top level'}': {', '.join(paths)}", paths[0])
    return {name: read(section[key], f"{where}.{key}")
            for key, (name, read) in table.items() if key in section}


def load_scenario(config_text: str) -> Scenario:
    """Build a validated Scenario from a JSON configuration document.

    Sections: room, aps[], users[], blockers, ris[], noise, constraints,
    orientation. Lengths are meters, angles degrees, powers watts. Values
    must be JSON numbers, booleans or 3-element lists of numbers as each key
    requires; unknown keys and mistyped values are rejected with their JSON
    path. Omitted keys take the defaults of the dataclass they fill (5 x 5
    x 3 m room, 2 W LEDs, 85 deg FoV, 0.15 m x 1.65 m cylinders).

    Every refusal is a `ConfigError` whose `key` is a JSON path the document
    holds: the key of the field a constructor refused, or, for a check of
    several fields, the one of their keys the section holds, else the section,
    with every key it holds in the message. The document is built once.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"configuration parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _fields(doc, {}, "", extra=_TOP_KEYS)
    return _scenario_from_document(doc)


def _scenario_from_document(doc: dict) -> Scenario:
    """The scenario of a parsed document, built once. A reader names the key of a value it refuses, and
    `build` the key of the field or fields a constructor refuses."""
    def build(where: str, section: dict, table: dict, make, **kwargs):
        """`make(**kwargs)` for the section at `where`, read through `table`, its refusal keyed in the document."""
        try:
            return make(**kwargs)
        except ConfigError as exc:
            held = {name: f"{where}.{key}" for key, (name, _) in table.items() if key in section}
            message = str(exc)
            if isinstance(exc.key, tuple):  # neither field alone is at fault, so name each one the section holds
                keys = [held[name] for name in exc.key if name in held]
                key = keys[0] if len(keys) == 1 else where
                if len(keys) > 1:
                    message = f"{', '.join(keys[:-1])} and {keys[-1]}: {message}"
            elif exc.key in held:
                key = held[exc.key]
            else:  # a check across sections names its key; name the document's entry, as Scenario numbers
                head, _, tail = exc.key.partition("]")  # users after `count` expands them, and fixed blockers by
                if head.startswith("users["):  # their row of blockers.positions
                    name = key = f"users[{owners[int(head[6:])]}]{tail}"
                elif head.startswith("blockers["):
                    name, key = f"blockers.positions[{head[9:]}]", "blockers.positions"
                else:
                    name = key = exc.key
                message = message.replace(exc.key, name)
            raise ConfigError(f"configuration validation error at {key}: {message}", key) from exc

    def table_section(name: str, table: dict, make):
        return build(name, doc.get(name, {}), table, make, **_fields(doc.get(name, {}), table, name))

    room_section = doc.get("room", {})
    walls = _fields(room_section, _ROOM, "room")  # read once: the room takes its dimensions, the scenario the rest
    room = build("room", room_section, _ROOM, Room,
                 **{name: walls.pop(name) for name in ("length", "width", "height") if name in walls})

    aps = []
    for i, sec in enumerate(_list(doc.get("aps", []), "aps", AP_COUNT_CAP)):
        kwargs = _fields(sec, _AP, f"aps[{i}]")
        if "position" not in kwargs:
            raise ConfigError(f"aps[{i}] is missing required key 'position'", f"aps[{i}]")
        aps.append(build(f"aps[{i}]", sec, _AP, LedTx, **kwargs))

    users, owners = [], []  # owners[j]: the document index of expanded user j
    for i, sec in enumerate(_list(doc.get("users", []), "users", USER_COUNT_CAP)):
        kwargs = _fields(sec, _USER, f"users[{i}]", extra=("count", "orientation"))
        if "orientation" in sec:
            where, angles = f"users[{i}].orientation", sec["orientation"]
            kwargs["fixed_orientation"] = build(where, angles, _USER_ORIENTATION,
                                                lambda polar=0.0, azimuth=0.0: DeviceOrientation(polar, azimuth),
                                                **_fields(angles, _USER_ORIENTATION, where))
        template = build(f"users[{i}]", sec, _USER, UserSpec, **kwargs)
        count = _count(sec.get("count", 1), f"users[{i}].count", 0)
        if len(users) + count > USER_COUNT_CAP:
            raise ConfigError(f"users[{i}].count {count:.6g} brings the users to {len(users) + count:.6g}, "
                              f"above the cap of {USER_COUNT_CAP}", f"users[{i}].count")
        users.extend([template] * count)
        owners.extend([i] * count)

    bsec = doc.get("blockers", {})
    dims = _fields(bsec, _BLOCKERS, "blockers", extra=("count", "positions"))  # first, as it refuses a non-table
    count = _count(bsec.get("count", 0), "blockers.count", 0, maximum=BLOCKER_COUNT_CAP)
    population = build("blockers", bsec, _BLOCKERS, BlockerPopulation, count=count, **dims)
    bases = []
    positions = _list(bsec.get("positions", []), "blockers.positions", BLOCKER_COUNT_CAP - population.count)
    for j, xy in enumerate(positions):  # fixed positions and the drawn count share BLOCKER_COUNT_CAP
        if not isinstance(xy, list) or len(xy) != 2:
            raise ConfigError(f"blockers.positions[{j}] must be [x, y]", f"blockers.positions[{j}]")
        bases.append([_number(v, f"blockers.positions[{j}][{k}]") for k, v in enumerate(xy)] + [0.0])

    panels = []
    for i, sec in enumerate(_list(doc.get("ris", []), "ris", PANEL_COUNT_CAP)):
        kwargs = _fields(sec, _RIS, f"ris[{i}]")
        if "panel_center" not in kwargs or "base_normal" not in kwargs:
            raise ConfigError(f"ris[{i}] requires keys 'center' and 'normal'", f"ris[{i}]")
        panels.append(build(f"ris[{i}]", sec, _RIS, MirrorArray, **kwargs))

    return build(
        "room", room_section, _ROOM, Scenario,
        **walls,
        room=room,
        aps=tuple(aps),
        users=tuple(users),
        blockers=CylinderSet(bases, population.radius, population.height),  # sizes checked by the population
        blocker_population=population if population.count > 0 else None,
        ris_panels=tuple(panels),
        noise=table_section("noise", _NOISE, NoiseModel),
        constraints=table_section("constraints", _CONSTRAINTS, IntensityConstraints),
        orientation_model=table_section("orientation", _ORIENTATION, OrientationModel),
    )


# ----------------------------------------------------------------- benchmarks


def benchmark_scenario() -> Scenario:
    """Reference deployment for the blockage study.

    5 x 5 x 3 m room, one ceiling-center 2 W LED, four randomly placed
    users with body self-blockage, five redrawn non-user blockers, one
    8 x 8 mirror panel on the x = 0 wall, and receiver noise sized so that
    wall-bounce-only links sit far below LoS links in rate.
    """
    return Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(2.5, 2.5, 3.0)),),
        users=tuple(UserSpec() for _ in range(4)),
        blocker_population=BlockerPopulation(count=5),
        ris_panels=(
            MirrorArray(panel_center=(0.0, 2.5, 1.5), base_normal=(1.0, 0.0, 0.0)),
        ),
        wall_reflectance=0.7,
        wall_patch_size=0.25,
        noise=NoiseModel(psd=5e-20, bandwidth=2e7),
    )


def orientation_benchmark_scenario() -> Scenario:
    """Deployment for the FoV-exclusion study.

    One wall-corner LED at (0, 0, 2.0) illuminating the room: far users
    see it near the horizon, so random device tilts frequently push the
    incidence angle past the 85 deg FoV. A ceiling-center LED would sit
    nearly overhead for everyone and almost never be excluded.
    """
    corner_normal = np.array([1.0, 1.0, -0.5])
    return Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(0.0, 0.0, 2.0), normal=corner_normal / np.linalg.norm(corner_normal)),),
        users=(UserSpec(),),
        wall_patch_size=0.25,
        noise=NoiseModel(psd=5e-20, bandwidth=2e7),
    )


def blocked_benchmark_scenario() -> Scenario:
    """Dead-zone deployment for mirror-array optimization.

    The single user is pinned at (4, 2.5, 0.75) with a face-up device; a
    cylinder at (3.7, 2.45) cuts its LoS to the ceiling-center LED, leaving
    wall bounces only. The mirror panel sits on the near wall at
    (5, 3.5, 1.5) with clear paths from the LED and to the user; the short
    mirror-to-user leg keeps the reflected lobe concentrated, so steering
    the panel correctly restores a strong link.
    """
    return Scenario(
        room=Room(5.0, 5.0, 3.0),
        aps=(LedTx(position=(2.5, 2.5, 3.0)),),
        users=(
            UserSpec(
                position=(4.0, 2.5, 0.75),
                fixed_orientation=DeviceOrientation(
                    polar=0.0, azimuth=math.radians(-90.0)
                ),
            ),
        ),
        blockers=CylinderSet([(3.7, 2.45, 0.0)]),
        ris_panels=(
            MirrorArray(panel_center=(5.0, 3.5, 1.5), base_normal=(-1.0, 0.0, 0.0)),
        ),
        wall_reflectance=0.7,
        wall_patch_size=0.1,
        noise=NoiseModel(psd=5e-20, bandwidth=2e7),
    )


def single_mirror_benchmark_scenario() -> Scenario:
    """Blocked-LoS deployment with one large steerable mirror (2 variables)."""
    base = blocked_benchmark_scenario()
    return dataclasses.replace(
        base,
        ris_panels=(
            MirrorArray(
                panel_center=(5.0, 3.5, 1.5),
                base_normal=(-1.0, 0.0, 0.0),
                rows=1,
                cols=1,
                element_size=0.3,
            ),
        ),
    )


# -------------------------------------------------------------------- output

CSV_HEADER = "trial,user,h_los,h_wall,h_ris,rate_bps,los_visible,fov_ok"


def trials_to_csv(results: Sequence[TrialResult]) -> str:
    """Fixed-header CSV, one row per (trial, user), shortest-roundtrip floats; refuses non-finite values."""
    lines = [CSV_HEADER]
    for t, r in enumerate(results):
        if not all(np.isfinite(column).all() for column in (r.h_los, r.h_wall, r.h_ris, r.rates)):
            raise ValueError(f"trial {t} has a gain or rate that is not finite; CSV output refuses it")
        for u in range(r.rates.shape[0]):
            lines.append(
                f"{t},{u},{float(r.h_los[u])!r},{float(r.h_wall[u])!r},"
                f"{float(r.h_ris[u])!r},{float(r.rates[u])!r},"
                f"{int(r.los_visible[u])},{int(r.fov_ok[u])}"
            )
    return "\n".join(lines) + "\n"
