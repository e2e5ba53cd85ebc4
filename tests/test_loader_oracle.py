"""The field-table loader against the hand-written loader it replaced.

`_scenario_from_document` below is the loader as it was: one `_*_KEYS` set
per section and one hand-written read per key, with every default repeated
from its dataclass. On any valid document the rewrite must build the same
scenario, field for field, and the same Monte-Carlo bytes.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc.geometry import as_vec3
from ris_vlc.scenario import (
    DEFAULT_BODY_HEIGHT,
    DEFAULT_BODY_OFFSET,
    DEFAULT_BODY_RADIUS,
    DEFAULT_USER_HEIGHT,
    BlockerPopulation,
    ConfigError,
    CylinderSet,
    DeviceOrientation,
    IntensityConstraints,
    LedTx,
    MirrorArray,
    NoiseModel,
    OrientationModel,
    Room,
    Scenario,
    UserSpec,
    load_scenario,
    run_study,
    trials_to_csv,
)


# ---------------------------------------------------------------- the oracle

_ROOM_KEYS = {"length", "width", "height", "wall_reflectance", "wall_patch_size"}
_AP_KEYS = {"position", "normal", "half_intensity_angle_deg", "optical_power_w"}
_USER_KEYS = {
    "count",
    "position",
    "height",
    "area",
    "fov_deg",
    "filter_gain",
    "refractive_index",
    "orientation",
    "self_blockage",
    "body_offset",
    "body_radius",
    "body_height",
}
_USER_ORIENTATION_KEYS = {"polar_deg", "azimuth_deg"}
_BLOCKER_KEYS = {"count", "radius", "height", "positions"}
_RIS_KEYS = {
    "center",
    "normal",
    "rows",
    "cols",
    "element_size",
    "reflectivity",
    "beam_spread_deg",
    "yaw_deg",
    "roll_deg",
}
_NOISE_KEYS = {"psd", "bandwidth"}
_CONSTRAINT_KEYS = {"peak", "average_total"}
_ORIENTATION_KEYS = {"mean_polar_deg", "std_polar_deg"}
_TOP_KEYS = {"room", "aps", "users", "blockers", "ris", "noise", "constraints", "orientation"}


def _count(section: dict, key: str, default: int, minimum: int, where: str) -> int:
    """A JSON integer (not a boolean) of at least `minimum`."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}.{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _reject_unknown(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"section '{where}' must be a key/value table")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(unknown)}")


def _oracle_load(text: str) -> Scenario:
    doc = json.loads(text)
    _reject_unknown(doc, _TOP_KEYS, "top level")
    return _scenario_from_document(doc)


def _scenario_from_document(doc: dict) -> Scenario:
    room_sec = doc.get("room", {})
    _reject_unknown(room_sec, _ROOM_KEYS, "room")
    room = Room(
        length=float(room_sec.get("length", 5.0)),
        width=float(room_sec.get("width", 5.0)),
        height=float(room_sec.get("height", 3.0)),
    )

    aps = []
    for i, sec in enumerate(doc.get("aps", [])):
        _reject_unknown(sec, _AP_KEYS, f"aps[{i}]")
        if "position" not in sec:
            raise ConfigError(f"aps[{i}] is missing required key 'position'")
        aps.append(
            LedTx(
                position=as_vec3(sec["position"]),
                normal=as_vec3(sec.get("normal", (0.0, 0.0, -1.0))),
                half_intensity_angle=math.radians(float(sec.get("half_intensity_angle_deg", 60.0))),
                optical_power=float(sec.get("optical_power_w", 2.0)),
            )
        )

    users = []
    for i, sec in enumerate(doc.get("users", [])):
        _reject_unknown(sec, _USER_KEYS, f"users[{i}]")
        orientation = None
        if "orientation" in sec:
            osec = sec["orientation"]
            _reject_unknown(osec, _USER_ORIENTATION_KEYS, f"users[{i}].orientation")
            orientation = DeviceOrientation(
                polar=math.radians(float(osec.get("polar_deg", 0.0))),
                azimuth=math.radians(float(osec.get("azimuth_deg", 0.0))),
            )
        self_blockage = sec.get("self_blockage", True)
        if not isinstance(self_blockage, bool):
            raise ConfigError(f"users[{i}].self_blockage must be true or false, got {self_blockage!r}")
        template = UserSpec(
            position=as_vec3(sec["position"]) if "position" in sec else None,
            height=float(sec.get("height", DEFAULT_USER_HEIGHT)),
            area=float(sec.get("area", 1e-4)),
            fov=math.radians(float(sec.get("fov_deg", 85.0))),
            filter_gain=float(sec.get("filter_gain", 1.0)),
            refractive_index=float(sec.get("refractive_index", 1.5)),
            fixed_orientation=orientation,
            self_blockage=self_blockage,
            body_offset=float(sec.get("body_offset", DEFAULT_BODY_OFFSET)),
            body_radius=float(sec.get("body_radius", DEFAULT_BODY_RADIUS)),
            body_height=float(sec.get("body_height", DEFAULT_BODY_HEIGHT)),
        )
        users.extend([template] * _count(sec, "count", 1, 0, f"users[{i}]"))

    bases = []
    population = None
    bsec = doc.get("blockers", {})
    _reject_unknown(bsec, _BLOCKER_KEYS, "blockers")
    radius = float(bsec.get("radius", 0.15))
    height = float(bsec.get("height", 1.65))
    for j, xy in enumerate(bsec.get("positions", [])):
        if len(xy) != 2:
            raise ConfigError(f"blockers.positions[{j}] must be [x, y]")
        bases.append([float(xy[0]), float(xy[1]), 0.0])
    count = _count(bsec, "count", 0, 0, "blockers")
    if count > 0:
        if 2.0 * radius > min(room.length, room.width):
            raise ConfigError(f"blockers.radius {radius} is more than half the room length or width")
        population = BlockerPopulation(count=count, radius=radius, height=height)

    panels = []
    for i, sec in enumerate(doc.get("ris", [])):
        _reject_unknown(sec, _RIS_KEYS, f"ris[{i}]")
        if "center" not in sec or "normal" not in sec:
            raise ConfigError(f"ris[{i}] requires keys 'center' and 'normal'")
        panels.append(
            MirrorArray(
                panel_center=as_vec3(sec["center"]),
                base_normal=as_vec3(sec["normal"]),
                rows=_count(sec, "rows", 8, 1, f"ris[{i}]"),
                cols=_count(sec, "cols", 8, 1, f"ris[{i}]"),
                element_size=float(sec.get("element_size", 0.1)),
                reflectivity=float(sec.get("reflectivity", 0.95)),
                beam_spread=math.radians(float(sec.get("beam_spread_deg", 2.0))),
                yaw=math.radians(float(sec.get("yaw_deg", 0.0))),
                roll=math.radians(float(sec.get("roll_deg", 0.0))),
            )
        )

    nsec = doc.get("noise", {})
    _reject_unknown(nsec, _NOISE_KEYS, "noise")
    noise = NoiseModel(
        psd=float(nsec.get("psd", 1e-21)),
        bandwidth=float(nsec.get("bandwidth", 20e6)),
    )

    csec = doc.get("constraints", {})
    _reject_unknown(csec, _CONSTRAINT_KEYS, "constraints")
    constraints = IntensityConstraints(
        peak=float(csec.get("peak", 2.0)),
        average_total=float(csec.get("average_total", 2.0)),
    )

    osec = doc.get("orientation", {})
    _reject_unknown(osec, _ORIENTATION_KEYS, "orientation")
    model = OrientationModel(
        mean_polar=math.radians(float(osec.get("mean_polar_deg", 41.0))),
        std_polar=math.radians(float(osec.get("std_polar_deg", 9.0))),
    )

    return Scenario(
        room=room,
        aps=tuple(aps),
        users=tuple(users),
        blockers=CylinderSet(bases, radius, height),
        blocker_population=population,
        ris_panels=tuple(panels),
        wall_reflectance=float(room_sec.get("wall_reflectance", 0.7)),
        wall_patch_size=float(room_sec.get("wall_patch_size", 0.05)),
        noise=noise,
        constraints=constraints,
        orientation_model=model,
    )


# ---------------------------------------------------------------- documents


def _num(lo, hi):
    """A JSON integer or float in [lo, hi]."""
    floats = st.floats(lo, hi, allow_nan=False)
    if math.ceil(lo) > math.floor(hi):
        return floats
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), floats)


_XY = _num(0.2, 2.8)  # inside the smallest generated room
_ROOM_SPEC = {"length": _num(3, 6), "width": _num(3, 6), "height": _num(2.5, 3.5),
              "wall_reflectance": _num(0, 1), "wall_patch_size": _num(0.6, 1.5)}
_AP_SPEC = {"normal": st.sampled_from([[0, 0, -1], [0.0, 0.0, -1.0], [0.2, 0.1, -1], [1, 1, -0.5]]),
            "half_intensity_angle_deg": _num(20, 70), "optical_power_w": _num(0.5, 3)}
_USER_SPEC = {"count": st.integers(0, 2), "position": st.lists(_XY, min_size=2, max_size=2).flatmap(
                  lambda xy: _num(0.5, 1.2).map(lambda z: xy + [z])),
              "height": _num(0.5, 1.2), "area": _num(5e-5, 2e-4), "fov_deg": _num(30, 90),
              "filter_gain": _num(0.5, 1), "refractive_index": _num(1, 2), "self_blockage": st.booleans(),
              "body_offset": _num(0, 0.5), "body_radius": _num(0.1, 0.3), "body_height": _num(1, 1.9)}
_USER_ORIENTATION_SPEC = {"polar_deg": _num(0, 60), "azimuth_deg": _num(-180, 180)}
_BLOCKER_SPEC = {"count": st.integers(0, 3), "radius": _num(0.1, 0.3), "height": _num(1, 1.9),
                 "positions": st.lists(st.lists(_XY, min_size=2, max_size=2), max_size=2)}
_RIS_SPEC = {"rows": st.integers(1, 3), "cols": st.integers(1, 3), "element_size": _num(0.05, 0.2),
             "reflectivity": _num(0.5, 1), "beam_spread_deg": _num(1, 5), "yaw_deg": _num(-30, 30),
             "roll_deg": _num(-30, 30)}
_NOISE_SPEC = {"psd": _num(1e-21, 1e-19), "bandwidth": _num(1e6, 5e7)}
_CONSTRAINT_SPEC = {"peak": _num(1, 3), "average_total": _num(1, 3)}
_ORIENTATION_SPEC = {"mean_polar_deg": _num(10, 60), "std_polar_deg": _num(0, 15)}


@st.composite
def _documents(draw):
    """Valid scenario documents: every section and every key present or absent."""

    def section(spec, **required):
        return {**required, **{key: draw(value) for key, value in spec.items() if draw(st.booleans())}}

    likely = st.integers(0, 4).map(bool)  # the sections that make a study runnable
    doc = {}
    if draw(st.booleans()):
        doc["room"] = section(_ROOM_SPEC)
    if draw(likely):
        doc["aps"] = [section(_AP_SPEC, position=[draw(_XY), draw(_XY), draw(_num(2, 2.5))])
                     for _ in range(draw(st.integers(1, 2)))]
    if draw(likely):
        doc["users"] = []
        for _ in range(draw(st.integers(1, 3))):  # an absent section or "count": 0 gives no users
            user = section(_USER_SPEC)
            if draw(st.booleans()):
                user["orientation"] = section(_USER_ORIENTATION_SPEC)
            doc["users"].append(user)
    if draw(likely):
        doc["blockers"] = section(_BLOCKER_SPEC)
    if draw(likely):
        doc["ris"] = [section(_RIS_SPEC, center=[0, draw(_num(1, 2)), draw(_num(1, 2))],
                              normal=draw(st.sampled_from([[1, 0, 0], [1.0, 0.0, 0.0]])))
                      for _ in range(draw(st.integers(0, 1)))]
    for name, spec in (("noise", _NOISE_SPEC), ("constraints", _CONSTRAINT_SPEC),
                       ("orientation", _ORIENTATION_SPEC)):
        if draw(st.booleans()):
            doc[name] = section(spec)
    return doc


def _assert_same(a, b, where="scenario"):
    """Equal field for field: same types, `==` on scalars, exact arrays."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, CylinderSet):
        assert isinstance(b, CylinderSet), where
        for name in ("bases", "radii", "heights"):
            _assert_same(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, where
        assert np.array_equal(a, b), where
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{k}]")
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


# -------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(_documents())
def test_field_tables_build_the_same_scenario_as_the_hand_written_loader(doc):
    text = json.dumps(doc)
    got, want = load_scenario(text), _oracle_load(text)
    _assert_same(got, want)
    if not got.users:
        with pytest.raises(ValueError, match="users"):
            run_study(got, 2)
    elif got.aps:
        assert trials_to_csv(run_study(got, 2)) == trials_to_csv(run_study(want, 2))


def _leaves(value, where=""):
    """(path, parent, key) of every number and boolean in the document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        path = (f"{where}.{key}" if where else key) if isinstance(value, dict) else f"{where}[{key}]"
        if isinstance(item, (dict, list)):
            yield from _leaves(item, path)
        else:
            yield path, value, key


@settings(max_examples=200, deadline=None)
@given(_documents(), st.data())
def test_a_mistyped_value_anywhere_is_refused_with_its_path(doc, data):
    doc = json.loads(json.dumps(doc))  # a private copy: sampled lists are shared between examples
    leaves = list(_leaves(doc))
    if not leaves:
        return
    path, parent, key = data.draw(st.sampled_from(leaves))
    old = parent[key]
    parent[key] = data.draw(st.sampled_from(["1", None, [], {}] + ([1] if isinstance(old, bool) else [True])))
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_scenario(json.dumps(doc))
