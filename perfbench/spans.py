"""In-memory span tracer installed around the public functions of ris_vlc.

Each wrapper is placed at the name the *calling* module looks up: for
example `scenario.py` does `from .channel import los_gain`, so the span
for that call sits on `ris_vlc.scenario.los_gain`. One function imported
into several modules gets a wrapper at every look-up site, all recording
under one span name. Nothing under `src/` is edited; `remove()` puts the
original objects back.

A span is (name, start, end, parent index, info). `info` is whatever the
point's observer extracted from the call's arguments and result (row
counts, lit elements, objective value), so ratios are measured where the
work happens. Spans are kept in a list and written out only on request.
The tracer assumes a single calling thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from ris_vlc import channel, geometry, metrics, mimo, noma, optimize, orientation, ris, scenario


def _rows_blocked(args, kwargs, result):
    blockers = args[2] if len(args) > 2 else kwargs["blockers"]
    return (len(result), int(np.count_nonzero(result)), len(blockers))


def _rows_blocked_each(args, kwargs, result):
    return (len(result), int(np.count_nonzero(result)))


def _patches(args, kwargs, result):
    patches = args[2] if len(args) > 2 else kwargs["patches"]
    return len(patches)


def _lit_elements(args, kwargs, result):
    return (result.size, int(np.count_nonzero(result)))


def _sample_count(args, kwargs, result):
    return len(result)


def _objective(args, kwargs, result):
    return float(result)


# (module, attribute at the look-up site, span name, observer)
FUNCTION_POINTS = (
    (geometry, "segments_blocked", "geometry.segments_blocked", _rows_blocked),
    (channel, "segments_blocked", "geometry.segments_blocked", _rows_blocked),
    (ris, "segments_blocked", "geometry.segments_blocked", _rows_blocked),
    (scenario, "segments_blocked", "geometry.segments_blocked", _rows_blocked),
    (scenario, "segments_blocked_each", "geometry.segments_blocked_each", _rows_blocked_each),
    (scenario, "los_gain", "channel.los_gain", None),
    (scenario, "wall_first_reflection_gain", "channel.wall_first_reflection_gain", _patches),
    (scenario, "element_gains", "ris.element_gains", _lit_elements),
    (scenario, "realize", "scenario.realize", None),
    (scenario, "run_trial", "scenario.run_trial", None),
    (scenario, "orientation_study", "scenario.orientation_study", None),
    (scenario, "link_rate", "metrics.link_rate", None),
    (metrics, "link_rate", "metrics.link_rate", None),
    (metrics, "sum_rate", "metrics.sum_rate", _objective),
    (optimize, "optimize_mirror_angles", "optimize.optimize_mirror_angles", None),
    (optimize, "random_angle_baseline", "optimize.random_angle_baseline", None),
    (scenario, "sample_polar_angles", "orientation.sample_polar_angles", _sample_count),
    (orientation, "sample_polar_angles", "orientation.sample_polar_angles", _sample_count),
    (noma, "best_two_user_allocation", "noma.best_two_user_allocation", None),
    (noma, "noma_rates", "noma.noma_rates", None),
    (noma, "tdma_equal_share_rates", "noma.tdma_equal_share_rates", None),
    (mimo, "assemble_channel", "mimo.assemble_channel", None),
    (mimo, "qr_capacity", "mimo.qr_capacity", None),
)

# (class, method, span name); plain methods and classmethods
METHOD_POINTS = (
    (scenario.Scenario, "evaluate_links", "scenario.evaluate_links"),
    (channel.WallPatchSet, "for_room", "channel.WallPatchSet.for_room"),
)


class Tracer:
    """Installs span wrappers, records spans, and aggregates them per name."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if observe is not None:
                spans[index] = (name, start, end, parent, observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, observe in FUNCTION_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))
        for cls, attr, name in METHOD_POINTS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, None))
            else:
                wrapped = self._wrap(original, name, None)
            setattr(cls, attr, wrapped)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def reset(self):
        self.spans.clear()

    def by_name(self) -> dict:
        """Per span name: calls, total seconds, self seconds, list of infos.

        Names that never ran read as zero calls and empty lists.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "infos": []})
        for index, (name, start, end, _, info) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if info is not None:
                entry["infos"].append(info)
        return out

    def children_of(self, parent_name: str, child_name: str) -> list:
        """Spans named `child_name` whose direct parent is named `parent_name`."""
        return [
            span
            for span in self.spans
            if span[0] == child_name and span[3] >= 0 and self.spans[span[3]][0] == parent_name
        ]

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, info."""
        with open(path, "w") as handle:
            for name, start, end, parent, info in self.spans:
                handle.write(json.dumps([name, start, end, parent, info]) + "\n")
