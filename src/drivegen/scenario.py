"""Scenario data model: poses, trajectories, maps, agents, and JSON I/O.

A Scenario is the unit of all downstream processing. Values are immutable
after construction and safe to share across workers. This module is also the
input boundary: the one file reader and the one codec of JSON state arrays.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .geometry import (
    box_corners,
    per_element,
    points_in_any_polygon,
    polygon_is_simple,
    stack_corners,
)

SIM_DT = 0.1

# Ego footprint used by validation and metrics (not part of the file schema).
DEFAULT_EGO_LENGTH = 4.6
DEFAULT_EGO_WIDTH = 1.9

DEFAULT_T_HISTORY = 20  # frames (2 s)
DEFAULT_T_HORIZON = 40  # frames (4 s)

# Tolerance for pose/velocity agreement along a trajectory (m/s).
KINEMATIC_CONSISTENCY_TOL = 0.05

FRAME_GLOBAL = "global"
FRAME_EGO_LOCAL = "ego-local-at-start"

T = TypeVar("T")


def _frozen(track: Any) -> np.ndarray:
    """A read-only float view of a (7, n) track; the caller's array keeps its flags."""
    view = np.asarray(track, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, slots=True, eq=False)
class Trajectory:
    """Fixed-rate states as one read-only (7, n) track: x, y, theta, vel_lon,
    vel_lat, accel and steering on axis 0, velocities in the body frame."""

    dt: float
    track: np.ndarray
    frame: str = FRAME_GLOBAL

    def __post_init__(self):
        object.__setattr__(self, "track", _frozen(self.track))

    def __len__(self) -> int:
        return self.track.shape[1]

    def __getitem__(self, i: int) -> np.ndarray:
        """The (7,) state of frame i."""
        return self.track[:, i]

    @property
    def horizon(self) -> int:
        """Number of time steps spanned (one less than the state count)."""
        return len(self) - 1

    def segment(self, start: int, end: int) -> "Trajectory":
        """Sub-trajectory covering state indices [start, end] inclusive."""
        return Trajectory(self.dt, self.track[:, start : end + 1], self.frame)


@dataclass(frozen=True, slots=True, eq=False)
class AgentTrack:
    id: str
    length: float
    width: float
    kind: str  # "vehicle" | "static"
    track: np.ndarray  # (7, n), read-only

    def __post_init__(self):
        object.__setattr__(self, "track", _frozen(self.track))


@dataclass(frozen=True, slots=True)
class Lane:
    polyline: tuple[tuple[float, float], ...]
    width: float
    direction: int  # +1 along polyline order, -1 against


@dataclass(frozen=True, slots=True)
class TrafficLight:
    stop_line: tuple[tuple[float, float], tuple[float, float]]
    phases: tuple[tuple[float, float, str], ...]  # (t0, t1, "red"|"green")

    def state_at(self, t: float) -> str | None:
        for t0, t1, state in self.phases:
            if t0 <= t < t1:
                return state
        return None


@dataclass(frozen=True, slots=True)
class MapModel:
    lanes: tuple[Lane, ...]
    drivable_area: tuple[tuple[tuple[float, float], ...], ...]
    route: tuple[tuple[float, float], ...]
    traffic_lights: tuple[TrafficLight, ...] = ()


@dataclass(frozen=True, slots=True, eq=False)
class Scenario:
    id: str
    map: MapModel
    ego_log: Trajectory
    agents: tuple[AgentTrack, ...]
    t_history: int
    t_horizon: int

    @property
    def frame_count(self) -> int:
        return len(self.ego_log)

    @property
    def dt(self) -> float:
        return self.ego_log.dt

    @property
    def anchor_frame(self) -> int:
        """Last history frame; the state where perturbations are placed.

        With an ego log of t_history + 2*t_horizon states the two simulation
        stages are [anchor, anchor+H] and [anchor+H, anchor+2H], each spanning
        H steps and ending exactly at the final logged frame.
        """
        return self.t_history - 1


# ---------------------------------------------------------------------------
# JSON schema


_STATE_FIELDS = ("x", "y", "theta", "v_lon", "v_lat", "accel", "steering")
_STATE_KEYS = set(_STATE_FIELDS)
_TOP_KEYS = {"id", "dt", "t_history", "t_horizon", "map", "ego_log", "agents"}
_MAP_KEYS = {"lanes", "drivable_area", "route", "traffic_lights"}
_LANE_KEYS = {"polyline", "width", "direction"}
_LIGHT_KEYS = {"stop_line", "phases"}
_PHASE_KEYS = {"t0", "t1", "state"}
_AGENT_KEYS = {"id", "length", "width", "kind", "states"}


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing field '{sorted(missing)[0]}'")
    unknown = obj.keys() - keys
    if unknown:
        raise SchemaError(f"{where}: unknown field '{sorted(unknown)[0]}'")


_FLOAT_MAX = sys.float_info.max
# Largest magnitude of any number in a scenario, trajectory or vocabulary
# file: a million kilometres as a coordinate, far beyond any map frame, and
# small enough that the squares and products the engine forms of two such
# values stay finite.
MAX_MAGNITUDE = 1e9


def _number(v: Any, where: str, key: str | None = None) -> float:
    """A JSON number of magnitude at most `MAX_MAGNITUDE` as a float;
    SchemaError naming `where`[.key] otherwise."""
    if type(v) is float and -MAX_MAGNITUDE <= v <= MAX_MAGNITUDE:  # also false for NaN
        return v
    name = where if key is None else f"{where}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{name}: expected a number, got {v!r}")
    if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
        raise SchemaError(f"{name}: not a finite float: {v}")
    if not -MAX_MAGNITUDE <= v <= MAX_MAGNITUDE:
        raise SchemaError(f"{name}: magnitude above {MAX_MAGNITUDE:g}: {v}")
    return float(v)


def _integer(v: Any, where: str) -> int:
    x = _number(v, where)
    if not x.is_integer():
        raise SchemaError(f"{where}: expected an integer, got {v!r}")
    return int(x)


def _array(v: Any, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected an array")
    return v


def _point(p: Any, where: str) -> tuple[float, float]:
    if not isinstance(p, list) or len(p) != 2:
        raise SchemaError(f"{where}: expected an [x, y] point")
    return _number(p[0], f"{where}[0]"), _number(p[1], f"{where}[1]")


def _points(v: Any, where: str, min_count: int = 0) -> tuple[tuple[float, float], ...]:
    points = tuple(_point(p, f"{where}[{i}]") for i, p in enumerate(_array(v, where)))
    if len(points) < min_count:
        raise SchemaError(f"{where}: expected at least {min_count} points, got {len(points)}")
    return points


def _polyline(v: Any, where: str) -> tuple[tuple[float, float], ...]:
    """At least two points and no segment of zero length, measured as
    projection measures it (a squared length that underflows is zero): such
    a segment has no direction to project onto."""
    points = _points(v, where, 2)
    for i, ((ax, ay), (bx, by)) in enumerate(zip(points, points[1:])):
        if (bx - ax) * (bx - ax) + (by - ay) * (by - ay) == 0.0:
            raise SchemaError(f"{where}: zero-length segment at point {i + 1}")
    return points


def track_from_json(states: Any, where: str) -> np.ndarray:
    """(7, n) values of a JSON array of n states, the one reader of states.

    Floats within `MAX_MAGNITUDE` under exactly the state keys are taken in
    bulk; any other array is read state by state, which names its first bad
    field.
    """
    states = _array(states, where)
    if all(type(s) is dict and s.keys() == _STATE_KEYS for s in states):
        rows = list(map(operator.itemgetter(*_STATE_FIELDS), states))
        if set(map(type, itertools.chain.from_iterable(rows))) <= {float}:
            track = np.array(rows).reshape(-1, 7).T
            if (np.abs(track) <= MAX_MAGNITUDE).all():  # also false for NaN
                return track
    rows = []
    for j, s in enumerate(states):
        name = f"{where}[{j}]"
        _require_keys(s, _STATE_KEYS, name)
        rows.append([_number(s[k], name, k) for k in _STATE_FIELDS])
    return np.array(rows, dtype=float).reshape(-1, 7).T


def track_to_json(track: np.ndarray) -> list[dict]:
    """The JSON states of a (7, n) track, the one writer of states."""
    return [dict(zip(_STATE_FIELDS, s)) for s in track.T.tolist()]


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "id": s.id,
        "dt": s.ego_log.dt,
        "t_history": s.t_history,
        "t_horizon": s.t_horizon,
        "map": {
            "lanes": [
                {"polyline": [list(p) for p in ln.polyline], "width": ln.width, "direction": ln.direction}
                for ln in s.map.lanes
            ],
            "drivable_area": [[list(p) for p in poly] for poly in s.map.drivable_area],
            "route": [list(p) for p in s.map.route],
            "traffic_lights": [
                {
                    "stop_line": [list(tl.stop_line[0]), list(tl.stop_line[1])],
                    "phases": [{"t0": p[0], "t1": p[1], "state": p[2]} for p in tl.phases],
                }
                for tl in s.map.traffic_lights
            ],
        },
        "ego_log": track_to_json(s.ego_log.track),
        "agents": [
            {
                "id": a.id,
                "length": a.length,
                "width": a.width,
                "kind": a.kind,
                "states": track_to_json(a.track),
            }
            for a in s.agents
        ],
    }


def scenario_from_dict(d: dict) -> Scenario:
    _require_keys(d, _TOP_KEYS, "scenario")
    m = d["map"]
    _require_keys(m, _MAP_KEYS, "map")

    if not _array(m["lanes"], "map.lanes"):
        raise SchemaError("map.lanes: expected at least one lane")
    lanes = []
    for i, ln in enumerate(m["lanes"]):
        where = f"map.lanes[{i}]"
        _require_keys(ln, _LANE_KEYS, where)
        direction = _integer(ln["direction"], f"{where}.direction")
        if direction not in (1, -1):
            raise SchemaError(f"{where}.direction: expected 1 or -1, got {direction}")
        lanes.append(
            Lane(
                polyline=_polyline(ln["polyline"], f"{where}.polyline"),
                width=_number(ln["width"], f"{where}.width"),
                direction=direction,
            )
        )

    lights = []
    for i, tl in enumerate(_array(m["traffic_lights"], "map.traffic_lights")):
        where = f"map.traffic_lights[{i}]"
        _require_keys(tl, _LIGHT_KEYS, where)
        phases = []
        for j, ph in enumerate(_array(tl["phases"], f"{where}.phases")):
            pw = f"{where}.phases[{j}]"
            _require_keys(ph, _PHASE_KEYS, pw)
            t0 = _number(ph["t0"], f"{pw}.t0")
            t1 = _number(ph["t1"], f"{pw}.t1")
            phases.append((t0, t1, str(ph["state"])))
        stop_line = _points(tl["stop_line"], f"{where}.stop_line")
        if len(stop_line) != 2:
            raise SchemaError(f"{where}.stop_line: expected two points")
        lights.append(TrafficLight(stop_line=stop_line, phases=tuple(phases)))

    dt = _number(d["dt"], "dt")
    ego_track = track_from_json(d["ego_log"], "ego_log")

    agents = []
    for i, ag in enumerate(_array(d["agents"], "agents")):
        where = f"agents[{i}]"
        _require_keys(ag, _AGENT_KEYS, where)
        agents.append(
            AgentTrack(
                id=str(ag["id"]),
                length=_number(ag["length"], f"{where}.length"),
                width=_number(ag["width"], f"{where}.width"),
                kind=str(ag["kind"]),
                track=track_from_json(ag["states"], f"{where}.states"),
            )
        )

    drivable = _array(m["drivable_area"], "map.drivable_area")
    return Scenario(
        id=str(d["id"]),
        map=MapModel(
            lanes=tuple(lanes),
            drivable_area=tuple(
                _points(poly, f"map.drivable_area[{i}]", 3) for i, poly in enumerate(drivable)
            ),
            route=_polyline(m["route"], "map.route"),
            traffic_lights=tuple(lights),
        ),
        ego_log=Trajectory(dt, ego_track),
        agents=tuple(agents),
        t_history=_integer(d["t_history"], "t_history"),
        t_horizon=_integer(d["t_horizon"], "t_horizon"),
    )


def dump_json_canonical(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json_array(items: Iterable[Any], path: str | Path) -> None:
    """Write `dump_json_canonical(list(items))` to `path` one item at a time,
    so that only one item's text is held."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.write("[")
        for i, item in enumerate(items):
            if i:
                f.write(",")
            f.write(dump_json_canonical(item)[:-1])
        f.write("]\n")


def write_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(dump_json_canonical(scenario_to_dict(s)), encoding="utf-8")


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file, the one place a file is read;
    ParseError naming the file if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _decode(text: str, path: str | Path) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: malformed JSON: {e}") from e


def read_json(path: str | Path) -> Any:
    """The parsed JSON of an input file; ParseError naming the file if it
    cannot be read or is not JSON."""
    return _decode(read_text(path), path)


_DECODER = json.JSONDecoder()


def _array_items(text: str) -> Iterator[Any]:
    """The items of the JSON array that `text` holds, decoded one at a time;
    JSONDecodeError where the text stops being one. It reads the text as
    `json.loads` does: the same whitespace, values and delimiters."""
    skip = json.decoder.WHITESPACE.match
    i = skip(text).end()
    if text[i : i + 1] != "[":
        raise json.JSONDecodeError("Expecting '['", text, i)
    i = skip(text, i + 1).end()
    if text[i : i + 1] != "]":
        while True:
            item, i = _DECODER.raw_decode(text, i)
            yield item
            i = skip(text, i).end()
            if text[i : i + 1] == "]":
                break
            if text[i : i + 1] != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            i = skip(text, i + 1).end()
    if skip(text, i + 1).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, i + 1)


def load_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """`parse` of the parsed JSON of an input file; a SchemaError or
    ValidationError that `parse` raises is raised again naming the file."""
    data = read_json(path)
    try:
        return parse(data)
    except (SchemaError, ValidationError) as e:
        raise type(e)(f"{path}: {e}") from e


def load_json_array(path: str | Path, parse: Callable[[Iterator[Any]], T], expected: str) -> T:
    """`parse` of the items of an input file that holds one JSON array,
    decoded one at a time as `parse` reads them, so that the file's whole
    tree is never built. It fails as `load_json` of the whole array would:
    malformed JSON anywhere in the file is a ParseError before any error of
    `parse`, JSON that is not an array is SchemaError(`expected`), and a
    SchemaError or ValidationError of `parse` names the file."""
    text = read_text(path)
    try:
        return parse(_array_items(text))
    except json.JSONDecodeError:
        _decode(text, path)  # the scan fails only where json.loads does, or on a non-array
        raise SchemaError(f"{path}: {expected}") from None
    except (SchemaError, ValidationError) as e:
        _decode(text, path)  # malformed JSON further on is reported first
        raise type(e)(f"{path}: {e}") from e


def load_scenario(path: str | Path) -> Scenario:
    """Load, schema-check, and validate a scenario file.

    Raises ParseError for an unreadable file or malformed JSON, SchemaError
    for shape problems (naming the file and the offending field) and
    ValidationError when an invariant fails.
    """
    scenario = load_json(path, scenario_from_dict)
    diagnostics = validate_scenario(scenario)
    if diagnostics:
        raise ValidationError(f"{path}: {diagnostics[0]}")
    return scenario


# ---------------------------------------------------------------------------
# Validation


def trajectory_consistency_errors(traj: Trajectory, tol: float = KINEMATIC_CONSISTENCY_TOL) -> list[str]:
    """Frames where finite-difference pose speed disagrees with stored vel_lon."""
    x, y, _, v = traj.track[:4]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf and nan, silently
        speed = per_element(math.hypot, x[1:] - x[:-1], y[1:] - y[:-1]) / traj.dt
        bad = np.abs(speed - np.abs(v[:-1])) > tol
    return [
        f"kinematic consistency violated at frame {k}: pose speed {d:.3f} vs vel_lon {vk:.3f}"
        for k, d, vk in zip(np.flatnonzero(bad).tolist(), speed[bad].tolist(), v[:-1][bad].tolist())
    ]


def validate_scenario(s: Scenario) -> list[str]:
    """Check all Scenario invariants; returns one diagnostic per violation."""
    from .control import DEFAULT_STEER_MAX  # control imports this module

    diags = [
        f"{name} must be at least 1, got {value}"
        for name, value in (("t_history", s.t_history), ("t_horizon", s.t_horizon))
        if value < 1
    ]

    expected = s.t_history + 2 * s.t_horizon
    if len(s.ego_log) != expected:
        diags.append(
            f"ego_log length {len(s.ego_log)} != t_history + 2*t_horizon = {expected}"
        )
    if s.ego_log.dt <= 0:
        diags.append("ego_log dt must be positive")

    # the first frame that breaks a state rule, named by the first rule it breaks
    track, n = s.ego_log.track, len(s.ego_log)
    theta = track[2]
    normalized = (-math.pi < theta) & (theta <= math.pi + 1e-12)
    rules = (
        (~np.isfinite(track).all(axis=0), "non-finite ego state"),
        (~normalized, "ego theta not normalized to (-pi, pi]"),
        (np.abs(track[6]) > DEFAULT_STEER_MAX + 1e-9, "ego steering exceeds the steering limit"),
    )
    first = [int(np.argmax(bad)) if bad.any() else n for bad, _ in rules]
    k = min(first)
    if k < n:
        diags.append(f"{rules[first.index(k)][1]} at frame {k}")
    finite = k == n or first[0] > k

    # footprint containment, named by frame; a non-finite state has no footprint
    if s.map.drivable_area and finite:
        x, y, theta = track[:3]
        c, sn = per_element(math.cos, theta), per_element(math.sin, theta)
        cx, cy = stack_corners(box_corners(x, y, c, sn, DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH))
        inside = points_in_any_polygon(cx.ravel(), cy.ravel(), s.map.drivable_area)
        if not inside.all():
            frame = int(np.argmin(inside)) // 4
            diags.append(f"ego footprint outside drivable area at frame {frame}")
    elif not s.map.drivable_area:
        diags.append("drivable_area is empty")

    if s.ego_log.dt > 0:  # the consistency check divides by dt
        diags.extend(trajectory_consistency_errors(s.ego_log))

    for li, lane in enumerate(s.map.lanes):
        if lane.width <= 0:
            diags.append(f"lane {li}: width must be positive")

    for poly in s.map.drivable_area:
        if not polygon_is_simple(poly):
            diags.append("drivable_area polygon is not simple")
            break

    if s.map.route and s.map.drivable_area:
        route = np.asarray(s.map.route, dtype=float)
        on_road = points_in_any_polygon(route[:, 0], route[:, 1], s.map.drivable_area)
        if not on_road.all():
            diags.append(f"route vertex {int(np.argmin(on_road))} outside drivable area")

    for li, tl in enumerate(s.map.traffic_lights):
        phases = sorted(tl.phases)
        for (a0, a1, _), (b0, b1, _) in zip(phases, phases[1:]):
            if b0 < a1:
                diags.append(f"traffic light {li} has overlapping phases")
                break
        for t0, t1, state in tl.phases:
            if t1 <= t0:
                diags.append(f"traffic light {li} has an empty or inverted phase")
                break
            if state not in ("red", "green"):
                diags.append(f"traffic light {li} has unknown phase state '{state}'")
                break

    seen = set()
    for a in s.agents:
        if a.length <= 0 or a.width <= 0:
            diags.append(f"agent {a.id}: extent must be positive")
        if a.kind not in ("vehicle", "static"):
            diags.append(f"agent {a.id}: unknown kind '{a.kind}'")
        if a.track.shape[1] != len(s.ego_log):
            diags.append(
                f"agent {a.id}: state count {a.track.shape[1]} != scenario frame count {len(s.ego_log)}"
            )
        if a.id in seen:
            diags.append(f"agent {a.id}: duplicate id")
        seen.add(a.id)

    return diags


def corpus_id_collisions(scenarios: Iterable[Scenario]) -> list[str]:
    seen: set[str] = set()
    dup = []
    for s in scenarios:
        if s.id in seen:
            dup.append(s.id)
        seen.add(s.id)
    return dup
