"""Synthetic desk-scale scenario corpus.

Five road templates (straight, curve, intersection, lead-vehicle, cut-in)
with randomized speeds, geometry and agent placement. Every ego log of a
corpus is integrated in one `batch.two_phase_tracks` call, the bicycle
model the simulator and the maneuver vocabulary use, so every log is
kinematically consistent by construction. Synthesis is a pure function of
(config, seed), and every scenario it returns validates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .batch import two_phase_tracks
from .control import VehicleLimits
from .errors import ConfigError, ValidationError
from .geometry import corridor_polygon, local_to_global
from .scenario import (
    DEFAULT_T_HISTORY,
    DEFAULT_T_HORIZON,
    SIM_DT,
    AgentTrack,
    Lane,
    MapModel,
    Scenario,
    TrafficLight,
    Trajectory,
    validate_scenario,
)
from .seeding import mix64

TEMPLATES = ("straight", "curve", "intersection", "lead-vehicle", "cut-in")


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    counts: dict[str, int] = field(
        default_factory=lambda: {t: 20 for t in TEMPLATES}
    )
    t_history: int = DEFAULT_T_HISTORY
    t_horizon: int = DEFAULT_T_HORIZON
    dt: float = SIM_DT
    lane_width: float = 3.5
    drivable_buffer: float = 0.25

    @property
    def count(self) -> int:
        return sum(self.counts.values())


def corpus_config_for_count(total: int, **kwargs) -> CorpusConfig:
    """Distribute a total count round-robin over the five templates."""
    if total < 0:
        raise ConfigError("count must be nonnegative")
    base = total // len(TEMPLATES)
    rem = total % len(TEMPLATES)
    counts = {t: base + (1 if i < rem else 0) for i, t in enumerate(TEMPLATES)}
    return CorpusConfig(counts=counts, **kwargs)


def _validate_config(config: CorpusConfig) -> None:
    if config.t_history < 2 or config.t_horizon < 1:
        raise ConfigError("t_history must be >= 2 and t_horizon >= 1")
    for name, c in config.counts.items():
        if name not in TEMPLATES:
            raise ConfigError(f"unknown template '{name}'")
        if c < 0:
            raise ConfigError(f"negative count for template '{name}'")
    if config.lane_width <= 0 or config.drivable_buffer < 0:
        raise ConfigError("lane geometry must be positive")


_CENTERLINE_SPACING = 0.5  # s of ego travel between centerline points


def _centerline_from_path(
    track: np.ndarray, dt: float, extend: float = 40.0
) -> list[tuple[float, float]]:
    """The path of a (7, n) ego track, every `_CENTERLINE_SPACING` seconds
    (every state at a step above it), extended along the end headings."""
    stride = max(1, round(_CENTERLINE_SPACING / dt))
    x, y, theta = track[:3].tolist()
    pts = list(zip(x[::stride], y[::stride]))
    last = (x[-1], y[-1])
    if pts[-1] != last:
        pts.append(last)
    h0 = theta[0]
    h1 = theta[-1]
    front = (pts[0][0] - extend * math.cos(h0), pts[0][1] - extend * math.sin(h0))
    back = (pts[-1][0] + extend * math.cos(h1), pts[-1][1] + extend * math.sin(h1))
    return [front] + pts + [back]


def _constant_speed_track(
    agent_id: str,
    length: float,
    width: float,
    x0: float,
    y0: float,
    heading: float,
    speed: float,
    n: int,
    dt: float,
    kind: str = "vehicle",
) -> AgentTrack:
    states = [
        (*local_to_global(speed * k * dt, 0.0, x0, y0, heading), heading, speed, 0.0, 0.0, 0.0)
        for k in range(n)
    ]
    return AgentTrack(agent_id, length, width, kind, np.array(states).T)


def _smoothstep(u: float) -> float:
    u = max(0.0, min(1.0, u))
    return u * u * (3.0 - 2.0 * u)


_MAX_TURN = 2.0  # rad a curve turns at most, so that its corridor never comes back on itself


def _arc_steering(rng: random.Random, length: float) -> float:
    """The steady steering of a curve of random radius, turning either way;
    the radius grows where an arc `length` m long would turn by more than
    `_MAX_TURN` (at the default window no curve is long enough)."""
    radius = rng.uniform(70.0, 140.0) * rng.choice((-1.0, 1.0))
    radius = math.copysign(max(abs(radius), length / _MAX_TURN), radius)
    return math.atan(VehicleLimits().wheelbase / abs(radius)) * math.copysign(1.0, radius)


def _build_scenario(
    template: str, index: int, config: CorpusConfig, rng: random.Random,
    ego_track: np.ndarray,
) -> Scenario:
    """The scenario around an integrated (7, n) ego log; `rng` has drawn its
    start speed (and a curve's arc) and draws the rest."""
    dt = config.dt
    n = ego_track.shape[1]
    speed = float(ego_track[3, 0])
    half_corridor = 0.5 * config.lane_width + config.drivable_buffer

    agents: list[AgentTrack] = []
    lights: tuple[TrafficLight, ...] = ()
    extra_lanes: list[Lane] = []
    extra_polys: list[tuple[tuple[float, float], ...]] = []

    if template == "lead-vehicle":
        gap0 = rng.uniform(28.0, 40.0)
        lead_speed = max(3.0, speed - rng.uniform(0.8, 1.6))
        agents.append(
            _constant_speed_track("a00-lead", 4.5, 1.9, gap0, 0.0, 0.0, lead_speed, n, dt)
        )
    elif template == "cut-in":
        ahead0 = rng.uniform(16.0, 24.0)
        v_agent = speed - rng.uniform(0.0, 0.4)
        t_merge0 = rng.uniform(1.5, 2.5)
        t_merge1 = t_merge0 + rng.uniform(2.0, 3.0)
        states = []
        prev_xy = None
        for k in range(n):
            t = k * dt
            x = ahead0 + v_agent * t
            y = config.lane_width * (1.0 - _smoothstep((t - t_merge0) / (t_merge1 - t_merge0)))
            heading = 0.0
            if prev_xy is not None:
                heading = math.atan2(y - prev_xy[1], x - prev_xy[0])
            prev_xy = (x, y)
            states.append((x, y, heading, v_agent, 0.0, 0.0, 0.0))
        agents.append(AgentTrack("a00-cutin", 4.5, 1.9, "vehicle", np.array(states).T))

    center = _centerline_from_path(ego_track, dt)
    lanes = [Lane(polyline=tuple(center), width=config.lane_width, direction=1)]
    polys = [tuple(corridor_polygon(center, half_corridor))]

    if template == "intersection":
        # ego crosses a perpendicular road; the light is green while it does
        t_cross = rng.uniform(3.5, 6.0)
        x_cross = speed * t_cross
        cross_center = [(x_cross, -60.0), (x_cross, 60.0)]
        extra_lanes.append(Lane(polyline=tuple(cross_center), width=config.lane_width, direction=1))
        extra_polys.append(tuple(corridor_polygon(cross_center, half_corridor)))
        stop_x = x_cross - half_corridor - 2.0
        green_until = t_cross + 1.5
        red_until = n * dt + 1.0
        if red_until <= green_until:  # a short log ends before the green does
            red_until = green_until + 1.0
        lights = (
            TrafficLight(
                stop_line=((stop_x, -half_corridor), (stop_x, half_corridor)),
                phases=((0.0, green_until, "green"), (green_until, red_until, "red")),
            ),
        )

    if template == "cut-in":
        adjacent = [(p[0], p[1] + config.lane_width) for p in center]
        extra_lanes.append(Lane(polyline=tuple(adjacent), width=config.lane_width, direction=1))
        extra_polys.append(tuple(corridor_polygon(adjacent, half_corridor)))

    scenario = Scenario(
        id=f"{template}-{index:04d}",
        map=MapModel(
            lanes=tuple(lanes + extra_lanes),
            drivable_area=tuple(polys + extra_polys),
            route=tuple(center),
            traffic_lights=lights,
        ),
        ego_log=Trajectory(dt, ego_track),
        agents=tuple(agents),
        t_history=config.t_history,
        t_horizon=config.t_horizon,
    )
    return scenario


def generate_synthetic_corpus(config: CorpusConfig, seed: int) -> list[Scenario]:
    """Deterministically synthesize a validated scenario corpus.

    Each scenario draws its start speed, and a curve its arc steering, from
    its own rng. Every ego log is then integrated in one call, straight
    through the history and steering toward the arc after it, and each
    scenario is finished with the rest of its rng's draws. Raises
    ValidationError naming the first scenario that fails validation and its
    first diagnostic.
    """
    _validate_config(config)
    n = config.t_history + 2 * config.t_horizon
    jobs, speeds, arcs = [], [], []
    for template in TEMPLATES:
        for _ in range(config.counts.get(template, 0)):
            rng = random.Random(mix64(seed, "scenario", template, len(jobs)))
            speeds.append(rng.uniform(8.0, 12.0))
            arc_length = speeds[-1] * (n - 1 - config.t_history) * config.dt  # at constant speed
            arcs.append(_arc_steering(rng, arc_length) if template == "curve" else 0.0)
            jobs.append((template, len(jobs), rng))
    egos = two_phase_tracks(speeds, 0.0, 0.0, arcs, config.t_history, n - 1, config.dt)
    out: list[Scenario] = []
    for row, (template, index, rng) in enumerate(jobs):
        scenario = _build_scenario(template, index, config, rng, egos.data[:, row])
        diagnostics = validate_scenario(scenario)
        if diagnostics:
            raise ValidationError(f"scenario {scenario.id}: {diagnostics[0]}")
        out.append(scenario)
    return out
