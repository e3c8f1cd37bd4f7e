"""Reactive environment: IDM-controlled agents responding to the ego.

A rollout executes the ego plan with the LQR tracker and advances every
vehicle agent with IDM longitudinal control plus pure-pursuit centerline
following. Agents update synchronously from the previous frame, in
ascending id order, so results are independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .control import DEFAULT_STEER_MAX, lqr_track
from .errors import RolloutError, ValidationError
from .geometry import PolylineOps, PolylineSetOps, _cached_ops, polyline_ops, wrap_angle
from .scenario import (
    FRAME_GLOBAL,
    Lane,
    MapModel,
    Pose2D,
    Scenario,
    Trajectory,
    VehicleState,
)

if TYPE_CHECKING:  # metrics imports this module, so the context type is annotation-only
    from .metrics import SimContext

MODE_REACTIVE = "reactive"
MODE_NONREACTIVE = "nonreactive"
MODE_LOG_REPLAY_EGO = "log-replay-ego"
MODES = (MODE_REACTIVE, MODE_NONREACTIVE, MODE_LOG_REPLAY_EGO)

DEFAULT_B_HARD = 4.0
PURE_PURSUIT_LOOKAHEAD = 8.0
LEADER_LOOKAHEAD = 100.0


@dataclass(frozen=True, slots=True)
class IdmParams:
    v_desired: float = 13.0
    headway: float = 1.5
    s0: float = 2.0
    a_max: float = 1.5
    b_comf: float = 2.0
    delta: float = 4.0

    def __post_init__(self):
        for name in ("v_desired", "a_max", "b_comf", "delta"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("headway", "s0"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True, slots=True)
class SceneStates:
    """Per-frame states of the ego and every agent over a frame window."""

    dt: float
    t_start: int
    t_end: int
    ego: tuple[VehicleState, ...]
    agents: Mapping[str, tuple[VehicleState, ...]]

    def __post_init__(self):
        n = self.t_end - self.t_start + 1
        if len(self.ego) != n:
            raise ValueError("ego state count does not match frame range")
        for aid, states in self.agents.items():
            if len(states) != n:
                raise ValueError(f"agent {aid} state count does not match frame range")

    @property
    def frame_count(self) -> int:
        return self.t_end - self.t_start + 1


@dataclass(frozen=True, slots=True)
class StateBatch:
    """The seven `VehicleState` fields stacked on axis 0 of one array: (7, P)
    for one frame of P rows, (7, P, n) for P tracks of n frames."""

    data: np.ndarray

    x = property(lambda self: self.data[0])
    y = property(lambda self: self.data[1])
    theta = property(lambda self: self.data[2])
    v = property(lambda self: self.data[3])  # vel_lon
    v_lat = property(lambda self: self.data[4])
    accel = property(lambda self: self.data[5])
    steering = property(lambda self: self.data[6])

    @classmethod
    def of(cls, x, y, theta, v, v_lat, accel, steering) -> "StateBatch":
        return cls(np.stack([x, y, theta, v, v_lat, accel, steering]))

    @classmethod
    def full(cls, state: VehicleState, rows: int) -> "StateBatch":
        p = state.pose
        values = [p.x, p.y, p.theta, state.vel_lon, state.vel_lat, state.accel, state.steering]
        return cls(np.repeat(np.array(values)[:, None], rows, axis=1))

    @classmethod
    def track(cls, states: Sequence[VehicleState]) -> "StateBatch":
        """(7, 1, n): one row holding the n states of a track."""
        values = [
            (s.pose.x, s.pose.y, s.pose.theta, s.vel_lon, s.vel_lat, s.accel, s.steering)
            for s in states
        ]
        return cls(np.ascontiguousarray(np.array(values, dtype=float).reshape(-1, 7).T[:, None]))

    @classmethod
    def stack(cls, frames: Sequence["StateBatch"]) -> "StateBatch":
        """(7, P, n) tracks from n per-frame batches."""
        return cls(np.stack([f.data for f in frames], axis=-1))

    def at(self, k: int) -> "StateBatch":
        return StateBatch(self.data[:, :, k])

    def trajectory(self, row: int, dt: float) -> Trajectory:
        """The global-frame trajectory of one row of tracks."""
        return Trajectory(
            dt=dt,
            states=tuple(
                VehicleState(Pose2D(x, y, th), v, v_lat, a, st)
                for x, y, th, v, v_lat, a, st in self.data[:, row, :].T.tolist()
            ),
            frame=FRAME_GLOBAL,
        )


@dataclass(frozen=True, slots=True)
class SceneBatch:
    """P simulated versions of one frame window: the batched `SceneStates`."""

    dt: float
    t_start: int
    t_end: int
    ego: StateBatch
    agents: Mapping[str, StateBatch]

    @classmethod
    def of(cls, states: SceneStates) -> "SceneBatch":
        """The one-row scene of a simulated window, agents in its order."""
        return cls(
            states.dt,
            states.t_start,
            states.t_end,
            StateBatch.track(states.ego),
            {aid: StateBatch.track(track) for aid, track in states.agents.items()},
        )


def idm_accel(
    v: float,
    leader: tuple[float, float] | None,
    p: IdmParams,
    b_hard: float = DEFAULT_B_HARD,
) -> float:
    """IDM longitudinal acceleration, clamped to [-b_hard, a_max].

    `leader` is (leader speed, bumper-to-bumper gap) or None on a free road.
    """
    free = (v / p.v_desired) ** p.delta
    if leader is None:
        a = p.a_max * (1.0 - free)
    else:
        v_lead, gap = leader
        s_star = p.s0 + max(
            0.0, v * p.headway + v * (v - v_lead) / (2.0 * math.sqrt(p.a_max * p.b_comf))
        )
        a = p.a_max * (1.0 - free - (s_star / gap) ** 2)
    return max(-b_hard, min(p.a_max, a))


def lane_centerline_ops(lane: Lane) -> PolylineOps:
    """Projection operator for the lane centerline in its travel direction."""
    return _cached_ops(
        lane,
        lambda l: PolylineOps(l.polyline if l.direction >= 0 else l.polyline[::-1]),
    )


def assign_lane(x: float, y: float, map_model: MapModel) -> int:
    """Index of the lane whose centerline is closest to (x, y)."""
    best_i, best_d = 0, math.inf
    for i, lane in enumerate(map_model.lanes):
        d = polyline_ops(lane.polyline).min_dist2(x, y)
        if d < best_d:
            best_i, best_d = i, d
    return best_i


def assign_lanes(xs: np.ndarray, ys: np.ndarray, lanes: Sequence[Lane]) -> np.ndarray:
    """`assign_lane` of many points, for the lanes of a map."""
    ops = _cached_ops(lanes, lambda ls: PolylineSetOps([l.polyline for l in ls]))
    return ops.nearest_many(xs, ys)


def lane_position(state: VehicleState, map_model: MapModel) -> tuple[Lane, PolylineOps, float]:
    """Assigned lane, its centerline operator and the arclength along it."""
    lane = map_model.lanes[assign_lane(state.pose.x, state.pose.y, map_model)]
    ops = lane_centerline_ops(lane)
    s, _, _ = ops.project(state.pose.x, state.pose.y)
    return lane, ops, s


def select_leader(
    agent_id: str,
    scene: Mapping[str, tuple[VehicleState, float]],
    map_model: MapModel,
    position: tuple[Lane, PolylineOps, float] | None = None,
) -> tuple[float, float] | None:
    """Nearest entity ahead of an agent along its lane.

    `scene` maps entity id (including "ego") to (state, body length), and
    `position` is the agent's `lane_position` when the caller already has it.
    Returns (leader speed, bumper-to-bumper gap) or None. Candidates must sit
    within half a lane width of the centerline and at most 100 m ahead; ties
    on distance break by ascending id. Overlapping bumpers give a 0.01 m gap,
    which forces hard braking.
    """
    state, length = scene[agent_id]
    lane, ops, s_self = position or lane_position(state, map_model)

    best: tuple[float, float, float] | None = None  # (ds, v, gap)
    for other_id in sorted(scene.keys()):
        if other_id == agent_id:
            continue
        other, other_len = scene[other_id]
        s_o, lat_o, _ = ops.project(other.pose.x, other.pose.y)
        if abs(lat_o) > 0.5 * lane.width:
            continue
        ds = s_o - s_self
        if ds <= 0.0 or ds > LEADER_LOOKAHEAD:
            continue
        if best is None or ds < best[0]:
            best = (ds, other.vel_lon, ds - 0.5 * length - 0.5 * other_len)
    if best is None:
        return None
    _, v_lead, gap = best
    return (v_lead, gap if gap > 0.0 else 0.01)


def _agent_step(state: VehicleState, accel: float, steering: float, dt: float, wheelbase: float) -> VehicleState:
    v = state.vel_lon
    x = state.pose.x + dt * v * math.cos(state.pose.theta)
    y = state.pose.y + dt * v * math.sin(state.pose.theta)
    theta = wrap_angle(state.pose.theta + dt * v * math.tan(steering) / wheelbase)
    new_v = max(0.0, v + dt * accel)
    return VehicleState(
        pose=Pose2D(x, y, theta),
        vel_lon=new_v,
        vel_lat=0.0,
        accel=(new_v - v) / dt,
        steering=steering,
    )


def rollout(
    scenario: Scenario,
    ego_plan: Trajectory,
    t_start: int,
    horizon: int,
    mode: str = MODE_REACTIVE,
    ctx: SimContext | None = None,
    ego_start: VehicleState | None = None,
    agent_init: Mapping[str, VehicleState] | None = None,
) -> SceneStates:
    """Simulate a frame window [t_start, t_start + horizon] in the world of `ctx`.

    The ego executes `ego_plan` through the LQR tracker (or replays the log
    in log-replay-ego mode). Agents replay their logged tracks in nonreactive
    and log-replay-ego modes, and run IDM + pure pursuit in reactive mode.
    `ego_start` / `agent_init` optionally override the initial states, which
    is how the second simulation stage continues from perturbed states.
    Without `ctx` the defaults of SimContext apply.

    Deterministic: equal inputs give bitwise-equal outputs.
    """
    if mode not in MODES:
        raise RolloutError(f"unknown mode '{mode}'")
    if ego_plan.dt != scenario.dt:
        raise RolloutError(
            f"ego_plan dt {ego_plan.dt} does not match scenario dt {scenario.dt}"
        )
    if t_start < 0 or horizon < 1 or t_start + horizon > scenario.frame_count - 1:
        raise RolloutError(
            f"window [{t_start}, {t_start + horizon}] outside scenario frames "
            f"[0, {scenario.frame_count - 1}]"
        )
    if ctx is None:
        from .metrics import SimContext

        ctx = SimContext()
    t_end = t_start + horizon

    # --- ego
    if mode == MODE_LOG_REPLAY_EGO:
        ego_states = scenario.ego_log.states[t_start : t_end + 1]
    else:
        if ego_plan.frame != FRAME_GLOBAL:
            raise RolloutError(f"ego_plan is in frame '{ego_plan.frame}', needs '{FRAME_GLOBAL}'")
        if len(ego_plan) < horizon + 1:
            raise RolloutError(
                f"ego_plan has {len(ego_plan)} states, needs at least {horizon + 1}"
            )
        reference = ego_plan.segment(0, horizon)
        start = ego_start if ego_start is not None else scenario.ego_log[t_start]
        ego_states = lqr_track(reference, start, ctx.lqr, ctx.limits).states

    # --- agents
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    tracks: dict[str, list[VehicleState]] = {}
    if mode in (MODE_NONREACTIVE, MODE_LOG_REPLAY_EGO):
        for a in ordered:
            tracks[a.id] = list(a.states[t_start : t_end + 1])
    else:
        current: dict[str, VehicleState] = {}
        for a in ordered:
            init = agent_init.get(a.id) if agent_init else None
            current[a.id] = init if init is not None else a.states[t_start]
            tracks[a.id] = [current[a.id]]

        for k in range(horizon):
            snapshot: dict[str, tuple[VehicleState, float]] = {"ego": (ego_states[k], ctx.ego_length)}
            for a in ordered:
                snapshot[a.id] = (current[a.id], a.length)

            nxt: dict[str, VehicleState] = {}
            for a in ordered:
                st = current[a.id]
                if a.kind == "static":
                    nxt[a.id] = st
                    continue
                position = lane_position(st, scenario.map)
                leader = select_leader(a.id, snapshot, scenario.map, position)
                accel = idm_accel(st.vel_lon, leader, ctx.idm, ctx.b_hard)

                _, ops, s_self = position
                wheelbase = 0.6 * a.length
                tx, ty, _ = ops.point_at(s_self + PURE_PURSUIT_LOOKAHEAD)
                alpha = wrap_angle(
                    math.atan2(ty - st.pose.y, tx - st.pose.x) - st.pose.theta
                )
                steering = math.atan2(
                    2.0 * wheelbase * math.sin(alpha), PURE_PURSUIT_LOOKAHEAD
                )
                steering = max(-DEFAULT_STEER_MAX, min(DEFAULT_STEER_MAX, steering))
                nxt[a.id] = _agent_step(st, accel, steering, scenario.dt, wheelbase)
            current = nxt
            for aid, st in current.items():
                tracks[aid].append(st)

    return SceneStates(
        dt=scenario.dt,
        t_start=t_start,
        t_end=t_end,
        ego=tuple(ego_states),
        agents={aid: tuple(st) for aid, st in tracks.items()},
    )
