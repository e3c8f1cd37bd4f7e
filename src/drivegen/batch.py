"""Lockstep batched simulation and scoring of many ego plans in one scene.

`rollout_batch` steps P ego reference plans together as (P, ·) numpy arrays:
LQR tracking of the ego and, for each agent, lane assignment, projection,
leader choice, IDM and pure pursuit, vectorized over the P rows.
`submetrics_batch` scores every row with the nine sub-metrics.

Both reproduce the scalar `reactive.rollout` (reactive mode) and
`metrics.compute_submetrics` bit for bit: elementary arithmetic runs in numpy
in the scalar code's order, comparisons and clamps keep its tie and
signed-zero behaviour, angles wrap through the exact `geometry.wrap_angle_many`,
and transcendental functions run per element through `math`
(`geometry.per_element`). So every binary decision (collision, lane keeping,
comfort and TTC thresholds, lane and leader choice) comes out as the scalar
oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .control import DEFAULT_STEER_MAX, GAIN_DELTA_STEP, GAIN_V_STEP, _tracking_gain
from .errors import RolloutError
from .geometry import (
    BoxArrays,
    OrientedBox,
    boxes_overlap_many,
    per_element,
    polyline_ops,
    segments_intersect_many,
    wrap_angle,
    wrap_angle_many,
)
from .metrics import (
    SimContext,
    _route_progress,
    check_collision,
    drivable_area_compliance,
    lane_compliance,
)
from .reactive import (
    LEADER_LOOKAHEAD,
    PURE_PURSUIT_LOOKAHEAD,
    assign_lanes,
    idm_accel,
    lane_centerline_ops,
)
from .scenario import FRAME_GLOBAL, Lane, Pose2D, Scenario, Trajectory, VehicleState


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
    agents: Mapping[str, StateBatch]  # ascending id


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`control._clamp`: lo if v < lo, else hi if v > hi, else v."""
    return np.where(v < lo, lo, np.where(v > hi, hi, v))


def _bound(v: np.ndarray, limit: float) -> np.ndarray:
    """max(-limit, min(limit, v)) with Python's choice among equal values."""
    low = np.where(v < limit, v, limit)
    return np.where(low > -limit, low, -limit)


def _floor0(v: np.ndarray) -> np.ndarray:
    """max(0.0, v): 0.0 unless v > 0.0."""
    return np.where(v > 0.0, v, 0.0)


def _advance(
    s: StateBatch,
    accel: np.ndarray,
    delta: np.ndarray,
    dt: float,
    wheelbase: float,
    steering: np.ndarray,
) -> StateBatch:
    """Forward-Euler kinematic bicycle step: yaw from steering angle `delta`;
    the new state's steering is `steering`."""
    cos, sin, tan = np.array([
        (math.cos(th), math.sin(th), math.tan(d))
        for th, d in zip(s.theta.tolist(), delta.tolist())
    ]).T
    step = dt * s.v
    theta = wrap_angle_many(s.theta + step * tan / wheelbase)
    v = _floor0(s.v + dt * accel)
    return StateBatch.of(
        s.x + step * cos, s.y + step * sin, theta, v, np.zeros_like(v), (v - s.v) / dt, steering
    )


# ---------------------------------------------------------------------------
# Rollout

_SPEED_STEERING = [3, 6]  # rows of vel_lon and steering in StateBatch.data


def _lqr_track_batch(
    ref: StateBatch, start: VehicleState, horizon: int, dt: float, ctx: SimContext
) -> StateBatch:
    """`control.lqr_track` of every reference row from one start state."""
    lqr, lim = ctx.lqr, ctx.limits
    rows = ref.x.shape[0]
    cos_neg = per_element(math.cos, -ref.theta[:, :horizon])
    sin_neg = per_element(math.sin, -ref.theta[:, :horizon])
    gain_steps = np.array([[GAIN_V_STEP], [GAIN_DELTA_STEP]])
    command_max = np.array([[lim.accel_max], [lim.steer_rate_max]])
    gain_rows: dict[tuple[float, float], int] = {}  # quantized (v, delta) -> row of `gains`
    gains = np.zeros((1, 4, 2))  # K transposed; row 0 serves verbatim steps, which ignore it
    cur = StateBatch.full(start, rows)
    out = [cur]
    for k in range(horizon):
        rk, rn = ref.at(k), ref.at(k + 1)
        ref_vs, next_vs = rk.data[_SPEED_STEERING], rn.data[_SPEED_STEERING]
        dx, dy = cur.x - rk.x, cur.y - rk.y
        e_lat = sin_neg[:, k] * dx + cos_neg[:, k] * dy
        e_theta = wrap_angle_many(cur.theta - rk.theta)
        e_v, e_delta = cur.data[_SPEED_STEERING] - ref_vs
        # on the reference with zero error, its next state is taken verbatim
        verbatim = (cur.data[:3] == rk.data[:3]).all(axis=0)
        if verbatim.any():
            verbatim &= (
                (e_lat == 0.0) & (e_theta == 0.0) & (e_v == 0.0) & (e_delta == 0.0)
                & (np.abs(rn.steering) <= lim.steer_max) & (rn.v >= 0.0)
            )

        # gain lookups as `control._quantize` keys them (+ 0.0 turns -0.0 into 0.0)
        keys = list(zip(*(np.round(ref_vs / gain_steps) * gain_steps + 0.0).tolist()))
        wanted = {key for key, skip in zip(keys, verbatim.tolist()) if not skip}
        new = sorted(wanted - gain_rows.keys())
        if new:
            for key in new:
                gain_rows[key] = len(gain_rows) + 1
            gains = np.concatenate([gains, [
                np.transpose(_tracking_gain(
                    *key, dt, lim.wheelbase, lqr.state_weights, lqr.control_weights, lqr.horizon
                ))
                for key in new
            ]])
        K = gains[[gain_rows.get(key, 0) for key in keys]]
        feedback = -(
            K[:, 0] * e_lat[:, None] + K[:, 1] * e_theta[:, None]
            + K[:, 2] * e_v[:, None] + K[:, 3] * e_delta[:, None]
        )
        accel, steer_rate = _clamp((next_vs - ref_vs) / dt + feedback.T, -command_max, command_max)
        delta = _clamp(cur.steering, -lim.steer_max, lim.steer_max)
        new_delta = _clamp(delta + dt * steer_rate, -lim.steer_max, lim.steer_max)
        cur = _advance(cur, accel, delta, dt, lim.wheelbase, new_delta)
        if verbatim.any():
            cur = StateBatch(np.where(verbatim, rn.data, cur.data))
        out.append(cur)
    return StateBatch.stack(out)


def _lane_groups(lane: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """(lane index, rows on it) for each lane that rows are assigned to."""
    if (lane == lane[0]).all():
        return [(int(lane[0]), slice(None))]
    return [(int(li), lane == li) for li in np.unique(lane)]


def select_leaders(
    agent_id: str,
    scene: Mapping[str, tuple[StateBatch, float]],
    lanes: Sequence[Lane],
    lane: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`reactive.select_leader` per row for an agent on lane index `lane`.

    `scene` maps entity id (including "ego") to (per-frame states, body
    length). Returns the agent's arclength on its lane and (has leader,
    leader speed, bumper-to-bumper gap) arrays.
    """
    own, length = scene[agent_id]
    others = [scene[o] for o in sorted(scene) if o != agent_id]
    # the agent and every other entity projected on the agent's lane in one go
    x = np.stack([own.x] + [o.x for o, _ in others])
    y = np.stack([own.y] + [o.y for o, _ in others])
    s, lat = np.empty(x.shape), np.empty(x.shape)
    for li, rows in _lane_groups(lane):
        proj = lane_centerline_ops(lanes[li]).project_many(x[:, rows].ravel(), y[:, rows].ravel())
        s[:, rows], lat[:, rows] = (a.reshape(len(x), -1) for a in proj[:2])

    half_width = 0.5 * np.array([l.width for l in lanes])[lane]
    found = np.zeros(len(lane), dtype=bool)
    best_ds, v_lead, gap = np.full(len(lane), math.inf), np.zeros(len(lane)), np.zeros(len(lane))
    for (other, other_len), s_o, lat_o in zip(others, s[1:], lat[1:]):
        ds = s_o - s[0]
        ahead = ~(np.abs(lat_o) > half_width) & ~((ds <= 0.0) | (ds > LEADER_LOOKAHEAD))
        better = ahead & (~found | (ds < best_ds))
        best_ds = np.where(better, ds, best_ds)
        v_lead = np.where(better, other.v, v_lead)
        gap = np.where(better, ds - 0.5 * length - 0.5 * other_len, gap)
        found |= better
    return s[0], found, v_lead, np.where(gap > 0.0, gap, 0.01)


def _agent_step_batch(
    agent_id: str,
    length: float,
    scene: Mapping[str, tuple[StateBatch, float]],
    lanes: Sequence[Lane],
    dt: float,
    ctx: SimContext,
) -> StateBatch:
    """One IDM + pure-pursuit step of a vehicle agent, as in `rollout`."""
    st = scene[agent_id][0]
    lane = assign_lanes(st.x, st.y, lanes)
    s_self, found, v_lead, gap = select_leaders(agent_id, scene, lanes, lane)
    accel = np.array(
        [
            idm_accel(v, (vl, g) if f else None, ctx.idm, ctx.b_hard)
            for v, f, vl, g in zip(st.v.tolist(), found.tolist(), v_lead.tolist(), gap.tolist())
        ]
    )

    wheelbase = 0.6 * length
    tx, ty = np.empty(len(lane)), np.empty(len(lane))
    for li, rows in _lane_groups(lane):
        tx[rows], ty[rows], _ = lane_centerline_ops(lanes[li]).point_at_many(
            s_self[rows] + PURE_PURSUIT_LOOKAHEAD
        )

    def pursuit(dy: float, dx: float, theta: float) -> float:
        alpha = wrap_angle(math.atan2(dy, dx) - theta)
        return math.atan2(2.0 * wheelbase * math.sin(alpha), PURE_PURSUIT_LOOKAHEAD)

    steering = _bound(per_element(pursuit, ty - st.y, tx - st.x, st.theta), DEFAULT_STEER_MAX)
    return _advance(st, accel, steering, dt, wheelbase, steering)


def rollout_batch(
    scenario: Scenario,
    plans: StateBatch,
    t_start: int,
    horizon: int,
    ctx: SimContext,
    ego_start: VehicleState | None = None,
    agent_init: Mapping[str, VehicleState] | None = None,
) -> SceneBatch:
    """Reactive `rollout` of every row of `plans` (global-frame references of
    at least horizon + 1 states at the scenario's dt) over one frame window.

    All rows start from the same ego and agent states; agents update
    synchronously from the previous frame, in ascending id order.
    """
    if t_start < 0 or horizon < 1 or t_start + horizon > scenario.frame_count - 1:
        raise RolloutError(
            f"window [{t_start}, {t_start + horizon}] outside scenario frames "
            f"[0, {scenario.frame_count - 1}]"
        )
    rows = plans.x.shape[0]
    dt = scenario.dt
    start = ego_start if ego_start is not None else scenario.ego_log[t_start]
    ego = _lqr_track_batch(plans, start, horizon, dt, ctx)

    ordered = sorted(scenario.agents, key=lambda a: a.id)
    current = {}
    for a in ordered:
        init = agent_init.get(a.id) if agent_init else None
        current[a.id] = StateBatch.full(init if init is not None else a.states[t_start], rows)
    tracks = {a.id: [current[a.id]] for a in ordered}
    lanes = scenario.map.lanes
    for k in range(horizon):
        scene = {"ego": (ego.at(k), ctx.ego_length)}
        for a in ordered:
            scene[a.id] = (current[a.id], a.length)
        current = {
            a.id: current[a.id]
            if a.kind == "static"
            else _agent_step_batch(a.id, a.length, scene, lanes, dt, ctx)
            for a in ordered
        }
        for aid, st in current.items():
            tracks[aid].append(st)

    return SceneBatch(
        dt=dt,
        t_start=t_start,
        t_end=t_start + horizon,
        ego=ego,
        agents={aid: StateBatch.stack(frames) for aid, frames in tracks.items()},
    )


# ---------------------------------------------------------------------------
# Scoring


def _no_collision(
    scene: SceneBatch, scenario: Scenario, ctx: SimContext, ego_boxes, agent_boxes
) -> np.ndarray:
    """NC per row: the first overlap decides, and `check_collision` judges its fault."""
    nc = np.ones(scene.ego.x.shape[0])
    hits = np.stack(
        [boxes_overlap_many(ego_boxes, agent_boxes[aid]) for aid in scene.agents], axis=-1
    )
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    static_ids = {a.id for a in scenario.agents if a.kind == "static"}

    def box(track: StateBatch, p: int, k: int, extent) -> list[OrientedBox]:
        return [OrientedBox(*track.data[:3, p, k].tolist(), *extent)]

    ego = scene.ego
    for p in np.flatnonzero(hits.any(axis=(1, 2))).tolist():
        k = int(np.argmax(hits[p].any(axis=1)))
        # the scalar check on frame k alone finds the same first agent and rules on it
        event = check_collision(
            box(ego, p, k, ctx.ego_extent),
            {aid: box(t, p, k, extents[aid]) for aid, t in scene.agents.items()},
            ego_speeds=[float(ego.v[p, k])],
            static_ids=static_ids,
            moving_speed=ctx.thresholds.moving_speed,
        )
        if event.at_fault:
            nc[p] = 0.0
    return nc


def _traffic_light_compliance(scene: SceneBatch, scenario: Scenario) -> np.ndarray:
    """TLC per row: 0 when the ego crosses a stop line while its light is red."""
    ego = scene.ego
    tlc = np.ones(ego.x.shape[0])
    for light in scenario.map.traffic_lights:
        red = [
            k
            for k in range(ego.x.shape[1] - 1)
            if light.state_at((scene.t_start + k) * scene.dt) == "red"
        ]
        if not red:
            continue
        after = [k + 1 for k in red]
        crossed = segments_intersect_many(
            ego.x[:, red], ego.y[:, red], ego.x[:, after], ego.y[:, after], *light.stop_line
        )
        tlc[crossed.any(axis=1)] = 0.0
    return tlc


def _progress(scene: SceneBatch, scenario: Scenario, ctx: SimContext) -> np.ndarray:
    """EP per row: route progress over the logged human progress of the window."""
    ego, th = scene.ego, ctx.thresholds
    ops = polyline_ops(scenario.map.route)
    s0, _, _ = ops.project_many(ego.x[:, 0], ego.y[:, 0])
    s1, _, _ = ops.project_many(ego.x[:, -1], ego.y[:, -1])
    log_a, log_b = scenario.ego_log[scene.t_start], scenario.ego_log[scene.t_end]
    reference = _route_progress(scenario, log_a.pose.x, log_a.pose.y, log_b.pose.x, log_b.pose.y)
    if reference < th.ep_min_reference:
        return np.ones(ego.x.shape[0])
    ratio = _floor0(_floor0(s1 - s0) / reference)
    return np.where(ratio < 1.0, ratio, 1.0)


def _swept(states: StateBatch, boxes: BoxArrays, vx, vy, cells, taus: np.ndarray) -> BoxArrays:
    """The boxes at `cells` ((rows, frame) indices) moved at velocity
    (vx, vy) for each time in `taus`: shape (rows, taus)."""
    return BoxArrays(
        states.x[cells][:, None] + vx[cells][:, None] * taus,
        states.y[cells][:, None] + vy[cells][:, None] * taus,
        boxes.cos[cells][:, None],
        boxes.sin[cells][:, None],
        boxes.cos90[cells][:, None],
        boxes.sin90[cells][:, None],
        boxes.length,
        boxes.width,
    )


def _time_to_collision(
    scene: SceneBatch, scenario: Scenario, ctx: SimContext, ego_boxes, agent_boxes
) -> np.ndarray:
    """`metrics.time_to_collision` per row, frame by frame in the scalar order,
    since its quick reject reads the running minimum."""
    th, ego, dt = ctx.thresholds, scene.ego, scene.dt
    horizon = th.ttc_horizon
    taus = np.arange(int(round(horizon / dt)) + 1) * dt
    best = np.full(ego.x.shape[0], math.inf)
    evx = ego_boxes.cos * ego.v - ego_boxes.sin * ego.v_lat
    evy = ego_boxes.sin * ego.v + ego_boxes.cos * ego.v_lat
    moving = ego.v > th.ttc_min_ego_speed
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    others = []
    for aid, t in scene.agents.items():
        b = agent_boxes[aid]
        radii = 0.5 * math.hypot(*ctx.ego_extent) + 0.5 * math.hypot(*extents[aid])
        others.append((t, b, b.cos * t.v - b.sin * t.v_lat, b.sin * t.v + b.cos * t.v_lat, radii))

    for k in range(ego.x.shape[1]):
        if not moving[:, k].any():
            continue
        for t, b, avx, avy, radii in others:
            rvx, rvy = evx[:, k] - avx[:, k], evy[:, k] - avy[:, k]
            dist = per_element(math.hypot, t.x[:, k] - ego.x[:, k], t.y[:, k] - ego.y[:, k])
            reach = per_element(math.hypot, rvx, rvy) * np.where(best < horizon, best, horizon)
            rows = np.flatnonzero(moving[:, k] & ~(dist - reach > radii))
            if not rows.size:
                continue
            hit = boxes_overlap_many(
                _swept(ego, ego_boxes, evx, evy, (rows, k), taus),
                _swept(t, b, avx, avy, (rows, k), taus),
            )
            hit &= taus < best[rows][:, None]
            first = np.argmax(hit, axis=1)
            has = hit.any(axis=1)
            best[rows[has]] = taus[first[has]]
    return best


def _history_comfort(ego: StateBatch, dt: float, ctx: SimContext) -> np.ndarray:
    """HC per row: accel, jerk, yaw rate and yaw acceleration within bounds."""
    th = ctx.thresholds
    accel = (ego.v[:, 1:] - ego.v[:, :-1]) / dt
    jerk = (accel[:, 1:] - accel[:, :-1]) / dt
    yaw_rate = wrap_angle_many(ego.theta[:, 1:] - ego.theta[:, :-1]) / dt
    yaw_accel = (yaw_rate[:, 1:] - yaw_rate[:, :-1]) / dt
    ok = (
        np.all(np.abs(accel) <= th.hc_accel_max, axis=1)
        & np.all(np.abs(jerk) <= th.hc_jerk_max, axis=1)
        & np.all(np.abs(yaw_rate) <= th.hc_yaw_rate_max, axis=1)
        & np.all(np.abs(yaw_accel) <= th.hc_yaw_accel_max, axis=1)
    )
    return np.where(ok, 1.0, 0.0)


def submetrics_batch(scene: SceneBatch, scenario: Scenario, ctx: SimContext) -> np.ndarray:
    """(P, 9) sub-metrics in `metrics.ALL_METRICS` order, one row per plan.

    Each row equals `compute_submetrics(states, scenario, executed, ctx)` of
    that row's `SceneStates`, with comfort judged on the simulated window
    itself (`executed`) and no stage-1 features, so extended comfort is 1.
    """
    ego, th = scene.ego, ctx.thresholds
    rows = ego.x.shape[0]
    if scene.agents:
        ego_boxes = BoxArrays.of(ego.x, ego.y, ego.theta, *ctx.ego_extent)
        extents = {a.id: (a.length, a.width) for a in scenario.agents}
        agent_boxes = {
            aid: BoxArrays.of(t.x, t.y, t.theta, *extents[aid]) for aid, t in scene.agents.items()
        }
        nc = _no_collision(scene, scenario, ctx, ego_boxes, agent_boxes)
        min_ttc = _time_to_collision(scene, scenario, ctx, ego_boxes, agent_boxes)
    else:
        nc, min_ttc = np.ones(rows), np.full(rows, math.inf)
    ddc, lk = lane_compliance(ego.x, ego.y, ego.theta, scenario, th, scene.dt)
    return np.stack(
        [
            nc,
            drivable_area_compliance(ego.x, ego.y, ego.theta, scenario, ctx),
            ddc,
            _traffic_light_compliance(scene, scenario),
            _progress(scene, scenario, ctx),
            np.where(min_ttc >= th.ttc_min, 1.0, 0.0),
            lk,
            _history_comfort(ego, scene.dt, ctx),
            np.ones(rows),
        ],
        axis=1,
    )
