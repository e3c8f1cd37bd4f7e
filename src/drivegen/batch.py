"""Lockstep batched simulation of many ego plans in one scene.

`rollout_batch` steps P ego reference plans together as (P, ·) numpy arrays:
LQR tracking of the ego and, for each agent, lane assignment, projection,
leader choice, IDM and pure pursuit, vectorized over the P rows;
`metrics.submetrics_batch` scores the resulting scene. It is the package's
one simulation engine: `reactive.rollout` and `control.lqr_track` run one
row through it.

Each row comes out as if simulated alone, bit for bit, whichever rows share
its call: elementary arithmetic runs in numpy in a fixed per-row order,
comparisons and clamps keep Python's tie and signed-zero behaviour, angles
wrap through the exact `geometry.wrap_angle_many`, and transcendental
functions run per element through `math` (`geometry.per_element`). The
tests check every row against the scalar oracles of `tests/oracle.py`
(`oracle_rollout`, `oracle_lqr_track`, `oracle_select_leader`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .control import (
    DEFAULT_STEER_MAX,
    GAIN_DELTA_STEP,
    GAIN_V_STEP,
    LqrParams,
    VehicleLimits,
    _tracking_gain,
)
from .errors import RolloutError
from .geometry import per_element, wrap_angle, wrap_angle_many
from .reactive import (
    LEADER_LOOKAHEAD,
    MODE_NONREACTIVE,
    MODE_REACTIVE,
    PURE_PURSUIT_LOOKAHEAD,
    SceneBatch,
    StateBatch,
    assign_lanes,
    check_plan_dt,
    check_window,
    idm_accel,
    lane_centerline_ops,
)
from .scenario import FRAME_GLOBAL, Lane, Scenario, Trajectory, VehicleState

if TYPE_CHECKING:  # metrics scores what this module simulates; neither imports the other
    from .metrics import SimContext


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


def _bicycle_step(
    s: StateBatch, accel: np.ndarray, steer_rate: np.ndarray, dt: float, lim: VehicleLimits
) -> StateBatch:
    """`control.bicycle_step` of every row: commands and steering clamped to
    `lim`, then one `_advance`."""
    accel = _clamp(accel, -lim.accel_max, lim.accel_max)
    steer_rate = _clamp(steer_rate, -lim.steer_rate_max, lim.steer_rate_max)
    delta = _clamp(s.steering, -lim.steer_max, lim.steer_max)
    new_delta = _clamp(delta + dt * steer_rate, -lim.steer_max, lim.steer_max)
    return _advance(s, accel, delta, dt, lim.wheelbase, new_delta)


# ---------------------------------------------------------------------------
# Rollout

_SPEED_STEERING = [3, 6]  # rows of vel_lon and steering in StateBatch.data


def _lqr_track_batch(
    ref: StateBatch, start: StateBatch, horizon: int, dt: float, lqr: LqrParams, lim: VehicleLimits
) -> StateBatch:
    """LQR tracking of every reference row from its row of `start` over
    `horizon` steps, (7, P, horizon + 1): the model and the verbatim-step
    rule of `control.lqr_track`, gains from `control._tracking_gain`."""
    cos_neg = per_element(math.cos, -ref.theta[:, :horizon])
    sin_neg = per_element(math.sin, -ref.theta[:, :horizon])
    gain_steps = np.array([[GAIN_V_STEP], [GAIN_DELTA_STEP]])
    gain_rows: dict[tuple[float, float], int] = {}  # quantized (v, delta) -> row of `gains`
    gains = np.zeros((1, 4, 2))  # K transposed; row 0 serves verbatim steps, which ignore it
    cur = start
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

        # gain lookups keyed on the reference rounded to the gain grid, half to
        # even as Python's round (+ 0.0 turns -0.0 into 0.0)
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
        accel, steer_rate = (next_vs - ref_vs) / dt + feedback.T
        cur = _bicycle_step(cur, accel, steer_rate, dt, lim)
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
    """Nearest entity ahead of an agent along its lane, per row, for an agent
    on lane index `lane`.

    `scene` maps entity id (including "ego") to (per-frame states, body
    length). Returns the agent's arclength on its lane and (has leader,
    leader speed, bumper-to-bumper gap) arrays. Candidates must sit within
    half a lane width of the centerline and at most 100 m ahead; ties on
    distance break by ascending id. Overlapping bumpers give a 0.01 m gap,
    which forces hard braking.
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
    """One IDM + pure-pursuit step of a vehicle agent in every row."""
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


def plan_batch(plans: Sequence[Trajectory], scenario: Scenario, horizon: int) -> StateBatch:
    """(7, P, horizon + 1) references from P global-frame plans of at least
    horizon + 1 states at the scenario's dt."""
    for plan in plans:
        check_plan_dt(plan, scenario)
        if plan.frame != FRAME_GLOBAL:
            raise RolloutError(f"ego_plan is in frame '{plan.frame}', needs '{FRAME_GLOBAL}'")
        if len(plan) < horizon + 1:
            raise RolloutError(f"ego_plan has {len(plan)} states, needs at least {horizon + 1}")
    return StateBatch.tracks([plan.states[: horizon + 1] for plan in plans])


def rollout_batch(
    scenario: Scenario,
    plans: StateBatch,
    t_start: int,
    horizon: int,
    ctx: SimContext,
    ego_start: VehicleState | StateBatch | None = None,
    agent_init: Mapping[str, VehicleState | StateBatch] | None = None,
    mode: str = MODE_REACTIVE,
) -> SceneBatch:
    """Simulate every row of `plans` (global-frame references of at least
    horizon + 1 states at the scenario's dt) over the frame window
    [t_start, t_start + horizon] in the world of `ctx`.

    A start state (`ego_start`, each `agent_init` entry) is one state for
    every row or a (7, P) batch of one state per row. In reactive mode agents
    update synchronously from the previous frame, in ascending id order; in
    non-reactive mode they replay the log and `agent_init` is ignored.
    """
    if mode not in (MODE_REACTIVE, MODE_NONREACTIVE):
        raise RolloutError(f"unknown batched rollout mode '{mode}'")
    check_window(scenario, t_start, horizon)
    rows = plans.x.shape[0]
    dt = scenario.dt
    t_end = t_start + horizon

    def per_row(state: VehicleState | StateBatch) -> StateBatch:
        return state if isinstance(state, StateBatch) else StateBatch.full(state, rows)

    start = ego_start if ego_start is not None else scenario.ego_log[t_start]
    ego = _lqr_track_batch(plans, per_row(start), horizon, dt, ctx.lqr, ctx.limits)

    ordered = sorted(scenario.agents, key=lambda a: a.id)
    if mode == MODE_NONREACTIVE:
        agents = {
            a.id: StateBatch(np.broadcast_to(
                StateBatch.track(a.states[t_start : t_end + 1]).data, (7, rows, horizon + 1)
            ))
            for a in ordered
        }
        return SceneBatch(dt=dt, t_start=t_start, t_end=t_end, ego=ego, agents=agents)

    current = {}
    for a in ordered:
        init = agent_init.get(a.id) if agent_init else None
        current[a.id] = per_row(init if init is not None else a.states[t_start])
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
        t_end=t_end,
        ego=ego,
        agents={aid: StateBatch.stack(frames) for aid, frames in tracks.items()},
    )
