"""Lockstep batched simulation of many ego plans in one scene.

`rollout_batch` steps P ego reference plans together as (P, ·) numpy arrays:
LQR tracking of the ego and, for each agent, lane assignment, projection,
leader choice, IDM and pure pursuit, vectorized over the P rows;
`metrics.submetrics_batch` scores the resulting scene. It is the package's
one simulation engine: `reactive.rollout` and `control.lqr_track` run one
row through it. The ego is tracked in one place, `_lqr_track_batch`, whose
gains come from one batched solve per call; `rollout_agents` steps the
agents against an ego already tracked, so the screen tracks each plan once.

Each row comes out as if simulated alone, bit for bit, whichever rows share
its call: elementary arithmetic runs in numpy in a fixed per-row order,
comparisons and clamps keep Python's tie and signed-zero behaviour, angles
wrap through the exact `geometry.wrap_angle_many`, and transcendental
functions and powers run per element through `math` and Python's `pow`
(`geometry.per_element`). The tests check every row against the scalar
oracles of `tests/oracle.py` (`oracle_rollout`, `oracle_lqr_track`,
`oracle_select_leader`, `oracle_idm_accel`).
"""

from __future__ import annotations

import math
import sys
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
from .errors import ConfigError, RolloutError
from .geometry import per_element, wrap_angle, wrap_angle_many
from .reactive import (
    LEADER_LOOKAHEAD,
    MODE_NONREACTIVE,
    MODE_REACTIVE,
    PURE_PURSUIT_LOOKAHEAD,
    SceneBatch,
    StateBatch,
    assign_lanes,
    check_window,
    idm_accel,
    lane_centerline_ops,
)
from .scenario import Lane, Scenario, VehicleState

if TYPE_CHECKING:  # metrics scores what this module simulates; neither imports the other
    from .metrics import SimContext


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """lo if v < lo, else hi if v > hi, else v, per element."""
    return np.where(v < lo, lo, np.where(v > hi, hi, v))


def _bound(v: np.ndarray, limit: float) -> np.ndarray:
    """max(-limit, min(limit, v)) with Python's choice among equal values."""
    low = np.where(v < limit, v, limit)
    return np.where(low > -limit, low, -limit)


def _floor0(v: np.ndarray) -> np.ndarray:
    """max(0.0, v): 0.0 unless v > 0.0."""
    return np.where(v > 0.0, v, 0.0)


def _advance(
    s: StateBatch, accel: np.ndarray, delta: np.ndarray, dt: float, wheelbase: float,
    steering: np.ndarray, out: np.ndarray | None = None,
) -> StateBatch:
    """Forward-Euler kinematic bicycle step: yaw from steering angle `delta`;
    the new state's steering is `steering`. Written into the (7, P) `out` if given."""
    cos, sin = per_element(math.cos, s.theta), per_element(math.sin, s.theta)
    tan = per_element(math.tan, delta)
    step = dt * s.v
    v = _floor0(s.v + dt * accel)
    out = np.empty_like(s.data) if out is None else out
    out[0] = s.x + step * cos
    out[1] = s.y + step * sin
    out[2] = wrap_angle_many(s.theta + step * tan / wheelbase)
    out[5] = (v - s.v) / dt
    out[3], out[4], out[6] = v, 0.0, steering
    return StateBatch(out)


def _bicycle_step(
    s: StateBatch, accel: np.ndarray, steer_rate: np.ndarray, dt: float, lim: VehicleLimits,
    out: np.ndarray | None = None,
) -> StateBatch:
    """The kinematic bicycle step of every row, the package's only one: the
    commands (accel, steer rate) and the steering are clamped to `lim`, never
    rejected, then one `_advance`; speed never goes negative."""
    accel = _clamp(accel, -lim.accel_max, lim.accel_max)
    steer_rate = _clamp(steer_rate, -lim.steer_rate_max, lim.steer_rate_max)
    delta = _clamp(s.steering, -lim.steer_max, lim.steer_max)
    new_delta = _clamp(delta + dt * steer_rate, -lim.steer_max, lim.steer_max)
    return _advance(s, accel, delta, dt, lim.wheelbase, new_delta, out)


MAX_DT = 1.0  # s, the longest step the synthesized tracks are integrated with


def two_phase_tracks(v0, accel, d1, d2, switch, horizon: int, dt: float) -> StateBatch:
    """(7, P, horizon + 1) tracks of the default bicycle, one row per entry of
    the P-long arrays: each starts at the origin heading +x at speed `v0`,
    holds `accel`, and steers toward `d1` before step `switch` and toward
    `d2` from it, at most 0.4 rad/s. The corpus egos and the vocabulary
    maneuvers both come from here, so their dt rule is checked here."""
    if not sys.float_info.min <= dt <= MAX_DT:
        raise ConfigError(f"dt must lie in (0, {MAX_DT}] s and not be subnormal, got {dt}")
    limits = VehicleLimits()
    track = np.zeros((7, len(v0), horizon + 1))
    track[3, :, 0] = v0
    for k in range(horizon):
        cur = StateBatch(track[:, :, k])
        rate = _bound((np.where(k < switch, d1, d2) - cur.steering) / dt, 0.4)
        _bicycle_step(cur, accel, rate, dt, limits, track[:, :, k + 1])
    return StateBatch(track)


# ---------------------------------------------------------------------------
# Rollout

_SPEED_STEERING = [3, 6]  # rows of vel_lon and steering in StateBatch.data


def _lqr_track_batch(
    ref: StateBatch, start: StateBatch, horizon: int, dt: float, lqr: LqrParams, lim: VehicleLimits
) -> StateBatch:
    """LQR tracking of every reference row from its row of `start` over
    `horizon` steps, (7, P, horizon + 1): the model and the verbatim-step
    rule of `control.lqr_track`.

    What depends on the reference alone is done once, before the steps: the
    feedforward, the heading rotation, the gain keys (reference speed and
    steering rounded to the gain grid, half to even as Python's round) and
    the gains of all of them from one `control._tracking_gain` call. Each
    step writes its states into one preallocated track.
    """
    now, nxt = ref.data[:, :, :horizon], ref.data[:, :, 1 : horizon + 1]
    cos_neg, sin_neg = per_element(math.cos, -now[2]), per_element(math.sin, -now[2])
    feedforward = (nxt[_SPEED_STEERING] - now[_SPEED_STEERING]) / dt
    grid = np.array([GAIN_V_STEP, GAIN_DELTA_STEP])[:, None, None]
    keys = np.round(now[_SPEED_STEERING] / grid) * grid
    K = _tracking_gain(
        *keys, dt, lim.wheelbase, lqr.state_weights, lqr.control_weights, lqr.horizon
    ).transpose(1, 3, 2, 0)  # (step, error, control, row)
    track = np.empty((7, ref.data.shape[1], horizon + 1))
    track[:, :, 0] = start.data
    for k in range(horizon):
        cur, rk = StateBatch(track[:, :, k]), now[:, :, k]
        e_lat = sin_neg[:, k] * (cur.x - rk[0]) + cos_neg[:, k] * (cur.y - rk[1])
        e_theta = wrap_angle_many(cur.theta - rk[2])
        e_v, e_delta = cur.data[_SPEED_STEERING] - rk[_SPEED_STEERING]
        # on the reference with zero error, its next state is taken verbatim
        verbatim = (cur.data[:3] == rk[:3]).all(axis=0)
        if verbatim.any():
            verbatim &= (
                (e_lat == 0.0) & (e_theta == 0.0) & (e_v == 0.0) & (e_delta == 0.0)
                & (np.abs(nxt[6, :, k]) <= lim.steer_max) & (nxt[3, :, k] >= 0.0)
            )
        Kk = K[k]
        fb = Kk[0] * e_lat + Kk[1] * e_theta + Kk[2] * e_v + Kk[3] * e_delta
        accel, steer_rate = feedforward[:, :, k] - fb
        _bicycle_step(cur, accel, steer_rate, dt, lim, track[:, :, k + 1])
        if verbatim.any():
            track[:, verbatim, k + 1] = nxt[:, verbatim, k]
    return StateBatch(track)


def _lane_groups(lane: np.ndarray) -> list[tuple[int, slice | np.ndarray]]:
    """(lane index, rows on it) for each lane that rows are assigned to."""
    if lane.size and (lane == lane[0]).all():
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
    out: np.ndarray,
) -> None:
    """One IDM + pure-pursuit step of a vehicle agent in every row, written
    into the (7, P) `out`."""
    st = scene[agent_id][0]
    lane = assign_lanes(st.x, st.y, lanes)
    s_self, found, v_lead, gap = select_leaders(agent_id, scene, lanes, lane)
    accel = idm_accel(st.v, (v_lead, np.where(found, gap, math.inf)), ctx.idm, ctx.b_hard)

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
    _advance(st, accel, steering, dt, wheelbase, steering, out)


def _per_row(state: VehicleState | StateBatch, rows: int) -> StateBatch:
    return state if isinstance(state, StateBatch) else StateBatch.full(state, rows)


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
    [t_start, t_start + horizon] in the world of `ctx`: the ego tracks each
    plan, then `rollout_agents` steps the agents against that track (the ego
    tracks its plan whatever the agents do). A start state (`ego_start`, each
    `agent_init` entry) is one state for every row or a (7, P) batch.
    """
    check_window(scenario, t_start, horizon)
    start = ego_start if ego_start is not None else scenario.ego_log[t_start]
    ego = _lqr_track_batch(
        plans, _per_row(start, plans.x.shape[0]), horizon, scenario.dt, ctx.lqr, ctx.limits
    )
    return rollout_agents(scenario, ego, t_start, ctx, agent_init, mode)


def rollout_agents(
    scenario: Scenario,
    ego: StateBatch,
    t_start: int,
    ctx: SimContext,
    agent_init: Mapping[str, VehicleState | StateBatch] | None = None,
    mode: str = MODE_REACTIVE,
) -> SceneBatch:
    """The scene of P ego rows already tracked, (7, P, H + 1), over the frame
    window [t_start, t_start + H]: in reactive mode agents update
    synchronously from the previous frame, in ascending id order; in
    non-reactive mode they replay the log and `agent_init` is ignored.
    """
    if mode not in (MODE_REACTIVE, MODE_NONREACTIVE):
        raise RolloutError(f"unknown batched rollout mode '{mode}'")
    rows, horizon = ego.x.shape[0], ego.x.shape[1] - 1
    check_window(scenario, t_start, horizon)
    dt = scenario.dt
    t_end = t_start + horizon

    ordered = sorted(scenario.agents, key=lambda a: a.id)
    if mode == MODE_NONREACTIVE:
        agents = {
            a.id: StateBatch(np.broadcast_to(
                StateBatch.track(a.states[t_start : t_end + 1]).data, (7, rows, horizon + 1)
            ))
            for a in ordered
        }
        return SceneBatch(dt=dt, t_start=t_start, t_end=t_end, ego=ego, agents=agents)

    tracks = {a.id: np.empty((7, rows, horizon + 1)) for a in ordered}
    for a in ordered:
        init = agent_init.get(a.id) if agent_init else None
        tracks[a.id][:, :, 0] = _per_row(a.states[t_start] if init is None else init, rows).data
    lanes = scenario.map.lanes
    for k in range(horizon):
        scene = {"ego": (ego.at(k), ctx.ego_length)}
        scene.update((a.id, (StateBatch(tracks[a.id][:, :, k]), a.length)) for a in ordered)
        for a in ordered:  # every agent steps from frame k into frame k + 1
            if a.kind == "static":
                tracks[a.id][:, :, k + 1] = tracks[a.id][:, :, k]
            else:
                _agent_step_batch(a.id, a.length, scene, lanes, dt, ctx, tracks[a.id][:, :, k + 1])
    agents = {aid: StateBatch(track) for aid, track in tracks.items()}
    return SceneBatch(dt=dt, t_start=t_start, t_end=t_end, ego=ego, agents=agents)
