"""Scalar references: the test oracles of the simulation kernels in
`drivegen.batch` (`rollout_batch`, `_lqr_track_batch`, `select_leaders`,
through which `reactive.rollout` and `control.lqr_track` run one row), of
`metrics.submetrics_batch` and its aggregate (`metrics._epdms_rows`), of
the feasibility screen's verdicts (`vocab.screen_verdicts`), of the
whole-array perturbation passes (`vocab.enumerate_perturbations`,
`GridSpec.cells`, `vocab.place_tracks`), of the camera poses
(`pipeline.sensor_stub`), of the expert stage's array passes
(`expert.recovery_targets`, `expert.kinematic_limit_violation`) and of the
vocabulary build (`vocab.synthesize_maneuvers`, `vocab.build_vocabulary`).

A simulated window is a one-row `SceneBatch` in the package. The oracles
hold it as `SceneStates`, tuples of `VehicleState` per vehicle: the record
`oracle_rollout` returns and the scalar scorers read. `SceneStates.of`
turns a scene row into one, and `SceneStates.batch` turns one back into
the package's one-row scene.

The simulation runs on Python floats, one vehicle and one frame at a time:
`oracle_lqr_track` tracks with `control.bicycle_step` and the gain of each
step's key solved alone (`oracle_tracking_gain`, the reference of the batched
gain table `control._tracking_gain`), agents find their lane
and leader with the scalar `PolylineOps.project`, accelerate by the scalar
IDM `oracle_idm_accel` and step with the scalar kinematics of `_agent_step`.

Each sub-metric is computed on Python floats, frame by frame: NC searches per-frame
`OrientedBox` pairs for the first contact and rules on its fault with its own
scalar contact point (`oracle_check_collision`), TLC loops over frame pairs,
EP projects with the scalar `PolylineOps.project`, TTC sweeps every frame with
a running-minimum quick reject, HC reads the finite differences of
`comfort_profile` and DAC tests each footprint corner with
`point_in_polygon`, stopping at the first outside every drivable polygon.
DDC/LK reuse the package's own `lane_compliance`, which has no second
implementation; EC is 1, as in the kernel.

The scalar geometry lives here too: the frame changes `angle_diff` and
`global_to_local`, which only the references and tests use,
`segments_intersect`, `point_in_polygon`, `oracle_polygon_is_simple`, the
`corners` of an `OrientedBox`, the
separating-axis `boxes_overlap` and the fault ruling's `contact_point`, the
references of `geometry.segments_intersect_many`, `geometry.polygon_is_simple`,
`geometry.points_in_any_polygon`, `geometry.boxes_overlap_many` and
`metrics._contact_lon`.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from drivegen.control import (
    DEFAULT_STEER_MAX,
    GAIN_DELTA_STEP,
    GAIN_V_STEP,
    ControlInput,
    LqrParams,
    VehicleLimits,
    bicycle_step,
)
from drivegen.errors import RolloutError
from drivegen.geometry import (
    OrientedBox,
    local_to_global,
    polyline_ops,
    rotate,
    wrap_angle,
)
from drivegen.metrics import (
    CollisionEvent,
    SimContext,
    SubMetricVector,
    compute_submetrics,
    lane_compliance,
)
from drivegen.reactive import (
    LEADER_LOOKAHEAD,
    MODE_LOG_REPLAY_EGO,
    MODE_NONREACTIVE,
    MODES,
    PURE_PURSUIT_LOOKAHEAD,
    SceneBatch,
    StateBatch,
    lane_centerline_ops,
)
from drivegen.scenario import (
    DEFAULT_EGO_LENGTH,
    DEFAULT_EGO_WIDTH,
    FRAME_EGO_LOCAL,
    FRAME_GLOBAL,
    Pose2D,
    Trajectory,
    VehicleState,
)
from drivegen.seeding import mix64
from drivegen.vocab import STATUS_PENDING


def angle_diff(a, b):
    """Wrapped difference a - b in (-pi, pi]."""
    return wrap_angle(a - b)


def global_to_local(px, py, ox, oy, otheta):
    """Express global point (px, py) in the frame at (ox, oy, otheta)."""
    return rotate(px - ox, py - oy, -otheta)


def comfort_profile(traj):
    """Finite-difference accel, jerk, yaw rate and yaw acceleration series."""
    dt = traj.dt
    vs = [s.vel_lon for s in traj.states]
    thetas = [s.pose.theta for s in traj.states]
    accel = [(vs[k + 1] - vs[k]) / dt for k in range(len(vs) - 1)]
    jerk = [(accel[k + 1] - accel[k]) / dt for k in range(len(accel) - 1)]
    yaw_rate = [angle_diff(thetas[k + 1], thetas[k]) / dt for k in range(len(thetas) - 1)]
    yaw_accel = [(yaw_rate[k + 1] - yaw_rate[k]) / dt for k in range(len(yaw_rate) - 1)]
    return accel, jerk, yaw_rate, yaw_accel


@dataclass(frozen=True, slots=True)
class SceneStates:
    """Per-frame states of the ego and every agent over a frame window, as
    `VehicleState` tuples: what `oracle_rollout` returns and the scalar
    scorers read. `of` reads one row of a `SceneBatch`; `batch` is the
    package's one-row scene of the window."""

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

    @classmethod
    def of(cls, scene: SceneBatch, row: int = 0) -> "SceneStates":
        """One row of a scene as states."""
        return cls(
            scene.dt, scene.t_start, scene.t_end, scene.ego.states(row),
            {aid: t.states(row) for aid, t in scene.agents.items()},
        )

    def batch(self) -> SceneBatch:
        """The one-row scene of this window, agents in its order."""
        return SceneBatch(
            self.dt, self.t_start, self.t_end, StateBatch.track(self.ego),
            {aid: StateBatch.track(track) for aid, track in self.agents.items()},
        )


# ---------------------------------------------------------------------------
# Scalar geometry


def segments_intersect(p1, p2, q1, q2):
    """True if closed segments [p1,p2] and [q1,q2] intersect (incl. touching)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def oracle_polygon_is_simple(polygon):
    """`geometry.polygon_is_simple` one pair of non-adjacent edges at a time."""
    n = len(polygon)
    if n < 3:
        return False
    for i in range(n):
        a1, a2 = polygon[i], polygon[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = polygon[j], polygon[(j + 1) % n]
            if segments_intersect(a1, a2, b1, b2):
                return False
    return True


def point_in_polygon(x, y, polygon):
    """Ray-casting containment test; boundary points count as inside. Edge i
    runs from vertex i to vertex i - 1."""
    n = len(polygon)
    inside = False
    for i in range(n):
        (xi, yi), (xj, yj) = polygon[i], polygon[i - 1]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) * (xj - xi) / (yj - yi)
            if x < x_cross:
                inside = not inside
    if inside:
        return True
    # boundary tolerance: distance to an edge below 1e-9 counts as inside
    for i in range(n):
        (xi, yi), (xj, yj) = polygon[i], polygon[i - 1]
        ex, ey = xj - xi, yj - yi
        L2 = ex * ex + ey * ey
        if L2 > 0.0:
            t = ((x - xi) * ex + (y - yi) * ey) / L2
            t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
            dx, dy = x - (xi + t * ex), y - (yi + t * ey)
            if dx * dx + dy * dy < 1e-18:
                return True
        elif (x - xi) ** 2 + (y - yi) ** 2 < 1e-18:
            return True
    return False


def corners(box):
    """FL, FR, RR, RL corners of an `OrientedBox` in global coordinates."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    hl, hw = 0.5 * box.length, 0.5 * box.width
    return (
        (box.x + c * hl - s * hw, box.y + s * hl + c * hw),
        (box.x + c * hl + s * hw, box.y + s * hl - c * hw),
        (box.x - c * hl + s * hw, box.y - s * hl - c * hw),
        (box.x - c * hl - s * hw, box.y - s * hl + c * hw),
    )


def boxes_overlap(a, b):
    """Separating-axis overlap test for two `OrientedBox`es.

    Touching boxes count as overlapping (non-strict interval comparison).
    """
    # cheap circle rejection first
    dx, dy = b.x - a.x, b.y - a.y
    ra = 0.5 * math.hypot(a.length, a.width)
    rb = 0.5 * math.hypot(b.length, b.width)
    if dx * dx + dy * dy > (ra + rb) * (ra + rb):
        return False

    ca = corners(a)
    cb = corners(b)
    for theta in (a.heading, a.heading + 0.5 * math.pi, b.heading, b.heading + 0.5 * math.pi):
        axx, axy = math.cos(theta), math.sin(theta)
        amin = amax = ca[0][0] * axx + ca[0][1] * axy
        for px, py in ca[1:]:
            p = px * axx + py * axy
            if p < amin:
                amin = p
            elif p > amax:
                amax = p
        bmin = bmax = cb[0][0] * axx + cb[0][1] * axy
        for px, py in cb[1:]:
            p = px * axx + py * axy
            if p < bmin:
                bmin = p
            elif p > bmax:
                bmax = p
        if amax < bmin or bmax < amin:
            return False
    return True


def contact_point(a, b):
    """Mean of the corners of either box that lie in the other, b's first,
    added one at a time; the midpoint of the centers when none does."""
    ca, cb = corners(a), corners(b)
    pts = [p for p in cb if point_in_polygon(*p, ca)] + [p for p in ca if point_in_polygon(*p, cb)]
    if not pts:
        return (0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    sx = sy = 0.0
    for px, py in pts:
        sx += px
        sy += py
    return (sx / len(pts), sy / len(pts))


def oracle_check_collision(
    ego_boxes, agent_boxes, ego_speeds=None, static_ids=frozenset(), moving_speed=0.1
):
    """`metrics.check_collision` one frame and one agent at a time.

    The first overlap found, frames in order and agents in id order, is
    ruled on: at fault when the ego is moving and the contact point falls
    ahead of its center, or when the struck entity is static.
    """
    for aid, boxes in agent_boxes.items():
        if len(boxes) != len(ego_boxes):
            raise ValueError(f"agent {aid}: frame count mismatch with ego")
    for k, ego in enumerate(ego_boxes):
        for aid in sorted(agent_boxes):
            other = agent_boxes[aid][k]
            if not boxes_overlap(ego, other):
                continue
            cx, cy = contact_point(ego, other)
            lon, _ = global_to_local(cx, cy, ego.x, ego.y, ego.heading)
            moving = (ego_speeds[k] if ego_speeds is not None else 0.0) > moving_speed
            at_fault = (moving and lon > 0.0) or (aid in static_ids)
            return CollisionEvent(frame=k, agent_id=aid, at_fault=at_fault)
    return None


def point_at(ops, s):
    """(x, y, heading) at arclength `s` along a `PolylineOps`, clamped to its ends."""
    if s <= 0.0:
        return float(ops.ax[0]), float(ops.ay[0]), float(ops.heading[0])
    i = int(np.searchsorted(ops.cum_s, s, side="right")) - 1
    if i >= len(ops.seg_len):
        i = len(ops.seg_len) - 1
    t = min(1.0, (s - ops.cum_s[i]) / max(ops.seg_len[i], 1e-300))
    return (
        float(ops.ax[i] + t * ops.ex[i]),
        float(ops.ay[i] + t * ops.ey[i]),
        float(ops.heading[i]),
    )


def project_to_polyline(x, y, points):
    """Project a point onto a polyline, one segment at a time.

    Returns (arclength s, signed lateral offset, tangent heading). Lateral is
    positive to the left of the direction of travel.
    """
    best = (math.inf, 0.0, 0.0, 0.0)  # (dist2, s, lat, heading)
    s_acc = 0.0
    for i in range(len(points) - 1):
        x1, y1 = points[i]
        x2, y2 = points[i + 1]
        ex, ey = x2 - x1, y2 - y1
        L = math.hypot(ex, ey)
        if L == 0.0:
            continue
        t = ((x - x1) * ex + (y - y1) * ey) / (L * L)
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
        px, py = x1 + t * ex, y1 + t * ey
        dx, dy = x - px, y - py
        d2 = dx * dx + dy * dy
        if d2 < best[0]:
            lat = (ex * dy - ey * dx) / L  # left-positive
            best = (d2, s_acc + t * L, lat, math.atan2(ey, ex))
        s_acc += L
    return best[1], best[2], best[3]


def pose_arrays(states):
    """(x, y, theta) arrays of a state sequence."""
    return (
        np.array([s.pose.x for s in states]),
        np.array([s.pose.y for s in states]),
        np.array([s.pose.theta for s in states]),
    )


# ---------------------------------------------------------------------------
# Scalar simulation


def tracking_error(state, ref):
    """Error state of `state` relative to `ref`, in the reference frame."""
    _, e_lat = global_to_local(
        state.pose.x, state.pose.y, ref.pose.x, ref.pose.y, ref.pose.theta
    )
    e_theta = angle_diff(state.pose.theta, ref.pose.theta)
    e_v = state.vel_lon - ref.vel_lon
    e_delta = state.steering - ref.steering
    return (e_lat, e_theta, e_v, e_delta)


def _quantize(value, step):
    return round(value / step) * step


def finite_horizon_gain(A, B, Q, R, horizon):
    """First-step gain of the finite-horizon backward Riccati recursion."""
    P = Q.copy()
    K = np.zeros((B.shape[1], A.shape[0]))
    for _ in range(horizon):
        BtPB = R + B.T @ P @ B
        K = np.linalg.solve(BtPB, B.T @ P @ A)
        P = Q + A.T @ P @ (A - B @ K)
    return K


@functools.lru_cache(maxsize=None)
def oracle_tracking_gain(v_ref, delta_ref, dt, wheelbase, state_weights, control_weights, horizon):
    """The (2, 4) feedback gain of one reference key, solved alone, as nested
    tuples: the reference of `control._tracking_gain`.

    Error state: (lateral offset, heading error, speed error, steering error);
    controls: (accel delta, steer-rate delta).
    """
    sec2 = 1.0 / (math.cos(delta_ref) ** 2)
    A = np.array(
        [
            [1.0, dt * v_ref, 0.0, 0.0],
            [0.0, 1.0, dt * math.tan(delta_ref) / wheelbase, dt * v_ref * sec2 / wheelbase],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array([[0.0, 0.0], [0.0, 0.0], [dt, 0.0], [0.0, dt]])
    Q = np.diag(state_weights).astype(float)
    R = np.diag(control_weights).astype(float)
    return tuple(map(tuple, finite_horizon_gain(A, B, Q, R, horizon).tolist()))


def oracle_lqr_track(reference, start, params=None, limits=None):
    """`control.lqr_track` one step at a time on `VehicleState`s.

    When the error state is exactly zero and the next reference state
    respects the actuator limits, that state is taken verbatim.
    """
    params = params or LqrParams()
    if len(reference) < 2:
        raise RolloutError("reference must contain at least 2 states")
    lim = limits or VehicleLimits()
    dt = reference.dt

    out = [start]
    cur = start
    for k in range(len(reference) - 1):
        ref_k = reference[k]
        ref_next = reference[k + 1]
        err = tracking_error(cur, ref_k)
        if (
            err == (0.0, 0.0, 0.0, 0.0)
            and cur.pose == ref_k.pose
            and abs(ref_next.steering) <= lim.steer_max
            and ref_next.vel_lon >= 0.0
        ):
            cur = ref_next
            out.append(cur)
            continue

        K = oracle_tracking_gain(
            _quantize(ref_k.vel_lon, GAIN_V_STEP),
            _quantize(ref_k.steering, GAIN_DELTA_STEP),
            dt,
            lim.wheelbase,
            params.state_weights,
            params.control_weights,
            params.horizon,
        )
        # feedforward from reference finite differences
        a_ff = (ref_next.vel_lon - ref_k.vel_lon) / dt
        sr_ff = (ref_next.steering - ref_k.steering) / dt
        a_fb = -(K[0][0] * err[0] + K[0][1] * err[1] + K[0][2] * err[2] + K[0][3] * err[3])
        sr_fb = -(K[1][0] * err[0] + K[1][1] * err[1] + K[1][2] * err[2] + K[1][3] * err[3])
        u = ControlInput(accel=a_ff + a_fb, steer_rate=sr_ff + sr_fb)
        cur = bicycle_step(cur, u, dt, lim)
        out.append(cur)

    return Trajectory(dt=dt, states=tuple(out), frame=reference.frame)


def assign_lane(x, y, map_model):
    """Index of the lane whose centerline is closest to (x, y), the first on ties."""
    best_i, best_d = 0, math.inf
    for i, lane in enumerate(map_model.lanes):
        d = polyline_ops(lane.polyline).min_dist2(x, y)
        if d < best_d:
            best_i, best_d = i, d
    return best_i


def lane_position(state, map_model):
    """Assigned lane, its centerline operator and the arclength along it."""
    lane = map_model.lanes[assign_lane(state.pose.x, state.pose.y, map_model)]
    ops = lane_centerline_ops(lane)
    s, _, _ = ops.project(state.pose.x, state.pose.y)
    return lane, ops, s


def oracle_select_leader(agent_id, scene, map_model, position=None):
    """Nearest entity ahead of an agent along its lane, one entity at a time.

    `scene` maps entity id (including "ego") to (state, body length), and
    `position` is the agent's `lane_position` when the caller already has it.
    Returns (leader speed, bumper-to-bumper gap) or None.
    """
    state, length = scene[agent_id]
    lane, ops, s_self = position or lane_position(state, map_model)

    best = None  # (ds, v, gap)
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


def _agent_step(state, accel, steering, dt, wheelbase):
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


def oracle_idm_accel(v, leader, p, b_hard):
    """`reactive.idm_accel` of one speed on Python floats, clamped to
    [-b_hard, a_max]; `leader` is (leader speed, bumper-to-bumper gap) or
    None on a free road."""
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


def oracle_rollout(
    scenario, ego_plan, t_start, horizon, mode="reactive", ctx=None, ego_start=None,
    agent_init=None,
):
    """`reactive.rollout` one vehicle and one frame at a time.

    The ego executes `ego_plan` through `oracle_lqr_track` (or replays the
    log in log-replay-ego mode). Agents replay their logged tracks in
    nonreactive and log-replay-ego modes, and run IDM + pure pursuit in
    reactive mode, updating synchronously from the previous frame in
    ascending id order.
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
    ctx = ctx or SimContext()
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
        ego_states = oracle_lqr_track(reference, start, ctx.lqr, ctx.limits).states

    # --- agents
    ordered = sorted(scenario.agents, key=lambda a: a.id)
    tracks = {}
    if mode in (MODE_NONREACTIVE, MODE_LOG_REPLAY_EGO):
        for a in ordered:
            tracks[a.id] = list(a.states[t_start : t_end + 1])
    else:
        current = {}
        for a in ordered:
            init = agent_init.get(a.id) if agent_init else None
            current[a.id] = init if init is not None else a.states[t_start]
            tracks[a.id] = [current[a.id]]

        for k in range(horizon):
            snapshot = {"ego": (ego_states[k], ctx.ego_length)}
            for a in ordered:
                snapshot[a.id] = (current[a.id], a.length)

            nxt = {}
            for a in ordered:
                st = current[a.id]
                if a.kind == "static":
                    nxt[a.id] = st
                    continue
                position = lane_position(st, scenario.map)
                leader = oracle_select_leader(a.id, snapshot, scenario.map, position)
                accel = oracle_idm_accel(st.vel_lon, leader, ctx.idm, ctx.b_hard)

                _, ops, s_self = position
                wheelbase = 0.6 * a.length
                tx, ty, _ = point_at(ops, s_self + PURE_PURSUIT_LOOKAHEAD)
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


# ---------------------------------------------------------------------------
# Scalar scoring and screen


def oracle_time_to_collision(
    states,
    ego_extent=(DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH),
    agent_extents=None,
    horizon=3.0,
    min_ego_speed=0.0,
):
    """Minimum constant-velocity projected time to collision over all frames.

    Entities are extrapolated at their instantaneous velocity for up to
    `horizon` seconds in steps of dt; the earliest projected overlap gives
    the per-frame TTC. Frames where the ego is at or below `min_ego_speed`
    are skipped. Returns +inf when no projected overlap exists.
    """
    if agent_extents is None:
        agent_extents = {}
    dt = states.dt
    steps = int(round(horizon / dt))
    best = math.inf

    for k in range(states.frame_count):
        ego = states.ego[k]
        if ego.vel_lon <= min_ego_speed:
            continue
        c, s = math.cos(ego.pose.theta), math.sin(ego.pose.theta)
        evx = c * ego.vel_lon - s * ego.vel_lat
        evy = s * ego.vel_lon + c * ego.vel_lat
        for aid, track in states.agents.items():
            ag = track[k]
            le, we = agent_extents.get(aid, (4.5, 1.9))
            ca, sa = math.cos(ag.pose.theta), math.sin(ag.pose.theta)
            avx = ca * ag.vel_lon - sa * ag.vel_lat
            avy = sa * ag.vel_lon + ca * ag.vel_lat
            rvx, rvy = evx - avx, evy - avy
            # quick reject: relative displacement can never close the gap
            dist = math.hypot(ag.pose.x - ego.pose.x, ag.pose.y - ego.pose.y)
            reach = math.hypot(rvx, rvy) * min(horizon, best if best < math.inf else horizon)
            radii = 0.5 * math.hypot(*ego_extent) + 0.5 * math.hypot(le, we)
            if dist - reach > radii:
                continue
            for j in range(steps + 1):
                tau = j * dt
                if tau >= best:
                    break
                eb = OrientedBox(
                    ego.pose.x + evx * tau, ego.pose.y + evy * tau, ego.pose.theta, *ego_extent
                )
                ab = OrientedBox(
                    ag.pose.x + avx * tau, ag.pose.y + avy * tau, ag.pose.theta, le, we
                )
                if boxes_overlap(eb, ab):
                    if tau < best:
                        best = tau
                    break
    return best


def _history_comfort(traj, th):
    accel, jerk, yaw_rate, yaw_accel = comfort_profile(traj)
    ok = (
        all(abs(a) <= th.hc_accel_max for a in accel)
        and all(abs(j) <= th.hc_jerk_max for j in jerk)
        and all(abs(r) <= th.hc_yaw_rate_max for r in yaw_rate)
        and all(abs(r) <= th.hc_yaw_accel_max for r in yaw_accel)
    )
    return 1.0 if ok else 0.0


def _route_progress(scenario, x0, y0, x1, y1):
    ops = polyline_ops(scenario.map.route)
    s0, _, _ = ops.project(x0, y0)
    s1, _, _ = ops.project(x1, y1)
    return max(0.0, s1 - s0)


def oracle_aggregate_epdms(s, w):
    """`metrics.aggregate_epdms` on Python floats: the penalty product times
    the weighted average of the graded group."""
    total = w.total()
    penalties = s.nc * s.dac * s.ddc * s.tlc
    avg = (
        w.w_ep * s.ep + w.w_ttc * s.ttc + w.w_lk * s.lk + w.w_hc * s.hc + w.w_ec * s.ec
    ) / total
    return penalties * avg


def oracle_drivable_area_compliance(ego_boxes, scenario):
    """`metrics.drivable_area_compliance` of one window's per-frame ego
    `OrientedBox`es, one corner at a time: 0.0 at the first `corners` that
    lie outside every drivable polygon by `point_in_polygon`, else 1.0."""
    for box in ego_boxes:
        for x, y in corners(box):
            if not any(point_in_polygon(x, y, poly) for poly in scenario.map.drivable_area):
                return 0.0
    return 1.0


def oracle_submetrics(states, scenario, ego_traj, ctx=None):
    """`metrics.compute_submetrics`, one frame and one Python float at a time."""
    ctx = ctx or SimContext()
    th = ctx.thresholds
    ego_extent = ctx.ego_extent
    n = states.frame_count
    if n < 2:
        raise ValueError("scored window must contain at least 2 frames")

    ego_boxes = [
        OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *ego_extent) for s in states.ego
    ]
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    agent_boxes = {
        aid: [OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *extents[aid]) for s in track]
        for aid, track in states.agents.items()
    }
    static_ids = {a.id for a in scenario.agents if a.kind == "static"}

    # NC
    event = oracle_check_collision(
        ego_boxes,
        agent_boxes,
        ego_speeds=[s.vel_lon for s in states.ego],
        static_ids=static_ids,
        moving_speed=th.moving_speed,
    )
    nc = 0.0 if (event is not None and event.at_fault) else 1.0

    dac = oracle_drivable_area_compliance(ego_boxes, scenario)
    xs, ys, thetas = pose_arrays(states.ego)

    ddc, lk = (float(v) for v in lane_compliance(xs, ys, thetas, scenario, th, states.dt))

    # TLC: crossing a stop line while its light is red
    tlc = 1.0
    for light in scenario.map.traffic_lights:
        for k in range(n - 1):
            a, b = states.ego[k], states.ego[k + 1]
            if segments_intersect(
                (a.pose.x, a.pose.y), (b.pose.x, b.pose.y), light.stop_line[0], light.stop_line[1]
            ):
                t_abs = (states.t_start + k) * states.dt
                if light.state_at(t_abs) == "red":
                    tlc = 0.0
        if tlc == 0.0:
            break

    # EP against the logged human progress over the same window
    progress = _route_progress(
        scenario,
        states.ego[0].pose.x,
        states.ego[0].pose.y,
        states.ego[-1].pose.x,
        states.ego[-1].pose.y,
    )
    log_a = scenario.ego_log[states.t_start]
    log_b = scenario.ego_log[states.t_end]
    reference = _route_progress(
        scenario, log_a.pose.x, log_a.pose.y, log_b.pose.x, log_b.pose.y
    )
    if reference < th.ep_min_reference:
        ep = 1.0
    else:
        ep = min(1.0, max(0.0, progress / reference))

    # TTC
    min_ttc = oracle_time_to_collision(
        states, ego_extent, extents, th.ttc_horizon, th.ttc_min_ego_speed
    )
    ttc = 1.0 if min_ttc >= th.ttc_min else 0.0

    hc = _history_comfort(ego_traj, th)

    return SubMetricVector(nc=nc, dac=dac, ddc=ddc, tlc=tlc, ep=ep, ttc=ttc, lk=lk, hc=hc, ec=1.0)


# ---------------------------------------------------------------------------
# Perturbation sampling, one entry at a time


def entry_trajectory(row, dt):
    """The ego-local trajectory of one (7, n) vocabulary bank row."""
    return Trajectory(dt=dt, states=StateBatch(row[:, None]).states(0), frame=FRAME_EGO_LOCAL)


def oracle_place_at_state(entry, anchor):
    """An ego-local entry rigidly moved to start at the anchor pose, one state
    at a time with Python floats."""
    a = anchor.pose
    states = []
    for st in entry.states:
        x, y = local_to_global(st.pose.x, st.pose.y, a.x, a.y, a.theta)
        pose = Pose2D(x, y, wrap_angle(st.pose.theta + a.theta))
        states.append(VehicleState(pose, st.vel_lon, st.vel_lat, st.accel, st.steering))
    return Trajectory(dt=entry.dt, states=tuple(states), frame=FRAME_GLOBAL)


def oracle_endpoint_offsets(end, anchor, logged_end):
    """(lon, lat, dtheta): an ego-local endpoint placed at the anchor, in the
    logged endpoint's frame (lon ahead, lat left)."""
    a, ref = anchor.pose, logged_end.pose
    x, y = local_to_global(end.pose.x, end.pose.y, a.x, a.y, a.theta)
    lon, lat = global_to_local(x, y, ref.x, ref.y, ref.theta)
    return (lon, lat, angle_diff(wrap_angle(end.pose.theta + a.theta), ref.theta))


def oracle_cell(grid, lon, lat):
    """The (i_lon, i_lat) endpoint cell of one offset under a `GridSpec`."""
    i_lon = math.floor(lon / grid.step_lon)
    shift = 0.5 * grid.step_lat if (grid.interleave and i_lon % 2 != 0) else 0.0
    return (i_lon, math.floor((lat - shift) / grid.step_lat))


def oracle_threshold_and_grid(scenario, ends, th, grid, seed):
    """(offsets, status, reason, cell) of each vocabulary entry, given the
    last state of each: thresholded by `oracle_endpoint_offsets`, then one
    seeded pick per occupied `oracle_cell` among the pending entries."""
    anchor = scenario.ego_log[scenario.anchor_frame]
    logged_end = scenario.ego_log[scenario.anchor_frame + scenario.t_horizon]
    out = []
    for end in ends:
        lon, lat, dtheta = oracle_endpoint_offsets(end, anchor, logged_end)
        status, reason = STATUS_PENDING, ""
        if abs(lon) > th.r_lon:
            status, reason = "threshold-rejected", "lon"
        elif abs(lat) > th.r_lat:
            status, reason = "threshold-rejected", "lat"
        elif abs(dtheta) > th.dtheta_max:
            status, reason = "threshold-rejected", "heading"
        out.append([(lon, lat, dtheta), status, reason, None])
    cells = {}
    for i, row in enumerate(out):
        if row[1] == STATUS_PENDING:
            row[3] = oracle_cell(grid, row[0][0], row[0][1])
            cells.setdefault(row[3], []).append(i)
    for cell, members in cells.items():
        keep = members[random.Random(mix64(seed, "grid-cell", *cell)).randrange(len(members))]
        for i in members:
            if i != keep:
                out[i][1:3] = ["grid-dropped", "grid"]
    return [tuple(row) for row in out]


def oracle_matching_vector(traj):
    """The matching vector of a trajectory's first and last states on Python
    floats: start velocity and the end pose in the start frame. A vocabulary
    entry's is its row of `expert._matching_matrix`; the two-state path from
    a perturbed start to the logged endpoint gives the start's row of
    `expert.recovery_targets`."""
    s0, end = traj.states[0], traj.states[-1]
    ex, ey = global_to_local(end.pose.x, end.pose.y, s0.pose.x, s0.pose.y, s0.pose.theta)
    return (s0.vel_lon, s0.vel_lat, 0.0, ex, ey, angle_diff(end.pose.theta, s0.pose.theta))


def oracle_kinematic_limit_violation(traj, limits):
    """`expert.kinematic_limit_violation` one step at a time: whether the
    trajectory breaks the curvature limit on a step of more than 5 cm, or
    the acceleration limit."""
    max_curv = limits.max_curvature() + 1e-9
    for a, b in zip(traj.states, traj.states[1:]):
        ds = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        if ds > 0.05 and abs(angle_diff(b.pose.theta, a.pose.theta)) / ds > max_curv:
            return True
        if abs((b.vel_lon - a.vel_lon) / traj.dt) > limits.accel_max + 1e-9:
            return True
    return False


def oracle_feasibility_filter(entry, scenario, mode, epdms_min, ctx=None):
    """`vocab.screen_verdicts` of one vocabulary bank row placed at the anchor
    and simulated in `mode`, one row at a time: `oracle_rollout`, a
    frame-by-frame any-contact search over `OrientedBox` pairs, then
    `oracle_drivable_area_compliance` and `compute_submetrics` on the logged
    history plus the window.

    Returns (reason, simulated window, sub-metrics): the reason is "" when
    the row clears, and the sub-metrics are None for a row rejected before
    scoring (collision or off-road)."""
    ctx = ctx or SimContext()
    anchor = scenario.anchor_frame
    plan = oracle_place_at_state(entry_trajectory(entry, scenario.dt), scenario.ego_log[anchor])
    states = oracle_rollout(scenario, plan, anchor, scenario.t_horizon, mode=mode, ctx=ctx)

    # any contact at all is infeasible here, at fault or not
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    ego_boxes = [OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *ctx.ego_extent) for s in states.ego]
    agent_boxes = {
        aid: [OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *extents[aid]) for s in track]
        for aid, track in states.agents.items()
    }
    if oracle_check_collision(ego_boxes, agent_boxes) is not None:
        return "collision", states, None
    if oracle_drivable_area_compliance(ego_boxes, scenario) == 0.0:
        return "off-road", states, None

    history = scenario.ego_log.segment(0, anchor)
    combined = Trajectory(
        dt=scenario.dt, states=history.states + states.ego[1:], frame=FRAME_GLOBAL
    )
    sub = compute_submetrics(states.batch(), scenario, combined, ctx)
    return ("reward" if oracle_aggregate_epdms(sub, ctx.weights) < epdms_min else ""), states, sub


def oracle_sensor_stub(ego, camera_rig):
    """`pipeline.sensor_stub` one pose at a time: each camera's (x, y, theta)
    poses along the ego states, by `local_to_global` and `wrap_angle`."""
    return [
        [
            [*local_to_global(cam.dx, cam.dy, s.pose.x, s.pose.y, s.pose.theta),
             wrap_angle(s.pose.theta + cam.dyaw)]
            for s in ego
        ]
        for cam in camera_rig
    ]


def oracle_synthesize_maneuvers(count, horizon, dt, seed):
    """`vocab.synthesize_maneuvers` one maneuver at a time: scalar `bicycle_step`
    on `VehicleState`s, returning a list of trajectories."""
    rng = random.Random(mix64(seed, "maneuvers", count, horizon))
    limits = VehicleLimits()
    out = []
    for _ in range(count):
        v0 = rng.uniform(4.0, 14.0)
        accel = 0.0 if rng.random() < 0.2 else rng.uniform(-1.2, 1.2)
        shape = rng.random()
        if shape < 0.15:  # straight
            d1 = d2 = 0.0
        elif shape < 0.5:  # mirrored S-curve, heading returns to ~0
            d1 = rng.uniform(-0.06, 0.06)
            d2 = -d1
        elif shape < 0.65:  # sustained arc
            d1 = rng.uniform(-0.05, 0.05)
            d2 = d1
        else:  # free two-phase arc
            d1 = rng.uniform(-0.06, 0.06)
            d2 = rng.uniform(-0.06, 0.06)
        switch = rng.randrange(horizon // 4, 3 * horizon // 4)
        cur = VehicleState(Pose2D(0.0, 0.0, 0.0), v0, 0.0, 0.0, 0.0)
        states = [cur]
        delta = 0.0
        for k in range(horizon):
            target = d1 if k < switch else d2
            rate = max(-0.4, min(0.4, (target - delta) / dt))
            cur = bicycle_step(cur, ControlInput(accel, rate), dt, limits)
            delta = cur.steering
            states.append(cur)
        out.append(Trajectory(dt=dt, states=tuple(states), frame=FRAME_EGO_LOCAL))
    return out


def oracle_flatten(traj):
    """One trajectory's x, then y, then unwrapped heading."""
    xs = [s.pose.x for s in traj.states]
    ys = [s.pose.y for s in traj.states]
    thetas = np.unwrap([s.pose.theta for s in traj.states])
    return np.concatenate([xs, ys, thetas])


def oracle_build_vocabulary(samples, k, seed):
    """`vocab.build_vocabulary` with a boolean mask per cluster in the center
    update and a full pass over the samples per center in the snap.

    Returns the snapped sample indices, the final centers and how many times
    an empty cluster was revived.
    """
    X = np.stack([oracle_flatten(t) for t in samples])
    rng = np.random.Generator(np.random.PCG64(mix64(seed, "kmeans", k)))
    centers = X[rng.choice(len(samples), size=k, replace=False)].copy()

    revives = 0
    assign = np.zeros(len(samples), dtype=np.int64)
    for _ in range(100):
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ centers.T)
            + np.sum(centers * centers, axis=1)[None, :]
        )
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            mask = new_assign == c
            if np.any(mask):
                centers[c] = X[mask].mean(axis=0)
            else:
                # revive an empty cluster with the sample farthest from its center
                far = int(np.argmax(d2[np.arange(len(samples)), new_assign]))
                centers[c] = X[far]
                new_assign[far] = c
                revives += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    nearest = [int(np.argmin(np.sum((X - center) ** 2, axis=1))) for center in centers]
    return nearest, centers, revives
