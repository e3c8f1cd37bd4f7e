"""Scalar references: the test oracles of the simulation kernels in
`drivegen.batch` (`rollout_batch`, `_lqr_track_batch`, `select_leaders`,
through which `reactive.rollout` and `control.lqr_track` run one row), of
`metrics.submetrics_batch`, of the batched feasibility screen
(`vocab.feasibility_filter_batch`) and of the vocabulary build
(`vocab.synthesize_maneuvers`, `vocab.build_vocabulary`).

The simulation runs on Python floats, one vehicle and one frame at a time:
`oracle_lqr_track` tracks with `control.bicycle_step`, agents find their lane
and leader with the scalar `PolylineOps.project` and step with the scalar
kinematics of `_agent_step`.

Each sub-metric is computed on Python floats, frame by frame: NC searches per-frame
`OrientedBox` pairs for the first contact, TLC loops over frame pairs, EP
projects with the scalar `PolylineOps.project`, TTC sweeps every frame with a
running-minimum quick reject, and HC reads the scalar comfort profile. DAC,
DDC/LK, the fault ruling and EC reuse the package's own functions, which have
no second implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

from drivegen.control import (
    DEFAULT_STEER_MAX,
    GAIN_DELTA_STEP,
    GAIN_V_STEP,
    ControlInput,
    LqrParams,
    VehicleLimits,
    _tracking_gain,
    bicycle_step,
)
from drivegen.errors import RolloutError, ValidationError
from drivegen.geometry import (
    OrientedBox,
    angle_diff,
    boxes_overlap,
    global_to_local,
    polyline_ops,
    segments_intersect,
    wrap_angle,
)
from drivegen.metrics import (
    SimContext,
    SubMetricVector,
    _extended_comfort,
    aggregate_epdms,
    check_collision,
    comfort_profile,
    compute_submetrics,
    drivable_area_compliance,
    lane_compliance,
)
from drivegen.reactive import (
    LEADER_LOOKAHEAD,
    MODE_LOG_REPLAY_EGO,
    MODE_NONREACTIVE,
    MODES,
    PURE_PURSUIT_LOOKAHEAD,
    SceneStates,
    idm_accel,
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
from drivegen.vocab import (
    STATUS_CLEARED_NONREACTIVE,
    STATUS_CLEARED_REACTIVE,
    STATUS_INFEASIBLE_NONREACTIVE,
    STATUS_INFEASIBLE_REACTIVE,
    STATUS_PENDING,
    place_at_state,
)


# ---------------------------------------------------------------------------
# Scalar geometry


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

        K = _tracking_gain(
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
                accel = idm_accel(st.vel_lon, leader, ctx.idm, ctx.b_hard)

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


def oracle_submetrics(states, scenario, ego_traj, ctx=None, stage1_features=None):
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
    event = check_collision(
        ego_boxes,
        agent_boxes,
        ego_speeds=[s.vel_lon for s in states.ego],
        static_ids=static_ids,
        moving_speed=th.moving_speed,
    )
    nc = 0.0 if (event is not None and event.at_fault) else 1.0

    xs, ys, thetas = pose_arrays(states.ego)
    dac = float(drivable_area_compliance(xs, ys, thetas, scenario, ctx))

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
    ec = _extended_comfort(stage1_features, ego_traj, th)

    return SubMetricVector(nc=nc, dac=dac, ddc=ddc, tlc=tlc, ep=ep, ttc=ttc, lk=lk, hc=hc, ec=ec)


def oracle_feasibility_filter(cand, scenario, mode, epdms_min, ctx=None):
    """`vocab.feasibility_filter` one candidate at a time: `oracle_rollout`,
    a frame-by-frame any-contact search over `OrientedBox` pairs, then DAC
    and `compute_submetrics` on the logged history plus the window."""
    if mode == "nonreactive":
        if cand.status != STATUS_PENDING:
            raise ValidationError(f"non-reactive check requires a pending candidate, got {cand.status}")
        new_status, fail_status = STATUS_CLEARED_NONREACTIVE, STATUS_INFEASIBLE_NONREACTIVE
    elif mode == "reactive":
        if cand.status != STATUS_CLEARED_NONREACTIVE:
            raise ValidationError(
                f"reactive check requires a non-reactively cleared candidate, got {cand.status}"
            )
        new_status, fail_status = STATUS_CLEARED_REACTIVE, STATUS_INFEASIBLE_REACTIVE
    else:
        raise ValidationError(f"unknown feasibility mode '{mode}'")

    ctx = ctx or SimContext()
    anchor = scenario.anchor_frame
    if cand.trajectory is None:
        cand = replace(cand, trajectory=place_at_state(cand.entry, scenario.ego_log[anchor]))
    states = oracle_rollout(
        scenario, cand.trajectory, anchor, scenario.t_horizon, mode=mode, ctx=ctx
    )
    failed = replace(cand, status=fail_status, screen_states=None, screen_submetrics=None)

    # any contact at all is infeasible here, at fault or not
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    ego_boxes = [OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *ctx.ego_extent) for s in states.ego]
    agent_boxes = {
        aid: [OrientedBox(s.pose.x, s.pose.y, s.pose.theta, *extents[aid]) for s in track]
        for aid, track in states.agents.items()
    }
    if check_collision(ego_boxes, agent_boxes) is not None:
        return replace(failed, reason="collision")
    if drivable_area_compliance(*pose_arrays(states.ego), scenario, ctx) == 0.0:
        return replace(failed, reason="off-road")

    history = scenario.ego_log.segment(0, anchor)
    combined = Trajectory(
        dt=scenario.dt, states=history.states + states.ego[1:], frame=FRAME_GLOBAL
    )
    sub = compute_submetrics(states, scenario, combined, ctx)
    if aggregate_epdms(sub, ctx.weights) < epdms_min:
        return replace(failed, reason="reward")
    return replace(
        cand, status=new_status, reason="", screen_states=states, screen_submetrics=sub
    )


def oracle_synthesize_maneuvers(count, horizon, dt, seed, speed_range=(4.0, 14.0)):
    """`vocab.synthesize_maneuvers` one maneuver at a time: scalar `bicycle_step`
    on `VehicleState`s, returning a list of trajectories."""
    rng = random.Random(mix64(seed, "maneuvers", count, horizon))
    limits = VehicleLimits()
    out = []
    for _ in range(count):
        v0 = rng.uniform(*speed_range)
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
