"""Scalar references: the test oracles of `metrics.submetrics_batch` and of
the batched feasibility screen (`vocab.feasibility_filter_batch`).

Each sub-metric is computed on Python floats, frame by frame: NC searches per-frame
`OrientedBox` pairs for the first contact, TLC loops over frame pairs, EP
projects with the scalar `PolylineOps.project`, TTC sweeps every frame with a
running-minimum quick reject, and HC reads the scalar comfort profile. DAC,
DDC/LK, the fault ruling and EC reuse the package's own functions, which have
no second implementation.
"""

from __future__ import annotations

import math

from dataclasses import replace

from drivegen.errors import ValidationError
from drivegen.geometry import OrientedBox, boxes_overlap, polyline_ops, segments_intersect
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
    pose_arrays,
)
from drivegen.reactive import rollout
from drivegen.scenario import DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH, FRAME_GLOBAL, Trajectory
from drivegen.vocab import (
    STATUS_CLEARED_NONREACTIVE,
    STATUS_CLEARED_REACTIVE,
    STATUS_INFEASIBLE_NONREACTIVE,
    STATUS_INFEASIBLE_REACTIVE,
    STATUS_PENDING,
    place_at_state,
)


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
    """`vocab.feasibility_filter` one candidate at a time: a scalar `rollout`,
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
    states = rollout(scenario, cand.trajectory, anchor, scenario.t_horizon, mode=mode, ctx=ctx)
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
