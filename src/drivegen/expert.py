"""Pseudo-expert demonstration generators and the expert-stage filter.

Two experts produce the demonstration that follows a perturbed state: a
recovery expert that retrieves the closest human-like maneuver ending at the
logged endpoint, and a privileged planner that scores a bank of
centerline-offset proposals in reactive simulation and returns the best one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .control import VehicleLimits
from .errors import RolloutError, ValidationError
from .geometry import (
    PolylineOps,
    _cached_ops,
    angle_diff,
    global_to_local,
    offset_polyline,
    polyline_ops,
)
from .metrics import (
    ALL_METRICS,
    PENALTY_METRICS,
    SimContext,
    aggregate_epdms,
    compute_submetrics,
)
from .reactive import IdmParams, SceneStates, idm_accel, rollout
from .scenario import FRAME_GLOBAL, Pose2D, Scenario, Trajectory, VehicleState
from .vocab import Vocabulary

EXPERT_RECOVERY = "recovery"
EXPERT_PLANNER = "planner"
EXPERT_KINDS = (EXPERT_RECOVERY, EXPERT_PLANNER)


@dataclass(frozen=True, slots=True)
class MatchingVector:
    """Start velocity/heading and end pose of a maneuver, in its start frame."""

    v_x: float
    v_y: float
    theta0: float
    x_end: float
    y_end: float
    theta_end: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.v_x, self.v_y, self.theta0, self.x_end, self.y_end, self.theta_end]
        )


def build_matching_vector(traj: Trajectory) -> MatchingVector:
    """Summarize a maneuver for retrieval; frame-local, so globally invariant."""
    if len(traj) < 2:
        raise ValidationError("matching vector requires a trajectory of length >= 2")
    s0 = traj.states[0]
    end = traj.states[-1]
    ex, ey = global_to_local(end.pose.x, end.pose.y, s0.pose.x, s0.pose.y, s0.pose.theta)
    return MatchingVector(
        v_x=s0.vel_lon,
        v_y=s0.vel_lat,
        theta0=0.0,
        x_end=ex,
        y_end=ey,
        theta_end=angle_diff(end.pose.theta, s0.pose.theta),
    )


def recovery_target(perturbed: VehicleState, logged_end: VehicleState) -> MatchingVector:
    """Target vector: perturbed start velocity, logged endpoint as the goal.

    Expressed in the perturbed state's frame, so retrieval steers back toward
    the human log.
    """
    ex, ey = global_to_local(
        logged_end.pose.x,
        logged_end.pose.y,
        perturbed.pose.x,
        perturbed.pose.y,
        perturbed.pose.theta,
    )
    return MatchingVector(
        v_x=perturbed.vel_lon,
        v_y=perturbed.vel_lat,
        theta0=0.0,
        x_end=ex,
        y_end=ey,
        theta_end=angle_diff(logged_end.pose.theta, perturbed.pose.theta),
    )


_ANGLE_COMPONENTS = np.array([False, False, True, False, False, True])


def _matching_matrix(vocab: Vocabulary) -> np.ndarray:
    return np.stack([build_matching_vector(e).as_array() for e in vocab.entries])


def recovery_retrieve(target: MatchingVector, vocab: Vocabulary) -> Trajectory:
    """Entry minimizing the L1 matching distance; ties break to lowest index.

    Angle components use wrapped differences. The distance is plain L1 over
    mixed units.
    """
    M = _cached_ops(vocab, _matching_matrix)
    diff = M - target.as_array()[None, :]
    wrapped = np.remainder(diff[:, _ANGLE_COMPONENTS] + math.pi, 2.0 * math.pi) - math.pi
    d = np.abs(diff)
    d[:, _ANGLE_COMPONENTS] = np.abs(wrapped)
    # summed by a matmul: sum(axis=1) rounds differently and can flip near-ties
    return vocab.entries[int(np.argmin(d @ np.ones(d.shape[1])))]


# ---------------------------------------------------------------------------
# Privileged planner


@dataclass(frozen=True, slots=True)
class PlannerParams:
    speed_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    lateral_offsets: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def __post_init__(self):
        if not self.speed_fractions or not self.lateral_offsets:
            raise ValidationError("planner proposal lists must not be empty")
        if any(not (0.0 <= f <= 1.0) for f in self.speed_fractions):
            raise ValidationError("speed fractions must lie in [0, 1]")


def _proposal_trajectory(
    scenario: Scenario,
    start: VehicleState,
    lateral_offset: float,
    v_target: float,
    horizon: int,
    idm: IdmParams,
    limits: VehicleLimits,
) -> Trajectory:
    """Reference that follows the laterally shifted route with an IDM profile."""
    if lateral_offset != 0.0:
        ops = PolylineOps(offset_polyline(scenario.map.route, lateral_offset))
    else:
        ops = polyline_ops(scenario.map.route)
    dt = scenario.dt
    s0, _, _ = ops.project(start.pose.x, start.pose.y)

    speeds = [start.vel_lon]
    for _ in range(horizon):
        v = speeds[-1]
        if v_target < 0.1:
            a = -idm.b_comf if v > 0.0 else 0.0
        else:
            a = idm_accel(v, None, IdmParams(
                v_desired=v_target,
                headway=idm.headway,
                s0=idm.s0,
                a_max=idm.a_max,
                b_comf=idm.b_comf,
                delta=idm.delta,
            ))
        speeds.append(max(0.0, v + dt * a))

    arcs = [s0]
    for k in range(horizon):
        arcs.append(arcs[-1] + dt * speeds[k])

    poses = [ops.point_at(s) for s in arcs]
    states = []
    for k in range(horizon + 1):
        x, y, heading = poses[k]
        if k < horizon:
            ds = max(1e-6, arcs[k + 1] - arcs[k])
            dtheta = angle_diff(poses[k + 1][2], heading)
            steering = math.atan(limits.wheelbase * dtheta / ds)
        else:
            steering = states[-1].steering if states else 0.0
        steering = max(-limits.steer_max, min(limits.steer_max, steering))
        accel = (speeds[k + 1] - speeds[k]) / dt if k < horizon else 0.0
        states.append(
            VehicleState(
                pose=Pose2D(x, y, heading),
                vel_lon=speeds[k],
                vel_lat=0.0,
                accel=accel,
                steering=steering,
            )
        )
    return Trajectory(dt=dt, states=tuple(states), frame=FRAME_GLOBAL)


def privileged_plan(
    scenario: Scenario,
    t: int,
    p: PlannerParams | None = None,
    ego_start: VehicleState | None = None,
    agent_init: Mapping[str, VehicleState] | None = None,
    ctx: SimContext | None = None,
) -> Trajectory:
    """Best-scoring proposal of a rule-based planner with ground-truth access.

    Proposals are the cross product of speed fractions and lateral offsets;
    each is simulated reactively over the scenario horizon from frame t in
    the world of `ctx` and scored with the metric aggregate under
    `ctx.weights`. Returns the winning reference trajectory (ties go to the
    lower proposal index). `ego_start` / `agent_init` plan from perturbed
    rather than logged states.
    """
    p = p or PlannerParams()
    ctx = ctx or SimContext()
    horizon = scenario.t_horizon
    if t < 0 or t + horizon > scenario.frame_count - 1:
        raise RolloutError(f"planning window [{t}, {t + horizon}] outside scenario")
    start = ego_start if ego_start is not None else scenario.ego_log[t]

    max_offset = 0.5 * max(l.width for l in scenario.map.lanes) + 1.0
    if any(abs(o) > max_offset for o in p.lateral_offsets):
        raise ValidationError(
            f"lateral offsets must stay within half lane width + 1 m ({max_offset:.2f})"
        )

    best_score = -1.0
    best: Trajectory | None = None
    simulable = 0
    for frac in p.speed_fractions:
        for offset in p.lateral_offsets:
            proposal = _proposal_trajectory(
                scenario, start, offset, frac * ctx.idm.v_desired, horizon, ctx.idm, ctx.limits
            )
            try:
                states = rollout(
                    scenario,
                    proposal,
                    t,
                    horizon,
                    mode="reactive",
                    ctx=ctx,
                    ego_start=start,
                    agent_init=agent_init,
                )
            except RolloutError:
                continue
            simulable += 1
            executed = Trajectory(dt=scenario.dt, states=states.ego, frame=FRAME_GLOBAL)
            sub = compute_submetrics(states, scenario, executed, ctx)
            score = aggregate_epdms(sub, ctx.weights)
            if score > best_score:
                best_score = score
                best = proposal
    if best is None or simulable == 0:
        raise RolloutError("no planner proposal was simulable")
    return best


# ---------------------------------------------------------------------------
# Expert-stage filter


@dataclass(frozen=True, slots=True)
class ExpertFilterSpec:
    required_ones: frozenset[str] = frozenset(
        {"nc", "dac", "ddc", "tlc", "ttc", "lk", "hc", "ec"}
    )
    ep_min: float = 0.5

    def __post_init__(self):
        if not set(PENALTY_METRICS) <= self.required_ones <= set(ALL_METRICS):
            raise ValidationError(
                f"required_ones must include {', '.join(PENALTY_METRICS)} and name only "
                f"metrics from {', '.join(ALL_METRICS)}, got {sorted(self.required_ones)}"
            )
        if not (0.0 <= self.ep_min <= 1.0):
            raise ValidationError("ep_min must lie in [0, 1]")


def kinematic_limit_violation(traj: Trajectory, limits: VehicleLimits) -> str | None:
    """None if the trajectory respects curvature and acceleration limits."""
    max_curv = limits.max_curvature() + 1e-9
    dt = traj.dt
    for k in range(len(traj) - 1):
        a, b = traj.states[k], traj.states[k + 1]
        ds = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        if ds > 0.05:
            curv = abs(angle_diff(b.pose.theta, a.pose.theta)) / ds
            if curv > max_curv:
                return f"curvature {curv:.3f} exceeds limit at step {k}"
        accel = (b.vel_lon - a.vel_lon) / dt
        if abs(accel) > limits.accel_max + 1e-9:
            return f"acceleration {accel:.2f} exceeds limit at step {k}"
    return None


def expert_filter(
    states: SceneStates,
    scenario: Scenario,
    traj: Trajectory,
    spec: ExpertFilterSpec | None = None,
    ctx: SimContext | None = None,
    precomputed=None,
) -> tuple[bool, str]:
    """Strict demonstration gate: all required sub-metrics at 1, relaxed EP,
    and the hard kinematic limits of `ctx`. Returns (accepted, reason of
    first failure). `precomputed` skips the metric evaluation (in the world
    of `ctx`) when the caller already has it.
    """
    spec = spec or ExpertFilterSpec()
    ctx = ctx or SimContext()
    sub = precomputed if precomputed is not None else compute_submetrics(
        states, scenario, traj, ctx
    )
    for name in ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec"):
        if name in spec.required_ones and getattr(sub, name) != 1.0:
            return False, name
    if sub.ep <= spec.ep_min:
        return False, "EP"
    violation = kinematic_limit_violation(traj, ctx.limits)
    if violation is not None:
        return False, "kinematics"
    return True, ""
