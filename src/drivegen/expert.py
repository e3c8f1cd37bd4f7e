"""Pseudo-expert demonstration generators and the expert-stage filter.

Two experts produce the demonstration that follows a perturbed state: a
recovery expert that retrieves the closest human-like maneuver ending at the
logged endpoint, and a privileged planner that scores a bank of
centerline-offset proposals in reactive simulation and returns the best one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .batch import _bound, rollout_batch
from .control import VehicleLimits
from .errors import ValidationError
from .geometry import (
    PolylineOps,
    _cached_ops,
    angle_diff,
    global_to_local,
    offset_polyline,
    per_element,
    polyline_ops,
    wrap_angle_many,
)
from .metrics import (
    ALL_METRICS,
    PENALTY_METRICS,
    SimContext,
    SubMetricVector,
    aggregate_epdms,
    compute_submetrics,
    submetrics_batch,
)
from .reactive import IdmParams, SceneBatch, StateBatch, check_window, idm_accel
# `rollout` stays bound here: perfbench/tracer.py wraps `expert.rollout` by name
from .reactive import rollout  # noqa: F401
from .scenario import Scenario, Trajectory, VehicleState
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
    return MatchingVector(*_matching_matrix(Vocabulary.of([traj]))[0].tolist())


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
    """(N, 6) matching vectors of the bank's entries from their first and
    last frames: start velocity, then the end pose in the start frame, with
    `math` cos and sin per entry."""
    first, last = vocab.tracks.data[:, :, 0], vocab.tracks.data[:, :, -1]
    c, s = per_element(math.cos, -first[2]), per_element(math.sin, -first[2])
    dx, dy = last[0] - first[0], last[1] - first[1]
    return np.stack([
        first[3], first[4], np.zeros(len(vocab)), c * dx - s * dy, s * dx + c * dy,
        wrap_angle_many(last[2] - first[2]),
    ], axis=1)


def recovery_retrieve(target: MatchingVector, vocab: Vocabulary) -> int:
    """Index of the entry minimizing the L1 matching distance; ties break to
    the lowest index.

    Angle components use wrapped differences. The distance is plain L1 over
    mixed units.
    """
    M = _cached_ops(vocab, _matching_matrix)
    diff = M - target.as_array()[None, :]
    wrapped = np.remainder(diff[:, _ANGLE_COMPONENTS] + math.pi, 2.0 * math.pi) - math.pi
    d = np.abs(diff)
    d[:, _ANGLE_COMPONENTS] = np.abs(wrapped)
    # summed by a matmul: sum(axis=1) rounds differently and can flip near-ties
    return int(np.argmin(d @ np.ones(d.shape[1])))


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


def _speed_profile(
    v0: float, v_target: float, horizon: int, dt: float, idm: IdmParams
) -> list[float]:
    """Free-road IDM speeds toward `v_target`; below 0.1 m/s, comfortable braking to rest."""
    target = replace(idm, v_desired=v_target) if v_target >= 0.1 else None
    speeds = [v0]
    for _ in range(horizon):
        v = speeds[-1]
        if target is None:
            a = -idm.b_comf if v > 0.0 else 0.0
        else:
            a = idm_accel(v, None, target)
        speeds.append(max(0.0, v + dt * a))
    return speeds


def _proposal_references(
    scenario: Scenario,
    starts: Sequence[VehicleState],
    p: PlannerParams,
    horizon: int,
    ctx: SimContext,
) -> StateBatch:
    """(S * P, horizon + 1) references of all proposals of S starts, start
    major, then speed fraction major.

    Each follows the laterally shifted route from the start's projection on
    it with an IDM speed profile; steering comes from the heading change per
    arclength, clamped to the steering limit. The routes are built, and the
    offsets checked, once for all starts.
    """
    max_offset = 0.5 * max(l.width for l in scenario.map.lanes) + 1.0
    if any(abs(o) > max_offset for o in p.lateral_offsets):
        raise ValidationError(
            f"lateral offsets must stay within half lane width + 1 m ({max_offset:.2f})"
        )
    dt, lim = scenario.dt, ctx.limits
    routes = [
        PolylineOps(offset_polyline(scenario.map.route, o)) if o != 0.0
        else polyline_ops(scenario.map.route)
        for o in p.lateral_offsets
    ]
    n_off = len(routes)
    v = np.repeat(
        [_speed_profile(start.vel_lon, f * ctx.idm.v_desired, horizon, dt, ctx.idm)
         for start in starts for f in p.speed_fractions],
        n_off,
        axis=0,
    )
    xs = np.array([start.pose.x for start in starts])
    ys = np.array([start.pose.y for start in starts])
    on_route = np.stack([ops.project_many(xs, ys)[0] for ops in routes], axis=1)  # (S, n_off)
    arcs = np.empty_like(v)
    arcs[:, 0] = np.repeat(on_route, len(p.speed_fractions), axis=0).ravel()
    for k in range(horizon):
        arcs[:, k + 1] = arcs[:, k] + dt * v[:, k]
    x, y, heading = np.empty_like(v), np.empty_like(v), np.empty_like(v)
    for i, ops in enumerate(routes):
        x[i::n_off], y[i::n_off], heading[i::n_off] = ops.point_at_many(arcs[i::n_off])

    ds = arcs[:, 1:] - arcs[:, :-1]
    dtheta = wrap_angle_many(heading[:, 1:] - heading[:, :-1])
    steer = _bound(
        per_element(math.atan, lim.wheelbase * dtheta / np.where(ds > 1e-6, ds, 1e-6)),
        lim.steer_max,
    )
    return StateBatch.of(
        x=x,
        y=y,
        theta=heading,
        v=v,
        v_lat=np.zeros_like(v),
        accel=np.concatenate([(v[:, 1:] - v[:, :-1]) / dt, np.zeros((len(v), 1))], axis=1),
        steering=np.concatenate([steer, steer[:, -1:]], axis=1),
    )


# A planning start: the perturbed ego state and agent states to plan from;
# None (or an agent left out) starts from the log at the planning frame.
PlanStart = tuple[VehicleState | None, Mapping[str, VehicleState] | None]


def _score_starts(
    scenario: Scenario, t: int, starts: Sequence[PlanStart], p: PlannerParams, ctx: SimContext
) -> tuple[StateBatch, SceneBatch, np.ndarray, list[float]]:
    """Every proposal of every start simulated in one batched rollout and
    scored in one kernel call; rows are start major, P per start."""
    horizon = scenario.t_horizon
    check_window(scenario, t, horizon)
    egos = [ego if ego is not None else scenario.ego_log[t] for ego, _ in starts]
    refs = _proposal_references(scenario, egos, p, horizon, ctx)
    n = len(p.speed_fractions) * len(p.lateral_offsets)

    def per_proposal(states: Sequence[VehicleState]) -> StateBatch:
        return StateBatch(np.repeat(StateBatch.frame(states).data, n, axis=1))

    agent_init = {}
    for a in scenario.agents:
        inits = (init.get(a.id) if init else None for _, init in starts)
        agent_init[a.id] = per_proposal([s if s is not None else a.states[t] for s in inits])
    scene = rollout_batch(
        scenario, refs, t, horizon, ctx, ego_start=per_proposal(egos), agent_init=agent_init
    )
    sub = submetrics_batch(scene, scenario, ctx)
    scores = [aggregate_epdms(SubMetricVector(*row), ctx.weights) for row in sub.tolist()]
    return refs, scene, sub, scores


@dataclass(frozen=True, slots=True)
class Plan:
    """The planner's winning proposal: its reference trajectory, and the
    reactive rollout and sub-metrics that scored it."""

    reference: Trajectory
    states: SceneBatch = field(compare=False)  # one row; arrays have no truth value
    submetrics: SubMetricVector


def privileged_plans(
    scenario: Scenario,
    t: int,
    starts: Sequence[PlanStart],
    p: PlannerParams | None = None,
    ctx: SimContext | None = None,
) -> list[Plan]:
    """`privileged_plan` from each of several starts, in one batched call.

    The proposals of every start are simulated together, one row each, in
    one batched rollout and scored in one kernel call; each start keeps the
    first of its own equal best-scoring proposals. Rows do not depend on the
    rows sharing their call, so each plan equals `privileged_plan` from its
    start alone.
    """
    if not starts:
        return []
    p = p or PlannerParams()
    refs, scene, sub, scores = _score_starts(scenario, t, starts, p, ctx or SimContext())
    n = len(p.speed_fractions) * len(p.lateral_offsets)
    plans = []
    for first in range(0, len(scores), n):
        best = max(range(first, first + n), key=scores.__getitem__)  # first of equal maxima
        plans.append(Plan(
            reference=refs.trajectory(best, scenario.dt),
            states=scene.take([best]),
            submetrics=SubMetricVector(*sub[best].tolist()),
        ))
    return plans


def privileged_plan(
    scenario: Scenario,
    t: int,
    p: PlannerParams | None = None,
    ego_start: VehicleState | None = None,
    agent_init: Mapping[str, VehicleState] | None = None,
    ctx: SimContext | None = None,
) -> Plan:
    """Best-scoring proposal of a rule-based planner with ground-truth access.

    Proposals are the cross product of speed fractions and lateral offsets;
    all of them are simulated reactively over the scenario horizon from
    frame t in the world of `ctx`, in one batched rollout, and scored with
    the metric aggregate under `ctx.weights`. Returns the winning proposal
    (ties go to the lower proposal index) with its rollout, which equals a
    reactive `rollout` of its reference alone, and its sub-metrics, scored
    on that window. `ego_start` / `agent_init` plan from perturbed rather
    than logged states.
    """
    return privileged_plans(scenario, t, [(ego_start, agent_init)], p, ctx)[0]


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
    states: SceneBatch,
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
