"""Pseudo-expert demonstration generators and the expert-stage filter.

Two experts produce the demonstration that follows a perturbed state: a
recovery expert that retrieves the closest human-like maneuver ending at the
logged endpoint, and a privileged planner that scores a bank of
centerline-offset proposals in reactive simulation and returns the best one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .batch import _bound, _floor0, rollout_batch
from .control import VehicleLimits
from .errors import ValidationError
from .geometry import (
    PolylineOps,
    _cached_ops,
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
    _epdms_rows,
    submetrics_batch,
)
# `compute_submetrics` stays bound here: perfbench/tracer.py wraps `expert.compute_submetrics`
from .metrics import compute_submetrics  # noqa: F401
from .reactive import IdmParams, SceneBatch, StateBatch, check_window, idm_accel
# `rollout` stays bound here: perfbench/tracer.py wraps `expert.rollout` by name
from .reactive import rollout  # noqa: F401
from .scenario import Scenario, Trajectory
from .vocab import Vocabulary

EXPERT_RECOVERY = "recovery"
EXPERT_PLANNER = "planner"
EXPERT_KINDS = (EXPERT_RECOVERY, EXPERT_PLANNER)


def _matching_rows(start: np.ndarray, end_x, end_y, end_theta) -> np.ndarray:
    """(P, 6) matching vectors of P (7, P) start states and their end poses:
    start velocity, then the end pose in the start frame, with `math` cos and
    sin per row. Frame-local, so globally invariant."""
    c, s = per_element(math.cos, -start[2]), per_element(math.sin, -start[2])
    dx, dy = end_x - start[0], end_y - start[1]
    return np.stack([
        start[3], start[4], np.zeros(start.shape[1]), c * dx - s * dy, s * dx + c * dy,
        wrap_angle_many(end_theta - start[2]),
    ], axis=1)


def _matching_matrix(vocab: Vocabulary) -> np.ndarray:
    """(N, 6) matching vectors of the bank's entries, from their first and last frames."""
    first, last = vocab.tracks.data[:, :, 0], vocab.tracks.data[:, :, -1]
    return _matching_rows(first, last[0], last[1], last[2])


def recovery_targets(starts: StateBatch, logged_end: np.ndarray) -> np.ndarray:
    """(P, 6) retrieval targets of P perturbed starts, (7, P): each start's
    velocity with the (7,) logged endpoint as the goal, in the start's frame,
    so retrieval steers back toward the human log."""
    return _matching_rows(starts.data, *logged_end[:3].tolist())


_ANGLE_COMPONENTS = np.array([False, False, True, False, False, True])


def recovery_retrieve(target: np.ndarray, vocab: Vocabulary) -> int:
    """Index of the entry minimizing the L1 matching distance to a (6,)
    target row; ties break to the lowest index.

    Angle components use wrapped differences. The distance is plain L1 over
    mixed units.
    """
    M = _cached_ops(vocab, _matching_matrix)
    diff = M - target[None, :]
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


def _speed_profiles(
    v0: np.ndarray, p: PlannerParams, horizon: int, dt: float, idm: IdmParams, b_hard: float
) -> np.ndarray:
    """(S * F, horizon + 1) free-road IDM speeds of S starts toward each of
    the F speed fractions of `idm.v_desired`, start major; below a 0.1 m/s
    target, comfortable braking to rest. All starts step together."""
    speeds = np.empty((len(p.speed_fractions), len(v0), horizon + 1))
    for profile, f in zip(speeds, p.speed_fractions):
        v_target = f * idm.v_desired
        target = replace(idm, v_desired=v_target) if v_target >= 0.1 else None
        profile[:, 0] = v0
        for k in range(horizon):
            v = profile[:, k]
            if target is None:
                a = np.where(v > 0.0, -idm.b_comf, 0.0)
            else:
                a = idm_accel(v, None, target, b_hard)
            profile[:, k + 1] = _floor0(v + dt * a)
    return speeds.transpose(1, 0, 2).reshape(-1, horizon + 1)


def _proposal_references(
    scenario: Scenario,
    starts: StateBatch,
    p: PlannerParams,
    horizon: int,
    ctx: SimContext,
) -> StateBatch:
    """(S * P, horizon + 1) references of all proposals of S (7, S) starts,
    start major, then speed fraction major.

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
    v = np.repeat(_speed_profiles(starts.v, p, horizon, dt, ctx.idm, ctx.b_hard), n_off, axis=0)
    on_route = np.stack(
        [ops.project_many(starts.x, starts.y)[0] for ops in routes], axis=1
    )  # (S, n_off)
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


def _score_starts(
    scenario: Scenario,
    t: int,
    ego_start: StateBatch,
    agent_init: Mapping[str, StateBatch],
    p: PlannerParams,
    ctx: SimContext,
) -> tuple[StateBatch, SceneBatch, np.ndarray, np.ndarray]:
    """Every proposal of S starts, the (7, S) `ego_start` and the (7, S)
    `agent_init` entries (an agent left out starts from the log at frame t),
    simulated in one batched rollout and scored in one kernel call: the
    references, the scene, the sub-metrics and the aggregate of each row;
    rows are start major, P per start."""
    horizon = scenario.t_horizon
    check_window(scenario, t, horizon)
    refs = _proposal_references(scenario, ego_start, p, horizon, ctx)
    n = len(p.speed_fractions) * len(p.lateral_offsets)

    def per_proposal(start: StateBatch) -> StateBatch:
        return StateBatch(np.repeat(start.data, n, axis=1))

    scene = rollout_batch(
        scenario, refs, t, horizon, ctx, ego_start=per_proposal(ego_start),
        agent_init={aid: per_proposal(init) for aid, init in agent_init.items()},
    )
    sub = submetrics_batch(scene, scenario, ctx)
    return refs, scene, sub, _epdms_rows(sub, ctx.weights)


@dataclass(frozen=True, slots=True, eq=False)
class Plan:
    """The planner's winning proposal: its reference trajectory, and the
    reactive rollout and sub-metrics that scored it."""

    reference: Trajectory
    states: SceneBatch  # one row
    submetrics: SubMetricVector


def privileged_plans(
    scenario: Scenario,
    t: int,
    ego_start: StateBatch,
    agent_init: Mapping[str, StateBatch],
    p: PlannerParams | None = None,
    ctx: SimContext | None = None,
) -> tuple[StateBatch, SceneBatch, np.ndarray]:
    """`privileged_plan` from each of S starts, in one batched call: the
    winners' (7, S, horizon + 1) references, their S-row scene and their
    (S, 9) sub-metrics.

    The starts are the (7, S) `ego_start` and `agent_init` entries. The
    proposals of every start are simulated together, one row each, in one
    batched rollout and scored in one kernel call; each start keeps the
    first of its own equal best-scoring proposals. Rows do not depend on the
    rows sharing their call, so each winner equals `privileged_plan` from
    its start alone. No start, no winner: zero rows come back.
    """
    p = p or PlannerParams()
    refs, scene, sub, scores = _score_starts(
        scenario, t, ego_start, agent_init, p, ctx or SimContext()
    )
    n = len(p.speed_fractions) * len(p.lateral_offsets)
    # argmax takes the first of equal maxima of each start
    best = np.arange(0, len(scores), n) + np.argmax(scores.reshape(-1, n), axis=1)
    return StateBatch(refs.data[:, best]), scene.take(best), sub[best]


def privileged_plan(
    scenario: Scenario,
    t: int,
    p: PlannerParams | None = None,
    ego_start: np.ndarray | None = None,
    agent_init: Mapping[str, np.ndarray] | None = None,
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
    than logged states, (7,) each.
    """
    ego = StateBatch.full(ego_start if ego_start is not None else scenario.ego_log[t], 1)
    agents = {aid: StateBatch.full(s, 1) for aid, s in (agent_init or {}).items()}
    refs, scene, sub = privileged_plans(scenario, t, ego, agents, p, ctx)
    return Plan(Trajectory(scenario.dt, refs.data[:, 0]), scene, SubMetricVector(*sub[0].tolist()))


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


def kinematic_limit_violation(ego: StateBatch, dt: float, limits: VehicleLimits) -> bool:
    """Whether a one-row (7, 1, n) ego track at step `dt` breaks the
    curvature limit on a step of more than 5 cm, or the acceleration limit."""
    x, y, theta, v = ego.data[:4, 0]
    ds = per_element(math.hypot, np.diff(x), np.diff(y))
    moved = ds > 0.05
    curv = np.abs(wrap_angle_many(np.diff(theta))) / np.where(moved, ds, 1.0)
    bends = moved & (curv > limits.max_curvature() + 1e-9)
    return bool(bends.any() or (np.abs(np.diff(v) / dt) > limits.accel_max + 1e-9).any())


def expert_filter(
    states: SceneBatch, sub: SubMetricVector, spec: ExpertFilterSpec, limits: VehicleLimits
) -> tuple[bool, str]:
    """Strict demonstration gate on a simulated window and its sub-metrics
    `sub`: all required sub-metrics at 1, relaxed EP, and the hard kinematic
    `limits` on its ego track. Returns (accepted, reason of first failure).
    """
    for name in ALL_METRICS:
        if name in spec.required_ones and getattr(sub, name) != 1.0:
            return False, name
    if sub.ep <= spec.ep_min:
        return False, "EP"
    if kinematic_limit_violation(states.ego, states.dt, limits):
        return False, "kinematics"
    return True, ""
