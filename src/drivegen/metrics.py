"""Closed-loop planning metrics: nine sub-scores and their aggregate.

The aggregate multiplies the binary penalty group (nc, dac, ddc, tlc) with a
weighted average of the graded group (ep, ttc, lk, hc, ec). The concrete
sub-metric definitions are local, documented choices; every threshold is
configurable through MetricThresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import (
    OrientedBox,
    angle_diff,
    box_corners,
    boxes_overlap,
    global_to_local,
    per_element,
    points_in_any_polygon,
    polyline_ops,
    segments_intersect,
)
from .control import LqrParams, VehicleLimits
from .reactive import DEFAULT_B_HARD, IdmParams, SceneStates, assign_lanes
from .scenario import (
    DEFAULT_EGO_LENGTH,
    DEFAULT_EGO_WIDTH,
    Scenario,
    Trajectory,
    VehicleState,
)

PENALTY_METRICS = ("nc", "dac", "ddc", "tlc")
WEIGHTED_METRICS = ("ep", "ttc", "lk", "hc", "ec")
ALL_METRICS = PENALTY_METRICS + WEIGHTED_METRICS


@dataclass(frozen=True, slots=True)
class SubMetricVector:
    nc: float
    dac: float
    ddc: float
    tlc: float
    ep: float
    ttc: float
    lk: float
    hc: float
    ec: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"sub-metric {f.name} out of [0, 1]: {v}")
        for name in PENALTY_METRICS:
            v = getattr(self, name)
            if v not in (0.0, 1.0):
                raise ValidationError(f"penalty sub-metric {name} must be binary, got {v}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in ALL_METRICS}

    @classmethod
    def from_dict(cls, d: Mapping[str, float]) -> "SubMetricVector":
        return cls(**{name: float(d[name]) for name in ALL_METRICS})


@dataclass(frozen=True, slots=True)
class MetricWeights:
    w_ep: float = 5.0
    w_ttc: float = 5.0
    w_lk: float = 2.0
    w_hc: float = 2.0
    w_ec: float = 2.0

    def total(self) -> float:
        return self.w_ep + self.w_ttc + self.w_lk + self.w_hc + self.w_ec


@dataclass(frozen=True, slots=True)
class MetricThresholds:
    """Tunable constants behind the pinned sub-metric definitions."""

    moving_speed: float = 0.1  # m/s; below this the ego cannot be at fault
    ddc_max_seconds: float = 1.0
    ep_min_reference: float = 0.1  # m; under this the progress ratio is moot
    ttc_min: float = 1.0  # s
    ttc_horizon: float = 3.0  # s
    ttc_min_ego_speed: float = 0.5  # m/s
    lk_margin: float = 0.3  # m beyond half lane width
    lk_min_fraction: float = 0.95
    hc_accel_max: float = 4.0  # m/s^2
    hc_jerk_max: float = 8.0  # m/s^3
    hc_yaw_rate_max: float = 0.95  # rad/s
    hc_yaw_accel_max: float = 1.9  # rad/s^2
    ec_rel_tol: float = 0.3


@dataclass(frozen=True, slots=True)
class SimContext:
    """The simulated world of a run: every rollout, screen and score shares it.

    Reactive agents, the feasibility screen, the planner and the metrics all
    read the ego extent, the controllers and the braking bound from here.
    """

    idm: IdmParams = IdmParams()
    lqr: LqrParams = LqrParams()
    limits: VehicleLimits = VehicleLimits()
    b_hard: float = DEFAULT_B_HARD
    ego_length: float = DEFAULT_EGO_LENGTH
    ego_width: float = DEFAULT_EGO_WIDTH
    thresholds: MetricThresholds = MetricThresholds()
    weights: MetricWeights = MetricWeights()

    @property
    def ego_extent(self) -> tuple[float, float]:
        return (self.ego_length, self.ego_width)


@dataclass(frozen=True, slots=True)
class RewardRecord:
    submetrics: SubMetricVector
    epdms: float
    stage_scores: tuple[float, float] | None = None

    def as_dict(self) -> dict:
        d: dict = {"submetrics": self.submetrics.as_dict(), "epdms": self.epdms}
        if self.stage_scores is not None:
            d["stage_scores"] = list(self.stage_scores)
        return d


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    frame: int  # index within the checked window
    agent_id: str
    at_fault: bool


def aggregate_epdms(s: SubMetricVector, w: MetricWeights) -> float:
    """Penalty product times the weighted average of the graded group."""
    total = w.total()
    if total <= 0.0:
        raise ValueError("metric weight sum must be positive")
    penalties = s.nc * s.dac * s.ddc * s.tlc
    avg = (
        w.w_ep * s.ep + w.w_ttc * s.ttc + w.w_lk * s.lk + w.w_hc * s.hc + w.w_ec * s.ec
    ) / total
    return penalties * avg


# ---------------------------------------------------------------------------
# Collision kernel


def _contact_point(a: OrientedBox, b: OrientedBox) -> tuple[float, float]:
    from .geometry import point_in_polygon

    pts = []
    ca, cb = a.corners(), b.corners()
    for px, py in cb:
        if point_in_polygon(px, py, ca):
            pts.append((px, py))
    for px, py in ca:
        if point_in_polygon(px, py, cb):
            pts.append((px, py))
    if not pts:
        return (0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
    return (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))


def check_collision(
    ego_boxes: Sequence[OrientedBox],
    agent_boxes: Mapping[str, Sequence[OrientedBox]],
    ego_speeds: Sequence[float] | None = None,
    static_ids: frozenset[str] | set[str] = frozenset(),
    moving_speed: float = 0.1,
) -> CollisionEvent | None:
    """First frame at which the ego box overlaps any agent box.

    At-fault rule: the collision is at fault when the ego is moving and the
    contact point falls in the ego's front half, or when the struck entity is
    static. Being hit from behind while in lane is therefore not at fault.
    """
    for aid, boxes in agent_boxes.items():
        if len(boxes) != len(ego_boxes):
            raise ValueError(f"agent {aid}: frame count mismatch with ego")
    n = len(ego_boxes)
    for k in range(n):
        ego = ego_boxes[k]
        for aid in sorted(agent_boxes.keys()):
            other = agent_boxes[aid][k]
            if not boxes_overlap(ego, other):
                continue
            cx, cy = _contact_point(ego, other)
            lon, _ = global_to_local(cx, cy, ego.x, ego.y, ego.heading)
            moving = (ego_speeds[k] if ego_speeds is not None else 0.0) > moving_speed
            at_fault = (moving and lon > 0.0) or (aid in static_ids)
            return CollisionEvent(frame=k, agent_id=aid, at_fault=at_fault)
    return None


def time_to_collision(
    states: SceneStates,
    ego_extent: tuple[float, float] = (DEFAULT_EGO_LENGTH, DEFAULT_EGO_WIDTH),
    agent_extents: Mapping[str, tuple[float, float]] | None = None,
    horizon: float = 3.0,
    min_ego_speed: float = 0.0,
) -> float:
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


# ---------------------------------------------------------------------------
# Sub-metric computation


def comfort_profile(traj: Trajectory) -> tuple[list[float], list[float], list[float], list[float]]:
    """Finite-difference accel, jerk, yaw rate and yaw acceleration series."""
    dt = traj.dt
    vs = [s.vel_lon for s in traj.states]
    thetas = [s.pose.theta for s in traj.states]
    accel = [(vs[k + 1] - vs[k]) / dt for k in range(len(vs) - 1)]
    jerk = [(accel[k + 1] - accel[k]) / dt for k in range(len(accel) - 1)]
    yaw_rate = [angle_diff(thetas[k + 1], thetas[k]) / dt for k in range(len(thetas) - 1)]
    yaw_accel = [(yaw_rate[k + 1] - yaw_rate[k]) / dt for k in range(len(yaw_rate) - 1)]
    return accel, jerk, yaw_rate, yaw_accel


def comfort_features(traj: Trajectory) -> tuple[float, float, float]:
    """(max |accel|, max |jerk|, max |yaw rate|) of a trajectory."""
    accel, jerk, yaw_rate, _ = comfort_profile(traj)
    return (
        max((abs(a) for a in accel), default=0.0),
        max((abs(j) for j in jerk), default=0.0),
        max((abs(r) for r in yaw_rate), default=0.0),
    )


def _history_comfort(traj: Trajectory, th: MetricThresholds) -> float:
    accel, jerk, yaw_rate, yaw_accel = comfort_profile(traj)
    ok = (
        all(abs(a) <= th.hc_accel_max for a in accel)
        and all(abs(j) <= th.hc_jerk_max for j in jerk)
        and all(abs(r) <= th.hc_yaw_rate_max for r in yaw_rate)
        and all(abs(r) <= th.hc_yaw_accel_max for r in yaw_accel)
    )
    return 1.0 if ok else 0.0


def _extended_comfort(
    reference_features: tuple[float, float, float] | None,
    traj: Trajectory,
    th: MetricThresholds,
) -> float:
    if reference_features is None:
        return 1.0
    feats = comfort_features(traj)
    for f1, f2 in zip(reference_features, feats):
        denom = max(abs(f1), 1e-3)
        if abs(f2 - f1) / denom > th.ec_rel_tol:
            return 0.0
    return 1.0


def pose_arrays(states: Sequence[VehicleState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, theta) arrays of a state sequence."""
    return (
        np.array([s.pose.x for s in states]),
        np.array([s.pose.y for s in states]),
        np.array([s.pose.theta for s in states]),
    )


def drivable_area_compliance(
    xs: np.ndarray, ys: np.ndarray, thetas: np.ndarray, scenario: Scenario, ctx: SimContext
) -> np.ndarray:
    """DAC of ego poses of shape (..., n): 1.0 where every footprint corner of
    all n poses lies inside the drivable union, else 0.0; shape (...)."""
    c, s = per_element(math.cos, thetas), per_element(math.sin, thetas)
    corners = box_corners(xs, ys, c, s, *ctx.ego_extent)
    cx = np.stack([x for x, _ in corners], axis=-1)
    cy = np.stack([y for _, y in corners], axis=-1)
    inside = points_in_any_polygon(cx.ravel(), cy.ravel(), scenario.map.drivable_area)
    return np.where(inside.reshape(cx.shape).all(axis=(-2, -1)), 1.0, 0.0)


def lane_compliance(
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    scenario: Scenario,
    th: MetricThresholds,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """DDC and LK of ego poses of shape (..., n); each of shape (...).

    Both read the per-frame lane assignment (nearest centerline). DDC fails
    when the heading deviates from the lane direction by more than 90 degrees
    for longer than `ddc_max_seconds`; LK when fewer than `lk_min_fraction`
    of the frames stay within half a lane width plus `lk_margin`.
    """
    shape = np.shape(xs)
    xs, ys, thetas = np.ravel(xs), np.ravel(ys), np.ravel(thetas)
    assigned = assign_lanes(xs, ys, scenario.map.lanes)

    lat = np.empty(xs.size)
    deviation = np.empty(xs.size)
    lk_limit = np.empty(xs.size)
    for li, lane in enumerate(scenario.map.lanes):
        mask = assigned == li
        if not np.any(mask):
            continue
        _, lat_l, tangent = polyline_ops(lane.polyline).project_many(xs[mask], ys[mask])
        heading = tangent if lane.direction >= 0 else tangent + math.pi
        dev = np.abs(np.remainder(thetas[mask] - heading + math.pi, 2.0 * math.pi) - math.pi)
        lat[mask] = lat_l
        deviation[mask] = dev
        lk_limit[mask] = 0.5 * lane.width + th.lk_margin

    n = shape[-1]
    frame = np.arange(n)
    violating = (deviation > 0.5 * math.pi).reshape(shape)
    # a violating run ending at frame k started after the last compliant frame
    last_ok = np.maximum.accumulate(np.where(violating, -1, frame), axis=-1)
    max_run = np.max(frame - last_ok, axis=-1)
    ddc = np.where(max_run * dt <= th.ddc_max_seconds, 1.0, 0.0)
    kept = np.sum((np.abs(lat) <= lk_limit).reshape(shape), axis=-1)
    lk = np.where(kept >= th.lk_min_fraction * n, 1.0, 0.0)
    return ddc, lk


def _route_progress(scenario: Scenario, x0: float, y0: float, x1: float, y1: float) -> float:
    ops = polyline_ops(scenario.map.route)
    s0, _, _ = ops.project(x0, y0)
    s1, _, _ = ops.project(x1, y1)
    return max(0.0, s1 - s0)


def compute_submetrics(
    states: SceneStates,
    scenario: Scenario,
    ego_traj: Trajectory,
    ctx: SimContext | None = None,
    stage1_features: tuple[float, float, float] | None = None,
) -> SubMetricVector:
    """Score a simulated window in the world of `ctx` (default: SimContext()).

    `states` covers the scored window; `ego_traj` is the trajectory judged
    for comfort (conventionally history + plan, so junction dynamics count).
    `stage1_features` switches extended comfort to two-stage comparison.
    """
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
    min_ttc = time_to_collision(
        states, ego_extent, extents, th.ttc_horizon, th.ttc_min_ego_speed
    )
    ttc = 1.0 if min_ttc >= th.ttc_min else 0.0

    hc = _history_comfort(ego_traj, th)
    ec = _extended_comfort(stage1_features, ego_traj, th)

    return SubMetricVector(nc=nc, dac=dac, ddc=ddc, tlc=tlc, ep=ep, ttc=ttc, lk=lk, hc=hc, ec=ec)
