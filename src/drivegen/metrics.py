"""Closed-loop planning metrics: nine sub-scores and their aggregate.

The aggregate multiplies the binary penalty group (nc, dac, ddc, tlc) with a
weighted average of the graded group (ep, ttc, lk, hc, ec). The concrete
sub-metric definitions are local, documented choices; every threshold is
configurable through MetricThresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Collection, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import (
    BoxArrays,
    OrientedBox,
    box_corners,
    boxes_overlap_many,
    index_blocks,
    per_element,
    points_in_any_polygon,
    polyline_ops,
    segments_intersect_many,
    stack_corners,
    wrap_angle_many,
)
from .control import LqrParams, VehicleLimits
from .reactive import (
    DEFAULT_B_HARD,
    IdmParams,
    SceneBatch,
    StateBatch,
    assign_lanes,
)
from .scenario import (
    DEFAULT_EGO_LENGTH,
    DEFAULT_EGO_WIDTH,
    Scenario,
    Trajectory,
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

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            if not w >= 0:
                raise ValidationError(f"{f.name} must be non-negative, got {w}")
        if not self.total() > 0:
            raise ValidationError("metric weight sum must be positive")

    def total(self) -> float:
        return self.w_ep + self.w_ttc + self.w_lk + self.w_hc + self.w_ec


TTC_HORIZON_MAX = 10.0  # s; the TTC sweep holds horizon / dt + 1 projected times


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
    ec_rel_tol: float = 0.3  # read by nothing while EC is 1; the config hash covers it

    def __post_init__(self):
        if not self.ttc_horizon > 0:
            raise ValidationError(f"ttc_horizon must be positive, got {self.ttc_horizon}")
        if self.ttc_horizon > TTC_HORIZON_MAX:
            raise ValidationError(
                f"ttc_horizon must be at most {TTC_HORIZON_MAX:g} s, got {self.ttc_horizon}"
            )
        v = self.lk_min_fraction
        if not 0 <= v <= 1:
            raise ValidationError(f"lk_min_fraction must lie in [0, 1], got {v}")
        # speeds, durations and the comfort tolerance
        for name in ("moving_speed", "ttc_min_ego_speed", "ttc_min", "ddc_max_seconds", "ec_rel_tol"):
            v = getattr(self, name)
            if not v >= 0:
                raise ValidationError(f"{name} must be non-negative, got {v}")


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


def _epdms_rows(sub: np.ndarray, w: MetricWeights) -> np.ndarray:
    """The aggregate of (..., 9) sub-metric rows in `ALL_METRICS` order:
    penalty product times the weighted average of the graded group, one
    IEEE operation at a time in a fixed order, so every row rounds alike."""
    nc, dac, ddc, tlc, ep, ttc, lk, hc, ec = np.moveaxis(sub, -1, 0)
    total = w.total()
    penalties = nc * dac * ddc * tlc
    avg = (w.w_ep * ep + w.w_ttc * ttc + w.w_lk * lk + w.w_hc * hc + w.w_ec * ec) / total
    return penalties * avg


def aggregate_epdms(s: SubMetricVector, w: MetricWeights) -> float:
    """Penalty product times the weighted average of the graded group."""
    return float(_epdms_rows(np.array([getattr(s, name) for name in ALL_METRICS]), w))


# ---------------------------------------------------------------------------
# Collision kernel


def _contacts(ego_boxes: BoxArrays, agent_boxes: Mapping[str, BoxArrays]) -> np.ndarray:
    """(rows, frames, agents) overlaps of the ego with each agent, agents in id order."""
    return np.stack(
        [boxes_overlap_many(ego_boxes, agent_boxes[aid]) for aid in sorted(agent_boxes)], axis=-1
    )


def _corners_inside(px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """(n, 4): whether each corner (px, py) lies in the quadrilateral with
    corners (qx, qy) of its row, all (n, 4): a ray from it crosses the edges
    an odd number of times, or it lies within 1e-9 of an edge."""
    x, y = px[:, :, None], py[:, :, None]
    xi, yi = qx[:, None, :], qy[:, None, :]
    xj, yj = np.roll(xi, 1, axis=2), np.roll(yi, 1, axis=2)  # edge i runs to corner i - 1
    ex, ey = xj - xi, yj - yi
    len2 = ex * ex + ey * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(len2 > 0.0, np.clip(((x - xi) * ex + (y - yi) * ey) / len2, 0.0, 1.0), 0.0)
        x_cross = xi + (y - yi) * ex / ey
    dx, dy = x - (xi + t * ex), y - (yi + t * ey)
    crossings = (((yi > y) != (yj > y)) & (x < x_cross)).sum(axis=2)
    return (dx * dx + dy * dy < 1e-18).any(axis=2) | (crossings % 2 == 1)


def _contact_lon(a: BoxArrays, heading: np.ndarray, b: BoxArrays) -> np.ndarray:
    """How far ahead of boxes `a` (headings `heading`) each contact point with
    boxes `b` lies, all of shape (n,). The contact point is the mean of the
    corners of either box that lie in the other, b's first, added one at a
    time; with no such corner it is the midpoint of the two centers."""
    ca, cb = stack_corners(a.corners()), stack_corners(b.corners())
    sx = sy = count = np.zeros(a.x.shape)
    for (px, py), quad in ((cb, ca), (ca, cb)):
        inside = _corners_inside(px, py, *quad)
        for c in range(4):
            sx = np.where(inside[:, c], sx + px[:, c], sx)
            sy = np.where(inside[:, c], sy + py[:, c], sy)
            count = count + inside[:, c]
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = np.where(count > 0, sx / count, 0.5 * (a.x + b.x))
        cy = np.where(count > 0, sy / count, 0.5 * (a.y + b.y))
    c, s = per_element(math.cos, -heading), per_element(math.sin, -heading)
    return c * (cx - a.x) - s * (cy - a.y)


def _first_contacts(
    ego: BoxArrays,
    ego_heading: np.ndarray,
    ego_speed: np.ndarray,
    agents: Mapping[str, BoxArrays],
    static_ids: Collection[str],
    moving_speed: float,
) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    """The first contact of each row that has one, ruled on fault.

    Boxes, headings and speeds are (rows, frames). Returns the rows with a
    contact and, for each, the first frame with one, the agent that counts
    (the lowest id in contact then) and whether the ego is at fault: when it
    moves faster than `moving_speed` and the contact point (`_contact_lon`)
    lies ahead of its center, or when the agent is static. Being hit from
    behind while in lane is therefore not at fault.
    """
    ids = sorted(agents)
    hits = _contacts(ego, agents)
    rows = np.flatnonzero(hits.any(axis=(1, 2)))
    cells = (rows, np.argmax(hits[rows].any(axis=2), axis=1))
    which = np.argmax(hits[cells], axis=1)
    lon = [_contact_lon(ego.at(cells), ego_heading[cells], agents[aid].at(cells)) for aid in ids]
    ahead = np.stack(lon)[which, np.arange(rows.size)] > 0.0
    static = np.array([aid in static_ids for aid in ids])[which]
    at_fault = ((ego_speed[cells] > moving_speed) & ahead) | static
    return rows, cells[1], [ids[i] for i in which.tolist()], at_fault


def check_collision(
    ego_boxes: Sequence[OrientedBox],
    agent_boxes: Mapping[str, Sequence[OrientedBox]],
    ego_speeds: Sequence[float] | None = None,
    static_ids: Collection[str] = frozenset(),
    moving_speed: float = 0.1,
) -> CollisionEvent | None:
    """First frame at which the ego box overlaps any agent box, ruled on
    fault as the one row of `_first_contacts`.

    The boxes of one entity share one extent. `ego_speeds` holds the ego's
    speed per frame; without it the ego stands still.
    """
    n = len(ego_boxes)
    for aid, boxes in agent_boxes.items():
        if len(boxes) != n:
            raise ValueError(f"agent {aid}: frame count mismatch with ego")
    if ego_speeds is not None and len(ego_speeds) < n:
        raise ValueError(f"ego_speeds has {len(ego_speeds)} entries for {n} ego frames")
    if n == 0:
        return None

    def one_row(name: str, boxes: Sequence[OrientedBox]) -> tuple[BoxArrays, np.ndarray]:
        if len({(b.length, b.width) for b in boxes}) > 1:
            raise ValueError(f"{name}: boxes of mixed extents")
        x, y, heading = np.array([[(b.x, b.y, b.heading) for b in boxes]]).transpose(2, 0, 1)
        return BoxArrays.of(x, y, heading, boxes[0].length, boxes[0].width), heading

    ego, heading = one_row("ego", ego_boxes)
    agents = {aid: one_row(f"agent {aid}", boxes)[0] for aid, boxes in agent_boxes.items()}
    if not agents:
        return None
    speeds = np.zeros((1, n)) if ego_speeds is None else np.array([ego_speeds[:n]], dtype=float)
    rows, frames, ids, at_fault = _first_contacts(
        ego, heading, speeds, agents, static_ids, moving_speed
    )
    if not rows.size:
        return None
    return CollisionEvent(frame=int(frames[0]), agent_id=ids[0], at_fault=bool(at_fault[0]))


# ---------------------------------------------------------------------------
# Sub-metric computation


def drivable_area_compliance(
    xs: np.ndarray, ys: np.ndarray, thetas: np.ndarray, scenario: Scenario, ctx: SimContext
) -> np.ndarray:
    """DAC of ego poses of shape (..., n): 1.0 where every footprint corner of
    all n poses lies inside the drivable union, else 0.0; shape (...)."""
    c, s = per_element(math.cos, thetas), per_element(math.sin, thetas)
    cx, cy = stack_corners(box_corners(xs, ys, c, s, *ctx.ego_extent))
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


# ---------------------------------------------------------------------------
# The scoring kernel: every sub-metric over (rows, frames) arrays


def _boxes(
    scene: SceneBatch, scenario: Scenario, ctx: SimContext
) -> tuple[BoxArrays, dict[str, BoxArrays]]:
    """The footprints of the ego and of each agent at every (row, frame)."""
    ego = scene.ego
    extents = {a.id: (a.length, a.width) for a in scenario.agents}
    return BoxArrays.of(ego.x, ego.y, ego.theta, *ctx.ego_extent), {
        aid: BoxArrays.of(t.x, t.y, t.theta, *extents[aid]) for aid, t in scene.agents.items()
    }


def any_contact(scene: SceneBatch, scenario: Scenario, ctx: SimContext) -> np.ndarray:
    """Per row: whether the ego box touches any agent box in any frame, at
    fault or not (the feasibility screen's collision rule)."""
    if not scene.agents:
        return np.zeros(scene.ego.x.shape[0], dtype=bool)
    return _contacts(*_boxes(scene, scenario, ctx)).any(axis=(1, 2))


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


def _progress(scene: SceneBatch, scenario: Scenario, th: MetricThresholds) -> np.ndarray:
    """EP per row: route progress over the logged human progress of the window."""
    ego = scene.ego
    rows = ego.x.shape[0]
    log_x, log_y = scenario.ego_log.track[:2, [scene.t_start, scene.t_end]]
    s, _, _ = polyline_ops(scenario.map.route).project_many(
        np.concatenate([ego.x[:, 0], ego.x[:, -1], log_x]),
        np.concatenate([ego.y[:, 0], ego.y[:, -1], log_y]),
    )
    reference = max(0.0, s[-1] - s[-2])
    if reference < th.ep_min_reference:
        return np.ones(rows)
    progress = s[rows : 2 * rows] - s[:rows]
    ratio = np.where(progress > 0.0, progress, 0.0) / reference
    ratio = np.where(ratio > 0.0, ratio, 0.0)
    return np.where(ratio < 1.0, ratio, 1.0)


def _swept(boxes: BoxArrays, vx, vy, cells, taus: np.ndarray) -> BoxArrays:
    """The boxes at `cells` ((rows, frame) indices) moved at velocity
    (vx, vy) for each time in `taus`: shape (rows, taus)."""
    at = boxes.at(cells + (None,))
    return replace(at, x=at.x + vx[cells][:, None] * taus, y=at.y + vy[cells][:, None] * taus)


# (row, frame) cells per broadcast of the TTC sweep against its taus, which
# bounds the (cells, taus) box temporaries. Each cell's first overlap depends
# on its own row of the broadcast alone, so it is the same whatever the block.
_TTC_BLOCK = 256


def _first_overlaps(ego: BoxArrays, evx, evy, agent: BoxArrays, avx, avy, cells, taus):
    """Per cell of `cells`: the first time in `taus` at which the ego's and
    the agent's boxes there, each moved at its velocity, overlap; +inf where
    they never do. Swept `_TTC_BLOCK` cells at a time."""
    first = np.empty(cells[0].size)
    for b in index_blocks(cells[0].size, _TTC_BLOCK):
        part = (cells[0][b], cells[1][b])
        hit = boxes_overlap_many(
            _swept(ego, evx, evy, part, taus), _swept(agent, avx, avy, part, taus)
        )
        first[b] = np.where(hit.any(axis=1), taus[np.argmax(hit, axis=1)], math.inf)
    return first


def time_to_collision(
    scene: SceneBatch,
    ego_boxes: BoxArrays,
    agent_boxes: Mapping[str, BoxArrays],
    horizon: float,
    min_ego_speed: float,
) -> np.ndarray:
    """Minimum constant-velocity projected time to collision per row, over all frames.

    Each entity, a box of `ego_boxes` or `agent_boxes` (its frames of the
    scene), is extrapolated at its instantaneous velocity for up to `horizon`
    seconds in steps of dt; the earliest projected overlap gives a frame's TTC.
    Frames where the ego is at or below `min_ego_speed` are skipped. +inf
    where no projected overlap exists.

    The quick reject of a (frame, agent) pair reads the running minimum, so
    pairs are judged frame by frame, agents in scene order: a pair is skipped
    when its distance exceeds both circumradii plus its relative reach within
    the minimum (at most `horizon`). A pair skipped at the full horizon is
    skipped under every minimum (fl(a * b) is monotone in b for a >= 0), so
    all other pairs are swept at once; only those that overlap can lower the
    minimum, and they are replayed in that order.
    """
    ego, dt = scene.ego, scene.dt
    taus = np.arange(int(round(horizon / dt)) + 1) * dt
    best = np.full(ego.x.shape[0], math.inf)
    evx = ego_boxes.cos * ego.v - ego_boxes.sin * ego.v_lat
    evy = ego_boxes.sin * ego.v + ego_boxes.cos * ego.v_lat
    moving = ego.v > min_ego_speed
    pairs = []
    for aid, t in scene.agents.items():
        b = agent_boxes[aid]
        avx, avy = b.cos * t.v - b.sin * t.v_lat, b.sin * t.v + b.cos * t.v_lat
        dist = per_element(math.hypot, t.x - ego.x, t.y - ego.y)
        speed = per_element(math.hypot, evx - avx, evy - avy)
        radii = 0.5 * math.hypot(ego_boxes.length, ego_boxes.width) + 0.5 * math.hypot(
            b.length, b.width
        )
        cells = np.nonzero(moving & ~(dist - speed * horizon > radii))
        if not cells[0].size:
            continue
        first = np.full(dist.shape, math.inf)  # earliest overlap of each (row, frame)
        first[cells] = _first_overlaps(ego_boxes, evx, evy, b, avx, avy, cells, taus)
        pairs.append((dist, speed, radii, first))

    frames = set()
    for *_, first in pairs:
        frames.update(np.flatnonzero((first < math.inf).any(axis=0)).tolist())
    for k in sorted(frames):
        for dist, speed, radii, first in pairs:
            reach = speed[:, k] * np.where(best < horizon, best, horizon)
            swept = ~(dist[:, k] - reach > radii)
            best = np.where(swept & (first[:, k] < best), first[:, k], best)
    return best


def _history_comfort(ego: StateBatch, dt: float, th: MetricThresholds) -> np.ndarray:
    """HC per row: accel, jerk, yaw rate and yaw acceleration within bounds."""
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


def submetrics_batch(
    scene: SceneBatch, scenario: Scenario, ctx: SimContext, comfort: StateBatch | None = None
) -> np.ndarray:
    """(P, 9) sub-metrics in `ALL_METRICS` order, one row per simulated window.

    History comfort is judged on `comfort`, (7, P, m) ego tracks at the
    scene's dt, by default the simulated window itself. Extended comfort is
    1 for every row.
    """
    ego, th = scene.ego, ctx.thresholds
    rows = ego.x.shape[0]
    nc, min_ttc = np.ones(rows), np.full(rows, math.inf)
    if scene.agents:
        ego_boxes, agent_boxes = _boxes(scene, scenario, ctx)
        static_ids = {a.id for a in scenario.agents if a.kind == "static"}
        hit, _, _, at_fault = _first_contacts(
            ego_boxes, ego.theta, ego.v, agent_boxes, static_ids, th.moving_speed
        )
        nc[hit[at_fault]] = 0.0  # NC: the ego at fault for the row's first contact
        min_ttc = time_to_collision(
            scene, ego_boxes, agent_boxes, th.ttc_horizon, th.ttc_min_ego_speed
        )
    ddc, lk = lane_compliance(ego.x, ego.y, ego.theta, scenario, th, scene.dt)
    return np.stack(
        [
            nc,
            drivable_area_compliance(ego.x, ego.y, ego.theta, scenario, ctx),
            ddc,
            _traffic_light_compliance(scene, scenario),
            _progress(scene, scenario, th),
            np.where(min_ttc >= th.ttc_min, 1.0, 0.0),
            lk,
            _history_comfort(comfort if comfort is not None else ego, scene.dt, th),
            np.ones(rows),
        ],
        axis=1,
    )


def compute_submetrics(
    states: SceneBatch,
    scenario: Scenario,
    ego_traj: Trajectory,
    ctx: SimContext | None = None,
) -> SubMetricVector:
    """Score a simulated window in the world of `ctx` (default: SimContext()).

    `states` is the one-row scene of the scored window, scored as the one row
    of `submetrics_batch`; `ego_traj` is the trajectory judged for comfort
    (conventionally history + plan, so junction dynamics count).
    """
    ctx = ctx or SimContext()
    rows = states.ego.data.shape[1]
    if rows != 1:
        raise ValueError(f"scored window must be a one-row scene, got {rows} rows")
    if states.t_end - states.t_start < 1:
        raise ValueError("scored window must contain at least 2 frames")
    if ego_traj.dt != states.dt:
        raise ValueError(f"ego_traj dt {ego_traj.dt} does not match the window's {states.dt}")
    row = submetrics_batch(states, scenario, ctx, comfort=StateBatch(ego_traj.track[:, None]))[0]
    return SubMetricVector(*row.tolist())
