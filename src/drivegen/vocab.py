"""Trajectory vocabulary and perturbation sampling.

The vocabulary is a clustered bank of short ego-local maneuvers. Perturbation
sampling thresholds where each entry would end at the scenario anchor state,
spreads survivors over an interleaved endpoint grid, and places and filters
only the grid survivors by simulation (non-reactive first, reactive on the
sparse set only, since reactive rollouts cost the most).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .batch import _bicycle_step, _bound, plan_batch, rollout_batch
from .control import VehicleLimits
from .errors import SchemaError, ValidationError
from .geometry import (
    _cached_ops,
    angle_diff,
    global_to_local,
    local_to_global,
    wrap_angle,
    wrap_angle_many,
)
# `check_collision`, `compute_submetrics` and `rollout` stay bound here:
# perfbench/tracer.py wraps `vocab.check_collision`, `vocab.compute_submetrics`
# and `vocab.rollout` by name
from .metrics import (  # noqa: F401
    SimContext,
    SubMetricVector,
    aggregate_epdms,
    any_contact,
    check_collision,
    compute_submetrics,
    drivable_area_compliance,
    submetrics_batch,
)
from .reactive import SceneStates, StateBatch, rollout  # noqa: F401
from .scenario import (
    FRAME_EGO_LOCAL,
    Pose2D,
    Scenario,
    Trajectory,
    VehicleState,
)
from .seeding import mix64

STATUS_PENDING = "pending"
STATUS_THRESHOLD_REJECTED = "threshold-rejected"
STATUS_GRID_DROPPED = "grid-dropped"
STATUS_INFEASIBLE_NONREACTIVE = "infeasible-nonreactive"
STATUS_INFEASIBLE_REACTIVE = "infeasible-reactive"
STATUS_CLEARED_NONREACTIVE = "cleared-nonreactive"
STATUS_CLEARED_REACTIVE = "cleared-reactive"


@dataclass(frozen=True, slots=True)
class Vocabulary:
    entries: tuple[Trajectory, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("vocabulary must not be empty")
        h = self.entries[0].horizon
        dt = self.entries[0].dt
        for i, e in enumerate(self.entries):
            if e.horizon != h or e.dt != dt:
                raise ValidationError(f"vocabulary entry {i} has mismatched horizon or dt")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def horizon(self) -> int:
        return self.entries[0].horizon

    @property
    def dt(self) -> float:
        return self.entries[0].dt


@dataclass(frozen=True, slots=True)
class PerturbThresholds:
    r_lon: float = 20.0
    r_lat: float = 2.0
    dtheta_max: float = math.radians(20.0)
    epdms_min: float = 0.8

    def __post_init__(self):
        if self.r_lon <= 0 or self.r_lat <= 0 or self.dtheta_max <= 0:
            raise ValidationError("perturbation ranges must be positive")
        if not (0.0 <= self.epdms_min <= 1.0):
            raise ValidationError("epdms_min must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class GridSpec:
    step_lon: float = 5.0
    step_lat: float = 0.5
    interleave: bool = True

    def __post_init__(self):
        if self.step_lon <= 0 or self.step_lat <= 0:
            raise ValidationError("grid steps must be positive")

    def cell(self, lon: float, lat: float) -> tuple[int, int]:
        i_lon = math.floor(lon / self.step_lon)
        shift = 0.5 * self.step_lat if (self.interleave and i_lon % 2 != 0) else 0.0
        i_lat = math.floor((lat - shift) / self.step_lat)
        return (i_lon, i_lat)


@dataclass(frozen=True, slots=True)
class PerturbationCandidate:
    trajectory: Trajectory | None  # global frame at the anchor; None until a check places it
    offsets: tuple[float, float, float]  # (lon, lat, dtheta) vs logged endpoint
    status: str
    vocab_index: int
    entry: Trajectory | None = None  # the ego-local vocabulary entry behind an unplaced candidate
    endpoint_cell: tuple[int, int] | None = None
    reason: str = ""
    # what the clearing screen simulated and scored; None until cleared
    screen_states: SceneStates | None = None
    screen_submetrics: SubMetricVector | None = None


# ---------------------------------------------------------------------------
# Maneuver synthesis (vocabulary source at desk scale)


@dataclass(frozen=True, slots=True, eq=False)
class Maneuvers(Sequence[Trajectory]):
    """Ego-local maneuvers of one dt, held as one (7, N, n) `StateBatch`.

    Reading a row builds its `Trajectory`, so a caller that keeps a few rows
    of a large bank never materializes the rest.
    """

    dt: float
    tracks: StateBatch

    def __len__(self) -> int:
        return self.tracks.data.shape[1]

    def __getitem__(self, row: int) -> Trajectory:
        return Trajectory(dt=self.dt, states=self.tracks.states(row), frame=FRAME_EGO_LOCAL)


def synthesize_maneuvers(
    count: int, horizon: int, dt: float, seed: int, speed_range: tuple[float, float] = (4.0, 14.0)
) -> Maneuvers:
    """Ego-local maneuvers: two-phase steering arcs crossed with speed profiles.

    Each maneuver is integrated with the kinematic bicycle, so entries are
    realizable trajectories. All maneuvers step together, each row exactly as
    `control.bicycle_step` steps it alone. Deterministic in (count, horizon,
    dt, seed).
    """
    if count < 1:
        raise ValidationError(f"maneuver count must be >= 1, got {count}")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if horizon < 2:
        raise ValidationError(f"horizon must be >= 2, got {horizon}")
    rng = random.Random(mix64(seed, "maneuvers", count, horizon))
    draws = []
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
        draws.append((v0, accel, d1, d2, switch))
    v0, accel, d1, d2, switch = np.array(draws).T

    limits = VehicleLimits()
    zero = np.zeros(count)
    cur = StateBatch.of(zero, zero, zero, v0, zero, zero, zero)
    frames = [cur]
    for k in range(horizon):
        target = np.where(k < switch, d1, d2)
        rate = _bound((target - cur.steering) / dt, 0.4)
        cur = _bicycle_step(cur, accel, rate, dt, limits)
        frames.append(cur)
    return Maneuvers(dt, StateBatch.stack(frames))


# ---------------------------------------------------------------------------
# Clustering


def _flatten(tracks: StateBatch) -> np.ndarray:
    """(N, 3n): each track's x, then its y, then its unwrapped heading."""
    return np.concatenate([tracks.x, tracks.y, np.unwrap(tracks.theta, axis=1)], axis=1)


def _sq_distances(X: np.ndarray, xx: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, k) squared distances as ||x||^2 - 2 x.c + ||c||^2, built in place.

    Bit-identical to evaluating that expression left to right: scaling by
    -2 is exact and a - b is a + (-b).
    """
    d2 = X @ centers.T
    d2 *= -2.0
    d2 += xx[:, None]
    d2 += np.sum(centers * centers, axis=1)
    return d2


def _update_centers(
    X: np.ndarray, d2: np.ndarray, assign: np.ndarray, centers: np.ndarray
) -> None:
    """Move each center, in cluster order, to the mean of its rows.

    An empty cluster is revived with the row farthest from its center under
    the assignment as it stands; that row leaves the later cluster it was in,
    and an earlier cluster's mean, already taken, keeps it.
    """
    k = len(centers)
    order = None
    for c in range(k):
        if order is None:  # rows by cluster, each cluster's in index order
            order = np.argsort(assign, kind="stable")
            bounds = np.searchsorted(assign, np.arange(k + 1), sorter=order)
        rows = order[bounds[c]:bounds[c + 1]]
        if len(rows):
            centers[c] = X[rows].mean(axis=0)
        else:
            far = int(np.argmax(d2[np.arange(len(X)), assign]))
            centers[c] = X[far]
            assign[far] = c
            order = None


def _lloyd(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The (k, D) centers after plain Lloyd iterations (cap 100) from a seeded
    choice of k rows."""
    rng = np.random.Generator(np.random.PCG64(mix64(seed, "kmeans", k)))
    centers = X[rng.choice(len(X), size=k, replace=False)].copy()
    xx = np.sum(X * X, axis=1)
    assign = np.zeros(len(X), dtype=np.int64)
    for _ in range(100):
        d2 = _sq_distances(X, xx, centers)
        new_assign = np.argmin(d2, axis=1)
        _update_centers(X, d2, new_assign, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def _snap(X: np.ndarray, centers: np.ndarray) -> list[int]:
    """Index of each center's nearest row by the direct `sum((x - c) ** 2)`,
    ties to the lowest index.

    Only rows whose matmul distance lies within `margin` of the column's
    minimum are scored directly. With D = X.shape[1], unit roundoff u =
    eps / 2 and S = max ||x||^2 + ||c||^2, the standard error bounds (any
    summation order, FMA or not) give, to first order in u:
      matmul form: 2 |fl(x.c) - x.c| <= D u S, ||x||^2 and ||c||^2 err by
        <= D u S together, and the two additions round by <= 5 u S;
      direct form: each (x - c)^2 errs by <= 3 u relative and the sum by
        <= (D - 1) u, so <= (D + 2) u ||x - c||^2 <= (2 D + 4) u S.
    A row beats the matmul minimum's row in the direct form only if its
    matmul distance exceeds the minimum by at most twice the sum of both
    bounds, (8 D + 18) u S. The margin doubles that to cover the second
    order and the rounding of S itself, so every row that can tie or win the
    direct comparison is a candidate.
    """
    xx = np.sum(X * X, axis=1)
    d2 = _sq_distances(X, xx, centers)
    margin = (8 * X.shape[1] + 18) * np.finfo(float).eps * (
        xx.max() + np.sum(centers * centers, axis=1)
    )
    cols, rows = np.nonzero(d2.T <= d2.min(axis=0)[:, None] + margin[:, None])
    bounds = np.searchsorted(cols, np.arange(len(centers) + 1))
    nearest = []
    for c, center in enumerate(centers):
        cand = rows[bounds[c]:bounds[c + 1]]
        nearest.append(int(cand[np.argmin(np.sum((X[cand] - center) ** 2, axis=1))]))
    return nearest


def build_vocabulary(samples: Sequence[Trajectory], k: int, seed: int) -> Vocabulary:
    """Cluster maneuvers with k-means and snap centers to their nearest sample.

    Plain Lloyd iterations (cap 100) with seeded initialization; snapping
    keeps every entry a realizable trajectory. A `Maneuvers` bank is
    clustered from its array, and only the k chosen rows become
    trajectories. Deterministic in (samples, k, seed).
    """
    if not samples:
        raise ValidationError("samples must not be empty")
    if k <= 0:
        raise ValidationError("k must be positive")
    if k > len(samples):
        raise ValidationError(f"k={k} exceeds sample count {len(samples)}")

    if isinstance(samples, Maneuvers):
        tracks = samples.tracks
    else:
        tracks = StateBatch.tracks([t.states for t in samples])
    X = _flatten(tracks)
    return Vocabulary(entries=tuple(samples[i] for i in _snap(X, _lloyd(X, k, seed))))


def default_vocabulary(
    seed: int,
    horizon: int,
    dt: float,
    size: int = 1024,
    source_count: int = 16384,
) -> Vocabulary:
    samples = synthesize_maneuvers(source_count, horizon, dt, seed)
    return build_vocabulary(samples, size, seed)


# ---------------------------------------------------------------------------
# Vocabulary file format: JSON array of {dt, states:[...]} trajectories


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    from .scenario import _state_to_json, dump_json_canonical

    payload = [
        {"dt": e.dt, "states": [_state_to_json(s) for s in e.states]} for e in vocab.entries
    ]
    Path(path).write_text(dump_json_canonical(payload), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    from .scenario import _array, _number, _state_from_json

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise SchemaError("vocabulary: expected a JSON array of trajectories")
    entries = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or set(item) != {"dt", "states"}:
            raise SchemaError(f"vocabulary[{i}]: expected fields dt, states")
        entries.append(
            Trajectory(
                dt=_number(item["dt"], f"vocabulary[{i}].dt"),
                states=tuple(
                    _state_from_json(s, f"vocabulary[{i}].states[{j}]")
                    for j, s in enumerate(_array(item["states"], f"vocabulary[{i}].states"))
                ),
                frame=FRAME_EGO_LOCAL,
            )
        )
    return Vocabulary(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Perturbation sampling


def _place_pose(p: Pose2D, anchor: Pose2D) -> Pose2D:
    gx, gy = local_to_global(p.x, p.y, anchor.x, anchor.y, anchor.theta)
    return Pose2D(gx, gy, wrap_angle(p.theta + anchor.theta))


def place_at_state(entry: Trajectory, anchor: VehicleState) -> Trajectory:
    """Rigidly transform an ego-local entry to start at the anchor pose.

    Every state is placed as `_place_pose` places one, in numpy with the same
    arithmetic.
    """
    a = anchor.pose
    c, s = math.cos(a.theta), math.sin(a.theta)
    local = StateBatch.track(entry.states).data
    x, y = local[0], local[1]
    placed = local.copy()
    placed[0] = a.x + (c * x - s * y)
    placed[1] = a.y + (s * x + c * y)
    placed[2] = wrap_angle_many(local[2] + a.theta)
    return StateBatch(placed).trajectory(0, entry.dt)


def endpoint_offsets(
    end: VehicleState, anchor: VehicleState, logged_end: VehicleState
) -> tuple[float, float, float]:
    """Shift of an ego-local endpoint placed at the anchor, in the logged endpoint's
    frame (lon ahead, lat left); bit-identical to measuring `place_at_state`'s last state."""
    p = _place_pose(end.pose, anchor.pose)
    ref = logged_end.pose
    lon, lat = global_to_local(p.x, p.y, ref.x, ref.y, ref.theta)
    return (lon, lat, angle_diff(p.theta, ref.theta))


def enumerate_perturbations(
    scenario: Scenario, vocab: Vocabulary, th: PerturbThresholds
) -> list[PerturbationCandidate]:
    """Threshold every vocabulary entry by where it would end at the anchor state.

    Offsets are measured against the logged ego pose at the end of the first
    simulation window (anchor + horizon). Candidates are left unplaced.
    """
    if vocab.horizon != scenario.t_horizon:
        raise ValidationError(
            f"vocabulary horizon {vocab.horizon} != scenario horizon {scenario.t_horizon}"
        )
    anchor = scenario.ego_log[scenario.anchor_frame]
    logged_end = scenario.ego_log[scenario.anchor_frame + scenario.t_horizon]

    out = []
    for idx, entry in enumerate(vocab.entries):
        lon, lat, dtheta = endpoint_offsets(entry.states[-1], anchor, logged_end)
        status, reason = STATUS_PENDING, ""
        if abs(lon) > th.r_lon:
            status, reason = STATUS_THRESHOLD_REJECTED, "lon"
        elif abs(lat) > th.r_lat:
            status, reason = STATUS_THRESHOLD_REJECTED, "lat"
        elif abs(dtheta) > th.dtheta_max:
            status, reason = STATUS_THRESHOLD_REJECTED, "heading"
        out.append(
            PerturbationCandidate(
                trajectory=None,
                offsets=(lon, lat, dtheta),
                status=status,
                vocab_index=idx,
                entry=entry,
                reason=reason,
            )
        )
    return out


def grid_sparsify(
    cands: Sequence[PerturbationCandidate], g: GridSpec, seed: int
) -> list[PerturbationCandidate]:
    """Keep one pending candidate per occupied endpoint cell (seeded choice).

    Non-pending candidates pass through untouched; dropped candidates are
    marked grid-dropped. The per-cell choice is keyed by (seed, cell) so it
    does not depend on list order beyond the membership of the cell.
    """
    cells: dict[tuple[int, int], list[int]] = {}
    out = list(cands)
    for i, c in enumerate(cands):
        if c.status != STATUS_PENDING:
            continue
        cell = g.cell(c.offsets[0], c.offsets[1])
        out[i] = replace(c, endpoint_cell=cell)
        cells.setdefault(cell, []).append(i)

    for cell, members in cells.items():
        rng = random.Random(mix64(seed, "grid-cell", cell[0], cell[1]))
        members_sorted = sorted(members, key=lambda i: cands[i].vocab_index)
        keep = members_sorted[rng.randrange(len(members_sorted))]
        for i in members_sorted:
            if i != keep:
                out[i] = replace(out[i], status=STATUS_GRID_DROPPED, reason="grid")
    return out


# feasibility mode: (status it takes, status it clears to, status it rejects to, misuse)
_CHECKS = {
    "nonreactive": (
        STATUS_PENDING, STATUS_CLEARED_NONREACTIVE, STATUS_INFEASIBLE_NONREACTIVE,
        "non-reactive check requires a pending candidate",
    ),
    "reactive": (
        STATUS_CLEARED_NONREACTIVE, STATUS_CLEARED_REACTIVE, STATUS_INFEASIBLE_REACTIVE,
        "reactive check requires a non-reactively cleared candidate",
    ),
}


def _history_track(scenario: Scenario) -> StateBatch:
    """(7, 1, anchor + 1): the logged ego up to the anchor, packed once per scenario."""
    return StateBatch.track(scenario.ego_log.states[: scenario.anchor_frame + 1])


def feasibility_filter_batch(
    cands: Sequence[PerturbationCandidate],
    scenario: Scenario,
    mode: str,
    epdms_min: float,
    ctx: SimContext | None = None,
) -> list[PerturbationCandidate]:
    """Roll candidates out in the world of `ctx` and mark each cleared or infeasible.

    Non-reactive checks run on pending candidates; reactive checks require a
    prior non-reactive clearance (the cheap filter always runs first), and
    an unplaced candidate is placed at the anchor state before its rollout.
    All candidates are simulated in one batched rollout, and each row comes
    out as if screened alone. Infeasibility reasons, tested in this order:
    "collision" (any contact, at fault or not), "off-road" (a footprint
    corner leaves the drivable area; decided before the other sub-metrics
    are computed), or "reward" (EPDMS below `epdms_min`, history comfort
    judged on the logged history plus the window). A cleared candidate keeps
    the states and sub-metrics of this rollout.
    """
    if mode not in _CHECKS:
        raise ValidationError(f"unknown feasibility mode '{mode}'")
    required, new_status, fail_status, problem = _CHECKS[mode]
    for cand in cands:
        if cand.status != required:
            raise ValidationError(f"{problem}, got {cand.status}")
    if not cands:
        return []

    ctx = ctx or SimContext()
    anchor = scenario.anchor_frame
    placed = [  # the one place an enumerated entry is placed
        c.trajectory if c.trajectory is not None
        else place_at_state(c.entry, scenario.ego_log[anchor])
        for c in cands
    ]
    H = scenario.t_horizon
    scene = rollout_batch(scenario, plan_batch(placed, scenario, H), anchor, H, ctx, mode=mode)
    ego = scene.ego
    collided = any_contact(scene, scenario, ctx)
    off_road = drivable_area_compliance(ego.x, ego.y, ego.theta, scenario, ctx) == 0.0
    reasons = ["collision" if hit else "off-road" for hit in collided.tolist()]
    cleared: dict[int, tuple[SceneStates, SubMetricVector]] = {}

    scored = np.flatnonzero(~collided & ~off_road).tolist()
    if scored:
        window = scene.take(scored)
        history = _cached_ops(scenario, _history_track).data
        comfort = StateBatch(np.concatenate(
            [np.repeat(history, len(scored), axis=1), window.ego.data[:, :, 1:]], axis=2
        ))
        rows = submetrics_batch(window, scenario, ctx, comfort=comfort).tolist()
        for j, (i, row) in enumerate(zip(scored, rows)):
            sub = SubMetricVector(*row)
            if aggregate_epdms(sub, ctx.weights) < epdms_min:
                reasons[i] = "reward"
            else:
                cleared[i] = (window.states(j), sub)
    return [
        replace(c, trajectory=plan, status=new_status, reason="",
                screen_states=cleared[i][0], screen_submetrics=cleared[i][1])
        if i in cleared
        else replace(c, trajectory=plan, status=fail_status, reason=reasons[i],
                     screen_states=None, screen_submetrics=None)
        for i, (c, plan) in enumerate(zip(cands, placed))
    ]


def feasibility_filter(
    cand: PerturbationCandidate,
    scenario: Scenario,
    mode: str,
    epdms_min: float,
    ctx: SimContext | None = None,
) -> PerturbationCandidate:
    """`feasibility_filter_batch` of one candidate."""
    return feasibility_filter_batch([cand], scenario, mode, epdms_min, ctx)[0]
