"""Trajectory vocabulary and perturbation sampling.

The vocabulary is a clustered bank of short ego-local maneuvers, one
(7, N, H + 1) `StateBatch` from file or k-means to the simulator. Per
scenario, whole-array passes over the bank threshold where each entry would
end at the anchor state, spread survivors over an interleaved endpoint grid,
and place and track only the grid survivors, straight into the batched
rollouts that filter them (non-reactive first, reactive on the sparse set
only, against the same ego track, since reactive rollouts cost the most).
Each pass is the scalar per-entry arithmetic bit for bit: `math` cos and
sin, `geometry.wrap_angle_many`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .batch import _bicycle_step, _bound, rollout_agents, rollout_batch
from .control import VehicleLimits
from .errors import SchemaError, ValidationError
from .geometry import _cached_ops, per_element, wrap_angle_many
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
from .reactive import SceneBatch, StateBatch, rollout  # noqa: F401
from .scenario import (
    _STATE_FIELDS, _STATE_KEYS, FRAME_EGO_LOCAL, Scenario, Trajectory, _array, _number,
    _state_from_json, dump_json_canonical,
)
from .seeding import mix64

STATUS_PENDING = "pending"
STATUS_THRESHOLD_REJECTED = "threshold-rejected"
STATUS_GRID_DROPPED = "grid-dropped"
STATUS_INFEASIBLE_NONREACTIVE = "infeasible-nonreactive"
STATUS_INFEASIBLE_REACTIVE = "infeasible-reactive"
STATUS_CLEARED_NONREACTIVE = "cleared-nonreactive"
STATUS_CLEARED_REACTIVE = "cleared-reactive"


@dataclass(frozen=True, slots=True, eq=False)
class Vocabulary(Sequence[Trajectory]):
    """Ego-local maneuvers of one dt and horizon, held as one (7, N, H + 1)
    `StateBatch` bank.

    Reading an entry builds its `Trajectory`, so a caller that reads a few
    entries of a large bank never materializes the rest.
    """

    dt: float
    tracks: StateBatch

    def __post_init__(self):
        if self.tracks.data.shape[1] == 0:
            raise ValidationError("vocabulary must not be empty")

    @classmethod
    def of(cls, entries: Sequence[Trajectory]) -> "Vocabulary":
        """The bank of trajectories that share one horizon and dt."""
        tracks = [StateBatch.track(e.states).data[:, 0] for e in entries]
        return _bank([e.dt for e in entries], tracks)

    def __len__(self) -> int:
        return self.tracks.data.shape[1]

    def __getitem__(self, i: int) -> Trajectory:
        return Trajectory(dt=self.dt, states=self.tracks.states(i), frame=FRAME_EGO_LOCAL)

    entries = property(lambda self: self)  # the trajectories, each built when read
    size = property(__len__)
    horizon = property(lambda self: self.tracks.data.shape[2] - 1)


def _bank(dts: Sequence[float], tracks: Sequence[np.ndarray]) -> Vocabulary:
    """The vocabulary of (7, n) ego-local tracks, which must share one n and dt."""
    if not tracks:
        raise ValidationError("vocabulary must not be empty")
    for i, (dt, track) in enumerate(zip(dts, tracks)):
        if track.shape != tracks[0].shape or dt != dts[0]:
            raise ValidationError(f"vocabulary entry {i} has mismatched horizon or dt")
    return Vocabulary(dts[0], StateBatch(np.stack(tracks, axis=1)))


def check_vocabulary(vocab: Vocabulary, scenario: Scenario) -> None:
    """Raise ValidationError unless the vocabulary runs at the scenario's horizon and dt."""
    for name, have, want in (
        ("horizon", vocab.horizon, scenario.t_horizon), ("dt", vocab.dt, scenario.dt)
    ):
        if have != want:
            raise ValidationError(f"vocabulary {name} {have} != scenario {name} {want}")


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

    def cells(self, lon: np.ndarray, lat: np.ndarray) -> list[tuple[int, int]]:
        """The (i_lon, i_lat) cell of each endpoint offset; with interleave, odd
        lon rows shift their lat bins by half a step."""
        i_lon = np.floor(lon / self.step_lon)
        shift = np.where(self.interleave & (i_lon % 2 != 0), 0.5 * self.step_lat, 0.0)
        i_lat = np.floor((lat - shift) / self.step_lat)
        return list(zip(map(int, i_lon.tolist()), map(int, i_lat.tolist())))


@dataclass(frozen=True, slots=True)
class PerturbationCandidate:
    offsets: tuple[float, float, float]  # (lon, lat, dtheta) vs logged endpoint
    status: str
    vocab_index: int
    # the entry's ego-local (7, H + 1) bank row, placed at the anchor by each screen
    entry: np.ndarray | None = field(default=None, compare=False)
    endpoint_cell: tuple[int, int] | None = None
    reason: str = ""
    # the one-row scene the clearing check simulated, and its sub-metrics;
    # None until cleared (arrays have no truth value, so the scene is not compared)
    screen_states: SceneBatch | None = field(default=None, compare=False)
    screen_submetrics: SubMetricVector | None = None


# ---------------------------------------------------------------------------
# Maneuver synthesis (vocabulary source at desk scale)

_SPEED_RANGE = (4.0, 14.0)  # m/s, each maneuver's uniformly drawn start speed


def synthesize_maneuvers(count: int, horizon: int, dt: float, seed: int) -> Vocabulary:
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
        v0 = rng.uniform(*_SPEED_RANGE)
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
    return Vocabulary(dt, StateBatch.stack(frames))


# ---------------------------------------------------------------------------
# Clustering


def _flatten(tracks: StateBatch) -> np.ndarray:
    """(N, 3n): each track's x, then its y, then its unwrapped heading."""
    return np.concatenate([tracks.x, tracks.y, np.unwrap(tracks.theta, axis=1)], axis=1)


_BLOCK_ROWS = 64  # rows of the distance matrix per cache-sized block


def _sq_distances(X: np.ndarray, xx: np.ndarray, centers: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Fill the (N, k) buffer `d2` with the squared distances ||x||^2 - 2 x.c
    + ||c||^2 and return each row's argmin.

    The matmul writes the whole buffer; the other passes and the argmin run
    on cache-sized blocks of rows. Bit-identical to evaluating the expression
    left to right: scaling by -2 is exact and a - b is a + (-b).
    """
    np.matmul(X, centers.T, out=d2)
    cc = np.sum(centers * centers, axis=1)
    nearest = np.empty(len(X), dtype=np.int64)
    for r in range(0, len(X), _BLOCK_ROWS):
        block = d2[r:r + _BLOCK_ROWS]
        block *= -2.0
        block += xx[r:r + _BLOCK_ROWS, None]
        block += cc
        nearest[r:r + _BLOCK_ROWS] = np.argmin(block, axis=1)
    return nearest


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
    choice of k rows; every iteration reuses one distance buffer."""
    rng = np.random.Generator(np.random.PCG64(mix64(seed, "kmeans", k)))
    centers = X[rng.choice(len(X), size=k, replace=False)].copy()
    xx = np.sum(X * X, axis=1)
    d2 = np.empty((len(X), k))
    assign = np.zeros(len(X), dtype=np.int64)
    for _ in range(100):
        new_assign = _sq_distances(X, xx, centers, d2)
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
    d2 = np.empty((len(X), len(centers)))
    _sq_distances(X, xx, centers, d2)
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
    keeps every entry a realizable trajectory. A `Vocabulary` bank is
    clustered from its array and the k chosen rows are taken from it, so no
    trajectory is built. Deterministic in (samples, k, seed).
    """
    if not samples:
        raise ValidationError("samples must not be empty")
    if k <= 0:
        raise ValidationError("k must be positive")
    if k > len(samples):
        raise ValidationError(f"k={k} exceeds sample count {len(samples)}")

    bank = samples if isinstance(samples, Vocabulary) else Vocabulary.of(samples)
    X = _flatten(bank.tracks)
    return Vocabulary(bank.dt, StateBatch(bank.tracks.data[:, _snap(X, _lloyd(X, k, seed))]))


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
    payload = [
        {"dt": vocab.dt, "states": [dict(zip(_STATE_FIELDS, s)) for s in track]}
        for track in vocab.tracks.data.transpose(1, 2, 0).tolist()
    ]
    Path(path).write_text(dump_json_canonical(payload), encoding="utf-8")


_STATE_VALUES = operator.itemgetter(*_STATE_FIELDS)


def _track_values(states: list, where: str) -> np.ndarray:
    """(7, n) values of an entry's JSON states.

    Finite floats under exactly the state keys are taken in bulk; any other
    entry is parsed state by state, which names its first bad field.
    """
    if all(type(s) is dict and s.keys() == _STATE_KEYS for s in states):
        rows = list(map(_STATE_VALUES, states))
        if set(map(type, itertools.chain.from_iterable(rows))) <= {float}:
            track = np.array(rows).reshape(-1, 7).T
            if np.isfinite(track).all():
                return track
    parsed = [_state_from_json(s, f"{where}[{j}]") for j, s in enumerate(states)]
    return StateBatch.track(parsed).data[:, 0]


def load_vocabulary(path: str | Path) -> Vocabulary:
    """The vocabulary file parsed straight into the bank."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise SchemaError("vocabulary: expected a JSON array of trajectories")
    dts, tracks = [], []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or set(item) != {"dt", "states"}:
            raise SchemaError(f"vocabulary[{i}]: expected fields dt, states")
        dts.append(_number(item["dt"], f"vocabulary[{i}].dt"))
        where = f"vocabulary[{i}].states"
        tracks.append(_track_values(_array(item["states"], where), where))
    return _bank(dts, tracks)


# ---------------------------------------------------------------------------
# Perturbation sampling


def place_tracks(local: np.ndarray, start: StateBatch) -> StateBatch:
    """(7, P, n) ego-local tracks, each rigidly moved to start at its row's
    pose in the (7, P) `start`; each row turns by `math` cos and sin of its
    start heading, so every state is placed as with Python floats."""
    x0, y0, theta0 = (v[:, None] for v in start.data[:3])
    c, s = per_element(math.cos, theta0), per_element(math.sin, theta0)
    x, y = local[0], local[1]
    placed = local.copy()
    placed[0] = x0 + (c * x - s * y)
    placed[1] = y0 + (s * x + c * y)
    placed[2] = wrap_angle_many(local[2] + theta0)
    return StateBatch(placed)


_THRESHOLD_REASONS = ("", "lon", "lat", "heading")


def enumerate_perturbations(
    scenario: Scenario, vocab: Vocabulary, th: PerturbThresholds
) -> list[PerturbationCandidate]:
    """Threshold every vocabulary entry by where it would end at the anchor state.

    Offsets are measured against the logged ego pose at the end of the first
    simulation window (anchor + horizon), in its frame (lon ahead, lat left),
    on every entry's last state placed at the anchor in one array pass.
    Candidates are left unplaced, each holding its bank row.
    """
    check_vocabulary(vocab, scenario)
    anchor = StateBatch.full(scenario.ego_log[scenario.anchor_frame], len(vocab))
    end = place_tracks(vocab.tracks.data[:, :, -1:], anchor).data[:, :, 0]
    ref = scenario.ego_log[scenario.anchor_frame + scenario.t_horizon].pose
    c, s = math.cos(-ref.theta), math.sin(-ref.theta)
    dx, dy = end[0] - ref.x, end[1] - ref.y
    lon, lat = c * dx - s * dy, s * dx + c * dy
    dtheta = wrap_angle_many(end[2] - ref.theta)
    bad = [np.abs(lon) > th.r_lon, np.abs(lat) > th.r_lat, np.abs(dtheta) > th.dtheta_max]
    reason = np.select(bad, [1, 2, 3])
    offsets = zip(lon.tolist(), lat.tolist(), dtheta.tolist())
    rows = vocab.tracks.data.transpose(1, 0, 2)
    return [
        PerturbationCandidate(
            off, STATUS_THRESHOLD_REJECTED if r else STATUS_PENDING, i, row, None,
            _THRESHOLD_REASONS[r],
        )
        for i, (off, r, row) in enumerate(zip(offsets, reason.tolist(), rows))
    ]


def grid_sparsify(
    cands: Sequence[PerturbationCandidate], g: GridSpec, seed: int
) -> list[PerturbationCandidate]:
    """Keep one pending candidate per occupied endpoint cell (seeded choice).

    Non-pending candidates pass through untouched; dropped candidates are
    marked grid-dropped. The cells of all pending candidates come from one
    array pass. The per-cell choice is keyed by (seed, cell) so it does not
    depend on list order beyond the membership of the cell.
    """
    out = list(cands)
    pending = [i for i, c in enumerate(cands) if c.status == STATUS_PENDING]
    lon, lat = np.array([cands[i].offsets[:2] for i in pending]).reshape(-1, 2).T
    cells: dict[tuple[int, int], list[int]] = {}
    for i, cell in zip(pending, g.cells(lon, lat)):
        cells.setdefault(cell, []).append(i)
    for cell, members in cells.items():
        rng = random.Random(mix64(seed, "grid-cell", cell[0], cell[1]))
        members.sort(key=lambda i: cands[i].vocab_index)
        keep = members[rng.randrange(len(members))]
        for i in members:
            c = cands[i]
            status, reason = (c.status, c.reason) if i == keep else (STATUS_GRID_DROPPED, "grid")
            out[i] = PerturbationCandidate(
                c.offsets, status, c.vocab_index, c.entry, cell, reason,
                c.screen_states, c.screen_submetrics,
            )
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
    prior non-reactive clearance (the cheap filter always runs first). All
    candidates are simulated in one batched rollout, and each row comes out
    as if screened alone. Infeasibility reasons, tested in this order:
    "collision" (any contact, at fault or not), "off-road" (a footprint
    corner leaves the drivable area; decided before the other sub-metrics
    are computed), or "reward" (EPDMS below `epdms_min`, history comfort
    judged on the logged history plus the window). A cleared candidate
    keeps its row of this rollout's scene, as views, and its sub-metrics; a
    check of candidates that all hold an earlier check's row (the reactive
    after the non-reactive) steps only the agents against that ego track.
    """
    if mode not in _CHECKS:
        raise ValidationError(f"unknown feasibility mode '{mode}'")
    required, new_status, fail_status, problem = _CHECKS[mode]
    t, H = scenario.anchor_frame, scenario.t_horizon
    for cand in cands:
        if cand.status != required:
            raise ValidationError(f"{problem}, got {cand.status}")
        e = cand.entry
        if not (isinstance(e, np.ndarray) and e.ndim == 2 and e.shape[0] == 7 and e.shape[1] > H):
            got = e.shape if isinstance(e, np.ndarray) else type(e).__name__
            raise ValidationError(
                f"candidate {cand.vocab_index}: entry must be a (7, >= {H + 1}) array, got {got}"
            )
    if not cands:
        return []

    ctx = ctx or SimContext()
    if all(c.screen_states is not None for c in cands):
        ego = StateBatch(np.concatenate([c.screen_states.ego.data for c in cands], axis=1))
        scene = rollout_agents(scenario, ego, t, ctx, mode=mode)
    else:  # each bank row placed at the anchor state, all in one call
        local = np.stack([c.entry[:, : H + 1] for c in cands], axis=1)
        plans = place_tracks(local, StateBatch.full(scenario.ego_log[t], len(cands)))
        scene = rollout_batch(scenario, plans, t, H, ctx, mode=mode)
    ego = scene.ego
    collided = any_contact(scene, scenario, ctx)
    off_road = drivable_area_compliance(ego.x, ego.y, ego.theta, scenario, ctx) == 0.0
    reasons = ["collision" if hit else "off-road" for hit in collided.tolist()]
    cleared: dict[int, SubMetricVector] = {}

    scored = np.flatnonzero(~collided & ~off_road).tolist()
    if scored:
        window = scene.take(scored)
        history = _cached_ops(scenario, _history_track).data
        comfort = StateBatch(np.concatenate(
            [np.repeat(history, len(scored), axis=1), window.ego.data[:, :, 1:]], axis=2
        ))
        rows = submetrics_batch(window, scenario, ctx, comfort=comfort).tolist()
        for i, row in zip(scored, rows):
            sub = SubMetricVector(*row)
            if aggregate_epdms(sub, ctx.weights) < epdms_min:
                reasons[i] = "reward"
            else:
                cleared[i] = sub
    return [
        replace(c, status=new_status, reason="", screen_states=scene.take(slice(i, i + 1)),
                screen_submetrics=cleared[i])
        if i in cleared
        else replace(c, status=fail_status, reason=reasons[i],
                     screen_states=None, screen_submetrics=None)
        for i, c in enumerate(cands)
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
