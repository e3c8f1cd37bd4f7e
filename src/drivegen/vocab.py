"""Trajectory vocabulary and perturbation sampling.

The vocabulary is a clustered bank of short ego-local maneuvers, one
(7, N, H + 1) `StateBatch` from file or k-means to the simulator. The
k-means runs Lloyd passes that rescore only the rows whose nearest center
could have changed and re-average only the clusters that gained or lost a
row. Every distance product has the row count of one of its fixed row
blocks, so the centers are plain Lloyd's bit for bit; each is snapped to
its nearest maneuver. Per
scenario, whole-array passes over the bank threshold where each entry would
end at the anchor state and spread survivors over an interleaved endpoint
grid. Each entry's `PerturbationCandidate` records its vocabulary index,
status (pending, threshold-rejected or grid-dropped), reason, endpoint
offsets and cell, not its bank row. Only the grid survivors are placed, by
the pipeline, straight into the batched rollouts that `screen_verdicts`
judges row by row; `feasibility_filter` screens one bank row alone. Each
pass is the scalar per-entry arithmetic bit for bit: `math` cos and sin,
`geometry.wrap_angle_many`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .batch import rollout_batch, two_phase_tracks
from .errors import SchemaError, ValidationError
from .geometry import _cached_ops, per_element, wrap_angle_many
# `check_collision`, `compute_submetrics` and `rollout` stay bound here:
# perfbench/tracer.py wraps `vocab.check_collision`, `vocab.compute_submetrics`
# and `vocab.rollout` by name
from .metrics import (  # noqa: F401
    ALL_METRICS,
    SimContext,
    _epdms_rows,
    any_contact,
    check_collision,
    compute_submetrics,
    drivable_area_compliance,
    submetrics_batch,
)
from .reactive import (  # noqa: F401
    MODE_NONREACTIVE, MODE_REACTIVE, SceneBatch, StateBatch, rollout,
)
from .scenario import (
    _STATE_FIELDS, _STATE_KEYS, FRAME_EGO_LOCAL, Scenario, Trajectory, _array, _number,
    _state_from_json, dump_json_canonical,
)
from .seeding import mix64

STATUS_PENDING = "pending"
STATUS_THRESHOLD_REJECTED = "threshold-rejected"
STATUS_GRID_DROPPED = "grid-dropped"


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
    endpoint_cell: tuple[int, int] | None = None
    reason: str = ""


# ---------------------------------------------------------------------------
# Maneuver synthesis (vocabulary source at desk scale)

_SPEED_RANGE = (4.0, 14.0)  # m/s, each maneuver's uniformly drawn start speed


def synthesize_maneuvers(count: int, horizon: int, dt: float, seed: int) -> Vocabulary:
    """Ego-local maneuvers: two-phase steering arcs crossed with speed profiles.

    Each maneuver is integrated with the kinematic bicycle, so entries are
    realizable trajectories; all of them step together in one
    `batch.two_phase_tracks` call, which also checks dt. Deterministic in
    (count, horizon, dt, seed).
    """
    if count < 1:
        raise ValidationError(f"maneuver count must be >= 1, got {count}")
    if horizon < 2:
        raise ValidationError(f"horizon must be >= 2, got {horizon}")
    rng = random.Random(mix64(seed, "maneuvers", count, horizon))
    draws = np.empty((count, 5))
    for row in draws:
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
        row[:] = v0, accel, d1, d2, switch
    return Vocabulary(dt, two_phase_tracks(*draws.T, horizon, dt))


# ---------------------------------------------------------------------------
# Clustering

_BLOCK_ROWS = 256  # rows per block of the k-means distance products


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(n / _BLOCK_ROWS) near-equal blocks of n rows.

    The blocks fix the shapes of the k-means distance products. BLAS may
    round a row's products differently in products of different row counts:
    a one-row product takes the gemv path, and at small M * k * D OpenBLAS
    takes a small-matrix kernel that rounds unlike its blocked gemm. So every
    product has the row count of a block, and the code relies only on this:
    products of the same shape agree bit for bit on the same rows, wherever
    those rows sit in them.
    """
    count = -(-n // _BLOCK_ROWS)
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _flatten(tracks: StateBatch) -> np.ndarray:
    """(N, 3n): each track's x, then its y, then its unwrapped heading;
    unwrapped a block of rows at a time, which is the same per row."""
    x, y, theta = tracks.data[:3]
    n = x.shape[1]
    X = np.empty((len(x), 3 * n))
    X[:, :n], X[:, n:2 * n] = x, y
    for r0, r1 in _row_blocks(len(x)):
        X[r0:r1, 2 * n:] = np.unwrap(theta[r0:r1], axis=1)
    return X


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """`np.sum(A * A, axis=1)`, one row block at a time."""
    out = np.empty(len(A))
    for r0, r1 in _row_blocks(len(A)):
        out[r0:r1] = np.sum(A[r0:r1] * A[r0:r1], axis=1)
    return out


def _sq_dist(
    X: np.ndarray, xx: np.ndarray, centers: np.ndarray, cc: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """The squared distances ||x||^2 - 2 x.c + ||c||^2 of the rows of X
    (squared norms `xx`) to the centers (squared norms `cc`), written to the
    front of the (r, k) buffer `buf` and evaluated left to right: scaling by
    -2 is exact, and a - b is a + (-b)."""
    out = buf.reshape(-1)[: len(X) * len(centers)].reshape(len(X), len(centers))
    np.matmul(X, centers.T, out=out)
    out *= -2.0
    out += xx[:, None]
    out += cc
    return out


def _margin(X: np.ndarray, xx: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """(8 D + 18) eps (max ||x||^2 + ||c||^2) per center of squared norm
    `cc`. It exceeds how far two matmul-form values of one exact distance
    can differ, (4 D + 10) u S with u = eps / 2, and how far a matmul-form
    value and the direct form can differ (see `_snap`)."""
    return (8 * X.shape[1] + 18) * np.finfo(float).eps * (xx.max() + cc)


def _distance_blocks(X: np.ndarray, xx: np.ndarray, centers: np.ndarray):
    """Yield (start, stop, d2) per row block: the squared distances of rows
    start:stop of X to every center, in one buffer that the next block
    overwrites, so the (N, k) matrix is never held."""
    cc = _sq_norms(centers)
    blocks = _row_blocks(len(X))
    buf = np.empty((max(r1 - r0 for r0, r1 in blocks), len(centers)))
    for r0, r1 in blocks:
        yield r0, r1, _sq_dist(X[r0:r1], xx[r0:r1], centers, cc, buf)


def _gathers(n: int, rows: np.ndarray):
    """Yield (index, m): the ascending `rows` of n rows in gathers of the
    row count of the block each row lies in; the last gather of each count
    is padded to it by repeating its rows, so only its first m are real."""
    blocks = _row_blocks(n)
    cuts = np.searchsorted(rows, [r0 for r0, _ in blocks] + [n]).tolist()
    for s in sorted({r1 - r0 for r0, r1 in blocks}):
        group = np.concatenate(
            [rows[a:b] for (r0, r1), a, b in zip(blocks, cuts, cuts[1:]) if r1 - r0 == s]
        )
        for i in range(0, len(group), s):
            index = group[i:i + s]
            yield np.resize(index, s), len(index)


def _lloyd_pass(
    X: np.ndarray, xx: np.ndarray, centers: np.ndarray, assign: np.ndarray,
    dist: np.ndarray, moved: np.ndarray | None, buf: np.ndarray,
) -> None:
    """One Lloyd assignment pass, in place: `assign` becomes each row's
    nearest center (ties to the lowest index) and `dist` its squared
    distance to it, bit for bit what a full pass over the row blocks gives.

    `moved` lists the centers that moved since the last pass, or is None
    when all may have. A row whose own center stayed is scored against the
    moved centers alone; unless one comes within `_margin` of its distance,
    it keeps its center and distance, since every other center is where it
    was. The rest get the full product, gathered in blocks of the row count
    of their own block, so each row rounds as in the full pass. With more
    than half the centers moved every row gets it. `buf` is one (rows, k)
    block buffer for every product.
    """
    k = len(centers)
    cc = _sq_norms(centers)
    if moved is None or 2 * len(moved) > k:
        need = np.ones(len(X), dtype=bool)
    else:
        is_moved = np.zeros(k, dtype=bool)
        is_moved[moved] = True
        need = is_moved[assign]
        stays = np.flatnonzero(~need)
        shifted, shifted_cc = centers[moved], cc[moved]
        margin = _margin(X, xx, shifted_cc)
        for i in range(0, len(stays), len(buf)):
            rows = stays[i:i + len(buf)]
            d2 = _sq_dist(X[rows], xx[rows], shifted, shifted_cc, buf)
            d2 -= margin
            need[rows[d2.min(axis=1) <= dist[rows]]] = True
    for index, m in _gathers(len(X), np.flatnonzero(need)):
        d2 = _sq_dist(X[index], xx[index], centers, cc, buf)[:m]
        near = np.argmin(d2, axis=1)
        assign[index[:m]] = near
        dist[index[:m]] = d2[np.arange(m), near]


def _update_centers(
    X: np.ndarray, assign: np.ndarray, dist: np.ndarray, centers: np.ndarray
) -> None:
    """Move each center, in cluster order, to the mean of its rows.

    An empty cluster is revived with the row farthest from its center under
    the assignment as it stands; that row leaves the later cluster it was in,
    and an earlier cluster's mean, already taken, keeps it. `dist` holds each
    row's squared distance to its nearest center. A revived row is at least
    as far from the center of the cluster it joins as from its nearest, so
    it stays the first farthest row: every empty cluster of one update takes
    the row that was farthest after the assignment pass.
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
            far = int(np.argmax(dist))
            centers[c] = X[far]
            assign[far] = c
            order = None


def _lloyd(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The (k, D) centers after plain Lloyd iterations (cap 100) from a
    seeded choice of k rows.

    Each pass rescores only the rows whose nearest center could have changed
    (`_lloyd_pass`). Each update re-averages only the clusters that gained
    or lost a row: the others hold the same rows in the same order, so their
    means keep their bits. The first update, and one with an empty cluster
    to revive, is `_update_centers` over every cluster; the pass after it
    scores every row, and after a revive the next update is a full one too.
    """
    rng = np.random.Generator(np.random.PCG64(mix64(seed, "kmeans", k)))
    centers = X[rng.choice(len(X), size=k, replace=False)].copy()
    xx = _sq_norms(X)
    assign = np.zeros(len(X), dtype=np.int64)
    dist = np.empty(len(X))
    buf = np.empty((max(r1 - r0 for r0, r1 in _row_blocks(len(X))), k))
    moved = None  # the centers moved by the last update; None: all of them
    means = False  # whether each center is the mean of its cluster's rows
    for _ in range(100):
        before = assign.copy()
        _lloyd_pass(X, xx, centers, assign, dist, moved, buf)
        counts = np.bincount(assign, minlength=k)
        if means and counts.all():
            changed = assign != before
            moved = np.flatnonzero(
                np.bincount(before[changed], minlength=k) + np.bincount(assign[changed], minlength=k)
            )
            order = np.argsort(assign, kind="stable")  # rows by cluster, in index order
            bounds = np.concatenate(([0], np.cumsum(counts)))
            for c in moved.tolist():
                centers[c] = X[order[bounds[c]:bounds[c + 1]]].mean(axis=0)
        else:
            _update_centers(X, assign, dist, centers)
            moved, means = None, bool(counts.all())
        if np.array_equal(assign, before):
            break
    return centers


def _snap(X: np.ndarray, centers: np.ndarray) -> list[int]:
    """Index of each center's nearest row by the direct `sum((x - c) ** 2)`,
    ties to the lowest index.

    Only rows whose matmul distance lies within `_margin` of the column's
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

    One pass over the row blocks keeps each column's running minimum and
    every row within `_margin` of it; the running minimum only falls, so
    this is a superset of the candidates, filtered by the final minimum.
    """
    xx = _sq_norms(X)
    margin = _margin(X, xx, _sq_norms(centers))
    low = np.full(len(centers), np.inf)
    found = []
    for r0, r1, d2 in _distance_blocks(X, xx, centers):
        np.minimum(low, d2.min(axis=0), out=low)
        cols, rows = np.nonzero(d2.T <= low[:, None] + margin[:, None])
        found.append((cols, rows + r0, d2[rows, cols]))
    cols, rows, d = (np.concatenate(a) for a in zip(*found))
    keep = d <= (low + margin)[cols]
    order = np.argsort(cols[keep], kind="stable")  # by column, rows in index order
    cols, rows = cols[keep][order], rows[keep][order]
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
    Candidates are left unplaced; each names its bank row by `vocab_index`.
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
    return [
        PerturbationCandidate(
            off, STATUS_THRESHOLD_REJECTED if r else STATUS_PENDING, i, None, _THRESHOLD_REASONS[r]
        )
        for i, (off, r) in enumerate(zip(offsets, reason.tolist()))
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
            out[i] = PerturbationCandidate(c.offsets, status, c.vocab_index, cell, reason)
    return out


def _history_track(scenario: Scenario) -> StateBatch:
    """(7, 1, anchor + 1): the logged ego up to the anchor, packed once per scenario."""
    return StateBatch.track(scenario.ego_log.states[: scenario.anchor_frame + 1])


def screen_verdicts(
    scene: SceneBatch, scenario: Scenario, epdms_min: float, ctx: SimContext
) -> tuple[np.ndarray, np.ndarray]:
    """The feasibility verdict of every row of a simulated scene: each row's
    reject reason ("" if the row clears) and the (P, 9) sub-metrics.

    Reasons, tested in this order: "collision" (any contact, at fault or
    not), "off-road" (a footprint corner leaves the drivable area; decided
    before the other sub-metrics are computed, so those rows' sub-metrics
    stay NaN), or "reward" (EPDMS below `epdms_min`, history comfort judged
    on the logged history plus the window).
    """
    ego = scene.ego
    collided = any_contact(scene, scenario, ctx)
    off_road = drivable_area_compliance(ego.x, ego.y, ego.theta, scenario, ctx) == 0.0
    reasons = np.select([collided, off_road], ["collision", "off-road"], "")
    sub = np.full((len(reasons), len(ALL_METRICS)), np.nan)
    scored = np.flatnonzero(reasons == "")
    window = scene.take(scored)
    history = _cached_ops(scenario, _history_track).data
    comfort = StateBatch(np.concatenate(
        [np.repeat(history, len(scored), axis=1), window.ego.data[:, :, 1:]], axis=2
    ))
    sub[scored] = submetrics_batch(window, scenario, ctx, comfort=comfort)
    reasons[scored[_epdms_rows(sub[scored], ctx.weights) < epdms_min]] = "reward"
    return reasons, sub


def feasibility_filter(
    entry: np.ndarray,
    scenario: Scenario,
    mode: str,
    epdms_min: float,
    ctx: SimContext | None = None,
) -> str:
    """The feasibility verdict of one (7, >= H + 1) vocabulary bank row: its
    first H + 1 states placed at the anchor state, simulated as one row in
    `mode` in the world of `ctx` and judged by `screen_verdicts`; the reject
    reason, "" if the row clears.
    """
    if mode not in (MODE_NONREACTIVE, MODE_REACTIVE):
        raise ValidationError(f"unknown feasibility mode '{mode}'")
    t, H = scenario.anchor_frame, scenario.t_horizon
    if not (isinstance(entry, np.ndarray) and entry.ndim == 2 and entry.shape[0] == 7
            and entry.shape[1] > H):
        got = entry.shape if isinstance(entry, np.ndarray) else type(entry).__name__
        raise ValidationError(f"entry must be a (7, >= {H + 1}) array, got {got}")
    ctx = ctx or SimContext()
    plan = place_tracks(entry[:, None, : H + 1], StateBatch.full(scenario.ego_log[t], 1))
    scene = rollout_batch(scenario, plan, t, H, ctx, mode=mode)
    return str(screen_verdicts(scene, scenario, epdms_min, ctx)[0][0])
