"""Two-stage generation pipeline: perturb, roll out, demonstrate, filter, export.

Each sample runs two simulations of one horizon each: the perturbation stage
moves the ego to an out-of-distribution state, the expert stage demonstrates
how to continue from it. From the screen on, a scenario's candidates are
rows: the screen returns the vocabulary indices, the scene and the
sub-metrics of the rows it clears, the rounds draw row numbers, and stage 2
simulates the drawn rows of that scene in one call. Camera poses are stubbed
from the ego track (no rendering). Everything is deterministic in (corpus,
config, master seed), including under process-level parallelism.
"""

from __future__ import annotations

import csv
import io
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .batch import rollout_agents, rollout_batch
from .config import CameraConfig, PipelineConfig, config_hash
from .errors import ValidationError
from .expert import (
    EXPERT_RECOVERY,
    expert_filter,
    # stays bound here: perfbench/tracer.py wraps `pipeline.privileged_plan`
    privileged_plan,  # noqa: F401
    privileged_plans,
    recovery_retrieve,
    recovery_targets,
)
# `compute_submetrics`, `rollout` and `feasibility_filter` stay bound here:
# perfbench/tracer.py wraps them as `pipeline.<name>`
from .metrics import (  # noqa: F401
    RewardRecord,
    SubMetricVector,
    _epdms_rows,
    compute_submetrics,
    submetrics_batch,
)
from .reactive import MODE_NONREACTIVE, MODE_REACTIVE, SceneBatch, StateBatch, rollout  # noqa: F401
from .scenario import Scenario, corpus_id_collisions, dump_json_canonical, track_to_json
from .seeding import mix64
from .vocab import (
    STATUS_PENDING,
    Vocabulary,
    check_vocabulary,
    default_vocabulary,
    enumerate_perturbations,
    feasibility_filter,  # noqa: F401
    grid_sparsify,
    place_tracks,
    screen_verdicts,
)

REJECT_BUCKETS = ("collision", "offroad", "reward", "kinematics")


@dataclass(frozen=True, slots=True)
class SimSample:
    """An accepted sample: the one-row scenes of its two simulated windows,
    stage 1 (the perturbation rollout that cleared the screen) and stage 2
    (the expert's continuation from its last frame), and the camera poses
    of `sensor_stub` over the combined ego track. Arrays have no truth
    value, so those fields are not compared."""

    scenario_id: str
    round: int
    expert_kind: str
    stage1: SceneBatch = field(compare=False)
    stage2: SceneBatch = field(compare=False)
    reward: RewardRecord
    sensors: np.ndarray = field(compare=False)  # (cameras, frames, 3): x, y, theta
    seed: int
    candidate_index: int

    def __post_init__(self):
        ax, ay = self.stage1.ego.data[:2, 0, -1].tolist()
        bx, by = self.stage2.ego.data[:2, 0, 0].tolist()
        if math.hypot(ax - bx, ay - by) > 0.05:
            raise ValidationError("history and future are not contiguous at the handoff frame")


@dataclass(frozen=True, slots=True)
class RoundStats:
    round: int
    expert_kind: str
    attempted: int
    accepted: int
    cumulative_accepted: int
    rejects: Mapping[str, int]


def sensor_stub(ego: StateBatch, camera_rig: Sequence[CameraConfig]) -> np.ndarray:
    """The (cameras, n, 3) poses x, y, theta of each camera along a one-row
    (7, 1, n) ego track: the rig's fixed (dx, dy, dyaw) offsets placed at
    every ego pose by `vocab.place_tracks`."""
    if not camera_rig:
        raise ValidationError("camera rig must not be empty")
    offsets = np.zeros((7, ego.data.shape[2], len(camera_rig)))  # the rig at every pose
    offsets[:3] = np.array([(cam.dx, cam.dy, cam.dyaw) for cam in camera_rig]).T[:, None]
    poses = place_tracks(offsets, StateBatch(ego.data[:, 0]))
    return poses.data[:3].transpose(2, 1, 0)


# ---------------------------------------------------------------------------
# Candidate preparation


def prepare_candidates(
    scenario: Scenario, vocab: Vocabulary, config: PipelineConfig
) -> tuple[np.ndarray, SceneBatch, np.ndarray]:
    """The rows of the full vocabulary that clear the feasibility screen:
    their vocabulary indices, in the order the grid hands them over (index
    order), the C-row scene that cleared them and their (C, 9) sub-metrics.

    The vocabulary is thresholded and grid-sparsified; the grid survivors'
    bank rows are placed at the anchor state and simulated in one
    non-reactive rollout. In reactive runs the agents of the rows it clears
    are stepped against the same ego track in one more call (the ego tracks
    its plan whatever the agents do), and those rows are judged again.
    """
    cands = enumerate_perturbations(scenario, vocab, config.perturb)
    cands = grid_sparsify(cands, config.grid, mix64(config.master_seed, scenario.id))
    index = np.array([c.vocab_index for c in cands if c.status == STATUS_PENDING], dtype=int)
    t, ctx, epdms_min = scenario.anchor_frame, config.sim_context, config.perturb.epdms_min
    start = StateBatch.full(scenario.ego_log[t], len(index))
    plans = place_tracks(vocab.tracks.data[:, index], start)
    scene = rollout_batch(scenario, plans, t, scenario.t_horizon, ctx, mode=MODE_NONREACTIVE)
    reasons, sub = screen_verdicts(scene, scenario, epdms_min, ctx)
    if config.reactive:
        cleared = np.flatnonzero(reasons == "")
        index, ego = index[cleared], StateBatch(scene.ego.data[:, cleared])
        scene = rollout_agents(scenario, ego, t, ctx, mode=MODE_REACTIVE)
        reasons, sub = screen_verdicts(scene, scenario, epdms_min, ctx)
    cleared = np.flatnonzero(reasons == "")
    return index[cleared], scene.take(cleared), sub[cleared]


# ---------------------------------------------------------------------------
# Sample simulation


def sample_seed(master_seed: int, scenario_id: str, round_idx: int, candidate_index: int) -> int:
    """Documented per-sample seed: splitmix64 mixing of the four identifiers."""
    return mix64(master_seed, scenario_id, round_idx, candidate_index)


def _reject_bucket(reason: str) -> str:
    """The `stats.csv` bucket of an `expert_filter` reject reason."""
    return {"nc": "collision", "dac": "offroad", "kinematics": "kinematics"}.get(reason, "reward")


def expert_stage(
    scenario: Scenario, stage1: SceneBatch, config: PipelineConfig, vocab: Vocabulary
) -> tuple[SceneBatch, np.ndarray]:
    """Stage 2 of P screened rows, the P-row scene `stage1`: the
    pseudo-expert's demonstration from each perturbed state, simulated in
    the run's mode and scored; the P-row scene and its (P, 9) sub-metrics.

    Every demonstration runs in one batched rollout from its own perturbed
    ego and agent states, the last frame of its stage-1 row, except in
    reactive planner runs: there the planner's winning proposal already is
    that rollout, so its window and sub-metrics are kept. The retrieval
    targets are read off the start frame, and the retrieved rows are
    placed, and the planner plans, for every perturbed state in one call.
    History comfort is judged on the window alone.
    """
    ctx = config.sim_context
    H = scenario.t_horizon
    anchor2 = scenario.anchor_frame + H
    ego_start = StateBatch(stage1.ego.data[:, :, -1])
    agent_init = {aid: StateBatch(track.data[:, :, -1]) for aid, track in stage1.agents.items()}
    if config.expert_kind == EXPERT_RECOVERY:
        check_vocabulary(vocab, scenario)
        targets = recovery_targets(ego_start, scenario.ego_log[anchor2 + H])
        chosen = [recovery_retrieve(target, vocab) for target in targets]
        plans = place_tracks(vocab.tracks.data[:, chosen], ego_start)
    else:
        plans, scene, sub = privileged_plans(
            scenario, anchor2, ego_start, agent_init, config.planner, ctx
        )
        if config.reactive:
            return scene, sub
    scene = rollout_batch(
        scenario, plans, anchor2, H, ctx, ego_start=ego_start, agent_init=agent_init,
        mode=MODE_REACTIVE if config.reactive else MODE_NONREACTIVE,
    )
    return scene, submetrics_batch(scene, scenario, ctx)


def _sample(
    scenario: Scenario,
    index: int,
    round_idx: int,
    config: PipelineConfig,
    stage1: SceneBatch,
    sub1: np.ndarray,
    stage2: SceneBatch,
    sub2: np.ndarray,
) -> tuple[SimSample | None, str]:
    """The expert-stage filter on a drawn row's simulated stage 2, and the
    sample it accepts. `index` is the row's vocabulary entry, `stage1` the
    one-row scene that cleared the screen and `stage2` its continuation,
    each with its row of sub-metrics."""
    ctx = config.sim_context
    reward = SubMetricVector(*sub2.tolist())
    accepted, reason = expert_filter(stage2, reward, config.expert_filter, ctx.limits)
    if not accepted:
        return None, reason
    epdms1, epdms2 = _epdms_rows(np.stack([sub1, sub2]), ctx.weights).tolist()
    ego = StateBatch(np.concatenate([stage1.ego.data, stage2.ego.data[:, :, 1:]], axis=2))
    sample = SimSample(
        scenario_id=scenario.id,
        round=round_idx,
        expert_kind=config.expert_kind,
        stage1=stage1,
        stage2=stage2,
        reward=RewardRecord(submetrics=reward, epdms=epdms2, stage_scores=(epdms1, epdms2)),
        sensors=sensor_stub(ego, config.cameras),
        seed=sample_seed(config.master_seed, scenario.id, round_idx, index),
        candidate_index=index,
    )
    return sample, ""


# ---------------------------------------------------------------------------
# Corpus-level generation

_WORKER_STATE: dict = {}


def _worker_init(vocab: Vocabulary, config: PipelineConfig) -> None:
    _WORKER_STATE["vocab"] = vocab
    _WORKER_STATE["config"] = config


def _round_draws(
    n_cleared: int, rounds: int, per_round: int | None, master_seed: int, scenario_id: str
) -> list[list[int]]:
    """Disjoint per-round draws of row numbers of the cleared rows."""
    order = list(range(n_cleared))
    random.Random(mix64(master_seed, scenario_id, "round-draw")).shuffle(order)
    size = per_round if per_round is not None else math.ceil(n_cleared / rounds)
    return [order[r * size : (r + 1) * size] for r in range(rounds)]


def _process_scenario_impl(
    scenario: Scenario, vocab: Vocabulary, config: PipelineConfig
) -> list[tuple[int, SimSample | None, str]]:
    """(round, sample or None, reject reason) of each cleared row the scenario draws."""
    index, scene, sub = prepare_candidates(scenario, vocab, config)
    draws = _round_draws(
        len(index), config.rounds, config.per_round, config.master_seed, scenario.id
    )
    drawn = [(r, i) for r, rows in enumerate(draws) for i in sorted(rows)]
    stage1 = scene.take([i for _, i in drawn])
    stage2, sub2 = expert_stage(scenario, stage1, config, vocab)
    vocab_index = index.tolist()
    return [
        (r, *_sample(
            scenario, vocab_index[i], r, config, stage1.take(slice(j, j + 1)), sub[i],
            stage2.take(slice(j, j + 1)), sub2[j],
        ))
        for j, (r, i) in enumerate(drawn)
    ]


def _process_scenario(scenario: Scenario):
    return _process_scenario_impl(scenario, _WORKER_STATE["vocab"], _WORKER_STATE["config"])


def run_generation(
    corpus: Sequence[Scenario],
    config: PipelineConfig,
    vocab: Vocabulary | None = None,
    workers: int = 1,
) -> tuple[list[SimSample], list[RoundStats]]:
    """Generate a dataset over a corpus with disjoint draws in each of
    `config.rounds` rounds.

    No candidate is reused across rounds. Output ordering and content are
    independent of `workers`; the merge is done in (scenario id, round,
    candidate index) order and per-sample seeds depend only on identifiers.
    """
    if not corpus:
        raise ValidationError("corpus is empty")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    dups = corpus_id_collisions(corpus)
    if dups:
        raise ValidationError(f"duplicate scenario id in corpus: {dups[0]}")
    if vocab is None:
        vocab = default_vocabulary(
            seed=config.master_seed,
            horizon=corpus[0].t_horizon,
            dt=corpus[0].dt,
            size=config.vocab_size,
            source_count=config.vocab_source_count,
        )

    ordered = sorted(corpus, key=lambda s: s.id)
    # no more worker processes than scenarios: each forks and unpickles the vocabulary
    workers = min(workers, len(ordered))
    if workers == 1:
        per_scenario = [_process_scenario_impl(s, vocab, config) for s in ordered]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(vocab, config)
        ) as pool:
            per_scenario = list(pool.map(_process_scenario, ordered))

    rounds = config.rounds
    samples: list[SimSample] = []
    attempted = [0] * rounds
    accepted = [0] * rounds
    rejects = [{b: 0 for b in REJECT_BUCKETS} for _ in range(rounds)]
    for scenario_results in per_scenario:
        for r, sample, reason in scenario_results:
            attempted[r] += 1
            if sample is not None:
                accepted[r] += 1
                samples.append(sample)
            else:
                rejects[r][_reject_bucket(reason)] += 1

    samples.sort(key=lambda s: (s.scenario_id, s.round, s.candidate_index))
    stats = []
    cumulative = 0
    for r in range(rounds):
        cumulative += accepted[r]
        stats.append(
            RoundStats(
                round=r,
                expert_kind=config.expert_kind,
                attempted=attempted[r],
                accepted=accepted[r],
                cumulative_accepted=cumulative,
                rejects=dict(rejects[r]),
            )
        )
    return samples, stats


# ---------------------------------------------------------------------------
# Export


def sample_to_dict(sample: SimSample, cameras: Sequence[CameraConfig]) -> dict:
    """The export record of a sample; camera ids and intrinsics come from
    the rig that `sensor_stub` posed."""
    stage1, stage2 = sample.stage1, sample.stage2
    return {
        "scenario_id": sample.scenario_id,
        "round": sample.round,
        "expert_kind": sample.expert_kind,
        "seed": sample.seed,
        "candidate_index": sample.candidate_index,
        "history": track_to_json(stage1.ego.data[:, 0]),
        "expert_future": track_to_json(stage2.ego.data[:, 0]),
        "agents_sim": [
            {"id": aid, "states": track_to_json(np.concatenate(
                [track.data[:, 0], stage2.agents[aid].data[:, 0, 1:]], axis=1
            ))}
            for aid, track in sorted(stage1.agents.items())
        ],
        "reward": sample.reward.as_dict(),
        "sensors": {
            "cameras": [
                {"id": cam.id, "poses": poses, "intrinsics": dict(cam.intrinsics)}
                for cam, poses in zip(cameras, sample.sensors.tolist())
            ]
        },
    }


def stats_csv_text(stats: Sequence[RoundStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["round", "expert_kind", "attempted", "accepted", "cumulative_accepted"]
        + [f"reject_{b}" for b in REJECT_BUCKETS]
    )
    for row in stats:
        writer.writerow(
            [row.round, row.expert_kind, row.attempted, row.accepted, row.cumulative_accepted]
            + [row.rejects.get(b, 0) for b in REJECT_BUCKETS]
        )
    return buf.getvalue()


def export_dataset(
    samples: Sequence[SimSample],
    path: str | Path,
    stats: Sequence[RoundStats],
    config: PipelineConfig,
    corpus_ids: Sequence[str] = (),
) -> list[Path]:
    """Write dataset.jsonl, stats.csv and manifest.json into a directory.

    Every sample is checked against the export guarantee before any file is
    written; dataset.jsonl is then written one record at a time, so only one
    record's text is held. Re-exporting the same inputs produces
    byte-identical files.
    """
    # the expert-filter guarantee is re-asserted at the export boundary
    ep_min = config.expert_filter.ep_min
    for s in samples:
        sub = s.reward.submetrics
        if not (sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0 and sub.ep > ep_min):
            raise ValidationError(
                f"sample {s.scenario_id}/{s.candidate_index} violates the export safety guarantee"
            )

    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset_path = out_dir / "dataset.jsonl"
    with dataset_path.open("w", encoding="utf-8") as f:
        for s in samples:
            f.write(dump_json_canonical(sample_to_dict(s, config.cameras)))

    stats_path = out_dir / "stats.csv"
    stats_path.write_text(stats_csv_text(stats), encoding="utf-8")

    manifest_path = out_dir / "manifest.json"
    manifest = {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "master_seed": config.master_seed,
        "reactive": config.reactive,
        "expert_kind": config.expert_kind,
        "corpus_ids": sorted(corpus_ids),
    }
    manifest_path.write_text(dump_json_canonical(manifest), encoding="utf-8")
    return [dataset_path, stats_path, manifest_path]
