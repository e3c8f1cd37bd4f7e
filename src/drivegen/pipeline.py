"""Two-stage generation pipeline: perturb, roll out, demonstrate, filter, export.

Each sample runs two simulations of one horizon each: the perturbation stage
moves the ego to an out-of-distribution state, the expert stage demonstrates
how to continue from it. Camera poses are stubbed from the ego track (no
rendering). Everything is deterministic in (corpus, config, master seed),
including under process-level parallelism.
"""

from __future__ import annotations

import csv
import io
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .batch import plan_batch, rollout_batch
from .config import CameraConfig, PipelineConfig, config_hash
from .errors import ValidationError
from .expert import (
    EXPERT_PLANNER,
    EXPERT_RECOVERY,
    expert_filter,
    # stays bound here: perfbench/tracer.py wraps `pipeline.privileged_plan`
    privileged_plan,  # noqa: F401
    privileged_plans,
    recovery_retrieve,
    recovery_target,
)
from .geometry import local_to_global, wrap_angle
# `compute_submetrics`, `rollout` and `feasibility_filter` stay bound here:
# perfbench/tracer.py wraps them as `pipeline.<name>`
from .metrics import (  # noqa: F401
    RewardRecord,
    SubMetricVector,
    aggregate_epdms,
    compute_submetrics,
    submetrics_batch,
)
from .reactive import MODE_NONREACTIVE, MODE_REACTIVE, SceneStates, StateBatch, rollout  # noqa: F401
from .scenario import (
    FRAME_GLOBAL,
    Pose2D,
    Scenario,
    Trajectory,
    corpus_id_collisions,
    dump_json_canonical,
    _state_to_json,
)
from .seeding import mix64
from .vocab import (
    STATUS_CLEARED_NONREACTIVE,
    STATUS_CLEARED_REACTIVE,
    STATUS_PENDING,
    PerturbationCandidate,
    Vocabulary,
    default_vocabulary,
    enumerate_perturbations,
    feasibility_filter,  # noqa: F401
    feasibility_filter_batch,
    grid_sparsify,
    place_at_state,
)

REJECT_BUCKETS = ("collision", "offroad", "reward", "kinematics")


@dataclass(frozen=True, slots=True)
class CameraPoseTrack:
    id: str
    poses: tuple[Pose2D, ...]
    intrinsics: Mapping


@dataclass(frozen=True, slots=True)
class SensorPoseTrack:
    cameras: tuple[CameraPoseTrack, ...]


@dataclass(frozen=True, slots=True)
class SimSample:
    scenario_id: str
    round: int
    expert_kind: str
    perturbed_history: Trajectory
    expert_future: Trajectory
    states: SceneStates
    reward: RewardRecord
    sensors: SensorPoseTrack
    seed: int
    candidate_index: int

    def __post_init__(self):
        a = self.perturbed_history.states[-1].pose
        b = self.expert_future.states[0].pose
        if math.hypot(a.x - b.x, a.y - b.y) > 0.05:
            raise ValidationError("history and future are not contiguous at the handoff frame")


@dataclass(frozen=True, slots=True)
class RoundStats:
    round: int
    expert_kind: str
    attempted: int
    accepted: int
    cumulative_accepted: int
    rejects: Mapping[str, int]


def sensor_stub(states: SceneStates, camera_rig: Sequence[CameraConfig]) -> SensorPoseTrack:
    """Compose each camera's fixed ego-to-camera transform with the ego track."""
    if not camera_rig:
        raise ValidationError("camera rig must not be empty")
    cams = []
    for cam in camera_rig:
        poses = []
        for s in states.ego:
            x, y = local_to_global(cam.dx, cam.dy, s.pose.x, s.pose.y, s.pose.theta)
            poses.append(Pose2D(x, y, wrap_angle(s.pose.theta + cam.dyaw)))
        cams.append(CameraPoseTrack(cam.id, tuple(poses), cam.intrinsics))
    return SensorPoseTrack(tuple(cams))


# ---------------------------------------------------------------------------
# Candidate preparation


def cleared_status(config: PipelineConfig) -> str:
    return STATUS_CLEARED_REACTIVE if config.reactive else STATUS_CLEARED_NONREACTIVE


def screen_batch(
    cands: Sequence[PerturbationCandidate], scenario: Scenario, config: PipelineConfig
) -> list[PerturbationCandidate]:
    """The feasibility screen: non-reactive first, then reactive on its survivors.

    Pending candidates take the non-reactive check; in reactive runs those it
    clears take the reactive one. Candidates this config has cleared pass
    through unchanged, so the screen runs once per candidate. Each check is
    one batched rollout of every candidate it takes.
    """
    epdms_min, ctx = config.perturb.epdms_min, config.sim_context
    checks = [(STATUS_PENDING, MODE_NONREACTIVE)]
    if config.reactive:
        checks.append((STATUS_CLEARED_NONREACTIVE, MODE_REACTIVE))
    out = list(cands)
    for status, mode in checks:
        taken = [i for i, c in enumerate(out) if c.status == status]
        if taken:
            checked = feasibility_filter_batch(
                [out[i] for i in taken], scenario, mode, epdms_min, ctx
            )
            for i, cand in zip(taken, checked):
                out[i] = cand
    return out


def prepare_candidates(
    scenario: Scenario, vocab: Vocabulary, config: PipelineConfig
) -> list[PerturbationCandidate]:
    """Threshold and grid-sparsify the full vocabulary; place and screen its grid survivors."""
    cands = enumerate_perturbations(scenario, vocab, config.perturb)
    cands = grid_sparsify(cands, config.grid, mix64(config.master_seed, scenario.id))
    return screen_batch(cands, scenario, config)


# ---------------------------------------------------------------------------
# Sample simulation


def sample_seed(master_seed: int, scenario_id: str, round_idx: int, candidate_index: int) -> int:
    """Documented per-sample seed: splitmix64 mixing of the four identifiers."""
    return mix64(master_seed, scenario_id, round_idx, candidate_index)


def _reject_bucket(reason: str) -> str:
    if reason in ("nc", "collision"):
        return "collision"
    if reason in ("dac", "off-road"):
        return "offroad"
    if reason == "kinematics":
        return "kinematics"
    return "reward"


def expert_stage(
    scenario: Scenario,
    cands: Sequence[PerturbationCandidate],
    expert_kind: str,
    config: PipelineConfig,
    vocab: Vocabulary,
) -> list[tuple[SceneStates, SubMetricVector]]:
    """Stage 2 of screened candidates: the pseudo-expert's demonstration from
    each perturbed state, simulated in the run's mode and scored.

    Every demonstration runs in one batched rollout from its own perturbed
    ego and agent states, except in reactive planner runs: there the
    planner's winning proposal already is that rollout, so its window and
    sub-metrics are kept. The planner plans from every perturbed state in
    one batched call. History comfort is judged on the window alone.
    """
    if expert_kind not in (EXPERT_RECOVERY, EXPERT_PLANNER):
        raise ValidationError(f"unknown expert kind '{expert_kind}'")
    if not cands:
        return []
    ctx = config.sim_context
    H = scenario.t_horizon
    anchor2 = scenario.anchor_frame + H
    starts = [c.screen_states.ego[-1] for c in cands]
    finals = [{aid: track[-1] for aid, track in c.screen_states.agents.items()} for c in cands]
    if expert_kind == EXPERT_RECOVERY:
        logged_end = scenario.ego_log[anchor2 + H]
        plans = [
            place_at_state(recovery_retrieve(recovery_target(s, logged_end), vocab), s)
            for s in starts
        ]
    else:
        chosen = privileged_plans(scenario, anchor2, list(zip(starts, finals)), config.planner, ctx)
        if config.reactive:
            return [(plan.states, plan.submetrics) for plan in chosen]
        plans = [plan.reference for plan in chosen]
    scene = rollout_batch(
        scenario, plan_batch(plans, scenario, H), anchor2, H, ctx,
        ego_start=StateBatch.frame(starts),
        agent_init={aid: StateBatch.frame([f[aid] for f in finals]) for aid in finals[0]},
        mode=MODE_REACTIVE if config.reactive else MODE_NONREACTIVE,
    )
    rows = submetrics_batch(scene, scenario, ctx).tolist()
    return [(scene.states(j), SubMetricVector(*row)) for j, row in enumerate(rows)]


def _sample(
    scenario: Scenario,
    cand: PerturbationCandidate,
    round_idx: int,
    expert_kind: str,
    config: PipelineConfig,
    states2: SceneStates,
    sub2: SubMetricVector,
) -> tuple[SimSample | None, str]:
    """The expert-stage filter on a simulated stage 2, and the sample it accepts."""
    ctx = config.sim_context
    dt = scenario.dt
    executed2 = Trajectory(dt=dt, states=states2.ego, frame=FRAME_GLOBAL)
    accepted, reason = expert_filter(
        states2, scenario, executed2, config.expert_filter, ctx, precomputed=sub2
    )
    if not accepted:
        return None, reason
    states1 = cand.screen_states
    epdms1 = aggregate_epdms(cand.screen_submetrics, ctx.weights)
    epdms2 = aggregate_epdms(sub2, ctx.weights)

    ego_comb = states1.ego + states2.ego[1:]
    agents_comb = {
        aid: states1.agents[aid] + states2.agents[aid][1:] for aid in states1.agents
    }
    states_comb = SceneStates(
        dt=dt, t_start=states1.t_start, t_end=states2.t_end, ego=ego_comb, agents=agents_comb
    )
    sample = SimSample(
        scenario_id=scenario.id,
        round=round_idx,
        expert_kind=expert_kind,
        perturbed_history=Trajectory(dt=dt, states=states1.ego, frame=FRAME_GLOBAL),
        expert_future=executed2,
        states=states_comb,
        reward=RewardRecord(submetrics=sub2, epdms=epdms2, stage_scores=(epdms1, epdms2)),
        sensors=sensor_stub(states_comb, config.cameras),
        seed=sample_seed(config.master_seed, scenario.id, round_idx, cand.vocab_index),
        candidate_index=cand.vocab_index,
    )
    return sample, ""


def _simulate_batch(
    scenario: Scenario,
    draws: Sequence[tuple[PerturbationCandidate, int]],
    expert_kind: str,
    config: PipelineConfig,
    vocab: Vocabulary,
) -> list[tuple[SimSample | None, str]]:
    """(sample or None, reject reason) of each (candidate, round) drawn from one scenario."""
    cleared = cleared_status(config)
    # stage 1 is the rollout that cleared the screen; candidates that did not
    # come through this run's screen are screened here rather than trusted
    cands = screen_batch(
        [
            replace(c, status=STATUS_PENDING)
            if c.status == cleared and c.screen_states is None else c
            for c, _ in draws
        ],
        scenario,
        config,
    )
    results = [(None, c.reason or "reward") for c in cands]
    live = [i for i, c in enumerate(cands) if c.status == cleared]
    stage2 = expert_stage(scenario, [cands[i] for i in live], expert_kind, config, vocab)
    for i, (states2, sub2) in zip(live, stage2):
        results[i] = _sample(scenario, cands[i], draws[i][1], expert_kind, config, states2, sub2)
    return results


def simulate_sample(
    scenario: Scenario,
    cand: PerturbationCandidate,
    expert_kind: str,
    config: PipelineConfig,
    vocab: Vocabulary,
    round_idx: int = 0,
) -> SimSample | None:
    """Run the two-stage simulation for one candidate.

    Stage 1 reuses the screen's rollout of a cleared candidate; a candidate
    that this config's screen has not cleared is screened first. Returns None
    when the screen or the expert-stage filter rejects it.
    """
    (sample, _), = _simulate_batch(scenario, [(cand, round_idx)], expert_kind, config, vocab)
    return sample


# ---------------------------------------------------------------------------
# Corpus-level generation

_WORKER_STATE: dict = {}


def _worker_init(vocab: Vocabulary, config: PipelineConfig, rounds: int) -> None:
    _WORKER_STATE["vocab"] = vocab
    _WORKER_STATE["config"] = config
    _WORKER_STATE["rounds"] = rounds


def _round_draws(
    n_cleared: int, rounds: int, per_round: int | None, master_seed: int, scenario_id: str
) -> list[list[int]]:
    """Disjoint per-round index draws into the cleared-candidate list."""
    order = list(range(n_cleared))
    random.Random(mix64(master_seed, scenario_id, "round-draw")).shuffle(order)
    size = per_round if per_round is not None else math.ceil(n_cleared / rounds)
    return [order[r * size : (r + 1) * size] for r in range(rounds)]


def _process_scenario_impl(
    scenario: Scenario, vocab: Vocabulary, config: PipelineConfig, rounds: int
) -> list[tuple[int, int, SimSample | None, str]]:
    cands = prepare_candidates(scenario, vocab, config)
    cleared = [c for c in cands if c.status == cleared_status(config)]
    cleared.sort(key=lambda c: c.vocab_index)
    draws = _round_draws(
        len(cleared), rounds, config.per_round, config.master_seed, scenario.id
    )
    drawn = [(cleared[i], r) for r, indices in enumerate(draws) for i in sorted(indices)]
    outcomes = _simulate_batch(scenario, drawn, config.expert_kind, config, vocab)
    return [
        (r, cand.vocab_index, sample, reason)
        for (cand, r), (sample, reason) in zip(drawn, outcomes)
    ]


def _process_scenario(scenario: Scenario):
    return _process_scenario_impl(
        scenario, _WORKER_STATE["vocab"], _WORKER_STATE["config"], _WORKER_STATE["rounds"]
    )


def run_generation(
    corpus: Sequence[Scenario],
    config: PipelineConfig,
    rounds: int | None = None,
    vocab: Vocabulary | None = None,
    workers: int = 1,
) -> tuple[list[SimSample], list[RoundStats]]:
    """Generate a dataset over a corpus with disjoint per-round draws.

    No candidate is reused across rounds. Output ordering and content are
    independent of `workers`; the merge is done in (scenario id, round,
    candidate index) order and per-sample seeds depend only on identifiers.
    """
    if not corpus:
        raise ValidationError("corpus is empty")
    rounds = rounds if rounds is not None else config.rounds
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
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
    if workers <= 1:
        per_scenario = [_process_scenario_impl(s, vocab, config, rounds) for s in ordered]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(vocab, config, rounds)
        ) as pool:
            per_scenario = list(pool.map(_process_scenario, ordered))

    samples: list[SimSample] = []
    attempted = [0] * rounds
    accepted = [0] * rounds
    rejects = [{b: 0 for b in REJECT_BUCKETS} for _ in range(rounds)]
    for scenario_results in per_scenario:
        for r, _cand_idx, sample, reason in scenario_results:
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


def sample_to_dict(sample: SimSample) -> dict:
    return {
        "scenario_id": sample.scenario_id,
        "round": sample.round,
        "expert_kind": sample.expert_kind,
        "seed": sample.seed,
        "candidate_index": sample.candidate_index,
        "history": [_state_to_json(s) for s in sample.perturbed_history.states],
        "expert_future": [_state_to_json(s) for s in sample.expert_future.states],
        "agents_sim": [
            {"id": aid, "states": [_state_to_json(s) for s in track]}
            for aid, track in sorted(sample.states.agents.items())
        ],
        "reward": sample.reward.as_dict(),
        "sensors": {
            "cameras": [
                {
                    "id": cam.id,
                    "poses": [[p.x, p.y, p.theta] for p in cam.poses],
                    "intrinsics": dict(cam.intrinsics),
                }
                for cam in sample.sensors.cameras
            ]
        },
    }


def stats_csv_text(stats: Sequence[RoundStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "round",
            "expert_kind",
            "attempted",
            "accepted",
            "cumulative_accepted",
            "reject_collision",
            "reject_offroad",
            "reject_reward",
            "reject_kinematics",
        ]
    )
    for row in stats:
        writer.writerow(
            [
                row.round,
                row.expert_kind,
                row.attempted,
                row.accepted,
                row.cumulative_accepted,
                row.rejects.get("collision", 0),
                row.rejects.get("offroad", 0),
                row.rejects.get("reward", 0),
                row.rejects.get("kinematics", 0),
            ]
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

    Re-exporting the same inputs produces byte-identical files.
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
    lines = [dump_json_canonical(sample_to_dict(s)) for s in samples]
    dataset_path.write_text("".join(lines), encoding="utf-8")

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
