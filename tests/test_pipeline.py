import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import drivegen.batch
import drivegen.expert
import drivegen.pipeline
import drivegen.vocab
from drivegen.config import CameraConfig, PipelineConfig, config_hash
from drivegen.errors import ValidationError
from drivegen.expert import privileged_plan
from drivegen.metrics import aggregate_epdms
from drivegen.pipeline import (
    RoundStats,
    cleared_status,
    export_dataset,
    prepare_candidates,
    run_generation,
    sample_seed,
    sample_to_dict,
    sensor_stub,
    simulate_sample,
    stats_csv_text,
)
from drivegen.reactive import SceneStates
from drivegen.scenario import Trajectory
from drivegen.seeding import mix64
from drivegen.vocab import (
    STATUS_GRID_DROPPED,
    STATUS_PENDING,
    STATUS_THRESHOLD_REJECTED,
    PerturbationCandidate,
    enumerate_perturbations,
    grid_sparsify,
    place_at_state,
)

from conftest import make_state
from oracle import oracle_rollout, oracle_submetrics


# --- sensor stub


def _scene_of(states_list):
    return SceneStates(
        dt=0.1, t_start=0, t_end=len(states_list) - 1, ego=tuple(states_list), agents={}
    )


def test_sensor_stub_identity_rig():
    states = _scene_of([make_state(x=3.0, y=4.0, theta=0.3)])
    track = sensor_stub(states, [CameraConfig("c", 0.0, 0.0, 0.0)])
    p = track.cameras[0].poses[0]
    assert (p.x, p.y, p.theta) == pytest.approx((3.0, 4.0, 0.3))


def test_sensor_stub_forward_offset():
    states = _scene_of([make_state(x=0.0, y=0.0, theta=0.0)])
    track = sensor_stub(states, [CameraConfig("c", 2.0, 0.0, 0.0)])
    p = track.cameras[0].poses[0]
    assert (p.x, p.y) == pytest.approx((2.0, 0.0))


def test_sensor_stub_rotation_composition():
    # oracle: R(90 deg) @ [2, 0] = [0, 2]
    states = _scene_of([make_state(x=0.0, y=0.0, theta=math.pi / 2)])
    track = sensor_stub(states, [CameraConfig("c", 2.0, 0.0, 0.1)])
    p = track.cameras[0].poses[0]
    assert (p.x, p.y) == pytest.approx((0.0, 2.0), abs=1e-12)
    assert p.theta == pytest.approx(math.pi / 2 + 0.1)


def test_sensor_stub_empty_rig_rejected():
    with pytest.raises(ValidationError):
        sensor_stub(_scene_of([make_state()]), [])


# --- single samples


@pytest.fixture(scope="module")
def prepared(small_corpus, small_vocab, small_config):
    corpus = small_corpus
    by_scenario = {}
    for s in corpus:
        cands = prepare_candidates(s, small_vocab, small_config)
        by_scenario[s.id] = [
            c for c in cands if c.status == cleared_status(small_config)
        ]
    return by_scenario


def test_simulate_sample_identity_recovery_endpoint(small_corpus, small_vocab, small_config):
    """Identity-like perturbation: the recovery expert ends near the log end."""
    s = small_corpus[0]
    anchor = s.anchor_frame
    logged = s.ego_log.segment(anchor, anchor + s.t_horizon)
    cand = PerturbationCandidate(
        trajectory=logged, offsets=(0.0, 0.0, 0.0), status=STATUS_PENDING, vocab_index=9999
    )
    sample = simulate_sample(s, cand, "recovery", small_config, small_vocab)
    assert sample is not None
    end = sample.expert_future.states[-1].pose
    log_end = s.ego_log[anchor + 2 * s.t_horizon].pose
    dist = math.hypot(end.x - log_end.x, end.y - log_end.y)
    assert dist < 2.0


def test_simulate_sample_rejects_uncleared_collision_candidate(small_corpus, small_vocab, small_config):
    from drivegen.scenario import AgentTrack, Scenario

    s = small_corpus[0]
    anchor = s.anchor_frame
    hit_x = s.ego_log[anchor + 20].pose.x
    blocker = AgentTrack(
        id="wall", length=4.5, width=1.9, kind="static",
        states=tuple(make_state(x=hit_x, v=0.0) for _ in range(s.frame_count)),
    )
    s2 = Scenario(
        id="crash2", map=s.map, ego_log=s.ego_log, agents=(blocker,),
        t_history=s.t_history, t_horizon=s.t_horizon,
    )
    cand = PerturbationCandidate(
        trajectory=s2.ego_log.segment(anchor, anchor + s2.t_horizon),
        offsets=(0.0, 0.0, 0.0),
        status=STATUS_PENDING,
        vocab_index=1,
    )
    assert simulate_sample(s2, cand, "recovery", small_config, small_vocab) is None


def test_simulate_sample_deterministic(small_corpus, small_vocab, small_config, prepared):
    s = small_corpus[0]
    cleared = prepared[s.id]
    if not cleared:
        pytest.skip("no cleared candidate on this template")
    a = simulate_sample(s, cleared[0], "recovery", small_config, small_vocab, round_idx=2)
    b = simulate_sample(s, cleared[0], "recovery", small_config, small_vocab, round_idx=2)
    assert (a is None) == (b is None)
    if a is not None:
        assert sample_to_dict(a) == sample_to_dict(b)
        assert a == b


def test_sample_continuity_and_safety(small_corpus, small_vocab, small_config, prepared):
    checked = 0
    for s in small_corpus:
        for cand in prepared[s.id][:3]:
            sample = simulate_sample(s, cand, "recovery", small_config, small_vocab)
            if sample is None:
                continue
            checked += 1
            a = sample.perturbed_history.states[-1]
            b = sample.expert_future.states[0]
            assert math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y) < 0.05
            assert abs(a.pose.theta - b.pose.theta) < 0.02
            sub = sample.reward.submetrics
            assert sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0
            assert sub.ep > small_config.expert_filter.ep_min
    assert checked > 0


def _spy(monkeypatch, module, name, record):
    """Wrap module.name so every call is recorded before it runs."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        record(args, kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_screen_simulates_the_configured_world(small_corpus, small_vocab, monkeypatch):
    """With a non-default ego and braking bound, the screen, the reactive
    agents and the planner all simulate the configured world."""
    config = PipelineConfig(
        vocab_size=256, vocab_source_count=2048, master_seed=11, ego_length=6.0, b_hard=2.0
    )
    ctx = config.sim_context
    ego_lengths = set()
    _spy(monkeypatch, drivegen.batch, "select_leaders",
         lambda args, kwargs: ego_lengths.add(args[1]["ego"][1]))

    checked = 0
    for s in (x for x in small_corpus if x.agents):
        anchor, H = s.anchor_frame, s.t_horizon
        history = s.ego_log.segment(0, anchor)
        for cand in prepare_candidates(s, small_vocab, config):
            if cand.status != cleared_status(config):
                continue
            states = oracle_rollout(s, cand.trajectory, anchor, H, "reactive", ctx)
            combined = Trajectory(dt=s.dt, states=history.states + states.ego[1:])
            sub = oracle_submetrics(states, s, combined, ctx)
            assert cand.screen_states == states
            assert cand.screen_submetrics == sub
            assert aggregate_epdms(sub, ctx.weights) >= config.perturb.epdms_min
            checked += 1
    assert checked > 0
    assert ego_lengths == {6.0}

    # the planner's batched rollout simulates the same world
    contexts = []
    _spy(monkeypatch, drivegen.expert, "rollout_batch",
         lambda args, kwargs: contexts.append(args[4]))
    ego_lengths.clear()
    s = next(x for x in small_corpus if x.agents)
    privileged_plan(s, s.anchor_frame, config.planner, ctx=ctx)
    assert contexts and all(c is ctx for c in contexts)
    assert ego_lengths == {6.0}


def test_only_grid_survivors_are_placed(small_corpus, small_vocab, small_config, monkeypatch):
    """The screen places each grid survivor once (the reactive check reuses
    that placement); threshold-rejected and grid-dropped entries never are."""
    placed = []
    _spy(monkeypatch, drivegen.vocab, "place_at_state", lambda args, kwargs: placed.append(args[0]))
    checked = 0
    for s in small_corpus:
        placed.clear()
        cands = prepare_candidates(s, small_vocab, small_config)
        unscreened = (STATUS_THRESHOLD_REJECTED, STATUS_GRID_DROPPED)
        survivors = [c for c in cands if c.status not in unscreened]
        assert Counter(map(id, placed)) == Counter(
            id(small_vocab.entries[c.vocab_index]) for c in survivors
        )
        assert all(c.trajectory is None for c in cands if c.status in unscreened)
        checked += len(survivors)
    assert checked > 0


def test_simulate_sample_places_a_raw_pending_candidate(small_corpus, small_vocab, small_config):
    """An unplaced grid survivor is placed by the screen inside simulate_sample
    and gives the same sample as its prepared, cleared counterpart."""
    s = small_corpus[0]
    raw = grid_sparsify(
        enumerate_perturbations(s, small_vocab, small_config.perturb),
        small_config.grid, mix64(small_config.master_seed, s.id),
    )
    by_index = {c.vocab_index: c for c in raw}
    cleared = [c for c in prepare_candidates(s, small_vocab, small_config)
               if c.status == cleared_status(small_config)]
    assert cleared
    cand = by_index[cleared[0].vocab_index]
    assert cand.status == STATUS_PENDING and cand.trajectory is None
    assert simulate_sample(s, cand, "recovery", small_config, small_vocab) == simulate_sample(
        s, cleared[0], "recovery", small_config, small_vocab
    )


def test_cleared_candidates_carry_the_placed_entry(corpus_100, small_vocab, small_config):
    config = replace(small_config, reactive=False)
    cleared = 0
    for s in corpus_100:
        anchor = s.ego_log[s.anchor_frame]
        for c in prepare_candidates(s, small_vocab, config):
            if c.status == cleared_status(config):
                assert c.trajectory == place_at_state(small_vocab.entries[c.vocab_index], anchor)
                cleared += 1
    assert cleared > 0


def test_stage1_is_the_screen_rollout(small_corpus, small_vocab, small_config, prepared, monkeypatch):
    """Accepted samples carry the screen's ego track and EPDMS as stage 1, and
    a cleared candidate costs one rollout (stage 2) and no second screen."""
    rollouts, screens = [], []
    _spy(monkeypatch, drivegen.pipeline, "rollout_batch", lambda a, k: rollouts.append(1))
    _spy(monkeypatch, drivegen.pipeline, "feasibility_filter_batch", lambda a, k: screens.append(1))
    checked = 0
    for s in small_corpus:
        for cand in prepared[s.id]:
            rollouts.clear()
            sample = simulate_sample(s, cand, "recovery", small_config, small_vocab)
            assert len(rollouts) == 1
            if sample is None:
                continue
            checked += 1
            assert sample.perturbed_history.states == cand.screen_states.ego
            assert sample.reward.stage_scores[0] == aggregate_epdms(
                cand.screen_submetrics, small_config.weights
            )
    assert checked > 0
    assert screens == []


def test_sample_seed_mixing_documented():
    a = sample_seed(1, "s", 0, 1)
    b = sample_seed(1, "s", 0, 2)
    c = sample_seed(2, "s", 0, 1)
    assert len({a, b, c}) == 3
    assert a == sample_seed(1, "s", 0, 1)  # stable
    assert 0 <= a < 2**64


# --- corpus generation


@pytest.fixture(scope="module")
def gen_run(small_corpus, small_vocab, small_config):
    config = replace(small_config, rounds=3, expert_kind="recovery")
    return config, run_generation(small_corpus, config, vocab=small_vocab)


def test_run_generation_round_monotonicity(gen_run):
    _, (samples, stats) = gen_run
    assert len(stats) == 3
    for a, b in zip(stats, stats[1:]):
        assert b.cumulative_accepted >= a.cumulative_accepted
    assert stats[-1].cumulative_accepted == len(samples)
    for st in stats:
        assert st.accepted <= st.attempted


def test_run_generation_round_disjointness(gen_run):
    _, (samples, _) = gen_run
    seen = set()
    for s in samples:
        key = (s.scenario_id, s.candidate_index)
        assert key not in seen  # no candidate reused across rounds
        seen.add(key)


def test_run_generation_deterministic_and_worker_independent(
    small_corpus, small_vocab, small_config, gen_run, tmp_path
):
    config, (samples1, stats1) = gen_run
    samples2, stats2 = run_generation(small_corpus, config, vocab=small_vocab, workers=2)
    ids = [s.id for s in small_corpus]
    f1 = export_dataset(samples1, tmp_path / "a", stats1, config, ids)
    f2 = export_dataset(samples2, tmp_path / "b", stats2, config, ids)
    for a, b in zip(f1, f2):
        assert Path(a).read_bytes() == Path(b).read_bytes()


def test_run_generation_empty_corpus(small_config):
    with pytest.raises(ValidationError):
        run_generation([], small_config)


def test_run_generation_duplicate_ids(small_corpus, small_config, small_vocab):
    with pytest.raises(ValidationError):
        run_generation([small_corpus[0], small_corpus[0]], small_config, vocab=small_vocab)


# --- export


def test_export_empty_dataset(tmp_path, small_config):
    files = export_dataset([], tmp_path / "empty", [], small_config, [])
    dataset, stats, manifest = files
    assert dataset.read_text() == ""
    assert "round,expert_kind" in stats.read_text()
    m = json.loads(manifest.read_text())
    assert m["config_hash"] == config_hash(small_config)
    assert m["corpus_ids"] == []


def test_export_single_sample_schema(gen_run, tmp_path, small_corpus):
    config, (samples, stats) = gen_run
    assert samples, "expected at least one sample from the small corpus"
    files = export_dataset(samples[:1], tmp_path / "one", stats, config, [])
    lines = files[0].read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert set(rec.keys()) == {
        "scenario_id", "round", "expert_kind", "seed", "candidate_index",
        "history", "expert_future", "agents_sim", "reward", "sensors",
    }
    assert set(rec["reward"].keys()) == {"submetrics", "epdms", "stage_scores"}
    assert {c["id"] for c in rec["sensors"]["cameras"]} == {"cam_f0", "cam_l0", "cam_r0"}
    n_hist = len(rec["history"])
    n_fut = len(rec["expert_future"])
    s = next(x for x in small_corpus if x.id == rec["scenario_id"])
    assert n_hist == s.t_horizon + 1
    assert n_fut == s.t_horizon + 1
    for cam in rec["sensors"]["cameras"]:
        assert len(cam["poses"]) == 2 * s.t_horizon + 1


def test_export_reexport_identical(gen_run, tmp_path, small_corpus):
    config, (samples, stats) = gen_run
    ids = [s.id for s in small_corpus]
    f1 = export_dataset(samples, tmp_path / "r1", stats, config, ids)
    f2 = export_dataset(samples, tmp_path / "r2", stats, config, ids)
    for a, b in zip(f1, f2):
        assert a.read_bytes() == b.read_bytes()


def test_stats_csv_columns():
    text = stats_csv_text(
        [RoundStats(0, "recovery", 10, 7, 7, {"collision": 1, "offroad": 1, "reward": 1, "kinematics": 0})]
    )
    header, row = text.splitlines()
    assert header == (
        "round,expert_kind,attempted,accepted,cumulative_accepted,"
        "reject_collision,reject_offroad,reject_reward,reject_kinematics"
    )
    assert row == "0,recovery,10,7,7,1,1,1,0"


def test_nonreactive_mode_runs(small_corpus, small_vocab, small_config):
    config = replace(small_config, reactive=False, rounds=1, expert_kind="recovery")
    samples, stats = run_generation(small_corpus[:2], config, vocab=small_vocab)
    assert stats[0].attempted >= 0
    for s in samples:
        assert s.reward.submetrics.nc == 1.0
