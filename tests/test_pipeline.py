import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import drivegen.batch
import drivegen.expert
import drivegen.pipeline
import drivegen.vocab
from drivegen.config import CameraConfig, PipelineConfig, config_hash
from drivegen.errors import ValidationError
from drivegen.expert import privileged_plan
from drivegen.metrics import SubMetricVector, aggregate_epdms
from drivegen.pipeline import (
    RoundStats,
    _sample,
    expert_stage,
    export_dataset,
    prepare_candidates,
    run_generation,
    sample_seed,
    sample_to_dict,
    sensor_stub,
    stats_csv_text,
)
from drivegen.reactive import StateBatch
from drivegen.scenario import Trajectory
from drivegen.seeding import mix64
from drivegen.vocab import (
    STATUS_PENDING,
    Vocabulary,
    enumerate_perturbations,
    grid_sparsify,
    load_vocabulary,
    save_vocabulary,
)

from conftest import make_state, plan_entry, scene_bits, sub_bits
from oracle import (
    SceneStates, oracle_place_at_state, oracle_rollout, oracle_sensor_stub, oracle_submetrics,
)


# --- sensor stub


def test_sensor_stub_identity_rig():
    ego = StateBatch.track([make_state(x=3.0, y=4.0, theta=0.3)])
    poses = sensor_stub(ego, [CameraConfig("c", 0.0, 0.0, 0.0)])
    assert poses.shape == (1, 1, 3)
    assert poses[0, 0].tolist() == pytest.approx([3.0, 4.0, 0.3])


def test_sensor_stub_forward_offset():
    ego = StateBatch.track([make_state(x=0.0, y=0.0, theta=0.0)])
    x, y, _ = sensor_stub(ego, [CameraConfig("c", 2.0, 0.0, 0.0)])[0, 0].tolist()
    assert (x, y) == pytest.approx((2.0, 0.0))


def test_sensor_stub_rotation_composition():
    # oracle: R(90 deg) @ [2, 0] = [0, 2]
    ego = StateBatch.track([make_state(x=0.0, y=0.0, theta=math.pi / 2)])
    x, y, theta = sensor_stub(ego, [CameraConfig("c", 2.0, 0.0, 0.1)])[0, 0].tolist()
    assert (x, y) == pytest.approx((0.0, 2.0), abs=1e-12)
    assert theta == pytest.approx(math.pi / 2 + 0.1)


def test_sensor_stub_empty_rig_rejected():
    with pytest.raises(ValidationError):
        sensor_stub(StateBatch.track([make_state()]), [])


def _pose_bits(poses):
    return [[[v.hex() for v in pose] for pose in track] for track in poses]


def _sample_ego(sample):
    """The states of a sample's combined ego track: stage 1, then stage 2 after the handoff."""
    return SceneStates.of(sample.stage1).ego + SceneStates.of(sample.stage2).ego[1:]


@pytest.mark.parametrize("expert", ["recovery", "planner"])
def test_sensor_stub_matches_the_scalar_loop(small_corpus, small_vocab, small_config, expert):
    """The camera poses of every sample of a generation equal the scalar
    loop's bit for bit, for the configured rig and for a rig whose offsets
    are all nonzero and whose yaws carry headings across +-pi."""
    config = replace(small_config, expert_kind=expert, rounds=1)
    samples, _ = run_generation(small_corpus, config, vocab=small_vocab)
    assert samples
    rig = [CameraConfig("rear", -2.1, 0.4, math.pi), CameraConfig("rear-left", 1.3, -0.7, -3.1)]
    crossed = set()
    for sample in samples:
        ego = _sample_ego(sample)
        assert sample.sensors.shape == (len(config.cameras), len(ego), 3)
        assert _pose_bits(sample.sensors.tolist()) == _pose_bits(
            oracle_sensor_stub(ego, config.cameras)
        )
        got = sensor_stub(StateBatch.track(ego), rig)
        assert _pose_bits(got.tolist()) == _pose_bits(oracle_sensor_stub(ego, rig))
        for cam in rig:
            crossed.update(
                math.copysign(1.0, cam.dyaw) for s in ego if abs(s.pose.theta + cam.dyaw) > math.pi
            )
    assert crossed == {1.0, -1.0}


# --- single samples


@pytest.fixture(scope="module")
def prepared(small_corpus, small_vocab, small_config):
    """Each scenario's `prepare_candidates` result: the vocabulary indices,
    scene and sub-metrics of the rows that clear the screen."""
    return {s.id: prepare_candidates(s, small_vocab, small_config) for s in small_corpus}


def _simulate(scenario, screened, j, config, vocab, round_idx=0):
    """A generate run's draw-to-sample step on row j of a screen's result:
    its stage 2, then the expert filter; the accepted sample or None."""
    index, scene, sub = screened
    stage1 = scene.take([j])
    stage2, sub2 = expert_stage(scenario, stage1, config, vocab)
    return _sample(scenario, int(index[j]), round_idx, config, stage1, sub[j], stage2, sub2[0])[0]


def test_simulate_sample_identity_recovery_endpoint(small_corpus, small_vocab, small_config):
    """Identity-like perturbation: the logged window, screened as the one
    entry of a vocabulary, clears, and the recovery expert ends near the
    log end."""
    s = small_corpus[0]
    anchor = s.anchor_frame
    logged = s.ego_log.segment(anchor, anchor + s.t_horizon)
    identity = Vocabulary(s.dt, StateBatch(plan_entry(s, logged)[:, None]))
    screened = prepare_candidates(s, identity, small_config)
    assert screened[0].tolist() == [0]
    sample = _simulate(s, screened, 0, small_config, small_vocab)
    assert sample is not None
    end_x, end_y = sample.stage2.ego.data[:2, 0, -1].tolist()
    log_end = s.ego_log[anchor + 2 * s.t_horizon].pose
    dist = math.hypot(end_x - log_end.x, end_y - log_end.y)
    assert dist < 2.0


def test_simulate_sample_deterministic(small_corpus, small_vocab, small_config, prepared):
    s = small_corpus[0]
    screened = prepared[s.id]
    if not len(screened[0]):
        pytest.skip("no cleared candidate on this template")
    a = _simulate(s, screened, 0, small_config, small_vocab, round_idx=2)
    b = _simulate(s, screened, 0, small_config, small_vocab, round_idx=2)
    assert (a is None) == (b is None)
    if a is not None:
        cameras = small_config.cameras
        assert sample_to_dict(a, cameras) == sample_to_dict(b, cameras)
        assert a == b


def test_sample_continuity_and_safety(small_corpus, small_vocab, small_config, prepared):
    checked = 0
    for s in small_corpus:
        for j in range(len(prepared[s.id][0]))[:3]:
            sample = _simulate(s, prepared[s.id], j, small_config, small_vocab)
            if sample is None:
                continue
            checked += 1
            a = SceneStates.of(sample.stage1).ego[-1]
            b = SceneStates.of(sample.stage2).ego[0]
            assert math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y) < 0.05
            assert abs(a.pose.theta - b.pose.theta) < 0.02
            sub = sample.reward.submetrics
            assert sub.nc == sub.dac == sub.ddc == sub.tlc == 1.0
            assert sub.ep > small_config.expert_filter.ep_min
    assert checked > 0


def test_sample_requires_stage2_to_start_where_stage1_ended(gen_run):
    """A sample's stage 2 starts at stage 1's last state: exactly in a run,
    and a stage 2 starting 0.1 m off it is refused."""
    _, (samples, _) = gen_run
    sample = samples[0]
    assert (sample.stage2.ego.data[:, 0, 0].tobytes()
            == sample.stage1.ego.data[:, 0, -1].tobytes())
    assert replace(sample, stage2=sample.stage2).stage2 is sample.stage2
    off = sample.stage2.ego.data.copy()
    off[1] += 0.1
    shifted = replace(sample.stage2, ego=StateBatch(off))
    with pytest.raises(ValidationError, match="not contiguous at the handoff frame"):
        replace(sample, stage2=shifted)


def _spy(monkeypatch, module, name, record):
    """Wrap module.name so every call is recorded before it runs."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        record(args, kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def _grid_survivors(scenario, vocab, config):
    """The vocabulary indices of a scenario's grid survivors, in index order."""
    cands = grid_sparsify(
        enumerate_perturbations(scenario, vocab, config.perturb),
        config.grid, mix64(config.master_seed, scenario.id),
    )
    return [c.vocab_index for c in cands if c.status == STATUS_PENDING]


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
        index, scene, screen_sub = prepare_candidates(s, small_vocab, config)
        for j, i in enumerate(index.tolist()):
            plan = oracle_place_at_state(small_vocab.entries[i], s.ego_log[anchor])
            states = oracle_rollout(s, plan, anchor, H, "reactive", ctx)
            combined = Trajectory(dt=s.dt, states=history.states + states.ego[1:])
            sub = oracle_submetrics(states, s, combined, ctx)
            assert scene_bits(scene.take([j])) == scene_bits(states)
            assert sub_bits(screen_sub[j]) == sub_bits(sub)
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
    """Enumeration places every entry's endpoint only. The screen then places
    the bank rows of every grid survivor in one call, for the non-reactive
    check; the reactive check places nothing, as it reuses the non-reactive
    check's ego track. Threshold-rejected and grid-dropped entries are never
    placed whole."""
    placed = []
    for module in (drivegen.vocab, drivegen.pipeline):
        _spy(monkeypatch, module, "place_tracks", lambda args, kwargs: placed.append(args[0]))
    agents_only = []
    _spy(monkeypatch, drivegen.pipeline, "rollout_agents", lambda a, k: agents_only.append(1))
    checked = 0
    for s in small_corpus:
        survivors = _grid_survivors(s, small_vocab, small_config)
        placed.clear()
        prepare_candidates(s, small_vocab, small_config)
        assert [p.tobytes() for p in placed] == [
            small_vocab.tracks.data[:, :, -1:].tobytes(),
            small_vocab.tracks.data[:, survivors].tobytes(),
        ]
        checked += len(survivors)
    assert checked > 0 and len(agents_only) == len(small_corpus)


def test_each_screened_plan_is_tracked_once(small_corpus, small_vocab, small_config, monkeypatch):
    """A reactive recovery run calls the ego tracker twice per scenario: the
    screen tracks every grid survivor, and its reactive check steps the
    agents against the cleared rows of that track; stage 2 then tracks every
    drawn row (none is a normal case: zero rows are tracked)."""
    tracked, expected, current = [], {}, []
    _spy(monkeypatch, drivegen.batch, "_lqr_track_batch",
         lambda a, k: tracked.append((current[-1], a[0].x.shape[0])))
    process = drivegen.pipeline._process_scenario_impl
    config = replace(small_config, expert_kind="recovery", reactive=True)

    def processed(scenario, *args):
        current.append(scenario.id)
        results = process(scenario, *args)
        expected[scenario.id] = [len(_grid_survivors(scenario, small_vocab, config)), len(results)]
        return results

    monkeypatch.setattr(drivegen.pipeline, "_process_scenario_impl", processed)
    run_generation(small_corpus, config, vocab=small_vocab)
    assert any(drawn for _, drawn in expected.values())
    for s in small_corpus:
        assert [rows for sid, rows in tracked if sid == s.id] == expected[s.id], s.id


def test_each_check_keeps_the_rows_it_clears(
    small_corpus, small_vocab, small_config, monkeypatch
):
    """In a reactive run the non-reactive check's cleared ego rows are the
    reactive check's ego rows, byte for byte, and the screen returns the
    rows of the reactive check's scene that it clears, with their
    sub-metrics, bit for bit."""
    calls = []
    for name in ("rollout_batch", "rollout_agents", "screen_verdicts"):
        def recorded(*args, _real=getattr(drivegen.pipeline, name), **kwargs):
            calls.append(_real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(drivegen.pipeline, name, recorded)
    config = replace(small_config, reactive=True)
    kept = 0
    for s in small_corpus:
        calls.clear()
        index, scene, sub = prepare_candidates(s, small_vocab, config)
        nonreactive, (reasons1, _), agents, (reasons2, sub2) = calls
        cleared1 = np.flatnonzero(reasons1 == "")
        assert agents.ego.data.tobytes() == nonreactive.ego.data[:, cleared1].tobytes(), s.id
        cleared2 = np.flatnonzero(reasons2 == "")
        assert len(index) == len(cleared2)
        for j, row in enumerate(cleared2):
            assert scene_bits(scene.take([j])) == scene_bits(agents.take([row])), s.id
            assert sub_bits(sub[j]) == sub_bits(sub2[row]), s.id
        kept += len(index)
    assert kept > 0


def test_no_state_objects_between_the_vocabulary_file_and_the_screen(
    tmp_path, small_corpus, small_vocab, small_config, monkeypatch
):
    """From a loaded vocabulary file to the screen's first rollout, the
    candidate path stays in arrays: no state is parsed into a `VehicleState`
    and no bank row is unpacked into states."""
    path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab, path)
    calls = []
    _spy(monkeypatch, drivegen.vocab, "_state_from_json", lambda a, k: calls.append("parse"))
    _spy(monkeypatch, StateBatch, "states", lambda a, k: calls.append("states"))
    _spy(monkeypatch, drivegen.pipeline, "rollout_batch", lambda a, k: calls.append("rollout"))
    vocab = load_vocabulary(path)
    for s in small_corpus:
        calls.clear()
        prepare_candidates(s, vocab, small_config)
        assert calls and calls[0] == "rollout", (s.id, calls[:3])
        assert "parse" not in calls


def test_cleared_candidates_carry_the_placed_entry(
    corpus_100, small_vocab, small_config, monkeypatch
):
    """The screen's one rollout simulates the bank row of every grid
    survivor placed at the anchor, bit for bit as `oracle_place_at_state`
    places the entry, and the rows that clear keep their vocabulary index."""
    config = replace(small_config, reactive=False)
    plans = []
    _spy(monkeypatch, drivegen.pipeline, "rollout_batch",
         lambda args, kwargs: plans.append(args[1]))
    entries = list(small_vocab.entries)
    cleared = 0
    for s in corpus_100:
        plans.clear()
        anchor = s.ego_log[s.anchor_frame]
        index, _, _ = prepare_candidates(s, small_vocab, config)
        survivors = _grid_survivors(s, small_vocab, config)
        assert len(plans) == 1 and plans[0].data.shape[1] == len(survivors)
        for j, i in enumerate(survivors):
            want = StateBatch.track(oracle_place_at_state(entries[i], anchor).states)
            assert plans[0].data[:, j:j + 1].tobytes() == want.data.tobytes()
        kept = set(index.tolist())
        assert index.tolist() == [i for i in survivors if i in kept]
        cleared += len(kept)
    assert cleared > 0


def test_stage1_is_the_screen_rollout(small_corpus, small_vocab, small_config, prepared, monkeypatch):
    """Accepted samples carry the screen's ego track and EPDMS as stage 1, and
    a cleared row costs one rollout (stage 2) and no second screen."""
    rollouts, screens = [], []
    _spy(monkeypatch, drivegen.pipeline, "rollout_batch", lambda a, k: rollouts.append(1))
    _spy(monkeypatch, drivegen.pipeline, "screen_verdicts", lambda a, k: screens.append(1))
    checked = 0
    for s in small_corpus:
        index, scene, sub = prepared[s.id]
        for j in range(len(index)):
            rollouts.clear()
            sample = _simulate(s, prepared[s.id], j, small_config, small_vocab)
            assert len(rollouts) == 1
            if sample is None:
                continue
            checked += 1
            assert scene_bits(sample.stage1) == scene_bits(scene.take([j]))
            assert sample.reward.stage_scores[0] == aggregate_epdms(
                SubMetricVector(*sub[j].tolist()), small_config.weights
            )
    assert checked > 0
    assert screens == []


def test_each_scenario_is_screened_once_and_simulated_once(
    small_corpus, small_vocab, small_config, monkeypatch
):
    """A reactive recovery run screens each scenario in one non-reactive
    rollout of every grid survivor and one agents-only call on the rows it
    clears, each judged once, and simulates the stage 2 of all its drawn
    rows in one rollout."""
    calls = []
    _spy(monkeypatch, drivegen.pipeline, "rollout_batch",
         lambda a, k: calls.append((a[0].id, k["mode"])))
    _spy(monkeypatch, drivegen.pipeline, "rollout_agents",
         lambda a, k: calls.append((a[0].id, "agents " + k["mode"])))
    _spy(monkeypatch, drivegen.pipeline, "screen_verdicts",
         lambda a, k: calls.append((a[1].id, "verdicts")))
    config = replace(small_config, expert_kind="recovery", reactive=True)
    _, stats = run_generation(small_corpus, config, vocab=small_vocab)
    assert sum(st.attempted for st in stats) > 0
    for s in small_corpus:
        seen = [what for sid, what in calls if sid == s.id]
        assert seen == [
            "nonreactive", "verdicts", "agents reactive", "verdicts", "reactive"
        ], (s.id, seen)


class _InProcessPool:
    """A stand-in for `ProcessPoolExecutor` that records the pool size it is
    asked for and maps in this process."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_run_generation_caps_the_pool_at_the_scenario_count(
    small_corpus, small_vocab, small_config, monkeypatch
):
    """No more workers than scenarios are asked for, one scenario runs in
    this process, and the output does not depend on the worker count."""
    sizes = []
    monkeypatch.setattr(
        drivegen.pipeline, "ProcessPoolExecutor",
        lambda **kwargs: _InProcessPool(sizes, **kwargs),
    )
    monkeypatch.setattr(drivegen.pipeline, "_WORKER_STATE", {})
    config = replace(small_config, rounds=2)
    corpus = small_corpus[:3]

    def records(workers):
        samples, stats = run_generation(corpus, config, vocab=small_vocab, workers=workers)
        return [sample_to_dict(s, config.cameras) for s in samples], stats

    serial = records(1)
    for workers, pool in ((2, 2), (3, 3), (64, 3)):
        sizes.clear()
        assert records(workers) == serial
        assert sizes == [pool], workers
    sizes.clear()
    run_generation(corpus[:1], config, vocab=small_vocab, workers=64)
    assert sizes == []


@pytest.mark.parametrize("workers", [0, -1])
def test_run_generation_rejects_a_worker_count_below_one(
    small_corpus, small_vocab, small_config, workers
):
    with pytest.raises(ValidationError, match="workers must be >= 1"):
        run_generation(small_corpus, small_config, vocab=small_vocab, workers=workers)


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
