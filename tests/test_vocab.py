import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from drivegen import vocab as vocab_module
from drivegen.errors import SchemaError, ValidationError
from drivegen.geometry import angle_diff, global_to_local
from drivegen.reactive import StateBatch
from drivegen.scenario import AgentTrack, Scenario, Trajectory
from drivegen.seeding import mix64
from drivegen.vocab import (
    STATUS_CLEARED_NONREACTIVE,
    STATUS_CLEARED_REACTIVE,
    STATUS_GRID_DROPPED,
    STATUS_INFEASIBLE_NONREACTIVE,
    STATUS_PENDING,
    STATUS_THRESHOLD_REJECTED,
    GridSpec,
    Maneuvers,
    PerturbThresholds,
    PerturbationCandidate,
    Vocabulary,
    build_vocabulary,
    enumerate_perturbations,
    feasibility_filter,
    grid_sparsify,
    load_vocabulary,
    place_at_state,
    save_vocabulary,
    synthesize_maneuvers,
)

from conftest import make_state, straight_trajectory
from oracle import (
    oracle_build_vocabulary,
    oracle_feasibility_filter,
    oracle_flatten,
    oracle_synthesize_maneuvers,
)


# --- clustering


def _shifted_trajectory(base_y, v=10.0, n=11):
    states = tuple(make_state(x=v * 0.1 * k, y=base_y, v=v) for k in range(n))
    return Trajectory(dt=0.1, states=states, frame="ego-local-at-start")


def test_build_vocabulary_degenerate_k_equals_n():
    samples = [_shifted_trajectory(y) for y in (0.0, 5.0, 10.0, 20.0)]
    vocab = build_vocabulary(samples, k=len(samples), seed=0)
    assert vocab.size == 4
    assert sorted(e.states[0].pose.y for e in vocab.entries) == [0.0, 5.0, 10.0, 20.0]


def test_build_vocabulary_two_separated_groups():
    group_a = [_shifted_trajectory(y) for y in (0.0, 0.2, 0.4)]
    group_b = [_shifted_trajectory(y) for y in (100.0, 100.2, 100.4)]
    vocab = build_vocabulary(group_a + group_b, k=2, seed=1)

    # oracle: brute-force nearest-center check on the authored groups
    ys = sorted(e.states[0].pose.y for e in vocab.entries)
    assert ys[0] < 1.0 and ys[1] > 99.0
    for sample in group_a + group_b:
        d = [
            sum(
                (a.pose.x - b.pose.x) ** 2 + (a.pose.y - b.pose.y) ** 2
                for a, b in zip(sample.states, e.states)
            )
            for e in vocab.entries
        ]
        nearest = vocab.entries[d.index(min(d))]
        same_group = (sample.states[0].pose.y < 1.0) == (nearest.states[0].pose.y < 1.0)
        assert same_group


def test_build_vocabulary_deterministic():
    samples = synthesize_maneuvers(64, horizon=10, dt=0.1, seed=5)
    a = build_vocabulary(samples, k=8, seed=9)
    b = build_vocabulary(samples, k=8, seed=9)
    assert a == b
    c = build_vocabulary(samples, k=8, seed=10)
    assert a != c or a.entries == c.entries  # different seed may still coincide


def test_build_vocabulary_errors():
    with pytest.raises(ValidationError):
        build_vocabulary([], k=1, seed=0)
    samples = [_shifted_trajectory(0.0)]
    with pytest.raises(ValidationError):
        build_vocabulary(samples, k=0, seed=0)
    with pytest.raises(ValidationError):
        build_vocabulary(samples, k=2, seed=0)


def test_synthesize_maneuvers_realizable():
    entries = synthesize_maneuvers(32, horizon=40, dt=0.1, seed=2)
    assert len(entries) == 32
    for e in entries:
        assert len(e) == 41
        assert e.states[0].pose.x == 0.0 and e.states[0].pose.y == 0.0
        for k in range(len(e) - 1):
            a, b = e.states[k], e.states[k + 1]
            d = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert abs(d / e.dt - a.vel_lon) <= 0.05


@pytest.mark.parametrize(
    "count, k, seed", [(2048, 256, 3), (512, 64, 0), (512, 64, 5), (512, 64, 11)]
)
def test_vocabulary_build_matches_scalar_oracle(count, k, seed, monkeypatch):
    """The batched bicycle, the array flatten, the in-place k-means and the
    pruned snap reproduce the one-maneuver-at-a-time build bit for bit, and
    only the k chosen rows become trajectories."""
    bank = synthesize_maneuvers(count, horizon=40, dt=0.1, seed=seed)
    scalar = oracle_synthesize_maneuvers(count, 40, 0.1, seed)
    assert bank.tracks.data.tobytes() == StateBatch.tracks([t.states for t in scalar]).data.tobytes()

    X = vocab_module._flatten(bank.tracks)
    assert X.tobytes() == np.stack([oracle_flatten(t) for t in scalar]).tobytes()

    nearest, centers, _ = oracle_build_vocabulary(scalar, k, seed)
    batched_centers = vocab_module._lloyd(X, k, seed)
    assert batched_centers.tobytes() == centers.tobytes()
    assert vocab_module._snap(X, batched_centers) == nearest

    reads = []
    row = Maneuvers.__getitem__
    monkeypatch.setattr(Maneuvers, "__getitem__", lambda self, i: reads.append(i) or row(self, i))
    vocab = build_vocabulary(bank, k, seed)
    assert reads == nearest
    assert vocab.entries == tuple(scalar[i] for i in nearest)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_empty_cluster_revive_matches_oracle(seed):
    """Six maneuvers twice over plus six others, clustered into 16: duplicate
    centers leave clusters empty. Each revive takes the farthest row under
    the assignment as it stands; the row leaves a later cluster, while an
    earlier cluster's mean keeps it."""
    samples = list(synthesize_maneuvers(6, horizon=10, dt=0.1, seed=seed)) * 2
    samples += synthesize_maneuvers(6, horizon=10, dt=0.1, seed=seed + 100)
    nearest, centers, revives = oracle_build_vocabulary(samples, 16, seed)
    assert revives > 0

    X = vocab_module._flatten(StateBatch.tracks([t.states for t in samples]))
    batched_centers = vocab_module._lloyd(X, 16, seed)
    assert batched_centers.tobytes() == centers.tobytes()
    assert vocab_module._snap(X, batched_centers) == nearest


@pytest.mark.parametrize("ys, winner", [((5.0, 1.0, -1.0, -5.0), 1), ((1.0, -1.0), 0), ((-1.0, 1.0), 0)])
def test_snap_tie_goes_to_lowest_index(ys, winner):
    """Rows at exactly equal distance from the one center: the lowest index
    wins, as `np.argmin` over all rows picks it."""
    samples = [_shifted_trajectory(y) for y in ys]
    vocab = build_vocabulary(samples, k=1, seed=0)
    assert vocab.entries[0] is samples[winner]
    assert oracle_build_vocabulary(samples, 1, 0)[0] == [winner]


def test_vocabulary_uniformity_enforced():
    with pytest.raises(ValidationError):
        Vocabulary(entries=(_shifted_trajectory(0.0, n=11), _shifted_trajectory(0.0, n=12)))


def test_vocabulary_save_load_roundtrip(tmp_path, small_vocab):
    path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.size == small_vocab.size
    assert loaded.entries == small_vocab.entries


@pytest.mark.parametrize(
    "item, named",
    [({"dt": "0.1", "states": []}, "vocabulary[0].dt"),
     ({"dt": 0.1, "states": {}}, "vocabulary[0].states"),
     ([0.1], "vocabulary[0]")],
)
def test_load_vocabulary_names_a_bad_field(tmp_path, item, named):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([item]))
    with pytest.raises(SchemaError, match=re.escape(named) + ":"):
        load_vocabulary(path)


# --- enumeration and thresholds


def test_enumerate_identity_perturbation_zero_offsets(benign_scenario, small_vocab):
    s = benign_scenario
    anchor_state = s.ego_log[s.anchor_frame]
    # vocabulary whose first entry reproduces the logged future exactly
    logged = s.ego_log.segment(s.anchor_frame, s.anchor_frame + s.t_horizon)
    from drivegen.geometry import global_to_local, angle_diff
    from drivegen.scenario import Pose2D, VehicleState

    local_states = []
    for st in logged.states:
        lx, ly = global_to_local(
            st.pose.x, st.pose.y, anchor_state.pose.x, anchor_state.pose.y, anchor_state.pose.theta
        )
        local_states.append(
            VehicleState(
                pose=Pose2D(lx, ly, angle_diff(st.pose.theta, anchor_state.pose.theta)),
                vel_lon=st.vel_lon, vel_lat=st.vel_lat, accel=st.accel, steering=st.steering,
            )
        )
    identity = Trajectory(dt=s.dt, states=tuple(local_states), frame="ego-local-at-start")
    vocab = Vocabulary(entries=(identity,) + small_vocab.entries[:3])

    cands = enumerate_perturbations(s, vocab, PerturbThresholds())
    lon, lat, dtheta = cands[0].offsets
    assert abs(lon) < 1e-9 and abs(lat) < 1e-9 and abs(dtheta) < 1e-9
    assert cands[0].status == STATUS_PENDING


def test_enumerate_heading_rejection(benign_scenario):
    # entry ending 25 degrees off the log heading: rejected with reason "heading"
    s = benign_scenario
    v = s.ego_log[s.anchor_frame].vel_lon
    n = s.t_horizon + 1
    theta_end = math.radians(25.0)
    states = []
    for k in range(n):
        u = k / (n - 1)
        states.append(make_state(x=v * 0.1 * k, y=0.0, theta=theta_end * u, v=v))
    # fix positions so the consistency is irrelevant here; only endpoints matter
    entry = Trajectory(dt=s.dt, states=tuple(states), frame="ego-local-at-start")
    cands = enumerate_perturbations(s, Vocabulary(entries=(entry,)), PerturbThresholds())
    assert cands[0].status == STATUS_THRESHOLD_REJECTED
    assert cands[0].reason == "heading"


def test_enumerate_in_range_offsets_pending(benign_scenario):
    s = benign_scenario
    v = s.ego_log[s.anchor_frame].vel_lon
    n = s.t_horizon + 1
    horizon_s = s.t_horizon * s.dt
    # entry ending (lon +10 m, lat +1.5 m, 5 degrees): inside all ranges
    extra_v = 10.0 / horizon_s
    states = [
        make_state(
            x=(v + extra_v) * s.dt * k,
            y=1.5 * (k / (n - 1)) ** 2,
            theta=math.radians(5.0) * k / (n - 1),
            v=v + extra_v,
        )
        for k in range(n)
    ]
    entry = Trajectory(dt=s.dt, states=tuple(states), frame="ego-local-at-start")
    cands = enumerate_perturbations(s, Vocabulary(entries=(entry,)), PerturbThresholds())
    assert cands[0].status == STATUS_PENDING
    lon, lat, dtheta = cands[0].offsets
    assert lon == pytest.approx(10.0, abs=0.5)
    assert lat == pytest.approx(1.5, abs=0.2)
    assert dtheta == pytest.approx(math.radians(5.0), abs=1e-6)


def test_enumerate_horizon_mismatch(benign_scenario):
    entry = straight_trajectory(10.0, benign_scenario.t_horizon + 5)
    vocab = Vocabulary(entries=(replace(entry, frame="ego-local-at-start"),))
    with pytest.raises(ValidationError):
        enumerate_perturbations(benign_scenario, vocab, PerturbThresholds())


def test_threshold_soundness_property(benign_scenario, small_vocab):
    th = PerturbThresholds()
    cands = enumerate_perturbations(benign_scenario, small_vocab, th)
    for c in cands:
        if c.status == STATUS_PENDING:
            lon, lat, dtheta = c.offsets
            assert abs(lon) <= th.r_lon
            assert abs(lat) <= th.r_lat
            assert abs(dtheta) <= th.dtheta_max


def test_threshold_monotonicity(benign_scenario, small_vocab):
    loose = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    tight = enumerate_perturbations(
        benign_scenario, small_vocab,
        PerturbThresholds(r_lon=10.0, r_lat=1.0, dtheta_max=math.radians(10.0)),
    )
    loose_ok = {c.vocab_index for c in loose if c.status == STATUS_PENDING}
    tight_ok = {c.vocab_index for c in tight if c.status == STATUS_PENDING}
    assert tight_ok <= loose_ok


def _placed_oracle(scenario, vocab, th):
    """Enumeration by the scalar oracle: place every entry at the anchor,
    then measure the last state of the placed trajectory."""
    anchor = scenario.ego_log[scenario.anchor_frame]
    ref = scenario.ego_log[scenario.anchor_frame + scenario.t_horizon].pose
    out = []
    for idx, entry in enumerate(vocab.entries):
        placed = place_at_state(entry, anchor)
        end = placed.states[-1].pose
        lon, lat = global_to_local(end.x, end.y, ref.x, ref.y, ref.theta)
        dtheta = angle_diff(end.theta, ref.theta)
        status, reason = STATUS_PENDING, ""
        if abs(lon) > th.r_lon:
            status, reason = STATUS_THRESHOLD_REJECTED, "lon"
        elif abs(lat) > th.r_lat:
            status, reason = STATUS_THRESHOLD_REJECTED, "lat"
        elif abs(dtheta) > th.dtheta_max:
            status, reason = STATUS_THRESHOLD_REJECTED, "heading"
        out.append(PerturbationCandidate(
            trajectory=placed, offsets=(lon, lat, dtheta), status=status,
            vocab_index=idx, reason=reason,
        ))
    return out


def test_endpoint_enumeration_matches_placed_oracle(corpus_100, small_vocab):
    """Offsets measured from the endpoint alone are bit-identical to the
    placed oracle's, so every threshold decision and grid cell is too."""
    th, g = PerturbThresholds(), GridSpec()
    pending = 0
    for s in corpus_100:
        seed = mix64(11, s.id)
        lazy = grid_sparsify(enumerate_perturbations(s, small_vocab, th), g, seed)
        oracle = grid_sparsify(_placed_oracle(s, small_vocab, th), g, seed)
        assert len(lazy) == len(oracle) == small_vocab.size
        for a, b in zip(lazy, oracle):
            assert [x.hex() for x in a.offsets] == [x.hex() for x in b.offsets]
            assert (a.vocab_index, a.status, a.reason, a.endpoint_cell) == (
                b.vocab_index, b.status, b.reason, b.endpoint_cell
            )
            assert a.trajectory is None and a.entry is small_vocab.entries[a.vocab_index]
            pending += a.status == STATUS_PENDING
    assert pending > 0


# --- grid sparsification


def _cand(lon, lat, idx, status=STATUS_PENDING):
    traj = straight_trajectory(5.0, 3)
    return PerturbationCandidate(
        trajectory=traj, offsets=(lon, lat, 0.0), status=status, vocab_index=idx
    )


def test_grid_empty_input():
    assert grid_sparsify([], GridSpec(), seed=0) == []


def test_grid_hand_binned_example():
    # oracle: floor(lon/5) puts {0,1,2} in cell 0 and {6} in cell 1
    cands = [_cand(lon, 0.0, i) for i, lon in enumerate((0.0, 1.0, 2.0, 6.0))]
    out = grid_sparsify(cands, GridSpec(step_lon=5.0, step_lat=0.5, interleave=False), seed=1)
    kept = [c for c in out if c.status == STATUS_PENDING]
    dropped = [c for c in out if c.status == STATUS_GRID_DROPPED]
    assert len(kept) == 2 and len(dropped) == 2
    cells = {c.endpoint_cell for c in kept}
    assert cells == {(0, 0), (1, 0)}
    assert any(c.vocab_index == 3 for c in kept)  # lone occupant always kept


def test_grid_idempotent_when_one_per_cell():
    cands = [_cand(5.0 * i + 1.0, 0.0, i) for i in range(4)]
    out = grid_sparsify(cands, GridSpec(interleave=False), seed=3)
    assert all(c.status == STATUS_PENDING for c in out)


def test_grid_interleave_shifts_odd_rows():
    g = GridSpec(step_lon=5.0, step_lat=0.5, interleave=True)
    # even lon row: no shift
    assert g.cell(1.0, 0.1) == (0, 0)
    # odd lon row: lat bins shift by half a step
    assert g.cell(6.0, 0.1) == (1, -1 + 1)[0:1] + (g.cell(6.0, 0.1)[1],)
    assert g.cell(6.0, 0.3)[1] == 0  # 0.3 - 0.25 -> bin 0
    assert g.cell(6.0, 0.1)[1] == -1  # 0.1 - 0.25 -> bin -1


def test_grid_exclusivity_property(benign_scenario, small_vocab):
    cands = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    out = grid_sparsify(cands, GridSpec(), seed=11)
    kept_cells = [c.endpoint_cell for c in out if c.status == STATUS_PENDING]
    assert len(kept_cells) == len(set(kept_cells))


def test_grid_choice_deterministic():
    cands = [_cand(1.0 + 0.1 * i, 0.0, i) for i in range(10)]
    a = grid_sparsify(cands, GridSpec(), seed=5)
    b = grid_sparsify(cands, GridSpec(), seed=5)
    assert a == b


# --- feasibility


def _pending_identity(scenario):
    anchor_state = scenario.ego_log[scenario.anchor_frame]
    logged = scenario.ego_log.segment(
        scenario.anchor_frame, scenario.anchor_frame + scenario.t_horizon
    )
    return PerturbationCandidate(
        trajectory=logged, offsets=(0.0, 0.0, 0.0), status=STATUS_PENDING, vocab_index=0
    )


def test_feasibility_identity_clears_both_passes(benign_scenario):
    c = _pending_identity(benign_scenario)
    c = feasibility_filter(c, benign_scenario, "nonreactive", 0.8)
    assert c.status == STATUS_CLEARED_NONREACTIVE, c.reason
    c = feasibility_filter(c, benign_scenario, "reactive", 0.8)
    assert c.status == STATUS_CLEARED_REACTIVE, c.reason


def test_feasibility_collision_detected(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    hit_x = s.ego_log[anchor + 20].pose.x
    blocker = AgentTrack(
        id="parked",
        length=4.5,
        width=1.9,
        kind="static",
        states=tuple(make_state(x=hit_x, v=0.0) for _ in range(s.frame_count)),
    )
    s2 = Scenario(
        id="blocked", map=s.map, ego_log=s.ego_log, agents=(blocker,),
        t_history=s.t_history, t_horizon=s.t_horizon,
    )
    c = feasibility_filter(_pending_identity(s2), s2, "nonreactive", 0.8)
    assert c.status == STATUS_INFEASIBLE_NONREACTIVE
    assert c.reason == "collision"


def test_feasibility_offroad_detected(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    v = s.ego_log[anchor].vel_lon
    n = s.t_horizon + 1
    start = s.ego_log[anchor]
    # veer steadily off the road: ends ~8 m laterally off a 2 m corridor
    states = []
    theta = math.radians(12.0)
    for k in range(n):
        states.append(
            make_state(
                x=start.pose.x + v * math.cos(theta) * s.dt * k,
                y=start.pose.y + v * math.sin(theta) * s.dt * k,
                theta=theta if k else start.pose.theta,
                v=v,
            )
        )
    cand = PerturbationCandidate(
        trajectory=Trajectory(dt=s.dt, states=tuple(states)),
        offsets=(0.0, 0.0, 0.0),
        status=STATUS_PENDING,
        vocab_index=0,
    )
    c = feasibility_filter(cand, s, "nonreactive", 0.8)
    assert c.status == STATUS_INFEASIBLE_NONREACTIVE
    assert c.reason == "off-road"


def test_feasibility_requires_correct_prior_status(benign_scenario):
    c = _pending_identity(benign_scenario)
    with pytest.raises(ValidationError):
        feasibility_filter(c, benign_scenario, "reactive", 0.8)  # not yet cleared
    cleared = feasibility_filter(c, benign_scenario, "nonreactive", 0.8)
    with pytest.raises(ValidationError):
        feasibility_filter(cleared, benign_scenario, "nonreactive", 0.8)


def test_feasibility_reward_threshold_monotone(benign_scenario, small_vocab):
    cands = enumerate_perturbations(benign_scenario, small_vocab, PerturbThresholds())
    pending = [c for c in cands if c.status == STATUS_PENDING]
    accepted_loose = {
        c.vocab_index
        for c in (feasibility_filter(c, benign_scenario, "nonreactive", 0.5) for c in pending)
        if c.status == STATUS_CLEARED_NONREACTIVE
    }
    accepted_tight = {
        c.vocab_index
        for c in (feasibility_filter(c, benign_scenario, "nonreactive", 0.9) for c in pending)
        if c.status == STATUS_CLEARED_NONREACTIVE
    }
    assert accepted_tight <= accepted_loose


def test_screen_decides_off_road_before_the_other_metrics(
    small_corpus, small_vocab, small_config, monkeypatch
):
    """An off-road grid survivor is rejected without computing the other
    sub-metrics; every reason and cleared score equals the scalar screen's
    (`oracle_feasibility_filter`)."""
    import drivegen.vocab

    scored = []  # rows scored by the screen's kernel call
    original = drivegen.vocab.submetrics_batch
    monkeypatch.setattr(
        drivegen.vocab, "submetrics_batch",
        lambda scene, *args, **kwargs: scored.append(scene.ego.x.shape[0])
        or original(scene, *args, **kwargs),
    )
    ctx = small_config.sim_context
    epdms_min = small_config.perturb.epdms_min
    reasons = []
    for s in small_corpus:
        cands = grid_sparsify(
            enumerate_perturbations(s, small_vocab, small_config.perturb),
            small_config.grid, small_config.master_seed,
        )
        for cand in (c for c in cands if c.status == STATUS_PENDING):
            for mode in ("nonreactive", "reactive"):
                scored.clear()
                expected = oracle_feasibility_filter(cand, s, mode, epdms_min, ctx)
                cand = feasibility_filter(cand, s, mode, epdms_min, ctx)
                reasons.append(cand.reason)
                assert cand.reason == expected.reason
                assert cand.screen_submetrics == expected.screen_submetrics
                assert sum(scored) == (0 if cand.reason in ("collision", "off-road") else 1)
                if cand.reason:
                    break
    assert "off-road" in reasons and "" in reasons
