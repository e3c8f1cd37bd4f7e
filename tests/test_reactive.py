import math
import random
from dataclasses import replace

import numpy as np
import pytest

from drivegen.batch import rollout_batch, select_leaders
from drivegen.errors import RolloutError
from drivegen.metrics import ALL_METRICS, SimContext, any_contact, submetrics_batch
from drivegen.reactive import (
    DEFAULT_B_HARD,
    MODES,
    IdmParams,
    StateBatch,
    assign_lanes,
    idm_accel,
    rollout,
)
from drivegen.scenario import FRAME_EGO_LOCAL, Trajectory
from drivegen.synth import corpus_config_for_count, generate_synthetic_corpus
from drivegen.vocab import screen_verdicts

from conftest import make_state, scene_bits, shifted_plan, trajectory, with_fields
from oracle import SceneStates, oracle_idm_accel, oracle_rollout, state_of, states_of


# --- IDM closed form


def oracle_idm(v, v_des, delta, a_max, b_comf, s0, headway, v_lead=None, gap=None):
    """Independent evaluation of the car-following law."""
    a = a_max * (1.0 - (v / v_des) ** delta)
    if v_lead is not None:
        s_star = s0 + max(0.0, v * headway + v * (v - v_lead) / (2 * math.sqrt(a_max * b_comf)))
        a = a_max * (1.0 - (v / v_des) ** delta - (s_star / gap) ** 2)
    return a


def test_idm_free_flow_equilibrium_exact():
    p = IdmParams(v_desired=13.0)
    assert idm_accel(13.0, None, p, DEFAULT_B_HARD) == 0.0


def test_idm_standstill_free_road():
    p = IdmParams(a_max=1.5)
    assert idm_accel(0.0, None, p, DEFAULT_B_HARD) == 1.5


def test_idm_car_following_derived_value():
    p = IdmParams(v_desired=15.0, headway=1.5, s0=2.0, a_max=1.5, b_comf=2.0, delta=4.0)
    got = idm_accel(10.0, (8.0, 20.0), p, DEFAULT_B_HARD)
    expected = oracle_idm(10.0, 15.0, 4.0, 1.5, 2.0, 2.0, 1.5, v_lead=8.0, gap=20.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.7412, abs=1e-4)


def test_idm_clamped_to_hard_braking():
    p = IdmParams()
    assert idm_accel(10.0, (0.0, 0.5), p, b_hard=4.0) == -4.0


def _idm_bits(v, v_lead, gap, p, b_hard):
    """The array IDM of every row and the scalar oracle's, as hex; a row
    with an infinite gap goes to the oracle as a free road."""
    got = idm_accel(np.array(v), (np.array(v_lead), np.array(gap)), p, b_hard)
    want = [
        oracle_idm_accel(vi, None if gi == math.inf else (li, gi), p, b_hard)
        for vi, li, gi in zip(v, v_lead, gap)
    ]
    return [a.hex() for a in got.tolist()], [a.hex() for a in want]


def test_idm_rows_match_the_scalar_oracle():
    """One array IDM call equals the scalar oracle row by row, bit for bit:
    free roads (infinite gap, or no leader at all), leaders slower and
    faster, gaps down to the 0.01 m of overlapping bumpers, and both clamps."""
    rng = random.Random(31)
    n = 2000
    v = [rng.choice([0.0, rng.uniform(0.0, 20.0)]) for _ in range(n)]
    v_lead = [rng.uniform(0.0, 20.0) for _ in range(n)]
    gap = [rng.choice([math.inf, 0.01, rng.uniform(0.5, 120.0)]) for _ in range(n)]
    for p, b_hard in ((IdmParams(), 4.0), (IdmParams(v_desired=8.0, delta=3.0, s0=0.0), 2.0)):
        got, want = _idm_bits(v, v_lead, gap, p, b_hard)
        assert got == want
        assert {p.a_max.hex(), (-b_hard).hex()} <= set(got)
        free = idm_accel(np.array(v), None, p, b_hard)
        assert [a.hex() for a in free.tolist()] == [
            oracle_idm_accel(vi, None, p, b_hard).hex() for vi in v
        ]
    assert isinstance(idm_accel(10.0, (8.0, 20.0), IdmParams(), DEFAULT_B_HARD), float)


def test_idm_powers_round_as_python_pow():
    """Both IDM powers round as Python's `pow`, not as numpy's `x ** 2`,
    which differs from it in the last bit on some values and C math
    libraries (849.9627095213108 among them, on glibc x86-64). The speeds
    and the desired-gap-to-gap ratios here are such values: with v_desired,
    s0 and a gap of 1, headway 1 and a leader at the same speed, both
    powers take the speed itself as their base."""
    rng = random.Random(2)
    draw = np.array([rng.uniform(0.0, 1000.0) for _ in range(20000)])
    differ = [x for x, sq in zip(draw.tolist(), (draw ** 2).tolist()) if x ** 2 != sq]
    v = [849.9627095213108, *differ]
    p = IdmParams(v_desired=1.0, headway=1.0, s0=0.0, delta=2.0)
    for gap in (1.0, math.inf):
        got, want = _idm_bits(v, v, [gap] * len(v), p, math.inf)
        assert got == want


# --- leader selection


def select_leader(agent_id, scene, map_model):
    """One row of `batch.select_leaders` for an agent on its assigned lane:
    (leader speed, bumper-to-bumper gap) or None."""
    batch = {aid: (StateBatch.full(state, 1), length) for aid, (state, length) in scene.items()}
    own = batch[agent_id][0]
    lane = assign_lanes(own.x, own.y, map_model.lanes)
    _, found, v_lead, gap = select_leaders(agent_id, batch, map_model.lanes, lane)
    return (v_lead[0].item(), gap[0].item()) if found[0] else None


def _lead_scene(scenario_like, positions):
    """Scene snapshot on the first lane of a synthesized straight scenario."""
    return {
        name: (make_state(x=x, v=v), length)
        for name, (x, v, length) in positions.items()
    }


def test_select_leader_ego_ahead(benign_scenario):
    scene = _lead_scene(
        benign_scenario,
        {"a0": (0.0, 10.0, 4.5), "ego": (30.0, 10.0, 4.6)},
    )
    leader = select_leader("a0", scene, benign_scenario.map)
    assert leader is not None
    v_lead, gap = leader
    assert v_lead == pytest.approx(10.0)
    # oracle: arclength difference minus the two half lengths
    assert gap == pytest.approx(30.0 - 0.5 * 4.5 - 0.5 * 4.6, abs=1e-9)


def test_select_leader_empty_road(benign_scenario):
    scene = _lead_scene(benign_scenario, {"a0": (0.0, 10.0, 4.5)})
    assert select_leader("a0", scene, benign_scenario.map) is None


def test_select_leader_nearest_of_two(benign_scenario):
    scene = _lead_scene(
        benign_scenario,
        {"a0": (0.0, 10.0, 4.5), "b1": (10.0, 9.0, 4.0), "b2": (25.0, 8.0, 4.0)},
    )
    v_lead, gap = select_leader("a0", scene, benign_scenario.map)
    assert v_lead == pytest.approx(9.0)
    assert gap == pytest.approx(10.0 - 0.5 * 4.5 - 0.5 * 4.0)


def test_select_leader_ignores_other_lane(small_corpus):
    cutin = next(s for s in small_corpus if s.id.startswith("cut-in"))
    # entity far to the side sits outside the half-lane-width corridor
    scene = {
        "a0": (make_state(x=0.0, v=10.0), 4.5),
        "side": (make_state(x=20.0, y=3.5, v=10.0), 4.5),
    }
    assert select_leader("a0", scene, cutin.map) is None
    # the adjacent-lane vehicle is 3.5 m off lane 0's centerline, beyond 1.75 m
    lane0_scene = {
        "a0": (make_state(x=0.0, y=0.0, v=10.0), 4.5),
        "side": (make_state(x=20.0, y=3.0, v=10.0), 4.5),
    }
    assert select_leader("a0", lane0_scene, small_corpus[0].map) is None


def test_select_leader_overlapping_bumpers_force_braking(benign_scenario):
    # 3 m apart with 4.5 m and 4.6 m bodies: the bumpers overlap by 1.55 m
    scene = _lead_scene(benign_scenario, {"a0": (0.0, 10.0, 4.5), "ego": (3.0, 5.0, 4.6)})
    assert select_leader("a0", scene, benign_scenario.map) == (5.0, 0.01)


def test_select_leader_tie_goes_to_the_lower_id(benign_scenario):
    # two entities 20 m ahead: "b1" precedes "ego" in id order
    scene = _lead_scene(
        benign_scenario,
        {"a0": (0.0, 10.0, 4.5), "ego": (20.0, 6.0, 4.6), "b1": (20.0, 8.0, 4.0)},
    )
    assert select_leader("a0", scene, benign_scenario.map) == (8.0, 20.0 - 0.5 * 4.5 - 0.5 * 4.0)


# --- rollout


def _check_rollouts(corpus, mode):
    """`rollout` against `oracle_rollout` on every scenario of a corpus, as
    described below; returns the number of rollouts compared."""
    world = SimContext(ego_length=5.2, b_hard=3.0)
    compared = 0
    for s in corpus:
        t2 = s.anchor_frame + s.t_horizon
        perturbed = with_fields(s.ego_log[t2], v=0.9 * s.ego_log[t2][3], steering=0.01)
        agent_init = {a.id: with_fields(a.track[:, t2], v=1.1 * a.track[3, t2]) for a in s.agents}
        for t, ctx, starts in (
            (s.anchor_frame, None, {}),
            (t2, world, dict(ego_start=perturbed, agent_init=agent_init)),
        ):
            logged = s.ego_log.segment(t, t + s.t_horizon)
            for plan in (logged, shifted_plan(logged, 0.7, 0.9)):
                got = rollout(s, plan, t, s.t_horizon, mode, ctx, **starts)
                want = oracle_rollout(s, plan, t, s.t_horizon, mode, ctx, **starts)
                assert scene_bits(got) == scene_bits(want), (s.id, t)
                compared += 1
    return compared


@pytest.mark.parametrize("mode", MODES)
def test_rollout_matches_the_scalar_oracle(corpus_100, mode):
    """`rollout` (one row of the batched engine) equals `oracle_rollout` bit
    for bit on every scenario of the corpus: the logged plan and a plan
    shifted 0.7 m at 0.9x speed, at the anchor from the logged states in the
    default world and, as the second stage continues, from a perturbed ego
    and perturbed agents in a world with a 5.2 m ego and a 3 m/s^2 braking
    bound."""
    assert _check_rollouts(corpus_100, mode) == 4 * len(corpus_100)


def test_rollout_matches_the_scalar_oracle_with_several_agents(multi_agent_corpus):
    """The same on scenes with a slower lead, a follower, a parked car and a
    close neighbour, in reactive mode: agents choose among several leaders
    and keep their gaps to one another."""
    assert _check_rollouts(multi_agent_corpus, "reactive") == 4 * len(multi_agent_corpus)


@pytest.mark.parametrize("mode", ["reactive", "nonreactive"])
def test_zero_rows_are_simulated_and_judged(small_corpus, mode):
    """No plan is a normal case: a (7, 0, H + 1) plan batch comes back as
    the zero-row scene of the ego and of every agent, and the contact rule,
    the scoring kernel and the screen's verdicts return zero rows, on scenes
    with no agent and with one."""
    ctx = SimContext()
    for s in small_corpus:
        H, empty = s.t_horizon, (7, 0, s.t_horizon + 1)
        scene = rollout_batch(s, StateBatch(np.empty(empty)), s.anchor_frame, H, ctx, mode=mode)
        assert scene.ego.data.shape == empty
        assert {aid: t.data.shape for aid, t in scene.agents.items()} == {
            a.id: empty for a in s.agents
        }
        assert any_contact(scene, s, ctx).shape == (0,)
        assert submetrics_batch(scene, s, ctx).shape == (0, len(ALL_METRICS))
        reasons, sub = screen_verdicts(scene, s, 0.8, ctx)
        assert reasons.shape == (0,) and sub.shape == (0, len(ALL_METRICS))
    assert {len(s.agents) for s in small_corpus} == {0, 1}


def test_rollout_nonreactive_replay_identity(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    plan = s.ego_log.segment(anchor, anchor + s.t_horizon)
    states = SceneStates.of(rollout(s, plan, anchor, s.t_horizon, mode="nonreactive"))
    assert states.ego == states_of(plan.track)


def test_rollout_log_replay_mode(small_corpus):
    s = next(x for x in small_corpus if x.agents)
    anchor = s.anchor_frame
    plan = s.ego_log.segment(anchor, anchor + s.t_horizon)
    states = SceneStates.of(rollout(s, plan, anchor, s.t_horizon, mode="log-replay-ego"))
    assert states.ego == states_of(plan.track)
    for a in s.agents:
        assert states.agents[a.id] == states_of(a.track[:, anchor : anchor + s.t_horizon + 1])


def _check_follower_oracle(ctx, ego_length, b_hard):
    """Two-vehicle template: ego brakes to a stop, follower must slow down."""
    corpus = generate_synthetic_corpus(corpus_config_for_count(5), seed=3)
    s = next(x for x in corpus if x.id.startswith("lead"))
    # ego plan: hard but legal braking from the anchor state
    anchor = s.anchor_frame
    start = state_of(s.ego_log[anchor])
    dt, v = s.dt, start.vel_lon
    states = [start]
    x = start.pose.x
    for _ in range(s.t_horizon):
        a = -2.5 if v > 0 else 0.0
        x += dt * v
        v = max(0.0, v + dt * a)
        states.append(make_state(x=x, v=v))
    plan = trajectory(states, dt)

    # follower agent: behind the braking ego, same lane
    from drivegen.scenario import AgentTrack, Scenario

    follower_track = np.stack(
        [make_state(x=st.pose.x - 25.0, v=st.vel_lon) for st in states_of(s.ego_log.track)], axis=1
    )
    follower = AgentTrack(id="f00", length=4.5, width=1.9, kind="vehicle", track=follower_track)
    s2 = Scenario(
        id=s.id + "-f",
        map=s.map,
        ego_log=s.ego_log,
        agents=(follower,),
        t_history=s.t_history,
        t_horizon=s.t_horizon,
    )
    out = SceneStates.of(rollout(s2, plan, anchor, s2.t_horizon, mode="reactive", ctx=ctx))
    track = out.agents["f00"]
    assert track[-1].vel_lon < track[0].vel_lon  # follower decelerated

    # oracle: independent scripted euler integration of the same IDM law
    p = IdmParams()
    fv = track[0].vel_lon
    fx = track[0].pose.x
    oracle_v = [fv]
    for k in range(s2.t_horizon):
        ego_k = out.ego[k]
        gap = (ego_k.pose.x - fx) - 0.5 * 4.5 - 0.5 * ego_length
        a = oracle_idm(fv, p.v_desired, p.delta, p.a_max, p.b_comf, p.s0, p.headway,
                       v_lead=ego_k.vel_lon, gap=gap)
        a = max(-b_hard, min(p.a_max, a))
        fx += dt * fv
        fv = max(0.0, fv + dt * a)
        oracle_v.append(fv)
    got_v = [st.vel_lon for st in track]
    assert got_v == pytest.approx(oracle_v, abs=1e-6)
    return out


def test_rollout_reactive_follower_brakes():
    _check_follower_oracle(None, 4.6, 4.0)


def test_rollout_follower_sees_context_ego_and_braking_bound():
    """The follower's gap uses the context's ego length and its braking bound."""
    configured = _check_follower_oracle(SimContext(ego_length=6.0, b_hard=2.0), 6.0, 2.0)
    default = _check_follower_oracle(SimContext(), 4.6, 4.0)
    assert configured.agents["f00"] != default.agents["f00"]


def test_rollout_default_context_is_simcontext(small_corpus):
    s = next(x for x in small_corpus if x.agents)
    plan = s.ego_log.segment(s.anchor_frame, s.anchor_frame + s.t_horizon)
    a = rollout(s, plan, s.anchor_frame, s.t_horizon, "reactive")
    b = rollout(s, plan, s.anchor_frame, s.t_horizon, "reactive", SimContext())
    assert scene_bits(a) == scene_bits(b)


def test_rollout_deterministic(small_corpus, small_vocab):
    s = next(x for x in small_corpus if x.agents)
    anchor = s.anchor_frame
    plan = s.ego_log.segment(anchor, anchor + s.t_horizon)
    a = rollout(s, plan, anchor, s.t_horizon, mode="reactive")
    b = rollout(s, plan, anchor, s.t_horizon, mode="reactive")
    assert scene_bits(a) == scene_bits(b)


def test_rollout_idm_acceleration_bounded(small_corpus):
    for s in small_corpus:
        if not s.agents:
            continue
        anchor = s.anchor_frame
        plan = s.ego_log.segment(anchor, anchor + s.t_horizon)
        out = SceneStates.of(rollout(s, plan, anchor, s.t_horizon, mode="reactive"))
        p = IdmParams()
        for track in out.agents.values():
            for st in track:
                assert -4.0 - 1e-9 <= st.accel <= p.a_max + 1e-9


def test_rollout_reactivity_monotone():
    """Shorter ego stopping distance never leaves the follower a larger
    minimum gap (5-point sweep over the braking strength)."""
    corpus = generate_synthetic_corpus(corpus_config_for_count(5), seed=3)
    base = next(x for x in corpus if x.id.startswith("straight"))
    from drivegen.scenario import AgentTrack, Scenario

    follower_track = np.stack(
        [make_state(x=st.pose.x - 30.0, v=st.vel_lon) for st in states_of(base.ego_log.track)],
        axis=1,
    )
    s2 = Scenario(
        id="sweep",
        map=base.map,
        ego_log=base.ego_log,
        agents=(AgentTrack("f00", 4.5, 1.9, "vehicle", follower_track),),
        t_history=base.t_history,
        t_horizon=base.t_horizon,
    )
    anchor = s2.anchor_frame
    dt = s2.dt

    min_gaps = []
    for brake in (0.5, 1.0, 1.5, 2.0, 2.5):
        start = state_of(s2.ego_log[anchor])
        v, x = start.vel_lon, start.pose.x
        sts = [start]
        for _ in range(s2.t_horizon):
            x += dt * v
            v = max(0.0, v - dt * brake)
            sts.append(make_state(x=x, v=v))
        plan = trajectory(sts, dt)
        out = SceneStates.of(rollout(s2, plan, anchor, s2.t_horizon, "reactive"))
        gaps = [
            out.ego[k].pose.x - out.agents["f00"][k].pose.x for k in range(out.frame_count)
        ]
        min_gaps.append(min(gaps))
    # stronger braking (shorter stopping distance) => min gap non-increasing
    for a, b in zip(min_gaps, min_gaps[1:]):
        assert b <= a + 1e-9


def test_rollout_window_errors(benign_scenario):
    s = benign_scenario
    plan = s.ego_log.segment(0, s.t_horizon)
    with pytest.raises(RolloutError):
        rollout(s, plan, s.frame_count - 5, 10, "reactive")
    bad_plan = Trajectory(0.2, plan.track)
    with pytest.raises(RolloutError):
        rollout(s, bad_plan, 0, 10, "reactive")
    with pytest.raises(RolloutError):
        rollout(s, plan, 0, 10, "warp-drive")


def test_rollout_executes_only_global_plans(benign_scenario):
    s = benign_scenario
    anchor = s.anchor_frame
    local = replace(s.ego_log.segment(anchor, anchor + s.t_horizon), frame=FRAME_EGO_LOCAL)
    for mode in ("reactive", "nonreactive"):
        with pytest.raises(RolloutError, match=FRAME_EGO_LOCAL):
            rollout(s, local, anchor, s.t_horizon, mode)
    # the plan is not executed
    replayed = SceneStates.of(rollout(s, local, anchor, s.t_horizon, "log-replay-ego"))
    assert replayed.ego == states_of(local.track)


def test_scene_states_shape_validation():
    with pytest.raises(ValueError):
        SceneStates(dt=0.1, t_start=0, t_end=2, ego=(state_of(make_state()),), agents={})
